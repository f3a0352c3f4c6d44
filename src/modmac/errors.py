"""Exception types shared across the package, and the one failure rule: an
exception of `FAILURES` means a computation failed, not that an argument was
bad.  The command line reports one as a JSON failure (exit 1); a selfcheck
family that meets one anywhere makes it its fail report, and the rest run."""

__all__ = [
    "FAILURES",
    "PoleAtSpecialization",
    "EigenvalueCollisionAtEvaluation",
    "DegenerateEvaluationPoint",
    "InternalCheckError",
    "VerificationError",
]


class PoleAtSpecialization(ArithmeticError):
    """Substituting a parameter value hit a vanishing denominator.

    Raised instead of silently dropping the offending term, so callers can
    tell a genuine pole apart from an ordinary zero.
    """


class EigenvalueCollisionAtEvaluation(ValueError):
    """Two operator eigenvalues coincide at the chosen evaluation point.

    The eigenvalues are pairwise distinct as polynomials, but a numeric
    substitution can identify them; the fix is to evaluate elsewhere.
    """


class DegenerateEvaluationPoint(ValueError):
    """The evaluation point makes the scalar product degenerate.

    At q0 with q0^n = 1 for a degree n that m does not divide, epsilon_n
    vanishes; `epsilon` raises this wherever it is needed (a conversion to
    p, or R_k with k >= n).  Bad input: the command line's usage error.
    """


class InternalCheckError(RuntimeError):
    """An invariant that the theory guarantees came out false.

    This always indicates a bug in the implementation, never bad input;
    computations abort with a diagnostic rather than return garbage.
    """


class VerificationError(Exception):
    """An identity check requested by the caller did not hold; `extra` holds
    JSON fields that locate the failure, which a selfcheck report carries."""

    def __init__(self, message: str, extra: dict | None = None):
        super().__init__(message)
        self.extra = extra or {}


FAILURES = (VerificationError, InternalCheckError, EigenvalueCollisionAtEvaluation,
            PoleAtSpecialization)
