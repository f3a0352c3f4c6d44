"""Exception types shared across the package."""


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

    At q0 with q0^n = 1 for a degree n prime to m, epsilon_n vanishes; this
    is bad input, so the command line reports it as a usage error.
    """


class InternalCheckError(RuntimeError):
    """An invariant that the theory guarantees came out false.

    This always indicates a bug in the implementation, never bad input;
    computations abort with a diagnostic rather than return garbage.
    """


class VerificationError(Exception):
    """An identity check requested by the caller did not hold."""
