"""Distinguished eigenvectors of the vertex-operator zero mode.

Each m-reduced partition indexes a unique monic eigenvector supported on the
dominance-above part of the m-reduced q-basis.  The coefficients come from a
triangular recursion; the eigenvector property is re-verified through the
independent normal-ordered implementation before anything is returned.

The solve keeps the eigenvector cleared: N = sum (L c_mu) q_mu in P, with L
the monic lcm of the q-coordinates' denominators, so N has polynomial
coefficients.  Both checks on the eigenvectors are linear, so they run
exactly on N, and their sums take no gcd: the re-verification, and `gram`'s
orthogonality, with the pairing weights cleared into N by `symfunc.weigh`.
The p-form N_rho / (L eps_rho) is formed only where it is read.

The q -> 0 limit is taken on symbolically computed coefficients, never by
re-running the solve at q = 0: there the eigenvalues depend only on the
length mod m and collide, so the recursion's denominators vanish.  Each
coefficient's value at q = 0 is the quotient of the constant terms of its
coprime numerator and denominator; a zero denominator term is a pole.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InternalCheckError, PoleAtSpecialization
from .partitions import Partition, enumerate_partitions, z_of
from .scalars import Cyc, CycRat, ParamMode, clear_denominators, scalar_to_json
from .symfunc import PExpr, QExpr, coefficient_dot, p_multiply, to_p, weigh
from .vertex import x0_apply_diff, x0_matrix

__all__ = [
    "ModularMacdonald",
    "solve_q",
    "all_q",
    "gram",
    "specialize_q0",
    "schur_q_oracle",
]


class ModularMacdonald(NamedTuple):
    """A monic eigenvector of the zero mode, indexed by an m-reduced partition.

    q_coeffs holds the coordinates on the m-reduced q-basis, keyed by shape;
    the coefficient at the index is one and the support dominates the index.
    lcm is the monic lcm L of their denominators and cleared the eigenvector
    times L in P, whose coefficients are polynomials.
    """

    m: int
    shape: Partition
    mode: ParamMode
    q_coeffs: QExpr
    lcm: Cyc | CycRat
    cleared: PExpr
    eigenvalue: Cyc | CycRat

    @property
    def p_form(self) -> PExpr:
        """The eigenvector on the p basis, N_rho / (L eps_rho); formed on each read."""
        return to_p(self.cleared, self.mode).scale(self.lcm.inv())

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "lambda": self.shape.to_json(),
            "eigenvalue": scalar_to_json(self.eigenvalue),
            # the index first, then the shapes ascending in dominance
            "q_coeffs": [
                {"partition": lam.to_json(), "coeff": scalar_to_json(c)}
                for lam, c in reversed(self.q_coeffs.sorted_items())
            ],
            "p_form": self.p_form.to_json(),
        }


@lru_cache(maxsize=None)
def solve_q(lam: Partition, mode: ParamMode) -> ModularMacdonald:
    """Solve the triangular recursion for the eigenvector indexed by lam.

    Walking the shapes before lam in `x0_matrix`'s order upward from lam,
    the coordinate at nu is the sum of the known coordinates against the q_nu
    entries of their columns, divided by the eigenvalue gap, nonzero by
    `x0_matrix`'s check.  That check also puts each column's support on the
    shapes dominating its own, so every solved shape dominates lam, and a nu
    that does not has an empty sum and is skipped.  The eigenvalue and every
    gap are read with `coeff` off the checked diagonal: an eigenvalue that is
    zero at an evaluation point is absent from its column.  The result must
    be an exact eigenvector of the independent implementation of the operator.

    The recursion runs over one monic running denominator D, holding
    u_j = c_j D as polynomials: each sum of u_j against the matrix takes no
    gcd, and c_k = sum / (D gap) one cancelling gcd.  `clear_denominators`
    grows D to lcm(D, den c_k), and every u_j by the same factor.  At the
    end D is the lcm L of the denominators and the u_j are the cleared
    coordinates.
    In eval mode D stays 1.

    The check runs on the cleared form N = L * eigenvector in P: X0 is
    linear and L is nonzero, so X0 N = ev N exactly when X0 Q = ev Q.
    """
    m = mode.m
    if not lam.is_reduced(m):
        raise ValueError(f"{lam} is not m-reduced for m = {m}")
    if not lam:
        one = mode.one()
        return ModularMacdonald(m, lam, mode, QExpr._raw(m, {lam: one}), one, PExpr.one(m), one)
    mat = x0_matrix(lam.weight, mode)
    cols = dict(zip(mat.order, mat.columns))
    ev = cols[lam].coeff(lam)
    # c_nu and u_nu = c_nu * den, by shape
    den, coeffs, nums = mode.one(), {lam: mode.one()}, {lam: mode.one()}
    for nu in reversed(mat.order[:mat.order.index(lam)]):
        s = sum((u * cols[mu].terms[nu] for mu, u in nums.items() if nu in cols[mu].terms),
                mode.zero())
        if s.is_zero:
            continue
        c = s / ((ev - cols[nu].coeff(nu)) * den)
        den, (grow, u) = clear_denominators(m, [den.inv(), c])
        if grow != 1:
            nums = {mu: grow * v for mu, v in nums.items()}
        coeffs[nu], nums[nu] = c, u
    cleared = QExpr._raw(m, nums).to_p()
    if x0_apply_diff(cleared, mode) != cleared.scale(ev):
        raise InternalCheckError(
            f"solved coordinates for {lam} are not an eigenvector of the "
            f"normal-ordered implementation (m={m}, {mode.describe()})"
        )
    return ModularMacdonald(m, lam, mode, QExpr._raw(m, coeffs), den, cleared, ev)


def all_q(n: int, mode: ParamMode) -> list[ModularMacdonald]:
    """One eigenvector per m-reduced partition of n, greatest index first."""
    return [solve_q(lam, mode) for lam in x0_matrix(n, mode).order]


def gram(n: int, mode: ParamMode) -> list[Cyc | CycRat]:
    """The diagonal <Q_a, Q_a> of the weight-n eigenvectors' pairings, in
    `all_q` order, after checking that every off-diagonal pairing is zero.

    On the cleared forms: with (K_a, G_a) = weigh(N_a), once per vector,
    K_a L_a L_b <Q_a, Q_b> = coefficient_dot(N_b, G_a), a sum of polynomial
    products that takes no gcd and is zero exactly when <Q_a, Q_b> is; a
    diagonal entry is then divided by L_a^2 K_a.  The pairing is symmetric,
    so only a before b is paired: the first nonzero off-diagonal pairing in
    row-major order is reported.
    """
    qs = all_q(n, mode)
    out = []
    for i, a in enumerate(qs):
        scale, weighted = weigh(a.cleared, mode)
        out.append(coefficient_dot(a.cleared, weighted) / (a.lcm * a.lcm * scale))
        for b in qs[i + 1:]:
            v = coefficient_dot(b.cleared, weighted)
            if not v.is_zero:
                raise InternalCheckError(
                    f"Gram matrix is not diagonal: <Q_{a.shape}, Q_{b.shape}> = "
                    f"{v / (a.lcm * b.lcm * scale)} (m={mode.m}, {mode.describe()})"
                )
    return out


def specialize_q0(mac: ModularMacdonald) -> PExpr:
    """Substitute q = 0 into every coefficient of the p-basis form.

    Requires a symbolically solved eigenvector; the solve itself must not be
    re-run at q = 0 (the eigenvalues collide there).
    """
    if not mac.mode.is_symbolic:
        raise ValueError("specialization requires a symbolically solved eigenvector")
    terms = {}
    for lam, c in mac.p_form.terms.items():
        if isinstance(c, CycRat):
            # num(0) / den(0), where den(0) = 0 is a pole: num and den are coprime
            num0, den0 = c.num[0], c.den[0]
            if not den0:
                raise PoleAtSpecialization(f"coefficient of p_{lam} in Q_{mac.shape} has a pole at q = 0")
            c = num0 / den0
        terms[lam] = c
    return PExpr(mac.m, terms)


# ---------------------------------------------------------------------------
# classical Schur Q oracle (independent of everything above)


@lru_cache(maxsize=None)
def _classical_q(r: int) -> PExpr:
    # degree-r coefficient of exp(2 sum_{odd k} p_k z^k / k)
    if r == 0:
        return PExpr.one(2)
    terms = {}
    for rho in enumerate_partitions(r, "m_regular", 2):
        terms[rho] = Fraction(2**len(rho), z_of(rho))
    return PExpr(2, terms)


@lru_cache(maxsize=None)
def _classical_pair(a: int, b: int) -> PExpr:
    # two-row case: q_a q_b + 2 sum_{i=1}^{b} (-1)^i q_{a+i} q_{b-i}
    if b == 0:
        return _classical_q(a)
    terms = [p_multiply(_classical_q(a), _classical_q(b))]
    terms += (p_multiply(_classical_q(a + i), _classical_q(b - i)).scale(2 * (-1) ** i)
              for i in range(1, b + 1))
    return PExpr.sum(2, terms)


@lru_cache(maxsize=None)
def _pfaffian(values: tuple[int, ...]) -> PExpr:
    # even-length strictly decreasing sequence, possibly padded with a final 0
    if not values:
        return PExpr.one(2)
    head = values[0]
    terms = (p_multiply(_classical_pair(head, values[j]), _pfaffian(values[1:j] + values[j + 1:]))
             for j in range(1, len(values)))
    return PExpr.sum(2, (t if j % 2 == 1 else -t for j, t in enumerate(terms, 1)))


def schur_q_oracle(lam: Partition) -> PExpr:
    """Classical Schur Q-function of a strict partition, in the p basis.

    Built from the textbook generating function exp(2 sum_{odd} p_r z^r / r)
    and the Pfaffian reduction to two-row blocks; used as an external check
    for the q -> 0 specialization at m = 2.
    """
    lam = Partition(lam)
    if not lam.is_strict():
        raise ValueError(f"Schur Q-functions are indexed by strict partitions, got {lam}")
    return _pfaffian(lam + (0,) if len(lam) % 2 else lam)
