"""Generalized Newton identity: lowering counts, expansion coefficients, and
both sides.

The identity relates the raising series built from a creation sequence R to
products of generalized complete functions.  Everything here is generic over
the defining sequence d (with d_n specialized to q^n - 1 by the rest of the
package) so the identity can be exercised on arbitrary sequences as well.
The left-hand side is `symfunc.raising_sum` over the lowering table's slice
t = len(lam); `nl_brute` is the exhaustive walk the closed forms are checked against.
The right-hand side is linear in d: each d_{lam,mu} is sum_k w_k d_k with
weights counted once per (lam, mu), whatever the sequence.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Callable

from .errors import InternalCheckError
from .partitions import (
    Partition,
    _count_factorial,
    _split_counts,
    dominates,
    enumerate_partitions,
    lowerings,
)
from .scalars import Cyc, CycRat, ParamMode
from .symfunc import PExpr, p_multiply, q_to_p, qprod_to_p, r_to_p, raising_sum

__all__ = [
    "DSeq",
    "qpow_dseq",
    "nl_brute",
    "nl_closed",
    "nl_falling",
    "d_mu",
    "d_lambda_mu",
    "newton_lhs",
    "newton_rhs",
    "r_from_recursion",
]

# a defining sequence: n >= 1 -> scalar
DSeq = Callable[[int], Cyc | CycRat]


def qpow_dseq(mode: ParamMode) -> DSeq:
    """The sequence d_n = q^n - 1 driving the rest of the package."""
    return lambda n: mode.qpow(n) - 1


def nl_brute(lam: Partition, nu: Partition) -> int:
    """Count tuples (i_1..i_s), 1 <= i_j <= lam_j, whose positive leftovers
    lam_j - i_j form exactly nu (zeros discarded), by walking every tuple."""
    return _brute_counts(lam)[nu]


@lru_cache(maxsize=None)
def _brute_counts(lam: Partition) -> Counter[tuple[int, ...]]:
    # a Partition hashes and compares as its tuple, so nl_brute looks nu up
    return Counter(tuple(sorted((p - i for p, i in zip(lam, tup) if p > i), reverse=True))
                   for tup in product(*(range(1, p + 1) for p in lam)))


def _clamped_quotient(prod: int, nu_counts: dict[int, int], formula: str) -> int:
    if prod <= 0:
        return 0
    mf = _count_factorial(nu_counts)
    if prod % mf:
        nu = Partition(v for v, c in nu_counts.items() for _ in range(c))
        raise InternalCheckError(
            f"{formula} gave {prod}, not divisible by m(nu)! = {mf} "
            f"(nu={nu}); the closed form is broken"
        )
    return prod // mf


def nl_closed(lam: Partition, nu: Partition) -> int:
    """Multiplicity-product closed form for the lowering count.

    Product over part values i of nu and 1 <= k <= m_i(nu) of
    (1 - k + sum_{j > i} (m_j(lam) - m_j(nu))), divided by m(nu)!.
    A positive product must divide exactly; a non-positive product means
    the count is zero.
    """
    return _nl_closed_counts(lam, nu.multiplicities())


def _nl_closed_counts(lam: Partition, nu_counts: dict[int, int]) -> int:
    # `nl_closed` on the multiplicities of nu.  Both tail sums are running
    # counts: `above` parts of lam and `seen` parts of nu exceed i, as i walks
    # the values of nu down
    prod, above, seen = 1, 0, 0
    for i, mi in nu_counts.items():
        while above < len(lam) and lam[above] > i:
            above += 1
        for k in range(1, mi + 1):
            prod *= 1 - k + above - seen
        seen += mi
    return _clamped_quotient(prod, nu_counts, "multiplicity form")


def nl_falling(lam: Partition, nu: Partition) -> int:
    """Falling-product closed form: k_1 (k_2 - 1) ... (k_t - (t-1)) / m(nu)!,
    where k_i counts the parts of lam strictly above nu_i."""
    prod = 1
    for idx, v in enumerate(nu):
        prod *= sum(1 for p in lam if p > v) - idx
    return _clamped_quotient(prod, nu.multiplicities(), "falling form")


def _sign_scale(mu_counts: dict[int, int]) -> Fraction:
    # (-1)^{l-1} (l-1)!/m(mu)! from the multiplicities of mu, shared by d_mu
    # and the weights of d_lambda_mu
    l = sum(mu_counts.values())
    scale = Fraction(factorial(l - 1), _count_factorial(mu_counts))
    return -scale if (l - 1) % 2 else scale


def d_mu(mu: Partition, d: DSeq) -> Cyc | CycRat:
    """Expansion coefficient of the creation series over q-products:
    (-1)^{l-1} (l-1)!/m(mu)! * sum_k m_k(mu) d_k."""
    if not mu:
        raise ValueError("the coefficient is undefined for the empty partition")
    counts = mu.multiplicities()
    terms = [d(k) * mk for k, mk in counts.items()]
    return sum(terms[1:], terms[0]) * _sign_scale(counts)


@lru_cache(maxsize=None)
def _rhs_weights(lam: Partition, mu: Partition) -> tuple[tuple[int, Fraction], ...]:
    # the nonzero w_k with d_{lam,mu} = sum_k w_k d_k, in one walk over the
    # splits of mu into nu and rho = mu \ nu: each adds
    # N(lam, nu) * scale(rho) * m_k(rho).  N(lam, mu) = 0, as every i_j >= 1
    # lowers the weight, so only the proper splits count.  The walk hands
    # over the multiplicities of nu and rho, which is all these need.
    w: dict[int, Fraction] = {}
    for nu, rho in _split_counts(mu):
        count = _nl_closed_counts(lam, nu)
        if count:
            scale = count * _sign_scale(rho)
            for k, mk in rho.items():
                w[k] = w.get(k, 0) + scale * mk
    return tuple((k, v) for k, v in w.items() if v)


def d_lambda_mu(lam: Partition, mu: Partition, d: DSeq) -> Cyc | CycRat:
    """Coefficient of q_mu in the raising sum for lam: sum over proper
    sub-multisets nu of mu of N_l(lam, nu) * d_{mu \\ nu}, gathered by linearity
    into sum_k w_k d_k."""
    if not lam:
        raise ValueError("lam must be nonempty")
    if lam.weight != mu.weight:
        raise ValueError(f"weight mismatch: |{lam}| != |{mu}|")
    terms = [d(k) * w for k, w in _rhs_weights(lam, mu)]
    return sum(terms[1:], terms[0]) if terms else Cyc(d(1).m)


def newton_lhs(lam: Partition, mode: ParamMode, rs: list[PExpr] | None = None) -> PExpr:
    """Left-hand side of the generalized Newton identity.

    Sums R_{i_1+...+i_s} q_{lam_1-i_1} ... q_{lam_s-i_s} over all tuples with
    every i_j >= 1, in P: `raising_sum` over the entries of `lowerings(lam)`
    with t = len(lam).  `rs` overrides the creation sequence (index by total
    degree), by default `r_to_p`.
    """
    if not lam:
        raise ValueError("the identity is stated for nonempty partitions")
    return raising_sum(mode.m, ((k, nu, c) for (k, t, nu), c in lowerings(lam).items() if t == len(lam)),
                       (lambda k: r_to_p(k, mode)) if rs is None else rs.__getitem__)


def newton_rhs(lam: Partition, mode: ParamMode, d: DSeq) -> PExpr:
    """Right-hand side of the generalized Newton identity: the sum over mu
    dominating lam of d_{lam,mu} q_mu, in P.  The q-products are free of the
    parameters, so a degenerate evaluation point fails on the left-hand
    side alone, where the creation coefficients need q."""
    return PExpr.sum(mode.m, (qprod_to_p(mu, mode.m).scale(d_lambda_mu(lam, mu, d))
                              for mu in enumerate_partitions(lam.weight) if dominates(mu, lam)))


def r_from_recursion(nmax: int, d: DSeq, mode: ParamMode) -> list[PExpr]:
    """Rebuild the creation sequence for an arbitrary d from the convolution
    R_n = d_n q_n - sum_{i<n} R_i q_{n-i}; returns [R_0..R_nmax]."""
    rs = [PExpr.one(mode.m)]
    for n in range(1, nmax + 1):
        lower = (p_multiply(rs[i], q_to_p(n - i, mode.m)) for i in range(1, n))
        rs.append(q_to_p(n, mode.m).scale(d(n)) - PExpr.sum(mode.m, lower))
    return rs
