"""The degree-preserving zero mode of the vertex operator on the modular ring.

Two independent implementations are kept side by side: a raising-series sum
over the lowering table `partitions.lowerings` by `symfunc.raising_sum` (which
also gives the Newton left-hand side), and a normal-ordered product of a
creation multiplication with an annihilation translation.  Their agreement, the
dominance triangularity, and the closed-form diagonal are the load-bearing
checks for everything downstream.  Both act on the P basis of `symfunc`, where
R_k is polynomial in q and the annihilation exponential exp(sum_n (1 - xi^n)
d/dP_n), of commuting derivations with constant weights, is exactly the ring
automorphism P_n -> P_n + 1 - xi^n.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import accumulate, combinations, repeat
from operator import mul
from typing import NamedTuple

from .errors import EigenvalueCollisionAtEvaluation, InternalCheckError
from .partitions import (
    Partition,
    _raw_partition,
    _require_same_m,
    dominates,
    enumerate_partitions,
    lowerings,
)
from .scalars import Cyc, CycRat, ParamMode, scalar_to_json, scalar_to_str, zeta
from .symfunc import (
    PExpr,
    QExpr,
    p_multiply,
    p_to_q_reduced,
    r_to_p,
    raising_sum,
)

__all__ = [
    "eigenvalue_c",
    "eigen_collision",
    "x0_apply_series",
    "s_apply",
    "x0_apply_diff",
    "X0Matrix",
    "x0_matrix",
]


def eigenvalue_c(lam: Partition, mode: ParamMode) -> Cyc | CycRat:
    """Diagonal coefficient 1 + (1 - xi) sum_i (q^{lam_i} - 1) xi^{i-1}."""
    m = mode.m
    acc = sum(((mode.qpow(part) - 1) * zeta(m, i) for i, part in enumerate(lam)), mode.zero())
    return mode.one() + acc * (1 - zeta(m))


def eigen_collision(lam: Partition, mu: Partition, m: int) -> bool:
    """True iff the diagonal coefficients of lam and mu coincide identically,
    which happens exactly when all multiplicities agree mod m."""
    values = set(lam.multiplicities()) | set(mu.multiplicities())
    return all((lam.count(i) - mu.count(i)) % m == 0 for i in values)


@lru_cache(maxsize=None)
def x0_apply_series(lam: Partition, mode: ParamMode) -> PExpr:
    """Raising-series implementation of the zero mode on q_lam.

    Sums R_{i_1+...+i_s} a_{i_1} q_{lam_1-i_1} ... a_{i_s} q_{lam_s-i_s} over
    all tuples with i_j >= 0, where a_0 = 1 and a_k = 1 - xi for k >= 1:
    `raising_sum` over the entries (k, t, nu) of `lowerings(lam)`, each count
    weighted by (1 - xi)^t.
    """
    powers = [1, *accumulate(repeat(1 - zeta(mode.m), len(lam)), mul)]
    return raising_sum(mode.m, ((k, nu, powers[t] * c) for (k, t, nu), c in lowerings(lam).items()),
                       lambda k: r_to_p(k, mode))


@lru_cache(maxsize=None)
def _translated(lam: Partition, m: int) -> tuple[PExpr, ...]:
    """S(P_lam) = prod_j (P_{lam_j} + 1 - xi^{lam_j}); entry k has weight |lam| - k."""
    if not lam:
        return (PExpr.one(m),)
    n, rest = lam[0], _translated(_raw_partition(lam[1:]), m)
    zeros, shift = [PExpr.zero(m)] * n, 1 - zeta(m, n)
    # n is the largest part, so P_n P_mu = P_{(n,) + mu}
    kept = [PExpr._raw(m, {_raw_partition((n,) + mu): c for mu, c in g.terms.items()}) for g in rest]
    return tuple(a + b for a, b in zip(kept + zeros, zeros + [g.scale(shift) for g in rest]))


def s_apply(k: int, f: PExpr) -> PExpr:
    """Degree-k component of the annihilation exponential applied to f.

    S = exp(sum_n (1 - xi^n) d/dP_n) exponentiates commuting derivations with
    constant weights, so by Taylor's theorem it is exactly the translation
    P_n -> P_n + 1 - xi^n; S_k keeps the terms of S(P_lam) of weight |lam| - k.
    Pinned against a direct operator exponential by the tests.
    """
    if k < 0:
        raise ValueError("lowering degree must be non-negative")
    if k == 0:
        return f
    return PExpr._collect(f.m, ((mu, c * v) for lam, c in f.terms.items() if k <= lam.weight
                                for mu, v in _translated(lam, f.m)[k].terms.items()))


def x0_apply_diff(f: PExpr, mode: ParamMode) -> PExpr:
    """Normal-ordered implementation of the zero mode on a homogeneous element:
    sum_k (multiplication by R_k) after the degree-k annihilation component."""
    _require_same_m(f.m, mode.m)
    if f.is_zero:
        return f
    lows = (s_apply(k, f) for k in range(f.homogeneous_degree() + 1))
    return PExpr.sum(mode.m, (p_multiply(r_to_p(k, mode), low)
                              for k, low in enumerate(lows) if low))


class X0Matrix(NamedTuple):
    """Matrix of the zero mode on the m-reduced q-basis of one weight.

    `order` is the `enumerate_partitions` order, a linear extension of
    dominance (greatest first); `columns` holds the image of each q_lam in
    that order, as m-reduced coordinates keyed by shape.  The q_nu coordinate
    of column lam is the entry at (row nu, column lam), so the matrix is
    upper triangular with the eigenvalues on the diagonal.
    """

    m: int
    n: int
    order: tuple[Partition, ...]
    columns: tuple[QExpr, ...]

    def rows(self) -> list[list[Cyc | CycRat]]:
        """The dense matrix, row nu holding the q_nu coordinate of every column."""
        return [[col.coeff(nu) for col in self.columns] for nu in self.order]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "order": [lam.to_json() for lam in self.order],
            "entries": [[scalar_to_json(x) for x in row] for row in self.rows()],
        }

    def to_csv(self) -> str:
        # the one user of csv: a command that writes JSON never loads it
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        labels = ["+".join(map(str, lam)) for lam in self.order]
        writer.writerow([""] + labels)
        for label, row in zip(labels, self.rows()):
            writer.writerow([label] + [scalar_to_str(x) for x in row])
        return buf.getvalue()


def _collision_precheck(order: tuple[Partition, ...], mode: ParamMode) -> list[Cyc | CycRat]:
    # the one check that the basis eigenvalues differ, as the eigen-solve
    # needs; returns them, the closed form the diagonal is checked against.
    # Distinct m-reduced shapes have multiplicities below m, so they never
    # agree mod m: `eigen_collision` is False on every pair here.
    values = [eigenvalue_c(lam, mode) for lam in order]
    for (lam, a), (mu, b) in combinations(zip(order, values), 2):
        if a != b:
            continue
        if mode.is_symbolic:
            raise InternalCheckError(
                f"identical eigenvalues for distinct m-reduced {lam} and {mu}: "
                "separation on the reduced set failed"
            )
        raise EigenvalueCollisionAtEvaluation(
            f"eigenvalues of {lam} and {mu} coincide at "
            f"{mode.describe()}; choose a different q0"
        )
    return values


@lru_cache(maxsize=None)
def x0_matrix(n: int, mode: ParamMode) -> X0Matrix:
    """Assemble and check the zero-mode matrix on the m-reduced basis of weight n.

    The closed-form eigenvalues are computed once, here, and the diagonal is
    checked against them; the eigen-solve reads them off the columns.
    """
    if n < 1:
        raise ValueError(f"weight must be positive, got {n}")
    order = tuple(enumerate_partitions(n, "m_reduced", mode.m))
    values = _collision_precheck(order, mode)
    columns = tuple(p_to_q_reduced(x0_apply_series(lam, mode)) for lam in order)
    for lam, col, expected in zip(order, columns, values):
        for nu in col.support():
            if not dominates(nu, lam):
                raise InternalCheckError(
                    f"raising property violated: image of q_{lam} has support at "
                    f"non-dominating {nu} (coefficient {col.coeff(nu)}; m={mode.m}, "
                    f"{mode.describe()}); dump: {json.dumps(col.to_json())}"
                )
        diag = col.coeff(lam)
        if diag != expected:
            raise InternalCheckError(
                f"diagonal mismatch at {lam}: got {diag}, eigenvalue "
                f"formula gives {expected} (m={mode.m}, {mode.describe()})"
            )
    return X0Matrix(mode.m, n, order, columns)
