"""Oracles the tests check the library against, kept outside the package.

`scalar_product` pairs on the p basis with its own weights, against the
library's pairing in P through `weigh`; `d_dp` differentiates in a power
sum, against `s_apply`'s translation; `evaluate` substitutes a value for q
by Horner's rule in Cyc arithmetic, against the packed rows of a CycRat and
the eval-mode solve.
"""

from __future__ import annotations

from modmac.partitions import _raw_partition, _require_same_m, z_of
from modmac.scalars import Cyc, CycRat, ParamMode
from modmac.symfunc import PExpr, coefficient_dot, epsilon_product


def scalar_product(f: PExpr, g: PExpr, mode: ParamMode) -> Cyc | CycRat:
    """Deformed Hall pairing on the p basis: <p_lam, p_mu> = delta * z_lam * eps_lam.

    The library pairs in P through `weigh`; this is the tests' oracle for it,
    with its own p-basis weights: coefficient_dot(f, g') for g'_lam =
    g_lam eps_lam z_lam."""
    _require_same_m(f.m, g.m)
    _require_same_m(f.m, mode.m)
    return coefficient_dot(f, PExpr._raw(g.m, {lam: c * epsilon_product(lam, mode) * z_of(lam)
                                               for lam, c in g.terms.items()}))


def d_dp(n: int, f: PExpr) -> PExpr:
    """Formal partial derivative with respect to the degree-n basis element."""
    if n <= 0:
        raise ValueError(f"derivative index must be positive, got {n}")
    if n % f.m == 0:
        raise ValueError(f"p_{n} is not a generator: {f.m} divides {n}")

    def lowered():
        for lam, c in f.terms.items():
            k = lam.count(n)
            if k:
                rest = list(lam)
                rest.remove(n)
                yield _raw_partition(rest), c * k

    return PExpr._collect(f.m, lowered())


def evaluate(a: Cyc | CycRat, q0) -> Cyc:
    """a at q = q0 for an int, Fraction or Cyc q0: Horner's rule on the public
    `num` and `den`, in Cyc arithmetic.  A Cyc is constant; a pole raises
    ZeroDivisionError."""
    if isinstance(a, Cyc):
        return a

    def horner(coeffs):
        acc = Cyc(a.m)
        for c in reversed(coeffs):
            acc = acc * q0 + c
        return acc

    return horner(a.num) / horner(a.den)
