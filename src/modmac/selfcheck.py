"""The twelve identity families, each checked exactly over given ranges.

Each `_check_*` function takes its ranges (weight bounds, numbers of random
draws, pool sizes) and, where it samples, a `random.Random`, and returns a
JSON-able report made by one rule, `_family`, which names the identity once:
a detail the check returns is an ok report, a `_Skipped` a skipped one, and
any exception of `errors.FAILURES` met anywhere in the family, in the check
or in a library function it calls, a fail report, its message the detail
and a `VerificationError`'s `extra` after it; the other families still run.
`run_selfcheck` scales the ranges by a max-weight knob for the `selfcheck`
command; the acceptance tests call the same functions at their full ranges,
so this module is the one implementation of every criterion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import wraps
from itertools import combinations

from .errors import FAILURES, VerificationError
from .macdonald import all_q, gram, schur_q_oracle, solve_q, specialize_q0
from .newton import (
    d_lambda_mu,
    d_mu,
    newton_lhs,
    newton_rhs,
    nl_brute,
    nl_closed,
    nl_falling,
    qpow_dseq,
    r_from_recursion,
)
from .partitions import Partition, dominates, enumerate_partitions, z_of
from .scalars import Cyc, CycRat, _as_cyc, eval_mode, symbolic_mode
from .symfunc import (
    PExpr,
    QExpr,
    epsilon_product,
    modular_relation_check,
    qprod_to_p,
    r_to_p,
    to_p,
)
from .vertex import (
    _collision_precheck,
    eigen_collision,
    eigenvalue_c,
    x0_apply_diff,
    x0_apply_series,
    x0_matrix,
)

__all__ = ["run_selfcheck"]


class _Skipped(Exception):
    """The family's statement does not apply at these ranges; the message says why."""


def _family(identity: str):
    """The one report builder (see above): check(m, *ranges), as a report."""
    def decorate(check):
        @wraps(check)
        def report(m: int, *ranges) -> dict:
            try:
                status, detail, extra = "ok", check(m, *ranges), {}
            except _Skipped as exc:
                status, detail, extra = "skipped", str(exc), {}
            except FAILURES as exc:
                status, detail, extra = "fail", str(exc), getattr(exc, "extra", {})
            return {"identity": identity, "m": m, "status": status, "detail": detail, **extra}
        return report
    return decorate


@_family("equinumerosity")
def _check_equinumerosity(m: int, top: int) -> str:
    for n in range(0, top + 1):
        regular = len(enumerate_partitions(n, "m_regular", m))
        reduced = len(enumerate_partitions(n, "m_reduced", m))
        if regular != reduced:
            raise VerificationError(
                f"counts differ at n={n}: {regular} m-regular, {reduced} m-reduced")
    return f"n<={top}"


def _newton_sweep(bound: int, mode, d, rs=None, note: str = "") -> None:
    for n in range(1, bound + 1):
        for lam in enumerate_partitions(n):
            delta = newton_lhs(lam, mode, rs=rs) - newton_rhs(lam, mode, d)
            if not delta.is_zero:
                raise VerificationError("lhs != rhs" + note, {
                    "lambda": lam.to_json(), "delta": to_p(delta, mode).to_json()})
            lead = d_lambda_mu(lam, lam, d)
            want = d(lam[-1]) if len(lam) % 2 else -d(lam[-1])
            if lead != want:
                raise VerificationError("leading coefficient off" + note, {"lambda": lam.to_json()})


@_family("traisesq")
def _check_newton(m: int, bound: int, draws: int, rng: random.Random) -> str:
    """The identity for |lambda| <= bound at d_n = q^n - 1, then for `draws`
    random rational d-sequences at q0 = 2."""
    mode = symbolic_mode(m)
    _newton_sweep(bound, mode, qpow_dseq(mode))
    emode = eval_mode(m, 2)
    for _ in range(draws):
        vals = {n: _as_cyc(m, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                for n in range(1, bound + 1)}
        rs = r_from_recursion(bound, vals.__getitem__, emode)
        _newton_sweep(bound, emode, vals.__getitem__, rs, " (random d-sequence)")
    return f"|lambda|<={bound}, instance + {draws} random d-sequences"


@_family("lowering-count")
def _check_nl(m: int, bound: int) -> str:
    for a in range(0, bound + 1):
        for lam in enumerate_partitions(a):
            for b in range(0, a + 1):
                for nu in enumerate_partitions(b):
                    ref = nl_brute(lam, nu)
                    if nl_closed(lam, nu) != ref or nl_falling(lam, nu) != ref:
                        raise VerificationError(f"mismatch at lam={lam}, nu={nu}")
    return f"|lambda|<={bound}"


@_family("creation-expansion")
def _check_r_expansion(m: int, bound: int) -> str:
    mode = symbolic_mode(m)
    d = qpow_dseq(mode)
    for n in range(1, bound + 1):
        if n % m:
            rhs = QExpr(m, {mu: d_mu(mu, d) for mu in enumerate_partitions(n)}).to_p()
            if r_to_p(n, mode) != rhs:
                raise VerificationError(f"mismatch at n={n}")
    return f"n<={bound}"


@_family("convolution")
def _check_convolution(m: int, bound: int) -> str:
    """R_n = d_n q_n - sum_{i<n} R_i q_{n-i} at d_n = q^n - 1, through `r_from_recursion`:
    by induction on n, its first n off `r_to_p` is the first n where this fails."""
    mode = symbolic_mode(m)
    rs = r_from_recursion(bound, qpow_dseq(mode), mode)
    for n in range(1, bound + 1):
        if rs[n] != r_to_p(n, mode):
            raise VerificationError(f"mismatch at n={n}")
    return f"n<={bound}"


@_family("twisted-product")
def _check_modular_relation(m: int, top: int) -> str:
    """The twisted product at every degree km <= top; the relation's q_(km)
    coordinate must be m.  Skipped when no k >= 1 fits."""
    ks = range(1, top // m + 1)
    if not ks:
        raise _Skipped(f"no k >= 1 with km <= {top}")
    for k in ks:
        if modular_relation_check(k, m).coeff(Partition((k * m,))) != m:
            raise VerificationError(f"q_({k * m}) coordinate of the relation is not {m}")
    return f"km<={m * len(ks)}"


@_family("operator-agreement")
def _check_operator_agreement(m: int, bound: int) -> str:
    mode = symbolic_mode(m)
    for n in range(0, bound + 1):
        for lam in enumerate_partitions(n):
            if x0_apply_series(lam, mode) != x0_apply_diff(qprod_to_p(lam, m), mode):
                raise VerificationError(f"mismatch at {lam}")
    return f"|lambda|<={bound}"


@_family("raising-triangular")
def _check_triangularity(m: int, bound: int) -> str:
    """Every nonzero entry of the assembled matrix sits at a dominating row,
    and the diagonal is the closed-form eigenvalue: `x0_matrix` checks both
    before it returns, raising InternalCheckError otherwise."""
    for n in range(1, bound + 1):
        x0_matrix(n, symbolic_mode(m))
    return f"n<={bound}"


@_family("self-adjoint")
def _check_self_adjoint(m: int, sym_bound: int, eval_bound: int) -> str:
    """P is orthogonal, <P_rho, P_rho> = z_rho / eps_rho, so X is self-adjoint iff
    z_rho eps_sigma A_rho,sigma = z_sigma eps_rho A_sigma,rho for each pair rho, sigma
    of one weight, A_rho,sigma the P_rho coefficient of X P_sigma: no gcd."""
    for mode, bound in ((symbolic_mode(m), sym_bound), (eval_mode(m, 2), eval_bound)):
        for n in range(1, bound + 1):
            basis = enumerate_partitions(n, "m_regular", m)
            images = {sigma: x0_apply_diff(PExpr(m, {sigma: 1}), mode) for sigma in basis}
            for rho, sigma in combinations(basis, 2):
                if (images[sigma].coeff(rho) * epsilon_product(sigma, mode) * z_of(rho)
                        != images[rho].coeff(sigma) * epsilon_product(rho, mode) * z_of(sigma)):
                    raise VerificationError(f"fails at n={n}, P_{rho} and P_{sigma}, {mode.describe()}")
    return f"symbolic n<={sym_bound}, eval(q0=2) n<={eval_bound}"


@_family("eigenvalue-separation")
def _check_separation(m: int, bound: int, pairs: int, pool_n: int, rng: random.Random) -> str:
    """Distinct m-reduced eigenvalues differ by a nonzero polynomial for
    n <= bound; the collision predicate matches eigenvalue equality on
    `pairs` random pairs from the partitions of n <= pool_n and on a known
    colliding family.  Distinctness is `x0_matrix`'s own precheck, which
    raises InternalCheckError; each shape's eigenvalue is computed once."""
    mode = symbolic_mode(m)
    values: dict[Partition, Cyc | CycRat] = {}
    for n in range(1, bound + 1):
        order = tuple(enumerate_partitions(n, "m_reduced", m))
        values.update(zip(order, _collision_precheck(order, mode)))
        for lam, mu in combinations(order, 2):
            diff = values[lam] - values[mu]
            if isinstance(diff, CycRat) and not diff.is_polynomial:
                raise VerificationError(f"non-polynomial gap {lam} vs {mu}")
    pool = [lam for n in range(0, pool_n + 1) for lam in enumerate_partitions(n)]
    family = {(k, l): (Partition([2] * (m + l) + [1] * k), Partition([2] * l + [1] * (k + 2 * m)))
              for k in range(0, 3) for l in range(0, 3)}
    for lam in pool + [lam for pair in family.values() for lam in pair]:
        if lam not in values:
            values[lam] = eigenvalue_c(lam, mode)
    for _ in range(pairs):
        lam, mu = rng.choice(pool), rng.choice(pool)
        if eigen_collision(lam, mu, m) != (values[lam] == values[mu]):
            raise VerificationError(f"predicate mismatch {lam} vs {mu}")
    for (k, l), (lam, mu) in family.items():
        if not eigen_collision(lam, mu, m) or values[lam] != values[mu]:
            raise VerificationError(f"known collision family broke at k={k}, l={l}")
    return f"n<={bound} + {pairs} random pairs"


@_family("eigenbasis")
def _check_eigenbasis(m: int, sym_bound: int, eval_bound: int) -> str:
    """Monic eigenvectors with nonzero coefficients on the dominating support,
    the closed-form eigenvalue, the series-form eigen-equation, and a Gram
    matrix with zero off-diagonal and nonzero diagonal.  The series form is
    compared in P with N = L Q, each image scaled once by its polynomial L c_nu.
    `solve_q` checks the normal-ordered eigen-equation itself, raising InternalCheckError."""
    for mode, bound in ((symbolic_mode(m), sym_bound), (eval_mode(m, 2), eval_bound)):
        for n in range(1, bound + 1):
            for mac in all_q(n, mode):
                where = f"{mac.shape} (m={m}, {mode.describe()})"
                if mac.q_coeffs.coeff(mac.shape) != mode.one():
                    raise VerificationError(f"not monic at {where}")
                for nu, c in mac.q_coeffs.terms.items():
                    if not dominates(nu, mac.shape):
                        raise VerificationError(f"support below index at {where}")
                    if c.is_zero:
                        raise VerificationError(f"zero coefficient at {nu} in {where}")
                by_series = PExpr.sum(m, (x0_apply_series(nu, mode).scale(mac.lcm * c)
                                          for nu, c in mac.q_coeffs.terms.items()))
                if mac.eigenvalue != eigenvalue_c(mac.shape, mode):
                    raise VerificationError(f"eigenvalue off at {where}")
                if by_series != mac.cleared.scale(mac.eigenvalue):
                    raise VerificationError(f"not an eigenvector of the series form at {where}")
            for i, v in enumerate(gram(n, mode)):
                if v.is_zero:
                    raise VerificationError(f"zero Gram diagonal at n={n}, index {i} "
                                            f"(m={m}, {mode.describe()})")
    return f"symbolic n<={sym_bound}, eval(q0=2) n<={eval_bound}"


@_family("schur-q-limit")
def _check_schur_q(m: int, bound: int) -> str:
    if m != 2:
        raise _Skipped("only stated for m=2")
    mode = symbolic_mode(2)
    for n in range(1, bound + 1):
        for lam in enumerate_partitions(n):
            if lam.is_strict() and specialize_q0(solve_q(lam, mode)) != schur_q_oracle(lam):
                raise VerificationError(f"mismatch at {lam}")
    return f"strict |lambda|<={bound}"


def run_selfcheck(m: int, max_n: int, seed: int = 0) -> list[dict]:
    """Run every identity family at ranges scaled by max_n; returns reports."""
    operator_bound = min(max_n, 8 if m == 2 else 6)
    return [
        _check_equinumerosity(m, min(max(max_n, 25), 40)),
        _check_newton(m, min(max_n, 8), 3, random.Random(seed)),
        _check_nl(m, min(max_n + 1, 9)),
        _check_r_expansion(m, min(max_n, 10)),
        _check_convolution(m, min(max_n, 10)),
        _check_modular_relation(m, min(max(2 * max_n, m), 12)),
        _check_operator_agreement(m, operator_bound),
        _check_triangularity(m, operator_bound),
        _check_self_adjoint(m, min(max_n, 6), min(max_n, 8)),
        _check_separation(m, min(max_n + 2, 10), 100, 8, random.Random(seed)),
        _check_eigenbasis(m, min(max_n, 5), min(max_n, 8)),
        _check_schur_q(m, min(max_n, 8)),
    ]
