"""Acceptance suite: every identity the package is contracted to satisfy,
checked exactly (no tolerances anywhere; all arithmetic is exact).

Each criterion is one `_check_*` function of `modmac.selfcheck`, the same
code behind the `selfcheck` command, called here at its full ranges; a
failing report is shown in full.  `pytest -v` prints one line per criterion.
"""

import random
from collections import Counter
from fractions import Fraction
from importlib import import_module

import pytest

from modmac import selfcheck
from modmac.errors import (EigenvalueCollisionAtEvaluation, InternalCheckError,
                           PoleAtSpecialization, VerificationError)
from modmac.macdonald import all_q, gram
from modmac.scalars import eval_mode, symbolic_mode
from modmac.selfcheck import (
    _check_convolution,
    _check_eigenbasis,
    _check_equinumerosity,
    _check_modular_relation,
    _check_newton,
    _check_nl,
    _check_operator_agreement,
    _check_r_expansion,
    _check_schur_q,
    _check_self_adjoint,
    _check_separation,
    _check_triangularity,
    run_selfcheck,
)
from modmac.partitions import Partition
from modmac.symfunc import PExpr, QExpr, p_multiply, qprod_to_p
from modmac.vertex import x0_apply_diff
from oracles import d_dp, evaluate


def _ok(report):
    assert report["status"] == "ok", report


def test_c01_equinumerosity():
    for m in (2, 3, 4, 5):
        _ok(_check_equinumerosity(m, 25))


def test_c02_generalized_newton_identity():
    rng = random.Random(20240815)
    for m in (2, 3):
        _ok(_check_newton(m, 8, 20, rng))


def test_c03_lowering_count_agreement():
    _ok(_check_nl(2, 9))


def test_c04_creation_series_expansion():
    for m in (2, 3):
        _ok(_check_r_expansion(m, 10))


def test_c05_convolution_identity():
    for m in (2, 3):
        _ok(_check_convolution(m, 10))


def test_c06_modular_relation():
    for m in (2, 3, 4):
        _ok(_check_modular_relation(m, 12))


def test_c07_operator_cross_validation():
    for m, top in ((2, 8), (3, 6)):
        _ok(_check_operator_agreement(m, top))


def test_c08_raising_triangularity_and_diagonal():
    for m, top in ((2, 8), (3, 6)):
        _ok(_check_triangularity(m, top))


def test_c09_self_adjointness():
    for m in (2, 3):
        _ok(_check_self_adjoint(m, 6, 8))


def test_self_adjointness_failure_is_reported(monkeypatch):
    # at q0 = 2 only, add P_4 d^2/dP_2^2, whose adjoint lowers P_4 instead
    def skewed(f, mode):
        image = x0_apply_diff(f, mode)
        if mode.is_symbolic:
            return image
        return image + p_multiply(PExpr(3, {(4,): 1}), d_dp(2, d_dp(2, f)))

    monkeypatch.setattr(selfcheck, "x0_apply_diff", skewed)
    report = _check_self_adjoint(3, 4, 4)
    assert report["status"] == "fail"
    assert report["detail"] == "fails at n=4, P_(4,) and P_(2, 2), eval(q0=2, c0=-1 - xi)"


def test_self_adjointness_checks_every_pair(monkeypatch):
    # in symbolic mode, add P_4 d^4/dP_1^4, which couples P_(1,1,1,1) to
    # P_(4,), first and last of weight 4: no neighbours in the order
    def skewed(f, mode):
        image = x0_apply_diff(f, mode)
        if not mode.is_symbolic:
            return image
        return image + p_multiply(PExpr(3, {(4,): 1}), d_dp(1, d_dp(1, d_dp(1, d_dp(1, f)))))

    monkeypatch.setattr(selfcheck, "x0_apply_diff", skewed)
    report = _check_self_adjoint(3, 4, 4)
    assert report["status"] == "fail"
    assert report["detail"] == "fails at n=4, P_(4,) and P_(1, 1, 1, 1), symbolic"


def _off_at(inner, at, skew):
    # inner, with its value at the arguments `at` passed through skew
    return lambda *args: skew(inner(*args)) if args[:len(at)] == at else inner(*args)


def _planted(exc):
    # a stand-in for any function, which raises exc
    def raise_(*args):
        raise exc("planted failure")
    return lambda inner: raise_


def _edit_shape(shape, edit):
    # an `all_q` stand-in whose eigenvector at shape is passed through edit
    return lambda inner: lambda n, mode: [edit(mac) if mac.shape == shape else mac
                                          for mac in inner(n, mode)]


def _replace_coeff(nu, change):
    # an eigenvector with its q_nu coordinate passed through change; a zero
    # result is kept, as a faulty solve could keep it
    def edit(mac):
        terms = dict(mac.q_coeffs.terms)
        terms[nu] = change(terms[nu])
        return mac._replace(q_coeffs=QExpr._raw(mac.m, terms))
    return edit


def _non_polynomial_first(inner):
    # `_collision_precheck`, its first value plus 1/(q - 1)
    def precheck(order, mode):
        values = inner(order, mode)
        return [values[0] + (mode.qpow(1) - 1).inv()] + values[1:]
    return precheck


def _drop_one_reduced(inner):
    def enumerate_partitions(n, kind="all", m=None):
        out = inner(n, kind, m)
        return out[1:] if kind == "m_reduced" and n == 3 else out
    return enumerate_partitions


# failure case (the criterion, then "/" and the branch where a criterion
# fails in more than one way), the check at small ranges, the one function
# it checks (a name on `selfcheck`, or "module.name" for a function of that
# modmac module the check reaches through another), a broken stand-in for
# it, and the report's detail; the
# "/internal-check", "/collision" and "/pole" cases plant a library error of
# the failure set inside the family, which is the family's fail report
FAILURES = {
    "equinumerosity": (
        lambda: _check_equinumerosity(2, 5), "enumerate_partitions", _drop_one_reduced,
        "counts differ at n=3: 2 m-regular, 1 m-reduced"),
    "equinumerosity/internal-check": (
        lambda: _check_equinumerosity(2, 5), "enumerate_partitions",
        _planted(InternalCheckError), "planted failure"),
    "traisesq": (
        lambda: _check_newton(2, 3, 0, random.Random(0)), "newton_rhs",
        lambda f: _off_at(f, ((2, 1),), lambda v: v + PExpr(2, {(3,): 1})),
        "lhs != rhs"),
    "traisesq/leading-coefficient": (
        lambda: _check_newton(2, 3, 0, random.Random(0)), "d_lambda_mu",
        lambda f: _off_at(f, ((2, 1), (2, 1)), lambda v: v + 1),
        "leading coefficient off"),
    "traisesq/random-d-sequence": (
        lambda: _check_newton(2, 3, 1, random.Random(0)), "newton_rhs",
        lambda f: lambda lam, mode, d: f(lam, mode, d) + (
            PExpr.zero(2) if mode.is_symbolic else PExpr(2, {(3,): 1})),
        "lhs != rhs (random d-sequence)"),
    "traisesq/internal-check": (
        lambda: _check_newton(2, 3, 0, random.Random(0)), "newton_rhs",
        _planted(InternalCheckError), "planted failure"),
    "lowering-count": (
        lambda: _check_nl(2, 3), "nl_falling",
        lambda f: _off_at(f, ((2, 1), (1,)), lambda v: v + 1),
        "mismatch at lam=(2, 1), nu=(1,)"),
    "lowering-count/internal-check": (
        lambda: _check_nl(2, 3), "nl_falling", _planted(InternalCheckError), "planted failure"),
    "creation-expansion": (
        lambda: _check_r_expansion(2, 4), "d_mu",
        lambda f: _off_at(f, ((2, 1),), lambda v: v * 2), "mismatch at n=3"),
    "creation-expansion/internal-check": (
        lambda: _check_r_expansion(2, 4), "r_to_p", _planted(InternalCheckError),
        "planted failure"),
    "convolution": (
        lambda: _check_convolution(2, 4), "r_to_p",
        lambda f: _off_at(f, (2,), lambda v: v.scale(2)), "mismatch at n=2"),
    "convolution/internal-check": (
        lambda: _check_convolution(2, 4), "newton.q_to_p", _planted(InternalCheckError),
        "planted failure"),
    "twisted-product": (
        lambda: _check_modular_relation(2, 6), "modular_relation_check",
        _planted(VerificationError), "planted failure"),
    "twisted-product/coordinate": (
        lambda: _check_modular_relation(2, 6), "modular_relation_check",
        lambda f: _off_at(f, (2, 2),
                          lambda v: QExpr(2, {nu: 2 * c for nu, c in v.terms.items()})),
        "q_(4) coordinate of the relation is not 2"),
    "twisted-product/internal-check": (
        lambda: _check_modular_relation(2, 6), "modular_relation_check",
        _planted(InternalCheckError), "planted failure"),
    "operator-agreement": (
        lambda: _check_operator_agreement(2, 4), "x0_apply_diff",
        lambda f: _off_at(f, (qprod_to_p(Partition((3,)), 2),), lambda v: v.scale(2)),
        "mismatch at (3,)"),
    "operator-agreement/internal-check": (
        lambda: _check_operator_agreement(2, 4), "x0_apply_diff",
        _planted(InternalCheckError), "planted failure"),
    "self-adjoint/internal-check": (
        lambda: _check_self_adjoint(3, 4, 4), "epsilon_product", _planted(InternalCheckError),
        "planted failure"),
    "raising-triangular": (
        lambda: _check_triangularity(2, 4), "x0_matrix",
        _planted(InternalCheckError), "planted failure"),
    "eigenvalue-separation": (
        lambda: _check_separation(2, 4, 0, 4, random.Random(0)), "eigen_collision",
        lambda f: lambda lam, mu, m: False, "known collision family broke at k=0, l=0"),
    "eigenvalue-separation/non-polynomial-gap": (
        lambda: _check_separation(2, 4, 0, 4, random.Random(0)), "_collision_precheck",
        _non_polynomial_first, "non-polynomial gap (3,) vs (2, 1)"),
    "eigenvalue-separation/predicate": (
        lambda: _check_separation(2, 4, 5, 4, random.Random(0)), "eigen_collision",
        lambda f: lambda lam, mu, m: not f(lam, mu, m),
        "predicate mismatch (1, 1, 1) vs (1, 1, 1)"),
    "eigenvalue-separation/internal-check": (
        lambda: _check_separation(2, 4, 0, 4, random.Random(0)), "_collision_precheck",
        _planted(InternalCheckError), "planted failure"),
    "eigenbasis": (
        lambda: _check_eigenbasis(3, 3, 0), "x0_apply_series",
        lambda f: _off_at(f, ((2, 1),), lambda v: v.scale(2)),
        "not an eigenvector of the series form at (2, 1) (m=3, symbolic)"),
    "eigenbasis/not-monic": (
        lambda: _check_eigenbasis(3, 3, 0), "all_q",
        _edit_shape((2, 1), _replace_coeff(Partition((2, 1)), lambda c: c + c)),
        "not monic at (2, 1) (m=3, symbolic)"),
    "eigenbasis/support": (
        lambda: _check_eigenbasis(3, 3, 0), "all_q",
        _edit_shape((2, 1), lambda mac: mac._replace(q_coeffs=QExpr._raw(
            mac.m, {**mac.q_coeffs.terms, Partition((1, 1, 1)): mac.mode.one()}))),
        "support below index at (2, 1) (m=3, symbolic)"),
    "eigenbasis/zero-coefficient": (
        lambda: _check_eigenbasis(3, 3, 0), "all_q",
        _edit_shape((2, 1), _replace_coeff(Partition((3,)), lambda c: c - c)),
        "zero coefficient at (3,) in (2, 1) (m=3, symbolic)"),
    "eigenbasis/eigenvalue": (
        lambda: _check_eigenbasis(3, 3, 0), "eigenvalue_c",
        lambda f: _off_at(f, ((2, 1),), lambda v: v + 1),
        "eigenvalue off at (2, 1) (m=3, symbolic)"),
    "eigenbasis/gram-diagonal": (
        lambda: _check_eigenbasis(3, 3, 0), "gram",
        lambda f: _off_at(f, (2,), lambda g: [g[0] - g[0]] + g[1:]),
        "zero Gram diagonal at n=2, index 0 (m=3, symbolic)"),
    "eigenbasis/internal-check": (
        lambda: _check_eigenbasis(3, 3, 0), "all_q",
        _planted(InternalCheckError), "planted failure"),
    "eigenbasis/collision": (
        lambda: _check_eigenbasis(3, 3, 0), "all_q",
        _planted(EigenvalueCollisionAtEvaluation), "planted failure"),
    "schur-q-limit": (
        lambda: _check_schur_q(2, 4), "schur_q_oracle",
        lambda f: _off_at(f, ((3, 1),), lambda v: v.scale(2)), "mismatch at (3, 1)"),
    "schur-q-limit/internal-check": (
        lambda: _check_schur_q(2, 4), "solve_q", _planted(InternalCheckError),
        "planted failure"),
    "schur-q-limit/pole": (
        lambda: _check_schur_q(2, 4), "specialize_q0", _planted(PoleAtSpecialization),
        "planted failure"),
}


def _plant(monkeypatch, name, broken):
    # replace the function `name` of a FAILURES entry by broken(it)
    module, _, attr = name.rpartition(".")
    owner = import_module(f"modmac.{module}") if module else selfcheck
    monkeypatch.setattr(owner, attr, broken(getattr(owner, attr)))


@pytest.mark.parametrize("case", FAILURES)
def test_criterion_failure_is_reported(case, monkeypatch):
    # each criterion reports each of its failures: break the one function it
    # checks, and read the report
    check, name, broken, detail = FAILURES[case]
    _plant(monkeypatch, name, broken)
    report = check()
    identity = case.partition("/")[0]
    assert (report["identity"], report["status"], report["detail"]) == (identity, "fail", detail)


@pytest.mark.parametrize("case, fields", [
    ("traisesq", {"lambda": [2, 1], "delta": "lhs - rhs"}),
    ("traisesq/leading-coefficient", {"lambda": [2, 1]}),
])
def test_newton_failure_names_its_shape(case, fields, monkeypatch):
    # the failing lambda, and the nonzero difference, follow the detail
    check, name, broken, _ = FAILURES[case]
    _plant(monkeypatch, name, broken)
    report = check()
    assert list(report) == ["identity", "m", "status", "detail", *fields]
    assert report["lambda"] == fields["lambda"]
    if "delta" in fields:
        assert [t["partition"] for t in report["delta"]["terms"]] == [[3]]


def test_c10_eigenvalue_separation():
    rng = random.Random(97)
    for m, pairs in ((2, 500), (3, 500), (4, 0)):
        _ok(_check_separation(m, 10, pairs, 10, rng))


def test_separation_computes_each_eigenvalue_once(monkeypatch):
    # the reduced shapes' values come from x0_matrix's precheck and are
    # reused for the random pairs and the known family
    from modmac import vertex

    calls = Counter()

    def counted(lam, mode, inner=vertex.eigenvalue_c):
        calls[lam, mode.m] += 1
        return inner(lam, mode)

    monkeypatch.setattr(vertex, "eigenvalue_c", counted)
    monkeypatch.setattr(selfcheck, "eigenvalue_c", counted)
    for m in (2, 3):
        _ok(_check_separation(m, 8, 100, 8, random.Random(0)))
    assert calls and set(calls.values()) == {1}


def test_c11_eigenbasis_and_orthogonality():
    for m in (2, 3):
        _ok(_check_eigenbasis(m, 5, 8))


def test_c12_schur_q_specialization():
    _ok(_check_schur_q(2, 8))


def test_composite_modulus_past_the_modular_weight():
    # m = 4 up to n = 5 >= m: the first symbolic run of the operator,
    # triangularity and eigenbasis checks at a composite modulus where
    # m-regular and all partitions differ
    reports = run_selfcheck(4, 5)
    assert [r["status"] for r in reports] == ["ok"] * 11 + ["skipped"], reports


def test_symbolic_eigenbasis_past_the_modular_weight():
    # m = 5, 6 at n = m and m + 1, the prime m = 7 (phi = 6) and the prime
    # power m = 8 at n = m, weights `run_selfcheck` never solves
    # symbolically: `solve_q` re-checks every eigenvector and `gram` every
    # off-diagonal pairing, so what remains is a nonzero diagonal
    for m, weights in ((5, (5, 6)), (6, (6, 7)), (7, (7,)), (8, (8,))):
        for n in weights:
            g = gram(n, symbolic_mode(m))
            assert len(g) > 1 and not any(v.is_zero for v in g), (m, n)


def test_eval_and_symbolic_solves_agree():
    # two routes to one answer: the symbolic eigenvectors evaluated exactly
    # at q0 by the oracle's Horner rule in Cyc arithmetic, and the eigen-solve
    # run in Q(xi_m) at q = q0
    for m in (3, 4, 5):
        sym = all_q(m, symbolic_mode(m))
        for q0 in (2, Fraction(1, 2)):
            at = all_q(m, eval_mode(m, q0))
            assert [a.shape for a in at] == [a.shape for a in sym], (m, q0)
            for a, b in zip(sym, at):
                assert evaluate(a.eigenvalue, q0) == b.eigenvalue, (m, q0, a.shape)
                values = {rho: evaluate(c, q0) for rho, c in a.p_form.terms.items()}
                assert PExpr(m, values) == b.p_form, (m, q0, a.shape)


def test_selfcheck_ranges_are_capped(monkeypatch):
    # the cost of `selfcheck --max-n N` must stay bounded however large N is;
    # equinumerosity enumerates every partition up to its bound
    seen = {}
    for name in [n for n in vars(selfcheck) if n.startswith("_check_")]:
        monkeypatch.setattr(selfcheck, name,
                            lambda *args, _name=name: seen.setdefault(_name, args))
    selfcheck.run_selfcheck(2, 10**6)
    assert seen["_check_equinumerosity"] == (2, 40)
    assert max(a for args in seen.values() for a in args if isinstance(a, int)) <= 100
