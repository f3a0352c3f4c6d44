import json
import re
from fractions import Fraction
from itertools import combinations

import pytest

from modmac import vertex
from modmac.errors import EigenvalueCollisionAtEvaluation, InternalCheckError
from modmac.partitions import Partition, enumerate_partitions
from modmac.scalars import (
    Cyc,
    CycRat,
    epsilon,
    eval_mode,
    scalar_to_json,
    scalar_to_str,
    symbolic_mode,
    zeta,
)
from modmac.symfunc import PExpr, QExpr, q_to_p, qprod_to_p, to_p
from modmac.vertex import (
    X0Matrix,
    eigen_collision,
    eigenvalue_c,
    s_apply,
    x0_apply_diff,
    x0_apply_series,
    x0_matrix,
)
from oracles import d_dp

P = Partition
F = Fraction
M2 = symbolic_mode(2)
M3 = symbolic_mode(3)
Q2 = CycRat.q(2)
Q3 = CycRat.q(3)


def test_eigenvalue_examples():
    assert eigenvalue_c(P(()), M2) == 1
    assert eigenvalue_c(P((2, 1)), M2) == 2 * Q2**2 - 2 * Q2 + 1
    assert eigenvalue_c(P((2, 2)), M2) == 1
    assert eigenvalue_c(P((1, 1, 1, 1)), M2) == 1


def test_eigenvalue_from_subset_expansion():
    # the diagonal coefficient also arises as the alternating subset sum
    # 1 + sum over nonempty position sets J of (1-xi)^{|J|} (-1)^{|J|-1} (q^{lam_max(J)} - 1),
    # which is how the leading coefficient falls out of the raising expansion
    for mode in (M2, M3):
        m = mode.m
        one_minus_xi = Cyc(m, (1,)) - zeta(m)
        for n in range(0, 9):
            for lam in enumerate_partitions(n):
                s = len(lam)
                acc = mode.one()
                for size in range(1, s + 1):
                    for js in combinations(range(s), size):
                        term = (mode.qpow(lam[js[-1]]) - 1) * one_minus_xi**size
                        acc = acc + term if size % 2 else acc - term
                assert acc == eigenvalue_c(lam, mode), lam


def test_eigenvalue_main_sum_examples():
    # eigenvalue_c = 1 + (1 - xi) * sum_i (q^{lam_i} - 1) xi^{i-1}
    assert eigenvalue_c(P((1,)), M3) == 1 + (Q3 - 1) * (Cyc(3, (1,)) - zeta(3))
    assert eigenvalue_c(P((1, 1)), M2) == 1
    one_minus_xi = Cyc(2, (1,)) - zeta(2)
    assert eigenvalue_c(P((2, 1)), M2) == 1 + ((Q2**2 - 1) - (Q2 - 1)) * one_minus_xi
    assert eigenvalue_c(P((3, 1)), M2) == 1 + ((Q2**3 - 1) - (Q2 - 1)) * one_minus_xi


def test_eigen_collision_examples():
    assert eigen_collision(P((2, 2)), P((1, 1, 1, 1)), 2)
    assert not eigen_collision(P((3, 1)), P((4,)), 2)
    assert eigen_collision(P((2, 1)), P((2, 1)), 2)
    assert eigen_collision(P((1, 1)), P(()), 2)


def test_collision_predicate_matches_symbolic_equality():
    pool = [lam for n in range(0, 7) for lam in enumerate_partitions(n)]
    for m in (2, 3):
        mode = symbolic_mode(m)
        for lam in pool:
            for mu in pool:
                assert eigen_collision(lam, mu, m) == (
                    eigenvalue_c(lam, mode) == eigenvalue_c(mu, mode)
                ), (m, lam, mu)


def test_series_examples():
    assert x0_apply_series(P(()), M2) == PExpr.one(2)
    assert x0_apply_series(P((1,)), M2) == q_to_p(1, 2).scale(2 * Q2 - 1)
    for m in (3, 4):
        mode = symbolic_mode(m)
        got = x0_apply_series(P((1,)), mode)
        assert got == q_to_p(1, m).scale(eigenvalue_c(P((1,)), mode))


def test_diff_examples():
    assert x0_apply_diff(PExpr.one(2), M2) == PExpr.one(2)
    assert x0_apply_diff(q_to_p(1, 2), M2) == q_to_p(1, 2).scale(2 * Q2 - 1)
    # linearity cross-check on p_(1,1) = eps_1^2 q_(1,1), in P eps_1^2 P_(1,1)
    e1 = epsilon(1, M2)
    f = PExpr(2, {(1, 1): e1 * e1})
    assert to_p(f, M2) == PExpr(2, {(1, 1): 1})
    assert x0_apply_diff(f, M2) == x0_apply_series(P((1, 1)), M2).scale(e1 * e1)
    # X0 is linear on the whole ring: a vector of mixed weights maps termwise
    for mode in (M2, eval_mode(2, 2)):
        f, g = qprod_to_p(P((3, 1)), 2), qprod_to_p(P((1,)), 2).scale(3)
        image = x0_apply_diff(f + g, mode)
        assert image == x0_apply_diff(f, mode) + x0_apply_diff(g, mode), mode
        assert image == x0_apply_series(P((3, 1)), mode) + x0_apply_series(P((1,)), mode).scale(3), mode


def test_series_agrees_with_normal_ordered_on_repeated_parts():
    # runs of equal parts take the split walk's multiplicity counts; the
    # normal-ordered form never walks lowering tuples
    shapes = [(2, (1,) * k) for k in range(13)] + [(3, (1,) * k) for k in range(13)]
    for m, lam in shapes + [(3, (2,) * 4 + (1,) * 4)]:
        mode = symbolic_mode(m)
        assert x0_apply_series(P(lam), mode) == x0_apply_diff(qprod_to_p(P(lam), m), mode), (m, lam)


def _annihilation_exponential_components(f, mode):
    # test oracle: exp(sum_n (1-xi^n) eps_n d/dp_n) f by iterated derivation,
    # then split the result by how much degree was lowered
    m = mode.m
    n = f.homogeneous_degree()

    def derive(g):
        out = PExpr.zero(m)
        degrees = {lam.weight for lam in g.terms}
        top = max(degrees, default=0)
        for k in range(1, top + 1):
            if k % m == 0:
                continue
            gk = d_dp(k, g)
            if not gk.is_zero:
                w = epsilon(k, mode) * (Cyc(m, (1,)) - zeta(m, k))
                out = out + gk.scale(w)
        return out

    acc = f
    term = f
    fact = 1
    j = 0
    while not term.is_zero:
        j += 1
        fact *= j
        term = derive(term)
        acc = acc + term.scale(F(1, fact))
    by_drop = {}
    for lam, c in acc.terms.items():
        by_drop.setdefault(n - lam.weight, {})[lam] = c
    return {k: PExpr(m, t) for k, t in by_drop.items()}


@pytest.mark.parametrize("mode", [M2, M3, symbolic_mode(4), symbolic_mode(5)])
def test_s_apply_matches_operator_exponential(mode):
    # s_apply acts on P coordinates, the oracle on p coordinates; n <= 6
    # reaches n = m + 1 at the composite m = 4 and the prime m = 5
    m = mode.m
    samples = []
    for n in range(0, 7):
        for lam in enumerate_partitions(n, "m_regular", m):
            samples.append(PExpr(m, {lam: 1}))
    samples.append(q_to_p(4, m))
    samples.append(qprod_to_p(P((2, 1)), m) if m != 2 else qprod_to_p(P((3, 1)), m))
    for f in samples:
        n = f.homogeneous_degree()
        parts = _annihilation_exponential_components(to_p(f, mode), mode)
        lows = s_apply(f)
        assert len(lows) == n + 1 and lows[0] is f, f
        for k in range(0, n + 1):
            assert to_p(lows[k], mode) == parts.get(k, PExpr.zero(m)), (f, k)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_s_apply_is_multiplicative(m):
    # S is the translation P_n -> P_n + 1 - xi^n, a ring automorphism
    def element(n, shift):
        rhos = enumerate_partitions(n, "m_regular", m)
        return PExpr(m, {rho: zeta(m, i + shift) + i for i, rho in enumerate(rhos)})

    def full_s(f):
        return PExpr.sum(m, s_apply(f))

    q = CycRat.q(m)
    for a, b in ((1, 1), (1, 3), (2, 2), (3, 4), (5, 2)):
        f, g = element(a, 0), element(b, 1).scale(q + 1)
        assert full_s(f * g) == full_s(f) * full_s(g), (a, b)


def test_x0_matrix_frozen_values():
    mat = x0_matrix(2, M2)
    assert list(mat.columns) == [(2,)]
    assert mat.rows()[0][0] == 2 * Q2**2 - 1

    mat = x0_matrix(3, M2)
    order = tuple(mat.columns)
    assert order == ((3,), (2, 1))
    assert [col.coeff(lam) for lam, col in mat.columns.items()] == [
        2 * Q2**3 - 1, 2 * Q2**2 - 2 * Q2 + 1]
    rows = mat.rows()
    assert rows[1][0].is_zero
    assert rows[order.index(P((3,)))][order.index(P((2, 1)))] == 4 * Q2**3 - 4
    # row nu, column lam: the q_nu coordinate of the image of q_lam
    assert mat.columns[P((2, 1))].terms == {P((3,)): 4 * Q2**3 - 4, P((2, 1)): 2 * Q2**2 - 2 * Q2 + 1}

    mat = x0_matrix(1, M3)
    assert mat.rows()[0][0] == eigenvalue_c(P((1,)), M3)
    # weight 0 is one-dimensional, and X0 fixes the constants
    assert x0_matrix(0, M2).rows() == [[1]]
    with pytest.raises(ValueError):
        x0_matrix(-1, M2)


def test_eval_collision_detection():
    # every eigenvalue degenerates to 1 at q0 = 1
    with pytest.raises(EigenvalueCollisionAtEvaluation):
        x0_matrix(3, eval_mode(2, 1))


@pytest.mark.parametrize("patch", [
    ("eigenvalue_c", lambda lam, mode: mode.one()),
], ids=["values"])
def test_symbolic_collision_is_an_internal_error(monkeypatch, patch):
    # the separation precheck runs in symbolic mode too; with no q0 to move,
    # equal eigenvalues contradict the theory
    monkeypatch.setattr(vertex, *patch)
    with pytest.raises(InternalCheckError, match="identical eigenvalues"):
        x0_matrix.__wrapped__(3, M2)


@pytest.mark.parametrize("mode", [M3, eval_mode(3, 2)], ids=["symbolic", "eval"])
@pytest.mark.parametrize("change, text", [
    (lambda f, m: f + qprod_to_p(P((2, 1)), m), "raising property violated: image of q_(3,)"),
    (lambda f, m: f.scale(2), "diagonal mismatch at (3,)"),
], ids=["raising", "diagonal"])
def test_x0_matrix_checks_name_the_input(monkeypatch, mode, change, text):
    # the image of q_(3) gains support below (3), or twice its eigenvalue
    monkeypatch.setattr(vertex, "x0_apply_series",
                        lambda lam, md: change(x0_apply_series(lam, md), md.m))
    with pytest.raises(InternalCheckError, match=f"^{re.escape(text)}") as err:
        x0_matrix.__wrapped__(3, mode)
    assert f"m=3, {mode.describe()})" in str(err.value)


@pytest.mark.parametrize("c, text, num", [
    (Cyc(3), "0", []),
    (Cyc(3, (F(-5, 2),)), "-5/2", [["-5/2", "0"]]),
    (zeta(3), "(xi)", [["0", "1"]]),
], ids=["zero", "rational", "xi"])
def test_cyc_renders_as_the_constant_cycrat(c, text, num):
    # a Cyc is written as the constant rational function c / 1, and as the
    # constant term of a CycRat is
    assert scalar_to_json(c) == {"num": num, "den": [["1", "0"]]}
    assert scalar_to_str(c) == text
    assert str(CycRat.q(3) + c) == ("q" if not c else f"{text} + q")
    assert X0Matrix(3, 1, {P((1,)): QExpr(3, {(1,): c})}).to_csv() == f",1\n1,{text}\n"


def test_matrix_serialization():
    mat = x0_matrix(3, M2)
    obj = mat.to_json()
    assert obj["order"] == [[3], [2, 1]]
    assert len(obj["entries"]) == 2 and len(obj["entries"][0]) == 2
    json.dumps(obj)
    csv_text = mat.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",3,2+1"
    assert csv_text == mat.to_csv()
