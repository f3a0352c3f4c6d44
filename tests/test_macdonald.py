import json
import re
from fractions import Fraction

import pytest

from modmac import cli, macdonald, selfcheck, vertex
from modmac.errors import EigenvalueCollisionAtEvaluation, InternalCheckError, PoleAtSpecialization
from modmac.macdonald import (
    all_q,
    gram,
    schur_q_oracle,
    solve_q,
    specialize_q0,
)
from modmac.partitions import Partition, dominates, enumerate_partitions, z_of
from modmac.scalars import Cyc, CycRat, _pgcd, clear_denominators, eval_mode, symbolic_mode, zeta
from modmac.selfcheck import _check_eigenbasis, _check_self_adjoint
from modmac.symfunc import (
    PExpr,
    QExpr,
    epsilon_product,
    p_multiply,
    q_to_p,
    qprod_to_p,
    to_p,
)
from modmac.vertex import eigenvalue_c, x0_apply_diff, x0_matrix
from oracles import scalar_product

P = Partition
F = Fraction
M2 = symbolic_mode(2)
M3 = symbolic_mode(3)
Q = CycRat.q(2)


def _in_P(mac):
    # the eigenvector in the P coordinates the operator acts on
    return mac.q_coeffs.to_p()


def test_solve_q_degree_one():
    mac = solve_q(P((1,)), M2)
    assert mac.q_coeffs == QExpr(2, {(1,): 1})
    assert mac.p_form == to_p(q_to_p(1, 2), M2)
    assert mac.eigenvalue == 2 * Q - 1
    for m in (3, 4):
        mode = symbolic_mode(m)
        mac = solve_q(P((1,)), mode)
        assert mac.p_form == to_p(q_to_p(1, m), mode)
        assert mac.eigenvalue == eigenvalue_c(P((1,)), mode)


def test_solve_q_singleton_weight():
    mac = solve_q(P((2,)), M2)
    assert mac.p_form == to_p(q_to_p(2, 2), M2)
    assert mac.q_coeffs.coeff(P((2,))) == 1


def test_solve_q_two_dimensional():
    mac = solve_q(P((2, 1)), M2)
    assert mac.q_coeffs.coeff(P((2, 1))) == 1
    assert mac.q_coeffs.coeff(P((3,))) == -2 * (Q**2 + Q + 1) / (Q**2 + 1)
    # eigenvector property through the independent implementation
    f = _in_P(mac)
    assert to_p(f, M2) == mac.p_form
    assert x0_apply_diff(f, M2) == f.scale(mac.eigenvalue)


def test_solve_q_validation():
    with pytest.raises(ValueError):
        solve_q(P((1, 1)), M2)
    mac = solve_q(P(()), M3)
    assert mac.p_form == PExpr.one(3) and mac.eigenvalue == 1


def test_eigenvalues_are_read_off_the_checked_diagonal(monkeypatch):
    # the closed form runs once per basis element, when x0_matrix builds and
    # checks the diagonal; every solve reads its eigenvalue and gaps off it.
    # No other test solves at this point, so nothing is cached yet.
    mode = eval_mode(3, F(5, 2))
    calls = []

    def counted(lam, md):
        calls.append(lam)
        return eigenvalue_c(lam, md)

    monkeypatch.setattr(vertex, "eigenvalue_c", counted)
    monkeypatch.setattr(macdonald, "eigenvalue_c", counted, raising=False)
    qs = all_q(6, mode)
    mat = x0_matrix(6, mode)
    assert calls == list(mat.columns) and len(calls) > 4
    diagonal = [col.coeff(lam) for lam, col in mat.columns.items()]
    assert [mac.eigenvalue for mac in qs] == diagonal
    assert diagonal == [eigenvalue_c(lam, mode) for lam in mat.columns]


def test_all_q_examples():
    assert [mac.shape for mac in all_q(3, M2)] == [(3,), (2, 1)]
    assert [mac.shape for mac in all_q(2, M3)] == [(2,), (1, 1)]
    assert [mac.shape for mac in all_q(1, M2)] == [(1,)]
    # weight 0 goes through the general solve: Q_() = 1, paired with itself to 1
    assert [(mac.shape, mac.q_coeffs.terms) for mac in all_q(0, M2)] == [((), {(): 1})]
    assert gram(0, M2) == {(): 1}


def test_unitriangular_and_eigenvectors():
    # symbolic m = 2 to n = 6, symbolic m = 3 to n = 4, eval(q0=2) m = 4 to n = 6
    for m, sym_bound, eval_bound in ((2, 6, 0), (3, 4, 0), (4, 0, 6)):
        report = _check_eigenbasis(m, sym_bound, eval_bound)
        assert report["status"] == "ok", report


def test_eigenvector_via_matrix_coordinates():
    # coordinates must satisfy sum_mu C_mu c'_{mu,nu} = c_lam C_nu directly
    from modmac.vertex import x0_matrix

    for mode, n in ((M2, 5), (M3, 4)):
        mat = x0_matrix(n, mode)
        rows, order = mat.rows(), tuple(mat.columns)
        for mac in all_q(n, mode):
            for nu in order:
                acc = mode.zero()
                for mu, c in mac.q_coeffs.terms.items():
                    acc = acc + c * rows[order.index(nu)][order.index(mu)]
                assert acc == mac.eigenvalue * mac.q_coeffs.coeff(nu), (mac.shape, nu)


def _direct_gram(n, mode):
    # the direct pairings of the p-forms, the oracle for gram's cleared ones:
    # every off-diagonal pairing is zero, and the diagonal is returned by shape
    qs = all_q(n, mode)
    pairings = [[scalar_product(a.p_form, b.p_form, mode) for b in qs] for a in qs]
    assert all(v.is_zero for i, row in enumerate(pairings) for j, v in enumerate(row) if i != j)
    return {a.shape: pairings[i][i] for i, a in enumerate(qs)}


def test_gram_examples():
    assert gram(1, M2) == {P((1,)): 2 / (1 - Q)}
    for mode, n in ((M2, 3), (M3, 2), (M3, 3)):
        g = gram(n, mode)
        assert g == _direct_gram(n, mode) and list(g) == list(x0_matrix(n, mode).columns)
        assert not any(v.is_zero for v in g.values())


CLEARED_CASES = ([(M2, n) for n in range(1, 7)] + [(M3, n) for n in range(1, 6)]
                 + [(symbolic_mode(4), n) for n in range(1, 6)]
                 + [(eval_mode(3, 2), n) for n in range(1, 7)])


@pytest.mark.parametrize("mode,n", CLEARED_CASES,
                         ids=[f"m{mode.m}-{'symbolic' if mode.is_symbolic else 'eval'}-n{n}"
                              for mode, n in CLEARED_CASES])
def test_cleared_route_equals_direct_route(mode, n):
    qs = all_q(n, mode)
    assert gram(n, mode) == _direct_gram(n, mode)
    for mac in qs:
        lcm, cleared = mac.lcm, mac.cleared
        one = Cyc(mode.m, (1,))
        if isinstance(lcm, Cyc):
            assert lcm == 1
            g = (lcm.den, lcm.num)
        else:
            assert mode.is_symbolic and lcm.is_polynomial and lcm.num[-1] == 1
            g = lcm._num
        # N = sum (L c_mu) q_mu in P, and N_rho / (L eps_rho) is the p-form
        assert cleared == _in_P(mac).scale(lcm)
        assert cleared.terms.keys() == mac.p_form.terms.keys()
        for lam, c in cleared.terms.items():
            assert isinstance(c, Cyc) or c.is_polynomial
            assert c / (lcm * epsilon_product(lam, mode)) == mac.p_form.terms[lam]
        for c in mac.q_coeffs.terms.values():
            u = c * lcm
            assert isinstance(u, Cyc) or u.is_polynomial
            g = _pgcd(mode.m, g, u._num if isinstance(u, CycRat) else (u.den, u.num))
        # the least common multiple: no factor of L divides every numerator
        assert g == (one.den, one.num), mac.shape


def _recursion_then_clearing(lam, mode):
    # the solve's loop by position over the dense rows, restricted to the
    # shapes that dominate lam, on CycRat coordinates; then one clearing at
    # the end.  Returns the coordinates and the cleared numerators by shape.
    mat = x0_matrix(lam.weight, mode)
    rows, order = mat.rows(), tuple(mat.columns)
    *above, i = (k for k, nu in enumerate(order) if dominates(nu, lam))
    coeffs = {i: mode.one()}
    for k in reversed(above):
        c = sum((a * rows[k][j] for j, a in coeffs.items()), mode.zero()) / (rows[i][i] - rows[k][k])
        if not c.is_zero:
            coeffs[k] = c
    lcm, nums = clear_denominators(mode.m, list(coeffs.values()))
    shapes = [order[k] for k in coeffs]
    return QExpr(mode.m, dict(zip(shapes, coeffs.values()))), lcm, dict(zip(shapes, nums))


# composite moduli at n >= m among them: (4, 6) and (6, 7)
RUNNING_DEN_CASES = [(mode, n) for m, n in ((2, 6), (3, 6), (4, 6), (5, 5), (6, 7), (8, 8))
                     for mode in (symbolic_mode(m), eval_mode(m, 2))]


@pytest.mark.parametrize("mode,n", RUNNING_DEN_CASES,
                         ids=[f"m{mode.m}-{'symbolic' if mode.is_symbolic else 'eval'}-n{n}"
                              for mode, n in RUNNING_DEN_CASES])
def test_running_denominator_equals_clearing_at_the_end(mode, n):
    # the same coordinates, the same L and the same cleared numerators
    for lam in x0_matrix(n, mode).columns:
        mac = solve_q(lam, mode)
        q_coeffs, lcm, nums = _recursion_then_clearing(lam, mode)
        assert mac.q_coeffs == q_coeffs
        assert mac.lcm == lcm and type(mac.lcm) is type(lcm)
        assert {mu: c * mac.lcm for mu, c in mac.q_coeffs.terms.items()} == nums
        assert mac.cleared == QExpr(mode.m, nums).to_p()
        if not mode.is_symbolic:
            assert lcm == 1


def _mutated_weigh(monkeypatch, mutate):
    # every pairing of `gram` goes through weigh
    real = macdonald.weigh
    monkeypatch.setattr(macdonald, "weigh", lambda f, mode: mutate(*real(f, mode)))


def test_dropped_lcm_changes_the_gram_diagonal(monkeypatch):
    # K = 1 in place of the vector's lcm: the diagonal is off by K, and the
    # direct pairings of the p-forms see it
    want = _direct_gram(4, M3)
    assert gram(4, M3) == want
    _mutated_weigh(monkeypatch, lambda lcm, g: (Cyc(3, (1,)), g))
    assert gram(4, M3) != want


@pytest.mark.parametrize("mode", [M3, eval_mode(3, 2)], ids=["symbolic", "eval"])
def test_dropped_weight_fires(monkeypatch, mode):
    # one weighted term dropped from gram's pairings, and one weight doubled
    # where the self-adjointness check reads it: both fail
    assert _check_self_adjoint(3, 4, 4)["status"] == "ok"
    gram(4, mode)
    rho = P((1, 1, 1, 1))
    _mutated_weigh(monkeypatch, lambda lcm, g: (
        lcm, PExpr._raw(g.m, {key: c for key, c in g.terms.items() if key != rho})))
    with pytest.raises(InternalCheckError, match="^Gram matrix is not diagonal"):
        gram(4, mode)
    monkeypatch.setattr(selfcheck, "epsilon_product", lambda lam, pm: (
        2 if lam == rho else 1) * epsilon_product(lam, pm))
    report = _check_self_adjoint(3, 4, 4)
    assert report["detail"] == "fails at n=4, P_(4,) and P_(1, 1, 1, 1), symbolic", report


def test_gram_zeros_are_cycs(monkeypatch):
    # a zero in a written matrix is the Cyc zero: the entries off the Gram
    # diagonal, as a zero x0_matrix entry
    written = []
    monkeypatch.setattr(cli, "_emit_matrix", lambda mat, out: written.append(mat))
    cli.gram_cmd(M3, 4, "json")
    rows = written[0].rows()
    zeros = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if not v]
    assert zeros == [(i, j) for i in range(len(rows)) for j in range(len(rows)) if i != j]
    assert len(zeros) == 12
    assert all(type(rows[i][j]) is Cyc for i, j in zeros)
    assert [rows[i][i] for i in range(len(rows))] == list(gram(4, M3).values())
    zeros = [x for row in x0_matrix(4, M3).rows() for x in row if not x]
    assert zeros and all(type(x) is Cyc for x in zeros)


def test_uniqueness_perturbation_breaks_eigenvector():
    import random

    rng = random.Random(3)
    cases = [(P((2, 1)), M2), (P((3, 1)), M2), (P((4, 2)), M2), (P((2, 1)), M3)]
    for lam, mode in cases:
        mac = solve_q(lam, mode)
        above = [nu for nu in mac.q_coeffs.terms if nu != lam]
        if not above:
            continue
        nu = rng.choice(above)
        amount = F(rng.randint(1, 5), rng.randint(1, 3))
        perturbed = _in_P(mac) + qprod_to_p(nu, mode.m).scale(amount)
        assert x0_apply_diff(perturbed, mode) != perturbed.scale(mac.eigenvalue), (lam, nu)


@pytest.mark.parametrize("mode", [M2, eval_mode(2, 2)], ids=["symbolic", "eval"])
def test_eigenvector_recheck_fires(monkeypatch, mode):
    # one perturbed recursion coefficient: the entry of the image of q_(3,1)
    # at q_(4), the only one the solve for (3,1) reads
    mat = x0_matrix(4, mode)
    assert tuple(mat.columns) == (P((4,)), P((3, 1)))
    # column (3, 1) gains 1 at row (4)
    col = mat.columns[P((3, 1))]
    bad = mat._replace(columns={**mat.columns, P((3, 1)): QExpr(2, {**col.terms, P((4,)): col.coeff(P((4,))) + 1})})
    monkeypatch.setattr(macdonald, "x0_matrix",
                        lambda n, md: bad if (n, md) == (4, mode) else x0_matrix(n, md))
    solve_q.cache_clear()
    try:
        with pytest.raises(InternalCheckError, match="not an eigenvector") as err:
            solve_q(P((3, 1)), mode)
        # the message names the input: the shape, m and the mode
        assert str(err.value).startswith("solved coordinates for (3, 1) ")
        assert str(err.value).endswith(f"(m=2, {mode.describe()})")
    finally:
        solve_q.cache_clear()


@pytest.mark.parametrize("mode", [M3, eval_mode(3, 2)], ids=["symbolic", "eval"])
def test_gram_off_diagonal_check_fires(monkeypatch, mode):
    # Q_2 + Q_0 in place of Q_2 pairs with Q_0 to <Q_0, Q_0>, which is nonzero;
    # the message must carry the true pairing, not the cleared one
    qs = all_q(4, mode)
    p_form = qs[2].p_form + qs[0].p_form
    # (L_2 L_0, N_2 L_0 + N_0 L_2) is the cleared form of Q_2 + Q_0
    mixed = qs[2]._replace(lcm=qs[2].lcm * qs[0].lcm,
                           cleared=qs[2].cleared.scale(qs[0].lcm) + qs[0].cleared.scale(qs[2].lcm))
    assert mixed.p_form == p_form
    monkeypatch.setattr(macdonald, "all_q", lambda n, md: qs[:2] + [mixed] + qs[3:])
    direct = scalar_product(qs[0].p_form, p_form, mode)
    assert not direct.is_zero and direct == scalar_product(qs[0].p_form, qs[0].p_form, mode)
    message = (f"Gram matrix is not diagonal: <Q_{qs[0].shape}, Q_{qs[2].shape}> = {direct} "
               f"(m=3, {mode.describe()})")
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        gram(4, mode)


def test_specialize_examples():
    assert specialize_q0(solve_q(P((1,)), M2)) == PExpr(2, {(1,): 2})
    assert specialize_q0(solve_q(P((2,)), M2)) == PExpr(2, {(1, 1): 2})
    got = specialize_q0(solve_q(P((1,)), M3))
    assert got == PExpr(3, {(1,): Cyc(3, (1,)) - zeta(3, -1)})
    with pytest.raises(ValueError):
        specialize_q0(solve_q(P((1,)), eval_mode(2, 2)))


def test_specialize_reports_a_pole():
    # with L = q every p-coefficient N_rho / (q eps_rho) has q in its
    # denominator and a numerator prime to it: a pole at q = 0
    mac = solve_q(P((1,)), M2)._replace(lcm=Q)
    message = f"coefficient of p_{P((1,))} in Q_{P((1,))} has a pole at q = 0"
    with pytest.raises(PoleAtSpecialization, match=f"^{re.escape(message)}$"):
        specialize_q0(mac)


def test_schur_q_oracle_values():
    assert schur_q_oracle(P((1,))) == PExpr(2, {(1,): 2})
    # generating function: degree-n coefficients carry 2^(length) / z_rho
    for r in range(1, 7):
        got = schur_q_oracle(P((r,)))
        for rho in enumerate_partitions(r, "m_regular", 2):
            assert got.coeff(rho) == F(2**len(rho), z_of(rho))
    from modmac.macdonald import _classical_q

    assert schur_q_oracle(P((2, 1))) == p_multiply(_classical_q(2), _classical_q(1)) - _classical_q(3).scale(2)
    with pytest.raises(ValueError):
        schur_q_oracle(P((2, 2)))


def test_eval_mode_solutions():
    me = eval_mode(2, 2)
    qs = all_q(4, me)
    for mac in qs:
        f = _in_P(mac)
        assert to_p(f, me) == mac.p_form
        assert x0_apply_diff(f, me) == f.scale(mac.eigenvalue)
    assert gram(4, me) == _direct_gram(4, me)
    # eval mode computes in Q(xi_m): every scalar it returns is a Cyc
    for mode, n in ((me, 4), (eval_mode(3, F(1, 2), zeta(3)), 4)):
        values = [x for row in x0_matrix(n, mode).rows() for x in row]
        values += gram(n, mode).values()
        for mac in all_q(n, mode):
            values += list(mac.q_coeffs.terms.values()) + list(mac.p_form.terms.values())
            values.append(mac.eigenvalue)
        assert values and all(type(x) is Cyc for x in values)
    with pytest.raises(EigenvalueCollisionAtEvaluation):
        solve_q(P((2, 1)), eval_mode(2, 1))


def test_macdonald_json():
    mac = solve_q(P((2, 1)), M2)
    obj = mac.to_json()
    assert obj["m"] == 2 and obj["lambda"] == [2, 1]
    assert obj["q_coeffs"][0]["partition"] == [2, 1]
    assert obj["q_coeffs"][0]["coeff"] == {"num": [["1"]], "den": [["1"]]}
    json.dumps(obj)
