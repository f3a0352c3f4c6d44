import random
from fractions import Fraction

import pytest

from modmac import symfunc
from modmac.errors import InternalCheckError, VerificationError
from modmac.macdonald import solve_q
from modmac.newton import newton_lhs, r_from_recursion
from modmac.partitions import (
    Partition,
    dominates,
    enumerate_partitions,
    lowerings,
    mult_factorial,
    z_of,
)
from modmac.scalars import Cyc, CycRat, _as_cyc, _pgcd, epsilon, eval_mode, symbolic_mode, zeta
from modmac.symfunc import (
    PExpr,
    QExpr,
    _exact_inverse,
    coefficient_dot,
    epsilon_product,
    modular_relation_check,
    p_multiply,
    p_to_q_reduced,
    q_to_p,
    qprod_to_p,
    pairing_weights,
    r_to_p,
    to_p,
    weigh,
)
from modmac.vertex import s_apply, x0_apply_diff, x0_apply_series, x0_matrix
from oracles import d_dp, scalar_product

P = Partition
F = Fraction
M2 = symbolic_mode(2)
M3 = symbolic_mode(3)
Q2 = CycRat.q(2)


# ---------------------------------------------------------------------------
# test-local oracle: truncated exponential of a series with no constant term


def series_exp(coeff_fn, top, m):
    a = [PExpr.zero(m)] + [coeff_fn(k) for k in range(1, top + 1)]
    out = [PExpr.one(m)] + [PExpr.zero(m) for _ in range(top)]
    power = list(out)
    fact = 1
    for j in range(1, top + 1):
        nxt = [PExpr.zero(m) for _ in range(top + 1)]
        for i in range(top + 1):
            if power[i].is_zero:
                continue
            for k in range(1, top + 1 - i):
                if not a[k].is_zero:
                    nxt[i + k] = nxt[i + k] + p_multiply(power[i], a[k])
        power = nxt
        fact *= j
        for i in range(top + 1):
            if not power[i].is_zero:
                out[i] = out[i] + power[i].scale(F(1, fact))
    return out


# ---------------------------------------------------------------------------


def test_pexpr_validation():
    with pytest.raises(ValueError):
        PExpr(2, {(2,): 1})
    with pytest.raises(ValueError):
        PExpr(2, {(1,): Cyc(3, (1,))})
    f = PExpr(2, {(1,): 0})
    assert f.is_zero


def test_pexpr_sum():
    f = PExpr(3, {(1,): 2, (2, 1): CycRat.q(3)})
    assert PExpr.sum(3, []) == PExpr.zero(3)
    assert (f + (-f)).terms == {}
    assert PExpr.sum(3, [f, -f]).terms == {}
    g = PExpr(2, {(1,): 1})
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        PExpr.sum(3, [f, g])


def test_pexpr_sum_matches_chained_addition():
    q = CycRat.q(3)
    lams = [P((2, 1)), P((1, 1, 1)), P((2, 1)), P((3,))]
    coeffs = [q / (q + 2), zeta(3) * q**2 - 1, -q / (q + 2), 1 / (q - zeta(3))]
    terms = [qprod_to_p(lam, 3).scale(c) for lam, c in zip(lams, coeffs)]
    chained = PExpr.zero(3)
    for t in terms:
        chained = chained + t
    total = PExpr.sum(3, terms)
    assert total == chained
    # the first and third terms cancel exactly
    assert total == PExpr.sum(3, [terms[1], terms[3]])
    assert not total.is_zero


def test_p_multiply_examples():
    p1 = PExpr(2, {(1,): 1})
    p21 = PExpr(3, {(2, 1): 1})
    assert p_multiply(PExpr(3, {(1,): 1}), p21) == PExpr(3, {(2, 1, 1): 1})
    f = PExpr(3, {(1,): 1, (2,): 1})
    assert p_multiply(f, PExpr(3, {(1,): 1})) == PExpr(3, {(1, 1): 1, (2, 1): 1})
    assert p_multiply(PExpr.one(2), p1) == p1
    with pytest.raises(ValueError):
        p_multiply(p1, p21)


def test_only_scale_multiplies_by_a_scalar():
    f = PExpr(3, {(2, 1): 1})
    assert f.scale(3) == PExpr(3, {(2, 1): 3})
    for c in (3, Fraction(1, 2), zeta(3), CycRat.q(3)):
        with pytest.raises(TypeError):
            f * c
        with pytest.raises(TypeError):
            c * f


def test_q_to_p_examples():
    e1 = epsilon(1, M2)
    assert to_p(q_to_p(2, 2), M2) == PExpr(2, {(1, 1): 1 / (2 * e1 * e1)})
    assert to_p(q_to_p(2, 3), M3) == PExpr(3, {
        (2,): 1 / (2 * epsilon(2, M3)),
        (1, 1): 1 / (2 * epsilon(1, M3) ** 2),
    })
    assert to_p(q_to_p(0, 3), M3) == PExpr.one(3)
    assert q_to_p(-1, 3).is_zero


def test_qprod_examples():
    e1 = epsilon(1, M2)
    assert to_p(qprod_to_p(P(()), 2), M2) == PExpr.one(2)
    assert to_p(qprod_to_p(P((1, 1)), 2), M2) == PExpr(2, {(1, 1): 1 / (e1 * e1)})
    assert qprod_to_p(P((2,)), 2) == q_to_p(2, 2)


def test_r_to_p_examples():
    assert to_p(r_to_p(0, M2), M2) == PExpr.one(2)
    assert to_p(r_to_p(1, M2), M2) == PExpr(2, {(1,): -2})
    assert to_p(r_to_p(2, M2), M2) == PExpr(2, {(1, 1): 2})
    assert r_to_p(-3, M2).is_zero


_MIXED = {
    "Cyc + Cyc": lambda: zeta(2) + zeta(3),
    "Cyc * Cyc": lambda: zeta(2) * zeta(3),
    "CycRat + CycRat": lambda: Q2 + CycRat.q(3),
    "CycRat + Cyc": lambda: Q2 + zeta(3),
    "PExpr(...)": lambda: PExpr(2, {(1,): zeta(3)}),
    "PExpr.sum": lambda: PExpr.sum(2, [PExpr.one(3)]),
    "PExpr * PExpr": lambda: PExpr.one(2) * PExpr.one(3),
    "to_p": lambda: to_p(PExpr.one(2), M3),
    "scalar_product": lambda: scalar_product(PExpr.one(2), PExpr.one(3), M2),
    "scalar_product mode": lambda: scalar_product(PExpr.one(2), PExpr.one(2), M3),
    "x0_apply_diff": lambda: x0_apply_diff(PExpr.one(2), M3),
}


@pytest.mark.parametrize("entry", list(_MIXED))
def test_mixed_moduli_raise_one_message(entry):
    # every operation on operands of moduli 2 and 3 names both, first operand first
    with pytest.raises(ValueError, match="^mixed moduli: 2 vs 3$"):
        _MIXED[entry]()


def test_to_p_divides_by_epsilon():
    f = PExpr(3, {(): 5, (2, 1): CycRat.q(3)})
    assert to_p(f, M3) == PExpr(3, {(): 5, (2, 1): CycRat.q(3) / (epsilon(2, M3) * epsilon(1, M3))})
    assert to_p(PExpr.zero(3), M3).is_zero
    with pytest.raises(ValueError):
        to_p(f, M2)


# ---------------------------------------------------------------------------
# the P-basis closed forms against the p-basis formulas they replaced, kept
# here as the oracle: q_n = sum p_rho / (z_rho eps_rho), R_n = c^n sum
# prod_i (1 - xi^{rho_i}) p_rho / z_rho, and the annihilation component
# sum prod_i (q^{rho_i} - 1) c^{-rho_i} / m(rho)! d^rho in p


def _p_basis_q(n, mode):
    m = mode.m
    return PExpr(m, {rho: 1 / (epsilon_product(rho, mode) * z_of(rho))
                     for rho in enumerate_partitions(n, "m_regular", m)})


def _p_basis_r(n, mode):
    m = mode.m
    terms = {}
    for rho in enumerate_partitions(n, "m_regular", m):
        w = mode.c0**n
        for part in rho:
            w = w * (1 - zeta(m, part))
        terms[rho] = w / z_of(rho)
    return PExpr(m, terms)


def _p_basis_s(k, f, mode):
    m = mode.m
    out = PExpr.zero(m)
    for rho in enumerate_partitions(k, "m_regular", m):
        g = f
        for part in rho:
            g = d_dp(part, g)
        w = mode.one()
        for part in rho:
            w = w * (mode.qpow(part) - 1) * mode.c0**-part
        out = out + g.scale(w / mult_factorial(rho))
    return out


CLOSED_FORM_MODES = ([symbolic_mode(m) for m in range(2, 7)]
                     + [eval_mode(m, F(3, 2), F(-2, 5) * zeta(m)) for m in range(2, 7)])


@pytest.mark.parametrize("mode", CLOSED_FORM_MODES,
                         ids=[f"m{mode.m}-{'symbolic' if mode.is_symbolic else 'eval'}"
                              for mode in CLOSED_FORM_MODES])
def test_p_basis_closed_forms(mode):
    # n <= 7 at m = 2..6, symbolic and at an eval point with c0 != xi^-1
    m = mode.m
    for n in range(0, 8):
        assert to_p(q_to_p(n, m), mode) == (_p_basis_q(n, mode) if n else PExpr.one(m)), n
        assert to_p(r_to_p(n, mode), mode) == (_p_basis_r(n, mode) if n else PExpr.one(m)), n
        # every P_rho of weight n at once, so that each derivative term shows
        f = PExpr(m, {rho: 1 for rho in enumerate_partitions(n, "m_regular", m)})
        lows = s_apply(f)
        assert len(lows) == n + 1, n
        for k in range(0, n + 1):
            assert to_p(lows[k], mode) == _p_basis_s(k, to_p(f, mode), mode), (n, k)


@pytest.mark.parametrize("mode", [M2, M3])
def test_generating_function_consistency(mode):
    # q_n must match the truncated exponential of sum z^k p_k / (k eps_k)
    top = 12
    m = mode.m

    def coeff(k):
        if k % m == 0:
            return PExpr.zero(m)
        return PExpr(m, {(k,): 1 / (epsilon(k, mode) * k)})

    series = series_exp(coeff, top, m)
    for n in range(top + 1):
        assert to_p(q_to_p(n, m), mode) == series[n], n


@pytest.mark.parametrize("mode", [M2, M3])
def test_creation_series_consistency(mode):
    # closed-form R_n must match the truncated exponential of its generating series
    top = 12
    m = mode.m

    def coeff(k):
        if k % m == 0:
            return PExpr.zero(m)
        w = (1 - zeta(m, k)) * mode.c0**k
        return PExpr(m, {(k,): w / k})

    series = series_exp(coeff, top, m)
    for n in range(top + 1):
        assert to_p(r_to_p(n, mode), mode) == series[n], n


@pytest.mark.parametrize("mode", [M2, M3])
def test_log_inverse_round_trip(mode):
    # p_n = sum over lam of n eps_n (-1)^{l-1} (l-1)!/m(lam)! q_lam
    import math

    m = mode.m
    for n in range(1, 11):
        if n % m == 0:
            continue
        acc = PExpr.zero(m)
        for lam in enumerate_partitions(n):
            l = len(lam)
            c = F(math.factorial(l - 1), mult_factorial(lam))
            if (l - 1) % 2:
                c = -c
            acc = acc + qprod_to_p(lam, m).scale(epsilon(n, mode) * n * c)
        assert to_p(acc, mode) == PExpr(m, {(n,): 1}), n


def test_scalar_product_examples():
    p1 = PExpr(2, {(1,): 1})
    assert scalar_product(p1, p1, M2) == epsilon(1, M2)
    assert scalar_product(PExpr(3, {(1,): 1}), PExpr(3, {(2,): 1}), M3).is_zero
    q1 = to_p(q_to_p(1, 2), M2)
    assert scalar_product(q1, q1, M2) == 1 / epsilon(1, M2)
    with pytest.raises(ValueError):
        scalar_product(p1, PExpr(3, {(1,): 1}), M2)


# each modulus to a weight past it, where the modular structure appears
WEIGHT_CASES = [(mode, n) for m, weights in ((2, range(1, 7)), (3, range(1, 6)), (4, range(1, 6)),
                                             (5, range(1, 7)), (8, (1, 2, 3, 8)))
                for mode in (symbolic_mode(m), eval_mode(m, 2)) for n in weights]


@pytest.mark.parametrize("mode,n", WEIGHT_CASES,
                         ids=[f"m{mode.m}-{'symbolic' if mode.is_symbolic else 'eval'}-n{n}"
                              for mode, n in WEIGHT_CASES])
def test_cleared_pairing_equals_scalar_product(mode, n):
    # the pairing in P through `weigh` against the p-basis pairing, on three
    # q-products, their images under X0 (coefficients that depend on q) and
    # one sum of both
    m = mode.m
    one = Cyc(m, (1,))
    for rho, w in pairing_weights(n, mode).items():
        p_rho = to_p(PExpr(m, {rho: 1}), mode)
        assert w == scalar_product(p_rho, p_rho, mode)
    basis = [qprod_to_p(lam, m) for lam in enumerate_partitions(n, "m_reduced", m)[:3]]
    vectors = basis + [x0_apply_diff(f, mode) for f in basis]
    vectors.append(vectors[-1] + vectors[0].scale(mode.qpow(1) + 1))
    for g in vectors:
        lcm, weighted = weigh(g, mode)
        # K is monic and the least multiple that makes every K g_rho w_rho a polynomial
        if isinstance(lcm, Cyc):
            assert lcm == 1
            acc = (one.den, one.num)
        else:
            assert mode.is_symbolic and lcm.is_polynomial and lcm.num[-1] == 1
            acc = lcm._num
        assert weighted.terms.keys() == g.terms.keys()
        for c in weighted.terms.values():
            assert isinstance(c, Cyc) or c.is_polynomial
            acc = _pgcd(m, acc, c._num if isinstance(c, CycRat) else (c.den, c.num))
        assert acc == (one.den, one.num)
        for f in vectors:
            want = scalar_product(to_p(f, mode), to_p(g, mode), mode)
            assert coefficient_dot(f, weighted) / lcm == want


def test_weigh_zero_and_moduli():
    assert weigh(PExpr.zero(3), M3) == (1, PExpr.zero(3))
    assert coefficient_dot(PExpr.zero(2), PExpr.one(2)) == 0
    with pytest.raises(ValueError, match="^mixed moduli"):
        weigh(PExpr.one(2), M3)
    with pytest.raises(ValueError, match="^mixed moduli"):
        coefficient_dot(PExpr.one(2), PExpr.one(3))


def _random_homogeneous(rng, m, n, mode):
    out = PExpr.zero(m)
    for lam in enumerate_partitions(n, "m_regular", m):
        if rng.random() < 0.6:
            out = out + PExpr(m, {lam: F(rng.randint(-5, 5), rng.randint(1, 3))})
    return out


@pytest.mark.parametrize("mode", [M2, M3])
def test_h_pair_adjointness(mode):
    # <p_n f, g> == <f, n eps_n dg/dp_n> on random homogeneous elements
    rng = random.Random(11)
    m = mode.m
    for _ in range(20):
        n = rng.choice([k for k in range(1, 6) if k % m])
        deg = rng.randint(0, 8 - n)
        f = _random_homogeneous(rng, m, deg, mode)
        g = _random_homogeneous(rng, m, deg + n, mode)
        lhs = scalar_product(p_multiply(PExpr(m, {(n,): 1}), f), g, mode)
        rhs = scalar_product(f, d_dp(n, g).scale(epsilon(n, mode) * n), mode)
        assert lhs == rhs


def test_d_dp_examples():
    assert d_dp(1, PExpr(2, {(1, 1): 1})) == PExpr(2, {(1,): 2})
    assert d_dp(2, PExpr(3, {(1, 1): 1})).is_zero
    assert d_dp(1, PExpr(3, {(2, 1, 1): 1})) == PExpr(3, {(2, 1): 2})
    with pytest.raises(ValueError):
        d_dp(2, PExpr(2, {(1,): 1}))
    with pytest.raises(ValueError):
        d_dp(0, PExpr(2, {(1,): 1}))


def test_derived_keys_are_partitions():
    # a bare tuple key hashes and compares equal to a Partition but has no weight
    f = qprod_to_p(P((2, 2, 1)), 3)
    product = PExpr(3, {(2, 1): 1}) * PExpr(3, {(1,): 1})
    exprs = (f, d_dp(1, f), d_dp(2, f), product, x0_apply_series(P((2, 1, 1)), M3),
             p_to_q_reduced(f), to_p(f, M3))
    keys = [lam for e in exprs for lam in e.terms]
    keys += x0_matrix(4, M3).columns
    keys += solve_q(P((2, 1, 1)), M3).q_coeffs.terms
    assert len(keys) > 20 and all(type(lam) is Partition for lam in keys)


def test_p_to_q_reduced_examples():
    qx = p_to_q_reduced(qprod_to_p(P((3, 1)), 2))
    assert qx.terms == {P((3, 1)): Cyc(2, (1,))}
    # p_1 = eps_1 P_1
    p1 = PExpr(2, {(1,): epsilon(1, M2)})
    assert to_p(p1, M2) == PExpr(2, {(1,): 1})
    qx = p_to_q_reduced(p1)
    assert qx.terms == {P((1,)): epsilon(1, M2)}
    qx = p_to_q_reduced(qprod_to_p(P((1, 1)), 2))
    assert qx.terms == {P((2,)): Cyc(2, (2,))}
    qx = p_to_q_reduced(qprod_to_p(P((2, 2, 1, 1)), 2))
    assert len(qx.terms) > 1 and all(lam.is_reduced(2) for lam in qx.terms)
    assert p_to_q_reduced(PExpr.zero(2)).is_zero
    assert p_to_q_reduced(PExpr.one(3)).terms == {P(()): Cyc(3, (1,))}
    with pytest.raises(ValueError):
        p_to_q_reduced(PExpr(2, {(1,): 1, (1, 1): 1}))


# ---------------------------------------------------------------------------
# test-local oracle: the Gauss-Jordan inverse applied by position


def positional_inverse(n, m):
    regular = enumerate_partitions(n, "m_regular", m)
    cols = enumerate_partitions(n, "m_reduced", m)
    return regular, cols, _exact_inverse([[qprod_to_p(c, m).coeff(r) for c in cols] for r in regular], m)


def p_to_q_by_position(basis, f):
    regular, cols, inv = basis
    b = [(k, f.terms[r]) for k, r in enumerate(regular) if r in f.terms]
    coeffs = ((col, sum((inv[j][k] * bk for k, bk in b), Cyc(f.m, ())))
              for j, col in enumerate(cols))
    return {col: x for col, x in coeffs if x}


REDUCED_CASES = [(m, n) for m in (2, 3, 4, 5, 6, 8, 12) for n in range(1, 9 if m == 2 else 7)]


@pytest.mark.parametrize("m,n", REDUCED_CASES)
def test_p_to_q_reduced_matches_positional_inverse(m, n):
    basis = positional_inverse(n, m)
    for mode in (symbolic_mode(m), eval_mode(m, 2)):
        for lam in enumerate_partitions(n):
            f = qprod_to_p(lam, m)
            g = x0_apply_diff(f, mode)
            for h in (f, g, f + g):
                assert p_to_q_reduced(h).terms == p_to_q_by_position(basis, h), (mode, lam)


@pytest.mark.parametrize("m,n", REDUCED_CASES)
def test_inverse_rows_are_sparse_pexprs_on_the_regular_basis(m, n):
    rows = symfunc._reduced_basis_solver(n, m)
    reduced = enumerate_partitions(n, "m_reduced", m)
    regular = enumerate_partitions(n, "m_regular", m)
    assert list(rows) == reduced
    # each lambda's row is its positional row of the dense inverse, zeros dropped
    dense = symfunc._exact_inverse([[qprod_to_p(c, m).coeff(r) for c in reduced] for r in regular], m)
    for lam, want in zip(reduced, dense):
        row = rows[lam]
        assert type(row) is PExpr and row.m == m and row.terms
        assert row.terms == {rho: x for rho, x in zip(regular, want) if x}
        assert all(type(c) is Cyc and c for c in row.terms.values())


def test_round_trip_through_reduced_basis():
    for m, top in ((2, 7), (3, 6)):
        for n in range(0, top + 1):
            for lam in enumerate_partitions(n, "m_reduced", m):
                f = qprod_to_p(lam, m)
                back = p_to_q_reduced(f).to_p()
                assert back == f, lam


@pytest.mark.parametrize("mode,top", [(M2, 8), (M3, 6)])
def test_reduced_expansion_triangularity(mode, top):
    # q_lam expands over reduced mu >= lam, with coefficient 1 at a reduced lam
    for n in range(0, top + 1):
        for lam in enumerate_partitions(n):
            qx = p_to_q_reduced(qprod_to_p(lam, mode.m))
            for mu in qx.terms:
                assert dominates(mu, lam), (lam, mu)
            if lam.is_reduced(mode.m):
                assert qx.coeff(lam) == 1, lam


def test_modular_relation_examples():
    rel = modular_relation_check(1, 2)
    assert rel.coeff(P((2,))) == 2 and rel.coeff(P((1, 1))) == -1
    rel3 = modular_relation_check(1, 3)
    assert rel3.coeff(P((3,))) == 3
    assert rel3.coeff(P((1, 1, 1))) == 1  # sign (-1)^{(m+1)k} with m=3, k=1
    modular_relation_check(2, 2)
    with pytest.raises(ValueError):
        modular_relation_check(0, 2)


def test_modular_relation_against_direct_series_product():
    # independent route: multiply the twisted p-basis series directly
    for mode, k in ((M2, 2), (M3, 1)):
        m = mode.m
        top = k * m
        series = [[to_p(q_to_p(n, m), mode).scale(zeta(m, i * n))
                   for n in range(top + 1)] for i in range(1, m + 1)]
        prod = [PExpr.one(m)] + [PExpr.zero(m) for _ in range(top)]
        for s in series:
            nxt = [PExpr.zero(m) for _ in range(top + 1)]
            for i in range(top + 1):
                if prod[i].is_zero:
                    continue
                for j in range(top + 1 - i):
                    if not s[j].is_zero:
                        nxt[i + j] = nxt[i + j] + p_multiply(prod[i], s[j])
            prod = nxt
        assert prod[top].is_zero
        rel = modular_relation_check(k, m)
        assert rel.to_p().is_zero


def _composition_walk(k, m):
    # the relation as the sum over every composition (n_1..n_m) of km of
    # xi^{sum i n_i} q_{sorted positive n}, depth first, the last factor
    # taking what is left: integer counts per exponent of xi mod m
    rows = {}

    def walk(i, left, taken, e):
        if i == m:
            rows.setdefault(tuple(sorted(taken + (left,), reverse=True)), [0] * m)[e % m] += 1
            return
        for n in range(left + 1):
            walk(i + 1, left - n, taken + (n,), e + i * n)

    walk(1, k * m, (), 0)
    return QExpr._collect(m, ((P(n for n in key if n), Cyc(m, row)) for key, row in rows.items()))


def test_modular_relation_matches_the_composition_walk():
    for m in range(2, 13):
        for k in range(1, 12 // m + 1):
            assert modular_relation_check(k, m) == _composition_walk(k, m), (m, k)


def test_qexpr_validation_and_json():
    with pytest.raises(ValueError):
        QExpr(2, {(1, 1): Cyc(3, (1,))})
    qx = QExpr(2, {(2, 1): CycRat.q(2)})
    obj = qx.to_json()
    assert obj["basis"] == "q" and obj["terms"][0]["partition"] == [2, 1]


def test_pexpr_json_shape():
    f = to_p(q_to_p(2, 2), M2)
    obj = f.to_json()
    assert obj == {
        "m": 2,
        "basis": "p",
        "terms": [{"partition": [1, 1],
                   "coeff": {"num": [["2"]], "den": [["1"], ["-2"], ["1"]]}}],
    }
    # the coefficient is 1/(2 eps_1^2) = 2/(1-q)^2
    got = f.coeff(P((1, 1)))
    assert got == 2 / ((1 - Q2) * (1 - Q2))


def test_epsilon_product_empty():
    assert epsilon_product(P(()), M2) == 1


def test_expr_structure_and_repr():
    assert PExpr.zero(2).homogeneous_degree() is None
    assert x0_apply_diff(PExpr.zero(3), M3).is_zero
    f = PExpr(2, {(1,): Q2, (3,): F(1, 2)})
    assert repr(PExpr.zero(2)) == "PExpr(0)"
    assert repr(f) == "PExpr((q)*p[1] + (1/2)*p[3])"
    assert repr(QExpr(3, {(3,): zeta(3)})) == "QExpr((xi)*q[3])"
    # another type leaves the comparison to the other operand
    assert f.__eq__(QExpr(2, f.terms)) is NotImplemented and f.__eq__(1) is NotImplemented
    assert f != QExpr(2, f.terms)


def test_singular_change_of_basis_is_an_internal_error():
    one = Cyc(2, (1,))
    with pytest.raises(InternalCheckError, match="singular change-of-basis matrix at column 1"):
        _exact_inverse([[one, one], [one, one]], 2)


def test_reduced_basis_count_mismatch_is_an_internal_error(monkeypatch):
    real = symfunc.enumerate_partitions

    def short_reduced(n, kind, m):
        out = real(n, kind, m)
        return out[:-1] if kind == "m_reduced" else out

    monkeypatch.setattr(symfunc, "enumerate_partitions", short_reduced)
    with pytest.raises(InternalCheckError, match=r"^\|m-regular\| != \|m-reduced\| at weight 4: 2 vs 1$"):
        symfunc._reduced_basis_solver.__wrapped__(4, 2)


def test_nonzero_twisted_product_is_a_verification_error(monkeypatch):
    monkeypatch.setattr(QExpr, "to_p", lambda self: PExpr.one(self.m))
    with pytest.raises(VerificationError, match=r"nonzero z\^2 coefficient"):
        modular_relation_check(1, 2)


# ---------------------------------------------------------------------------
# the one raising sum: the zero mode's series and the Newton left-hand side
# against the route of one product per lowering-table entry


def _raising_oracle(lam, mode, newton=False, rs=None):
    # sum over the entries (k, t, nu) of count * a^t * (R_k * q_nu), with
    # a = 1 - xi for the series and a = 1 on the Newton slice t = len(lam)
    one_minus_xi = 1 - zeta(mode.m)
    total = PExpr.zero(mode.m)
    for (k, t, nu), c in lowerings(lam).items():
        if newton and t != len(lam):
            continue
        r = r_to_p(k, mode) if rs is None else rs[k]
        weight = c if newton else one_minus_xi**t * c
        total = total + (r * qprod_to_p(nu, mode.m)).scale(weight)
    return total


@pytest.mark.parametrize("q0", (None, 2))
@pytest.mark.parametrize("m", (2, 3, 4, 5, 6, 8, 12))
def test_raising_sums_match_one_product_per_entry(m, q0):
    mode = symbolic_mode(m) if q0 is None else eval_mode(m, q0)
    top = 9 if m == 2 else 7
    rs = r_from_recursion(top, lambda n: _as_cyc(m, F(n + 2, 3 - n % 2)), mode)
    closed = [r_to_p(k, mode) for k in range(top + 1)]
    for n in range(top + 1):
        for lam in enumerate_partitions(n):
            assert x0_apply_series(lam, mode) == _raising_oracle(lam, mode), lam
            if not lam:
                continue
            lhs = newton_lhs(lam, mode)
            assert lhs == _raising_oracle(lam, mode, newton=True), lam
            assert newton_lhs(lam, mode, rs=closed) == lhs, lam
            assert newton_lhs(lam, mode, rs=rs) == _raising_oracle(lam, mode, True, rs), lam
