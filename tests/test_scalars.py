import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest

from modmac import scalars
from modmac.errors import InternalCheckError
from modmac.scalars import (
    Cyc,
    CycRat,
    clear_denominators,
    cyclotomic_polynomial,
    epsilon,
    euler_phi,
    eval_mode,
    parse_scalar_literal,
    scalar_to_json,
    symbolic_mode,
    zeta,
)
from modmac.scalars import _monic, _pgcd, _qadd, _qdivmod, _qmul, _qnorm, _qunpack, _reduction_table
from modmac.symfunc import PExpr
from oracles import evaluate

F = Fraction


def _rat(m, num, den=(1,)):
    # sum_k num_k q^k over sum_k den_k q^k, built by the public arithmetic
    q = CycRat.q(m)

    def poly(cs):
        return sum((c * q**k for k, c in enumerate(cs)), Cyc(m))

    return poly(num) / poly(den)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (F(-1), F(1))
    assert cyclotomic_polynomial(2) == (F(1), F(1))
    assert cyclotomic_polynomial(3) == (F(1), F(1), F(1))
    assert cyclotomic_polynomial(4) == (F(1), F(0), F(1))
    assert cyclotomic_polynomial(6) == (F(1), F(-1), F(1))
    assert cyclotomic_polynomial(12) == (F(1), F(0), F(-1), F(0), F(1))
    assert euler_phi(5) == 4 and euler_phi(8) == 4
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected), m


def test_zeta_satisfies_its_relations():
    for m in range(2, 8):
        x = zeta(m)
        assert x**m == 1
        # Phi_m(xi) = 0
        acc = Cyc(m, ())
        for k, c in enumerate(cyclotomic_polynomial(m)):
            acc = acc + x**k * c
        assert not acc


def test_cyc_examples():
    assert zeta(2) * zeta(2) == 1
    assert 1 + zeta(3) + zeta(3, 2) == 0
    assert zeta(4) / zeta(4) == 1
    with pytest.raises(ZeroDivisionError):
        Cyc(3, ()).inv()
    with pytest.raises(ValueError):
        zeta(3) + zeta(4)


def _operands(m: int) -> dict:
    # one value of each operand type; the Cyc is irrational once phi(m) > 1
    q = CycRat.q(m)
    return {
        "int": 3,
        "Fraction": F(-5, 7),
        "Cyc": Cyc(m, (F(2, 3),)) + zeta(m) * F(1, 4),
        "CycRat": (q + zeta(m)) / (q - 2),
    }


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_subtraction_is_adding_the_negative(m):
    # every ordered pair of operand types, Cyc - CycRat, int - CycRat and
    # Fraction - Cyc among them
    ops = _operands(m)
    for ka, a in ops.items():
        for kb, b in ops.items():
            diff = a - b
            assert diff == a + (-b) == -(b - a), (ka, kb)
            if isinstance(a, (Cyc, CycRat)) or isinstance(b, (Cyc, CycRat)):
                _assert_one_representation(diff, m)


def test_root_of_unity_power_sums():
    for m in range(2, 7):
        for n in range(1, 2 * m + 1):
            s = Cyc(m, ())
            for i in range(1, m + 1):
                s = s + zeta(m, i * n)
            assert s == (m if n % m == 0 else 0), (m, n)


def _random_cyc(rng, m):
    return Cyc(m, [rng.randint(-4, 4) for _ in range(euler_phi(m))])


def _random_cycrat(rng, m):
    num = [_random_cyc(rng, m) for _ in range(rng.randint(1, 2))]
    while True:
        den = [_random_cyc(rng, m) for _ in range(rng.randint(1, 2))]
        if any(den):
            return _rat(m, num, den)


def test_field_axioms_random_sweep():
    rng = random.Random(20240815)
    for m in (2, 3, 4, 5):
        one = Cyc(m, (1,))
        for _ in range(1000):
            a, b, c = (_random_cycrat(rng, m) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero:
                assert a * (one / a) == one


def _assert_one_representation(v, m):
    # a Cyc, or a CycRat that is not constant in q, in the representation
    # arithmetic rebuilds from its own num and den
    if isinstance(v, Cyc):
        _assert_canonical(v, m)
        return
    assert type(v) is CycRat and v.m == m
    assert len(v.num) > 1 or len(v.den) > 1
    assert v.num[-1] and v.den[-1] == 1
    w = _rat(m, v.num, v.den)
    assert (w.num, w.den) == (v.num, v.den)


def test_arithmetic_results_stay_canonical():
    # fast-path add/mul/div must land on the same representation as
    # rebuilding the value from its num and den, and on a Cyc exactly when
    # the value is constant in q
    rng = random.Random(99)
    for m in (2, 3, 5):
        for _ in range(120):
            a, b = _random_cycrat(rng, m), _random_cycrat(rng, m)
            c = _random_cyc(rng, m)
            results = [a + b, a * b, a - b, a - a, (a + b) - b, a + c, c - a, a * c]
            if not b.is_zero:
                results += [a / b, b / b, a * b.inv() * b]
            for v in results:
                _assert_one_representation(v, m)
            assert type(a - a) is Cyc and a - a == 0
            back = (a + b) - b
            assert type(back) is type(a) and back == a


def test_canonicalization():
    q = CycRat.q(2)
    a = (q - 1) / (q * q - 1)
    assert a == 1 / (q + 1)
    # denominator is monic and the representation is canonical
    assert a.den[-1] == 1
    assert _rat(2, a.num, a.den) == a
    assert (1 / (q + 1)) + (q / (q + 1)) == 1
    assert ((q - 1) / 2) * (2 / (q - 1)) == 1
    with pytest.raises(ZeroDivisionError):
        q / (q - q)


def test_cycrat_has_no_coefficient_constructor():
    # a CycRat comes from CycRat.q and arithmetic only
    with pytest.raises(TypeError):
        CycRat(3, (1,), (1, 1))


def test_epsilon_examples():
    q = CycRat.q(2)
    m2 = symbolic_mode(2)
    assert epsilon(1, m2) == (1 - q) / 2
    assert epsilon(3, m2) == (1 - q**3) / 2
    me = eval_mode(3, 2, 1)
    assert epsilon(1, me) == 1 / (1 - zeta(3))
    with pytest.raises(ValueError):
        epsilon(4, symbolic_mode(2))
    with pytest.raises(ValueError):
        epsilon(0, m2)


def test_epsilon_eval_rejects_roots_of_unity():
    # q0 = -1 in Q(xi_3): q0^2 = 1 and 3 does not divide 2
    me = eval_mode(3, -1)
    with pytest.raises(ValueError):
        epsilon(2, me)


def test_epsilon_symbolic_nonzero():
    for m in (2, 3, 4, 5):
        mode = symbolic_mode(m)
        for n in range(1, 31):
            if n % m:
                assert not epsilon(n, mode).is_zero


def test_eval_mode_validation():
    with pytest.raises(ValueError):
        eval_mode(2, 0)
    with pytest.raises(ValueError):
        eval_mode(2, 2, 0)
    mode = symbolic_mode(3)
    assert mode.c0 == zeta(3, -1)
    assert mode.is_symbolic and mode.describe() == "symbolic"


def test_evaluate_examples():
    # the tests' oracle for substituting q
    q = CycRat.q(2)
    assert evaluate((1 - q) / 2, 0) == F(1, 2)
    with pytest.raises(ZeroDivisionError):
        evaluate(1 / (q - 1), 1)
    assert evaluate((q**2 - q) / q, 0) == -1
    assert evaluate(zeta(3), 0) == zeta(3)  # a Cyc is a constant


@pytest.mark.parametrize("make, value", [
    (lambda q: q - q, 0),
    (lambda q: q * q.inv(), 1),
    (lambda q: (q + 1) - q, 1),
    (lambda q: q / q - zeta(3), 1 - zeta(3)),
    (lambda q: (q + zeta(3)) / (q - 1) - 1 / (q - 1) * (q + zeta(3)), 0),
    (lambda q: _rat(3, (5,)), 5),
    (lambda q: _rat(3, ()), 0),
    (lambda q: _rat(3, (2, 1), (1, F(1, 2))), 2),
    (lambda q: CycRat.q(3, 0), 1),
    (lambda q: symbolic_mode(3).qpow(0), 1),
], ids=["q-q", "q*q^-1", "(q+1)-q", "q/q-xi", "cancelling-fractions", "ctor-constant",
        "ctor-zero", "ctor-common-factor", "q^0", "qpow(0)"])
def test_a_value_constant_in_q_is_a_cyc(make, value):
    v = make(CycRat.q(3))
    assert type(v) is Cyc and v == value


def test_cross_type_equality_and_hash():
    assert Cyc(2, (3,)) == 3 and hash(Cyc(2, (3,))) == hash(3)
    assert hash(Cyc(2, (F(1, 2),))) == hash(F(1, 2))
    assert Cyc(2, (5,)) == Cyc(3, (5,))
    # a CycRat is never constant in q, so it equals no Cyc, int or Fraction
    q = CycRat.q(3)
    for f in (q, (q + zeta(3)) / (q - 1), q * 2 + 1):
        assert f == _rat(3, f.num, f.den) and hash(f) == hash(_rat(3, f.num, f.den))
        for x in (0, 1, F(1, 2), Cyc(3), zeta(3)):
            assert f != x and x != f
    assert CycRat.q(2) != CycRat.q(3)
    # a Cyc mixes with a CycRat in either order; the result is checked at seven
    # points, more than the degree of any difference of two such results
    for x in (zeta(3), Cyc(3, (F(-2, 3),))):
        for f in ((q + x) / (q - 1), q * 2 + 1):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                for a, b in ((x, f), (f, x)):
                    got = op(a, b)
                    _assert_one_representation(got, 3)
                    assert isinstance(got, CycRat)
                    for t in range(2, 9):
                        assert evaluate(got, t) == op(evaluate(a, t), evaluate(b, t))


@pytest.mark.parametrize("make", [
    lambda: Cyc(2, (0.1,)),
    lambda: Cyc(3, (1, "2")),
    lambda: _rat(2, (0.5,)),
    lambda: _rat(2, (1,), (1, 0.5)),
    lambda: CycRat.q(2) + 0.5,
    lambda: eval_mode(2, 0.1),
    lambda: eval_mode(2, 2, 0.1),
    lambda: evaluate(CycRat.q(2), 0.5),
    lambda: PExpr(2, {(1,): 0.5}),
], ids=["cyc", "cyc-str", "cycrat-num", "cycrat-den", "cycrat-op", "eval-q0", "eval-c0",
        "evaluate", "pexpr"])
def test_inexact_coefficient_is_a_type_error(make):
    # a float is never rounded into a Fraction
    with pytest.raises(TypeError):
        make()


def test_clear_denominators():
    # L is the monic lcm of the denominators; L * value is a polynomial
    q = CycRat.q(3)
    values = [Cyc(3, (2,)), 1 / (q - 1), (q + 1) / (q * q - 1) + zeta(3) / (q + 2), q]
    lcm, nums = clear_denominators(3, values)
    assert lcm == (q - 1) * (q + 2)
    assert [x / lcm for x in nums] == values
    assert all(isinstance(x, Cyc) or x.is_polynomial for x in nums)
    polys = [Cyc(3, (2,)), q * q + zeta(3)]
    lcm, nums = clear_denominators(3, polys)
    assert lcm == 1 and type(lcm) is Cyc and nums is polys


def test_clear_denominators_grows_a_running_denominator():
    # [1/d, c] clears to (d f, [f, c d f]): d f = lcm(d, den c) and c d f is
    # a polynomial
    q = CycRat.q(3)
    one = Cyc(3, (1,))
    cases = [
        (one, Cyc(3, (2,)), one),                      # a constant, nothing to clear
        (q - 1, q * q + zeta(3), one),                 # a polynomial
        (q - 1, zeta(3) / (q + 2), q + 2),             # coprime: d grows by den c
        ((q - 1) * (q + 2), 3 / (q - 1), one),         # den c divides d
        ((q - 1) * (q + 2), q / ((q - 1) * (q * q + 1)), q * q + 1),  # a common factor
        (one, (q + 1) / (q * q + 2 * q + 3), q * q + 2 * q + 3),      # d = 1 takes no gcd
    ]
    for d, c, grow in cases:
        lcm, (f, u) = clear_denominators(3, [d.inv(), c])
        assert f == grow and type(f) is type(grow)
        assert lcm == d * f
        assert u == c * d * f and (isinstance(u, Cyc) or u.is_polynomial)
    # eval mode: every value is a Cyc and d stays one
    lcm, (f, u) = clear_denominators(3, [one.inv(), zeta(3)])
    assert lcm == 1 and f == 1 and u is zeta(3)


def scalar_from_json(m, obj):
    # test-local decoder: the inverse of scalar_to_json, a Cyc when the value
    # is constant in q and a CycRat otherwise
    num = [Cyc(m, [Fraction(s) for s in vec]) for vec in obj["num"]]
    den = [Cyc(m, [Fraction(s) for s in vec]) for vec in obj["den"]]
    return _rat(m, num, den)


def test_json_round_trip():
    q = CycRat.q(4)
    a = (q**2 - zeta(4)) / (q + 2)
    obj = scalar_to_json(a)
    assert scalar_from_json(4, obj) == a
    assert obj["den"][-1] == ["1", "0"]  # monic


def test_copy_and_pickle_round_trip():
    q = CycRat.q(4)
    for a in (zeta(4), (q**2 - zeta(4)) / (q + 2)):
        for back in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(back) is type(a) and back == a


@pytest.mark.parametrize("value,kind", [
    (Cyc(3), Cyc),
    (Cyc(3, (F(-5, 2),)), Cyc),
    (zeta(3), Cyc),
    ((CycRat.q(3) - zeta(3)) / (CycRat.q(3) + 2), CycRat),
], ids=["zero", "rational", "xi", "rational-function"])
def test_json_round_trip_keeps_the_scalar_type(value, kind):
    # one scalar rule: a value constant in q reads back as a Cyc
    back = scalar_from_json(3, scalar_to_json(value))
    assert type(back) is kind
    assert back == value


def test_parse_scalar_literal():
    assert parse_scalar_literal(3, "3") == 3
    assert parse_scalar_literal(3, "1/2") == F(1, 2)
    assert parse_scalar_literal(3, "-2") == -2
    assert parse_scalar_literal(3, "xi") == zeta(3)
    assert parse_scalar_literal(5, "xi^2") == zeta(5, 2)
    assert parse_scalar_literal(3, "3/2*xi^2") == zeta(3, 2) * F(3, 2)
    with pytest.raises(ValueError):
        parse_scalar_literal(3, "zeta")
    with pytest.raises(ValueError):
        parse_scalar_literal(3, "")
    # only ASCII digits: an Arabic-Indic three or two is not a literal
    for text in ("\u0663", "xi^\u0662", "\u0663*xi"):
        with pytest.raises(ValueError):
            parse_scalar_literal(3, text)


def test_rendering_is_stable():
    q = CycRat.q(3)
    a = (q - zeta(3)) / (q + 1)
    assert str(a) == str((q - zeta(3)) / (q + 1))
    assert str(q - q) == "0"


def _random_rational_vector(rng, n):
    # a mix of integer, rational and sparse vectors, so that every add/mul
    # path (equal or different denominators, zero slots) is exercised
    kind = rng.randrange(3)
    out = []
    for _ in range(n):
        if rng.random() < 0.3:
            out.append(0)
        elif kind == 0:
            out.append(rng.randint(-9, 9))
        else:
            out.append(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9))))
    if kind == 2:
        out[1:] = [0] * (n - 1)  # a rational
    return out


def _assert_canonical(c, m):
    assert len(c.num) == euler_phi(m)
    assert all(type(x) is int for x in c.num) and type(c.den) is int
    assert c.den > 0
    assert math.gcd(c.den, *c.num) == 1
    if not c:
        assert c.den == 1
    if c.is_rational:
        assert hash(c) == hash(F(c.num[0], c.den)) and c == F(c.num[0], c.den)


def test_cyc_arithmetic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261018)

    def to_poly(c):
        return sympy.Poly(
            [sympy.Rational(f.numerator, f.denominator) for f in reversed(c.coeffs)], x, domain="QQ"
        )

    for m in (2, 3, 4, 5, 6, 8, 12):
        mod = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain="QQ")
        phi = euler_phi(m)
        for _ in range(60):
            va, vb = _random_rational_vector(rng, phi), _random_rational_vector(rng, phi)
            a, b = Cyc(m, va), Cyc(m, vb)
            pa, pb = to_poly(a), to_poly(b)
            r = F(rng.randint(-5, 5), rng.randint(1, 4))
            pr = sympy.Rational(r.numerator, r.denominator)
            for v, expect in (
                (a + b, pa + pb),
                (a - b, pa - pb),
                (a * b, pa * pb),
                (a + r, pa + pr),
                (r - a, pr - pa),
                (a * r, pa * pr),
                (a * 3, pa * 3),
            ):
                _assert_canonical(v, m)
                assert to_poly(v) == expect.rem(mod)
            if b:
                _assert_canonical(b.inv(), m)
                assert to_poly(b.inv()) == pb.invert(mod)
                assert to_poly(a / b) == (pa * pb.invert(mod)).rem(mod)
            if r:
                assert to_poly(a / r) == pa * (1 / pr)
            # equality: an unreduced representative of a equals a
            h = sympy.Poly([rng.randint(-3, 3) for _ in range(3)], x, domain="QQ")
            lifted = pa + h * mod
            same = Cyc(m, [F(int(c.p), int(c.q)) for c in reversed(lifted.all_coeffs())])
            _assert_canonical(same, m)
            assert same == a and hash(same) == hash(a)
            assert (a == b) == (pa - pb).rem(mod).is_zero
            assert (a == r) == (pa == pr) and (a == 3) == (pa == 3)


_LARGE_M_ELEMENTS = (
    [2, 1, 0, -1],
    [F(1, 3), F(-5, 2), 0, 4],
    [0] * 5 + [F(3, 7), 0, -2],
    [F(-2, 5)] + [0] * 60 + [1],
)


def test_inverse_matches_sympy_invert():
    # the Euclidean inverse against sympy's, modulo Phi_m: random elements
    # for every m in 3..40, sparse ones at two large primes
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261020)

    def to_poly(c):
        return sympy.Poly([sympy.Rational(f.numerator, f.denominator) for f in reversed(c.coeffs)],
                          x, domain="QQ")

    cases = [(m, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(m))])
             for m in range(3, 41) for _ in range(3)]
    cases += [(m, v) for m in (101, 211) for v in _LARGE_M_ELEMENTS]
    for m, v in cases:
        a = Cyc(m, v)
        if a:
            inv = a.inv()
            _assert_canonical(inv, m)
            assert to_poly(inv) == to_poly(a).invert(sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain="QQ"))


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 9, 12, 15, 101])
def test_inverses_epsilon_takes(m):
    # 1 / (1 - z) = -(1/m) sum_k k z^k for z = xi^n != 1, a closed form
    # independent of the Euclid; epsilon inverts xi^-n (1 - xi^n)
    for n in [n for n in (1, 2, 3, m - 1, m + 1, 2 * m - 1) if n % m]:
        closed = sum((zeta(m, k * n) * F(-k, m) for k in range(1, m)), Cyc(m))
        a = 1 - zeta(m, n)
        assert a.inv() == closed
        assert (zeta(m, -n) * a).inv() == zeta(m, n) * closed
        _assert_canonical(a.inv(), m)


def test_inverse_multiplies_back_to_one():
    # no oracle needed: a * a^-1 = 1, in canonical form, repeated from the cache
    rng = random.Random(7)
    elements = [(m, _random_rational_vector(rng, euler_phi(m))) for m in range(2, 31) for _ in range(4)]
    elements += [(m, v) for m in (101, 211) for v in _LARGE_M_ELEMENTS]
    elements += [(5, [F(-3, 2)]), (7, [0, 0, F(-1, 4)])]
    for m, v in elements:
        a = Cyc(m, v)
        if not a:
            continue
        inv = a.inv()
        _assert_canonical(inv, m)
        assert a * inv == 1 and inv * a == 1
        assert a.inv() == inv and inv.inv() == a


def test_cycrat_arithmetic_matches_sympy():
    # each value is built as (A*G)/(B*G) with a monic linear G, so the
    # division's gcd runs; the operands share a linear factor, so the
    # gcds of add and mul run, and (a - b) + b cancels a whole denominator factor
    sympy = pytest.importorskip("sympy")
    x, q = sympy.symbols("x q")
    rng = random.Random(20261018)

    def to_poly(cs):
        # a polynomial in q over Q(xi_m) as a sympy Poly in x (for xi) and q
        terms = {(i, k): sympy.Rational(f.numerator, f.denominator)
                 for k, c in enumerate(cs) for i, f in enumerate(c.coeffs) if f}
        return sympy.Poly.from_dict(terms or {(0, 0): 0}, x, q, domain="QQ")

    def random_poly(m, deg):
        lead = _random_cyc(rng, m)
        while not lead:
            lead = _random_cyc(rng, m)
        return [_random_cyc(rng, m) for _ in range(deg)] + [lead]

    for m in range(2, 7):
        one = [Cyc(m, (1,))]
        # Phi_m is monic in x, the leading variable, so rem is the reduction mod Phi_m
        phi = sympy.Poly(sympy.cyclotomic_poly(m, x), x, q, domain="QQ")

        def check(v, num, den):
            # v equals num/den; it is a Cyc exactly when num/den is constant
            # in q (its q-derivative vanishes), and a CycRat is canonical
            constant = (num.diff(q) * den - num * den.diff(q)).rem(phi).is_zero
            assert isinstance(v, Cyc) == constant
            if constant:
                pn, pd = to_poly([v]), to_poly(one)
            else:
                assert v.den[-1] == 1 and v.num[-1]
                pn, pd = to_poly(v.num), to_poly(v.den)
                if len(v.num) > 1 and len(v.den) > 1:
                    res = pn.reorder(q, x).resultant(pd.reorder(q, x))
                    assert not sympy.Poly(res.as_expr(), x, q, domain="QQ").rem(phi).is_zero
            assert (pn * den - num * pd).rem(phi).is_zero

        def linear():
            return [-_random_cyc(rng, m), Cyc(m, (1,))]

        def value(numf, denf):
            # (A*numf*G)/(B*denf*G) for random A, B and a random monic linear G
            g = linear()
            a = _pmul_list(random_poly(m, rng.randint(0, 2)), numf)
            b = _pmul_list(random_poly(m, rng.randint(0, 1)), denf)
            pg = to_poly(g)
            return _rat(m, _pmul_list(a, g), _pmul_list(b, g)), to_poly(a) * pg, to_poly(b) * pg

        for _ in range(4):
            # a and c share the factor h in their denominators, b has it on top
            h = linear()
            (a, na, da), (b, nb, db), (c, nc, dc) = value(one, h), value(h, one), value(one, h)
            for v, num, den in ((a, na, da), (b, nb, db), (c, nc, dc)):
                check(v, num, den)
            check(a + b, na * db + nb * da, da * db)
            check(a + c, na * dc + nc * da, da * dc)
            check(a - b, na * db - nb * da, da * db)
            check((a - b) + b, na, da)
            check(a * b, na * nb, da * db)
            check(a / b, na * db, da * nb)
            check(a / c, na * dc, da * nc)
            check(a**2, na**2, da**2)
            check(a**-1, da, na)
            # constant results, and the gcd-free paths of a Cyc operand r
            check(a - a, 0 * da, da)
            check(a / a, da, da)
            check((a * b) / b, na, da)
            r = _random_cyc(rng, m)
            pr = to_poly([r])
            check(a + r, na + pr * da, da)
            check(r - a, pr * da - na, da)
            check(a * r, na * pr, da)
            if r:
                check(r / a, pr * da, na)
                check(a / r, na, da * pr)


def test_packed_kernel_matches_sympy():
    # the packed polynomials in q against sympy modulo Phi_m: operands with
    # negative entries, interior zero rows, degree 0 and unequal integer
    # denominators; every result must also be canonical
    sympy = pytest.importorskip("sympy")
    x, q = sympy.symbols("x q")
    rng = random.Random(20261019)

    for m in (2, 3, 4, 5, 6, 8, 12):
        phi = euler_phi(m)
        mod = sympy.Poly(sympy.cyclotomic_poly(m, x), x, q, domain="QQ")

        def to_poly(a):
            d, v = a
            terms = {(i % phi, i // phi): sympy.Rational(c, d) for i, c in enumerate(v) if c}
            return sympy.Poly.from_dict(terms or {(0, 0): 0}, x, q, domain="QQ")

        def packed(rows):
            v = [rng.randint(-9, 9) for _ in range(rows * phi)]
            for r in range(rows - 1):
                if rng.random() < 0.3:
                    v[r * phi:(r + 1) * phi] = [0] * phi
            while not any(v[-phi:]):
                v[-phi:] = [rng.randint(-9, 9) for _ in range(phi)]
            return _qnorm(rng.choice((1, 2, 3, 4, 6, 12)), v)

        def check(got, expect):
            d, v = got
            assert d > 0 and math.gcd(d, *v) == 1 and len(v) % phi == 0
            assert not v or any(v[-phi:])
            assert to_poly(got) == expect.rem(mod)

        def divides(g, a):
            return not _qdivmod(m, a, g)[1][1]

        for _ in range(12):
            a, b = packed(rng.randint(1, 4)), packed(rng.randint(1, 3))
            c = _random_cyc(rng, m)
            while not c:
                c = _random_cyc(rng, m)
            pa, pb, pc = to_poly(a), to_poly(b), to_poly((c.den, c.num))
            check(_qmul(m, a, b), pa * pb)
            check(_qadd(m, a, b), pa + pb)
            check(_qadd(m, a, (a[0], tuple(-y for y in a[1]))), 0 * pa)
            check(_qmul(m, a, (c.den, c.num)), pa * pc)
            # a monic g: the exact quotient of a g, and a = quo g + rem
            g = _monic(m, b)[0]
            assert g[1][-phi:] == (g[0],) + (0,) * (phi - 1)
            quo, rem = _qdivmod(m, _qmul(m, a, g), g)
            check(quo, pa)
            check(rem, 0 * pa)
            quo, rem = _qdivmod(m, a, g)
            assert len(rem[1]) < len(g[1])
            check(_qadd(m, _qmul(m, quo, g), rem), pa)
            # the gcd of a h and b h for a monic h: monic, dividing both, with
            # coprime cofactors (their resultant in q is nonzero mod Phi_m)
            h = _monic(m, packed(rng.randint(1, 2)))[0]
            ah, bh = _qmul(m, a, h), _qmul(m, b, h)
            g = _pgcd(m, ah, bh)
            assert g == _monic(m, g)[0] and divides(h, g)
            assert divides(g, ah) and divides(g, bh)
            ca, cb = _qdivmod(m, ah, g)[0], _qdivmod(m, bh, g)[0]
            if len(ca[1]) > phi and len(cb[1]) > phi:
                res = to_poly(ca).reorder(q, x).resultant(to_poly(cb).reorder(q, x))
                assert not sympy.Poly(res.as_expr(), x, q, domain="QQ").rem(mod).is_zero
            # a CycRat built from the views reads back as the same value
            v = _rat(m, _qunpack(m, a), _qunpack(m, b))
            if isinstance(v, Cyc):
                pn, pd = to_poly((v.den, v.num)), to_poly((1, Cyc(m, (1,)).num))
            else:
                assert _rat(m, v.num, v.den) == v
                assert all(isinstance(y, Cyc) for y in v.num + v.den)
                pn, pd = to_poly(v._num), to_poly(v._den)
            assert (pn * pb - pa * pd).rem(mod).is_zero


def _pmul_list(a, b):
    out = [Cyc(a[0].m, ())] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _long_division_table(m):
    # test-local oracle: x^(phi+j) mod Phi_m for j = 0..phi-2 by separate
    # long divisions, as (power, coefficient) pairs of the nonzero entries
    mod = cyclotomic_polynomial(m)
    phi = len(mod) - 1
    rows = (_qdivmod(1, (1, (0,) * j + (1,)), (1, mod))[1][1] for j in range(phi, 2 * phi - 1))
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


@pytest.mark.parametrize("ms", [range(2, 301), (1001, 2003)], ids=["2..300", "1001,2003"])
def test_reduction_table_matches_long_division(ms):
    # each row is x times the one before less its top coefficient times Phi_m
    for m in ms:
        assert _reduction_table(m) == _long_division_table(m), m


def test_argument_checks():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError):
        CycRat.q(3, -1)
    with pytest.raises(ValueError):
        symbolic_mode(3).qpow(-1)


@pytest.mark.parametrize("value", [zeta(3), CycRat.q(3)], ids=["cyc", "cycrat"])
def test_foreign_operands_are_not_implemented(value):
    # a type the scalars do not know leaves the operation to the other operand
    for op in ("__sub__", "__rsub__", "__truediv__", "__rtruediv__"):
        assert getattr(value, op)("x") is NotImplemented, op
    with pytest.raises(TypeError):
        "x" / value


def test_scalar_repr():
    assert repr(zeta(3)) == "Cyc(3, xi)"
    assert repr(Cyc(3, (F(1, 2),))) == "Cyc(3, 1/2)"
    assert repr((CycRat.q(2) + 1) / 2) == "CycRat(2, 1/2 + 1/2*q)"


def test_inverse_that_fails_to_multiply_back_is_an_internal_error(monkeypatch):
    # a fresh irrational inverse is checked by multiplying back
    monkeypatch.setattr(scalars, "_INV_CACHE", {})
    monkeypatch.setattr(scalars, "_int_mul", lambda m, a, b: [2] + [0] * (len(a) - 1))
    with pytest.raises(InternalCheckError, match="fails to multiply back"):
        (1 + zeta(5)).inv()
