import math
import random
from fractions import Fraction

import pytest

from modmac.errors import PoleAtSpecialization
from modmac.scalars import (
    Cyc,
    CycRat,
    cyclotomic_polynomial,
    epsilon,
    euler_phi,
    eval_mode,
    evaluate,
    parse_scalar_literal,
    scalar_from_json,
    scalar_to_json,
    symbolic_mode,
    zeta,
)

F = Fraction


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (F(-1), F(1))
    assert cyclotomic_polynomial(2) == (F(1), F(1))
    assert cyclotomic_polynomial(3) == (F(1), F(1), F(1))
    assert cyclotomic_polynomial(4) == (F(1), F(0), F(1))
    assert cyclotomic_polynomial(6) == (F(1), F(-1), F(1))
    assert cyclotomic_polynomial(12) == (F(1), F(0), F(-1), F(0), F(1))
    assert euler_phi(5) == 4 and euler_phi(8) == 4


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
            return CycRat(m, num, den)


def test_field_axioms_random_sweep():
    rng = random.Random(20240815)
    for m in (2, 3, 4, 5):
        one = CycRat.from_const(m, 1)
        for _ in range(1000):
            a, b, c = (_random_cycrat(rng, m) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero:
                assert a * (one / a) == one


def test_arithmetic_results_stay_canonical():
    # fast-path add/mul/div must land on the same representation the
    # canonicalizing constructor produces
    rng = random.Random(99)
    for m in (2, 3, 5):
        for _ in range(120):
            a, b = _random_cycrat(rng, m), _random_cycrat(rng, m)
            for v in (a + b, a * b, a - b):
                assert (v.num, v.den) == (CycRat(m, v.num, v.den).num, CycRat(m, v.num, v.den).den)
            if not b.is_zero:
                v = a / b
                assert (v.num, v.den) == (CycRat(m, v.num, v.den).num, CycRat(m, v.num, v.den).den)


def test_canonicalization():
    q = CycRat.q(2)
    a = (q - 1) / (q * q - 1)
    assert a == 1 / (q + 1)
    # denominator is monic and the representation is canonical
    assert a.den[-1] == 1
    assert CycRat(2, a.num, a.den) == a
    assert (1 / (q + 1)) + (q / (q + 1)) == 1
    assert ((q - 1) / 2) * (2 / (q - 1)) == 1
    with pytest.raises(ZeroDivisionError):
        CycRat(2, (1,), ())
    with pytest.raises(ZeroDivisionError):
        q / CycRat(2)


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
    q = CycRat.q(2)
    assert evaluate((1 - q) / 2, 0) == F(1, 2)
    with pytest.raises(PoleAtSpecialization):
        evaluate(1 / (q - 1), 1)
    assert evaluate((q**2 - q) / q, 0) == -1


def test_cross_type_equality_and_hash():
    assert Cyc(2, (3,)) == 3 and hash(Cyc(2, (3,))) == hash(3)
    assert CycRat.from_const(3, zeta(3)) == zeta(3)
    assert hash(CycRat.from_const(2, F(1, 2))) == hash(Cyc(2, (F(1, 2),)))
    assert CycRat.from_const(2, 5) == CycRat.from_const(3, 5)


def test_json_round_trip():
    q = CycRat.q(4)
    a = (q**2 - zeta(4)) / (q + 2)
    obj = scalar_to_json(a)
    assert scalar_from_json(4, obj) == a
    assert obj["den"][-1] == ["1", "0"]  # monic


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


def test_rendering_is_stable():
    q = CycRat.q(3)
    a = (q - zeta(3)) / (q + 1)
    assert str(a) == str((q - zeta(3)) / (q + 1))
    assert str(CycRat(3)) == "0"


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
