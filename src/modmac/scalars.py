"""Exact scalars: the cyclotomic field Q(xi_m) and rational functions of q over it.

No floating point anywhere.  A cyclotomic number is its residue modulo the
m-th cyclotomic polynomial, stored as an integer numerator vector over the
power basis 1, xi, ..., xi^{phi(m)-1} and one positive common denominator,
reduced so that gcd(content, den) = 1 (zero has den = 1).  Phi_m is monic
with integer coefficients, so every field operation stays in integers and
ends in a single gcd.  A polynomial in q over Q(xi_m) is packed the same way,
one denominator over flat integer rows of phi(m) entries per power of q, so
it too takes one gcd per operation, not one per coefficient.  The
deformation parameter q lives in a field of canonicalized rational functions
(gcd-reduced, monic denominator), so equality is coefficient-wise.  Such a
value is built from `CycRat.q`, `zeta` and field arithmetic alone, and read
only at q = 0, from its constant terms (`macdonald.specialize_q0`).

One rule picks the type: a scalar is a `Cyc` unless it depends on a formal
q, so every value constant in q, zero included, is a `Cyc` and a `CycRat`
never equals one.  Eval mode never builds a `CycRat`; in symbolic mode a
`Cyc` operand of a `CycRat` takes a gcd-free path.  `_as_cyc` is the one
coercion of an int, Fraction or Cyc into Q(xi_m); a - b is a + (-b); and
operands of different moduli raise "mixed moduli: a vs b" from
`partitions._require_same_m`.

Every polynomial division here is by a monic polynomial: Phi_m, or a gcd in
q that the Euclidean algorithm keeps monic.  One long division, `_qdivmod`,
serves the reduction modulo Phi_m, the gcds in q and the field inverse,
which is the extended Euclid of a numerator against Phi_m over Q; products
reduce by a table of x^(phi+j) mod Phi_m, each row x times the one before.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .errors import DegenerateEvaluationPoint, InternalCheckError
from .partitions import _require_m, _require_same_m

__all__ = [
    "Cyc",
    "CycRat",
    "ParamMode",
    "symbolic_mode",
    "eval_mode",
    "cyclotomic_polynomial",
    "euler_phi",
    "zeta",
    "epsilon",
    "clear_denominators",
    "scalar_to_json",
    "scalar_to_str",
    "parse_scalar_literal",
]

_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# integer polynomials modulo Phi_m

@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m (ascending powers), computed by dividing x^m - 1
    by Phi_d for every proper divisor d of m (as packed polynomials at m = 1,
    where rows are single integers and nothing is reduced)."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    poly = (1, (-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _qdivmod(1, poly, (1, cyclotomic_polynomial(d)))
            if rem[1]:
                raise RuntimeError(f"cyclotomic recurrence failed at m={m}, d={d}")
    return poly[1]


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # x^(phi+j) mod Phi_m for j = 0..phi-2, each row as its nonzero
    # (power, coefficient) pairs: x^phi is x^phi - Phi_m, and each next row
    # is x times the one before less its top coefficient times Phi_m
    mod = cyclotomic_polynomial(m)
    row, rows = [-c for c in mod[:-1]], []
    for _ in range(len(mod) - 2):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row[-1]
        row = [-top * mod[0]] + [x - top * c for x, c in zip(row, mod[1:-1])]
    return tuple(rows)


def _int_mul(m: int, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    # product of two integer vectors of length phi(m) >= 2, reduced mod Phi_m
    if len(a) == 2:
        # x^2 = -c1 x - c0
        c0, c1, _ = cyclotomic_polynomial(m)
        a0, a1 = a
        b0, b1 = b
        t = a1 * b1
        return [a0 * b0 - c0 * t, a0 * b1 + a1 * b0 - c1 * t]
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    conv[j] += x * y
    out = conv[:phi]
    for row, c in zip(_reduction_table(m), conv[phi:]):
        if c:
            for i, r in row:
                out[i] += c * r
    return out


# ---------------------------------------------------------------------------


class _Scalar:
    """The operators that Cyc and CycRat share, written through the one
    coercion `_co`, `+`, negation and `inv`: a - b is a + (-b)."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not self

    def _co(self, other):
        # a Cyc for a Cyc, int or Fraction, a CycRat for a CycRat self, or
        # None to leave the operation to the other operand
        if isinstance(other, (Cyc, int, Fraction)):
            return _as_cyc(self.m, other)
        if isinstance(other, type(self)):
            _require_same_m(self.m, other.m)
            return other
        return None

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        # not o - self: a Cyc o would hand the subtraction back to self
        o = self._co(other)
        if o is None:
            return NotImplemented
        return -self + o

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = _cyc_one(self.m)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.m}, {self})"


class Cyc(_Scalar):
    """An element of Q(xi_m), stored as its residue modulo Phi_m.

    The residue is num / den over the power basis 1, xi, ..., xi^{phi(m)-1}:
    `num` is a tuple of phi(m) ints and `den` a positive int, with
    gcd(content(num), den) = 1 and den = 1 for zero.  The form is canonical,
    so equality is component-wise.  `coeffs` gives the same vector as
    Fractions.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coeffs: Iterable[int | Fraction] = ()):
        _require_m(m)
        vals = tuple(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in vals):
            raise TypeError(f"Cyc coefficients must be ints or Fractions, got {vals!r}")
        den = lcm(*(c.denominator for c in vals))
        vec = [c.numerator * (den // c.denominator) for c in vals]
        mod = cyclotomic_polynomial(m)
        phi = len(mod) - 1
        if len(vec) > phi:
            # the remainder modulo Phi_m, trimmed
            vec = list(_qdivmod(1, (1, vec), (1, mod))[1][1])
        c = _mk_cyc(m, vec + [0] * (phi - len(vec)), den)
        self.m, self.num, self.den = m, c.num, c.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficient vector as Fractions, for rendering and serialization."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if len(a) == 1:
            n, d = (a[0] + b[0], da) if da == db else (a[0] * db + b[0] * da, da * db)
            return _mk_rational(self.m, n, d)
        if da == db:
            return _mk_cyc(self.m, [x + y for x, y in zip(a, b)], da)
        return _mk_cyc(self.m, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _raw_cyc(self.m, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        if isinstance(other, Cyc):
            _require_same_m(self.m, other.m)
            b, den = other.num, self.den * other.den
        elif isinstance(other, (int, Fraction)):
            k = other.numerator
            return _mk_cyc(self.m, [x * k for x in self.num], self.den * other.denominator)
        else:
            return NotImplemented
        a = self.num
        if len(a) == 1:
            return _mk_rational(self.m, a[0] * b[0], den)
        return _mk_cyc(self.m, _int_mul(self.m, a, b), den)

    __rmul__ = __mul__

    def inv(self) -> "Cyc":
        """The inverse in Q(xi_m), by the extended Euclid of the numerator
        against Phi_m over Q: each remainder r is s a mod Phi_m for a
        cofactor s, and the last is a nonzero constant c, so a^-1 = s / c.
        The polynomials are packed rows at m = 1, so `_qdivmod` does the
        division.  The product with a is checked to be 1."""
        m, a, den = self.m, self.num, self.den
        if not any(a[1:]):
            if not a[0]:
                raise ZeroDivisionError("division by zero in Q(xi)")
            # (a0 / den)^-1 = den / a0, already coprime
            return _raw_cyc(m, (den if a[0] > 0 else -den,) + a[1:], abs(a[0]))
        key = (m, a, den)
        out = _INV_CACHE.get(key)
        if out is not None:
            return out
        r0, s0 = (1, cyclotomic_polynomial(m)), (1, ())
        r, s = (1, tuple(_qtrim(1, list(a)))), (1, (1,))
        while len(r[1]) > 1:
            r, s = _monic(1, r, s)
            quo, rem = _qdivmod(1, r0, r)
            qd, qv = _qmul(1, quo, s)
            r0, s0, r, s = r, s, rem, _qadd(1, s0, (qd, tuple([-x for x in qv])))
        # a^-1 = s / r = (sv / sd) (rd / c), and (a / den)^-1 = den a^-1
        (rd, (c,)), (sd, sv) = r, s
        if c < 0:
            c, rd = -c, -rd
        k = den * rd
        out = _mk_cyc(m, [k * x for x in sv] + [0] * (len(a) - len(sv)), c * sd)
        if _int_mul(m, a, out.num) != [den * out.den] + [0] * (len(a) - 1):
            raise InternalCheckError(f"the Euclidean inverse of {self} in Q(xi_{m}) fails to multiply back to 1")
        _INV_CACHE[key] = out
        return out

    # -- structure -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyc):
            if self.m == other.m:
                return self.den == other.den and self.num == other.num
            # different fields share only their rationals
            return (self.den == other.den and self.num[0] == other.num[0]
                    and self.is_rational and other.is_rational)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and self.is_rational)
        return NotImplemented

    def __hash__(self) -> int:
        # rational values hash like the rational itself, for cross-type equality
        if self.is_rational:
            return hash(self.num[0] if self.den == 1 else Fraction(self.num[0], self.den))
        return hash((self.m, self.num, self.den))

    def __str__(self) -> str:
        return _render_terms(self.coeffs, "xi")


def _render_terms(coeffs, sym: str, word=str) -> str:
    # sum of c * sym^k, ascending; `word` writes a coefficient other than +-1
    pieces = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            pieces.append(word(c))
            continue
        mono = sym if k == 1 else f"{sym}^{k}"
        if c == 1:
            pieces.append(mono)
        elif c == -1:
            pieces.append(f"-{mono}")
        else:
            pieces.append(f"{word(c)}*{mono}")
    if not pieces:
        return "0"
    out = pieces[0]
    for t in pieces[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


# inverses of irrational Cycs; a rational one inverts in O(1) and is not kept
_INV_CACHE: dict = {}


def _raw_cyc(m: int, num: tuple[int, ...], den: int) -> Cyc:
    # trusted constructor: num/den already canonical, num of length phi(m)
    out = object.__new__(Cyc)
    out.m = m
    out.num = num
    out.den = den
    return out


def _mk_cyc(m: int, num: list[int], den: int) -> Cyc:
    # num of length phi(m), den > 0: divide out gcd(content, den), one pass
    # that stops once the running gcd is 1; the zero vector ends with den = 1
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _raw_cyc(m, tuple(num), den)


def _mk_rational(m: int, n: int, d: int) -> Cyc:
    # the phi(m) = 1 case of _mk_cyc
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    return _raw_cyc(m, (n,), d)


@lru_cache(maxsize=None)
def zeta(m: int, k: int = 1) -> Cyc:
    """xi_m^k as an element of Q(xi_m)."""
    k %= m
    return Cyc(m, (0,) * k + (1,))


@lru_cache(maxsize=None)
def _cyc_zero(m: int) -> Cyc:
    return Cyc(m, ())


@lru_cache(maxsize=None)
def _cyc_one(m: int) -> Cyc:
    return Cyc(m, (1,))


# ---------------------------------------------------------------------------
# dense polynomials in q over Q(xi_m), packed as a pair (d, v): v is a flat
# tuple of ints, phi(m) per power of q in ascending order, standing for v / d.
# The form is canonical: d > 0, gcd(d, *v) = 1 and the top row of v is
# nonzero; zero is (1, ()).  A nonzero Cyc c is the constant (c.den, c.num).
# Q(xi) has no zero divisors, so a product of nonzero polynomials keeps a
# nonzero top row and needs no trim.

def _qnorm(d: int, v) -> tuple[int, tuple[int, ...]]:
    # divide out gcd(d, *v): one gcd for the whole polynomial
    if d != 1:
        g = gcd(d, *v)
        if g != 1:
            return d // g, tuple([x // g for x in v])
    return d, tuple(v)


def _qtrim(phi: int, v: list) -> list:
    n = len(v)
    while n and not any(v[n - phi:n]):
        n -= phi
    del v[n:]
    return v


def _qconv(m: int, a, b) -> list[int]:
    # integer product of two nonempty flat row vectors, reduced mod Phi_m; the
    # inner loops run over the longer operand
    if len(a) < len(b):
        a, b = b, a
    phi = euler_phi(m)
    if phi == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    out[j] += x * y
        return out
    if phi == 2:
        # xi^2 = -c1 xi - 1, as in _int_mul
        c1 = cyclotomic_polynomial(m)[1]
        out = [0] * (len(a) + len(b) - 2)
        a0, a1 = a[0::2], a[1::2]
        for j in range(0, len(b), 2):
            y0, y1 = b[j], b[j + 1]
            for k, x0, x1 in zip(range(j, j + len(a), 2), a0, a1):
                t = x1 * y1
                out[k] += x0 * y0 - t
                out[k + 1] += x0 * y1 + x1 * y0 - c1 * t
        return out
    # rows of stride 2 phi - 1 hold the unreduced products; each is reduced
    # once.  About a third of the entries are zero at phi = 4, so they are
    # dropped from the inner loop.
    s = 2 * phi - 1
    nz = [(i + i // phi * (phi - 1), x) for i, x in enumerate(a) if x]
    full = [0] * ((len(a) + len(b)) // phi * s - s)
    for i, y in enumerate(b):
        if y:
            o = i + i // phi * (phi - 1)
            for j, x in nz:
                full[o + j] += x * y
    out = []
    table = _reduction_table(m)
    for base in range(0, len(full), s):
        row = full[base:base + phi]
        for pairs, c in zip(table, full[base + phi:base + s]):
            if c:
                for i, r in pairs:
                    row[i] += c * r
        out += row
    return out


def _qadd(m: int, a, b):
    # over the lcm of the denominators; only a sum of equal lengths can
    # cancel its top rows
    (da, va), (db, vb) = a, b
    if not va or not vb:
        return a if va else b
    if da != db:
        g = gcd(da, db)
        va, vb, da = [x * (db // g) for x in va], [y * (da // g) for y in vb], da // g * db
    if len(va) < len(vb):
        va, vb = vb, va
    out = [x + y for x, y in zip(va, vb)]
    if len(va) > len(vb):
        out += va[len(vb):]
    else:
        _qtrim(euler_phi(m), out)
    return _qnorm(da, out)


def _qmul(m: int, a, b):
    if not a[1] or not b[1]:
        return 1, ()
    return _qnorm(a[0] * b[0], _qconv(m, a[1], b[1]))


def _qdivmod(m: int, a, g):
    # quotient and remainder of a by a monic g.  g's top row is (dg, 0, ...),
    # so a is scaled once by dg^steps and every quotient row is an exact
    # integer division by dg
    (da, va), (dg, vg) = a, g
    phi = euler_phi(m)
    low = len(vg) - phi
    steps = (len(va) - low) // phi
    if steps <= 0:
        return (1, ()), a
    s = dg**steps
    rem = [x * s for x in va]
    quo = [0] * (steps * phi)
    for i in range(len(quo) - phi, -1, -phi):
        c = rem[i + low:i + low + phi]
        if any(c):
            if dg != 1:
                c = [x // dg for x in c]
            quo[i:i + phi] = c
            if low:
                for k, y in enumerate(_qconv(m, c, vg[:low]), i):
                    rem[k] -= y
    return _qnorm(da * s // dg, quo), _qnorm(da * s, _qtrim(phi, rem[:low]))


def _monic(m: int, a, *rest) -> tuple:
    # a and each of rest divided by the leading coefficient of a, which makes
    # a monic
    d, v = a
    top = v[-euler_phi(m):]
    if top[0] == d and not any(top[1:]):
        return (a, *rest)
    li = _mk_cyc(m, top, d).inv()
    return tuple(_qmul(m, p, (li.den, li.num)) for p in (a, *rest))


def _pgcd(m: int, a, b):
    # monic Euclidean algorithm over the field Q(xi_m); normalizing every
    # remainder to monic keeps the rational coefficients from blowing up and
    # lets _qdivmod divide by it; the gcd returned is monic too
    while b[1]:
        b = _monic(m, b)[0]
        a, b = b, _qdivmod(m, a, b)[1]
    return _monic(m, a)[0]


def _cancel(m: int, a, b):
    # a / g, b / g and g for the monic gcd g of a and b, or a, b and None
    # when g = 1; a constant is coprime to anything
    phi = euler_phi(m)
    if len(a[1]) > phi and len(b[1]) > phi:
        g = _pgcd(m, a, b)
        if len(g[1]) > phi:
            return _qdivmod(m, a, g)[0], _qdivmod(m, b, g)[0], g
    return a, b, None


def _qunpack(m: int, a) -> tuple[Cyc, ...]:
    d, v = a
    phi = euler_phi(m)
    return tuple(_mk_cyc(m, v[i:i + phi], d) for i in range(0, len(v), phi))


class CycRat(_Scalar):
    """A rational function of q over Q(xi_m) that is not constant in q.

    Stored as two packed polynomials in q, `_num` over `_den`: coprime, with
    the denominator monic, so equality is tuple equality.  The read-only
    `num` and `den` give them as tuples of Cyc coefficients, ascending in q.
    Every value constant in q is a `Cyc` instead, so a CycRat is never zero
    and equals no Cyc, int or Fraction.  There is no public constructor: a
    CycRat comes from `CycRat.q` and field arithmetic, through `_mk_rat`.
    """

    __slots__ = ("m", "_num", "_den")

    num = property(lambda self: _qunpack(self.m, self._num))
    den = property(lambda self: _qunpack(self.m, self._den))

    @classmethod
    def q(cls, m: int, k: int = 1) -> "Cyc | CycRat":
        """The monomial q^k (the Cyc one for k = 0)."""
        if k < 0:
            raise ValueError("use division for negative powers")
        one = _cyc_one(m).num
        return _mk_rat(m, (1, (0,) * (len(one) * k) + one), (1, one))

    # -- field operations -------------------------------------------------------
    #
    # Inputs are canonical, so classical cross-cancellation (Henrici) keeps
    # every gcd small and leaves results canonical without a final reduction.
    # A Cyc operand c needs no gcd at all: (n + c d)/d and (c n)/d stay
    # coprime with the same monic denominator.

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        m, n1, d1 = self.m, self._num, self._den
        if isinstance(o, Cyc):
            return _mk_rat(m, _qadd(m, n1, _qmul(m, d1, (o.den, o.num))), d1) if o else self
        n2, d2 = o._num, o._den
        if d1 == d2:
            # a monic d1 stays monic once a common factor is divided out
            return _mk_rat(m, *_cancel(m, _qadd(m, n1, n2), d1)[:2])
        # n1/d1 + n2/d2 = (n1 d2r + n2 d1r) / (g d1r d2r) with g = gcd(d1, d2)
        d1r, d2r, g = _cancel(m, d1, d2)
        t = _qadd(m, _qmul(m, n1, d2r), _qmul(m, n2, d1r))
        den = _qmul(m, d1r, d2r)
        if g is not None:
            t, g, _ = _cancel(m, t, g)
            den = _qmul(m, den, g)
        return _mk_rat(m, t, den)

    __radd__ = __add__

    def __neg__(self):
        d, v = self._num
        return _mk_rat(self.m, (d, tuple([-x for x in v])), self._den)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        m, n1, d1 = self.m, self._num, self._den
        if isinstance(o, Cyc):
            return _mk_rat(m, _qmul(m, n1, (o.den, o.num)), d1) if o else o
        n1, d2, _ = _cancel(m, n1, o._den)
        n2, d1, _ = _cancel(m, o._num, d1)
        return _mk_rat(m, _qmul(m, n1, n2), _qmul(m, d1, d2))

    __rmul__ = __mul__

    def inv(self) -> "CycRat":
        n, d = _monic(self.m, self._num, self._den)
        return _mk_rat(self.m, d, n)

    # -- structure ----------------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return len(self._den[1]) == euler_phi(self.m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycRat):
            return NotImplemented
        return self.m == other.m and self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self.m, self._num, self._den))

    def __str__(self) -> str:
        num = _render_terms(self.num, "q", scalar_to_str)
        if self.is_polynomial:
            return num
        return f"({num})/({_render_terms(self.den, 'q', scalar_to_str)})"


def _mk_rat(m: int, num, den) -> Cyc | CycRat:
    # trusted constructor: packed num/den coprime with den monic; a value
    # constant in q comes back as its Cyc
    if not num[1]:
        return _cyc_zero(m)
    phi = euler_phi(m)
    if len(num[1]) == phi and len(den[1]) == phi:
        return _raw_cyc(m, num[1], num[0])
    out = object.__new__(CycRat)
    out.m, out._num, out._den = m, num, den
    return out


def clear_denominators(m: int, values: list) -> tuple[Cyc | CycRat, list]:
    """The monic lcm L of the denominators of nonzero scalars, and the list
    of L * value, each a polynomial in q; (1, values) when all already are.
    One gcd per distinct denominator after the first, none per value.  For
    a monic polynomial D, [1/D, c] gives lcm(D, den c) and [L / D, c L]."""
    dens = list(dict.fromkeys(v._den for v in values if isinstance(v, CycRat) and not v.is_polynomial))
    if not dens:
        return _cyc_one(m), values
    common = dens[0]
    for d in dens[1:]:
        common = _qmul(m, common, _qdivmod(m, d, _pgcd(m, common, d))[0])
    one = (1, _cyc_one(m).num)
    out = [_mk_rat(m, _qmul(m, common, (v.den, v.num)) if isinstance(v, Cyc)
                   else _qmul(m, v._num, _qdivmod(m, common, v._den)[0]), one)
           for v in values]
    return _mk_rat(m, common, one), out


def _as_cyc(m: int, c) -> Cyc:
    # the one coercion into Q(xi_m); ints and Fractions are in lowest terms
    if isinstance(c, Cyc):
        _require_same_m(m, c.m)
        return c
    if isinstance(c, (int, Fraction)):
        return _raw_cyc(m, (c.numerator,) + (0,) * (euler_phi(m) - 1), c.denominator)
    raise TypeError(f"a scalar must be an int, a Fraction or a Cyc, got {c!r}")


def scalar_to_str(a: Cyc | CycRat) -> str:
    """str of a scalar, with an irrational Cyc parenthesized, as a coefficient
    of q is; so a Cyc reads as the constant term of a CycRat would."""
    return str(a) if isinstance(a, CycRat) or a.is_rational else f"({a})"


# ---------------------------------------------------------------------------
# parameter modes


class ParamMode(NamedTuple):
    """Where the parameters live: q formal (symbolic) or substituted (eval).

    c is always concrete; the symbolic mode fixes c = xi_m^{-1}, which is the
    specialization every construction downstream relies on.  Eval mode
    substitutes an explicit nonzero (q0, c0).

    A scalar is a Cyc unless it depends on a formal q: `one` and `zero` are
    Cycs in both modes, and `qpow` is a CycRat only in symbolic mode.
    """

    m: int
    q0: Cyc | None
    c0: Cyc

    @property
    def is_symbolic(self) -> bool:
        return self.q0 is None

    def qpow(self, k: int) -> Cyc | CycRat:
        """q^k in this mode (a monomial, or the evaluated constant)."""
        if k < 0:
            raise ValueError("negative q powers are not used")
        if self.q0 is None:
            return CycRat.q(self.m, k)
        return self.q0**k

    def one(self) -> Cyc:
        return _cyc_one(self.m)

    def zero(self) -> Cyc:
        return _cyc_zero(self.m)

    def describe(self) -> str:
        if self.is_symbolic:
            return "symbolic"
        return f"eval(q0={self.q0}, c0={self.c0})"


@lru_cache(maxsize=None)
def symbolic_mode(m: int) -> ParamMode:
    """Formal q, c fixed to xi_m^{-1}."""
    _require_m(m)
    return ParamMode(m, None, zeta(m, -1))


def eval_mode(m: int, q0, c0=None) -> ParamMode:
    """Substituted parameters; both must be nonzero."""
    _require_m(m)
    q0 = _as_cyc(m, q0)
    c0 = zeta(m, -1) if c0 is None else _as_cyc(m, c0)
    if not q0:
        raise ValueError("q0 must be nonzero")
    if not c0:
        raise ValueError("c0 must be nonzero")
    return ParamMode(m, q0, c0)


@lru_cache(maxsize=None)
def epsilon(n: int, mode: ParamMode) -> Cyc | CycRat:
    """The scalar-product deformation parameter for degree n, m not dividing n.

    epsilon_n = (q^n - 1) / ((1 - xi^n) c^n); with the symbolic c = xi^{-1}
    this is (1 - q^n) / (1 - xi^{-n}).
    """
    m = mode.m
    if n <= 0:
        raise ValueError(f"epsilon is defined for positive n, got {n}")
    if n % m == 0:
        raise ValueError(f"epsilon_{n} is undefined: {m} divides {n}")
    if mode.qpow(n) == 1:
        raise DegenerateEvaluationPoint(
            f"q0^{n} = 1 at the evaluation point: epsilon_{n} vanishes and the "
            "scalar product degenerates; choose a different q0"
        )
    denom = (1 - zeta(m, n)) * mode.c0**n
    return (mode.qpow(n) - 1) * denom.inv()


# ---------------------------------------------------------------------------
# serialization

def _cyc_vec_json(c: Cyc) -> list[str]:
    return [str(x) for x in c.coeffs]


def scalar_to_json(a: Cyc | CycRat) -> dict:
    """{"num": [...], "den": [...]}: outer index is the power of q, inner the
    coefficient vector over 1, xi, ..., xi^{phi(m)-1}, rationals as strings.
    A Cyc c is written as the constant c / 1 (zero as an empty numerator)."""
    if isinstance(a, Cyc):
        return {"num": [_cyc_vec_json(a)] if a else [], "den": [_cyc_vec_json(_cyc_one(a.m))]}
    return {"num": [_cyc_vec_json(c) for c in a.num], "den": [_cyc_vec_json(c) for c in a.den]}


_LITERAL = re.compile(r"^\s*(?P<sign>-)?\s*(?:(?P<rat>\d+(?:/\d+)?)\s*\*?\s*)?(?P<xi>xi(?:\^(?P<exp>-?\d+))?)?\s*$",
                      re.ASCII)


def parse_scalar_literal(m: int, text: str) -> Cyc:
    """Parse "3", "1/2", "-2", "xi", "xi^2" or "3/2*xi^2" into a Cyc."""
    mt = _LITERAL.match(text)
    if not mt or (mt.group("rat") is None and mt.group("xi") is None):
        raise ValueError(f"cannot parse scalar literal {text!r}")
    try:
        r = Fraction(mt.group("rat")) if mt.group("rat") else _F1
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar literal {text!r}") from None
    if mt.group("sign"):
        r = -r
    out = _as_cyc(m, r)
    if mt.group("xi"):
        k = int(mt.group("exp")) if mt.group("exp") else 1
        out = out * zeta(m, k)
    return out
