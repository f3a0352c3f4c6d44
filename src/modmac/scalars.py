"""Exact scalars: the cyclotomic field Q(xi_m) and rational functions of q over it.

No floating point anywhere.  A cyclotomic number is its residue modulo the
m-th cyclotomic polynomial, stored as an integer numerator vector over the
power basis 1, xi, ..., xi^{phi(m)-1} and one positive common denominator,
reduced so that gcd(content, den) = 1 (zero has den = 1).  Phi_m is monic
with integer coefficients, so every field operation stays in integers and
ends in a single gcd.  The deformation parameter q lives in a field of
canonicalized rational functions (gcd-reduced, monic denominator), so
equality is coefficient-wise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Union

from .errors import DegenerateEvaluationPoint, PoleAtSpecialization

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
    "evaluate",
    "scalar_to_json",
    "scalar_from_json",
    "parse_scalar_literal",
]

_F0 = Fraction(0)
_F1 = Fraction(1)

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# dense polynomials over Fraction, used to compute Phi_m

def _ftrim(c: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def _fdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return (), _ftrim(tuple(rem))
    quot = [_F0] * (len(rem) - db)
    binv = 1 / b[-1]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * binv
        if c:
            quot[i - db] = c
            for j, bj in enumerate(b):
                rem[i - db + j] -= c * bj
    return _ftrim(tuple(quot)), _ftrim(tuple(rem))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_m (ascending powers), computed by dividing x^m - 1
    by Phi_d for every proper divisor d of m."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    if m == 1:
        return (Fraction(-1), Fraction(1))
    poly = (-_F1,) + (_F0,) * (m - 1) + (_F1,)
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _fdivmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise RuntimeError(f"cyclotomic recurrence failed at m={m}, d={d}")
    return poly


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


# ---------------------------------------------------------------------------
# integer vectors modulo Phi_m, which is monic with integer coefficients


@lru_cache(maxsize=None)
def _int_modulus(m: int) -> tuple[int, ...]:
    return tuple(int(c) for c in cyclotomic_polynomial(m))


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # x^(phi+j) mod Phi_m for j = 0..phi-2, each row as its nonzero
    # (power, coefficient) pairs
    mod = _int_modulus(m)
    phi = len(mod) - 1
    first = [-c for c in mod[:phi]]  # x^phi mod Phi_m
    rows = [first]
    cur = first
    for _ in range(phi - 2):
        lead = cur[-1]
        cur = [x + lead * y for x, y in zip([0] + cur[:-1], first)]
        rows.append(cur)
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


def _int_mul(m: int, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    # product of two integer vectors of length phi(m) >= 2, reduced mod Phi_m
    if len(a) == 2:
        # x^2 = -c1 x - c0
        c0, c1, _ = _int_modulus(m)
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


@lru_cache(maxsize=None)
def _galois_images(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # for each unit k != 1 mod m: the images of 1, xi, ..., xi^(phi-1) under
    # the Galois automorphism xi -> xi^k, as integer vectors
    phi = euler_phi(m)
    return tuple(tuple(zeta(m, i * k).num for i in range(phi))
                 for k in range(2, m) if gcd(k, m) == 1)


def _int_reduce(vec: list[int], mod: tuple[int, ...]) -> list[int]:
    # remainder of an integer polynomial of any length modulo the monic mod
    phi = len(mod) - 1
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            for j in range(phi):
                vec[i - phi + j] -= c * mod[j]
    return vec[:phi]


# ---------------------------------------------------------------------------


class Cyc:
    """An element of Q(xi_m), stored as its residue modulo Phi_m.

    The residue is num / den over the power basis 1, xi, ..., xi^{phi(m)-1}:
    `num` is a tuple of phi(m) ints and `den` a positive int, with
    gcd(content(num), den) = 1 and den = 1 for zero.  The form is canonical,
    so equality is component-wise.  `coeffs` gives the same vector as
    Fractions.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coeffs: Iterable[Rational] = ()):
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"conductor m must be an integer >= 2, got {m!r}")
        vals = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in vals))
        vec = [c.numerator * (den // c.denominator) for c in vals]
        mod = _int_modulus(m)
        phi = len(mod) - 1
        if len(vec) > phi:
            vec = _int_reduce(vec, mod)
        else:
            vec += [0] * (phi - len(vec))
        c = _mk_cyc(m, vec, den)
        self.m, self.num, self.den = m, c.num, c.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficient vector as Fractions, for rendering and serialization."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- coercion ----------------------------------------------------------

    def _co(self, other):
        if isinstance(other, Cyc):
            if other.m != self.m:
                raise ValueError(f"mixed conductors: {self.m} vs {other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return _rational_cyc(self.m, len(self.num), other)
        return None

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

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if len(a) == 1:
            n, d = (a[0] - b[0], da) if da == db else (a[0] * db - b[0] * da, da * db)
            return _mk_rational(self.m, n, d)
        if da == db:
            return _mk_cyc(self.m, [x - y for x, y in zip(a, b)], da)
        return _mk_cyc(self.m, [x * db - y * da for x, y in zip(a, b)], da * db)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _raw_cyc(self.m, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        if isinstance(other, Cyc):
            if other.m != self.m:
                raise ValueError(f"mixed conductors: {self.m} vs {other.m}")
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
        key = (self.m, self.num, self.den)
        cached = _INV_CACHE.get(key)
        if cached is not None:
            return cached
        a = self.num
        if not any(a):
            raise ZeroDivisionError("division by zero in Q(xi)")
        if any(a[1:]):
            # a^-1 = (product of the other conjugates of a) / norm(a)
            m = self.m
            rest = [1] + [0] * (len(a) - 1)
            for images in _galois_images(m):
                conj = [0] * len(a)
                for x, img in zip(a, images):
                    if x:
                        for i, c in enumerate(img):
                            conj[i] += x * c
                rest = _int_mul(m, rest, conj)
            norm = _int_mul(m, a, rest)[0]
            sign = 1 if norm > 0 else -1
            out = _mk_cyc(m, [sign * self.den * x for x in rest], sign * norm)
        else:
            # (a0 / den)^-1 = den / a0, already coprime
            a0 = a[0]
            out = _raw_cyc(self.m, (self.den if a0 > 0 else -self.den,) + a[1:], abs(a0))
        _INV_CACHE[key] = out
        return out

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

    # -- structure -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

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

    def __repr__(self) -> str:
        return f"Cyc({self.m}, {self})"


def _render_terms(coeffs, sym: str) -> str:
    pieces = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            pieces.append(str(c))
            continue
        mono = sym if k == 1 else f"{sym}^{k}"
        if c == 1:
            pieces.append(mono)
        elif c == -1:
            pieces.append(f"-{mono}")
        else:
            pieces.append(f"{c}*{mono}")
    if not pieces:
        return "0"
    out = pieces[0]
    for t in pieces[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


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


def _rational_cyc(m: int, phi: int, r: Rational) -> Cyc:
    # ints and Fractions are already in lowest terms
    return _raw_cyc(m, (r.numerator,) + (0,) * (phi - 1), r.denominator)


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
# dense polynomials in q over Cyc; zero is the empty tuple

def _ptrim(c):
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def _padd(a, b):
    if not a:
        return b
    if not b:
        return a
    z = _cyc_zero(a[0].m)
    n = max(len(a), len(b))
    return _ptrim(tuple(
        (a[i] if i < len(a) else z) + (b[i] if i < len(b) else z) for i in range(n)
    ))


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    z = _cyc_zero(a[0].m)
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return _ptrim(tuple(out))


def _pscale(a, c: Cyc):
    if not c:
        return ()
    return _ptrim(tuple(x * c for x in a))


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return (), _ptrim(tuple(rem))
    z = _cyc_zero(b[0].m)
    quot = [z] * (len(rem) - db)
    binv = b[-1].inv()
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * binv
        if c:
            quot[i - db] = c
            for j, bj in enumerate(b):
                rem[i - db + j] = rem[i - db + j] - c * bj
    return _ptrim(tuple(quot)), _ptrim(tuple(rem))


def _pmonic(a):
    if not a or a[-1] == _cyc_one(a[-1].m):
        return a
    return _pscale(a, a[-1].inv())


def _pgcd(a, b):
    # monic Euclidean algorithm over the field Q(xi_m); normalizing every
    # remainder to monic keeps the rational coefficients from blowing up
    while b:
        b = _pmonic(b)
        a, b = b, _pdivmod(a, b)[1]
    return _pmonic(a)


def _peval(a, x: Cyc) -> Cyc:
    out = _cyc_zero(x.m)
    for c in reversed(a):
        out = out * x + c
    return out


class CycRat:
    """A canonical ratio of polynomials in q over Q(xi_m).

    Canonical form: numerator and denominator coprime, denominator monic.
    Coefficients are given ascending in the power of q.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: Iterable = (), den: Iterable | None = None):
        one = _cyc_one(m)
        nv = _ptrim(tuple(self._as_cyc(m, c) for c in num))
        dv = (one,) if den is None else _ptrim(tuple(self._as_cyc(m, c) for c in den))
        if not dv:
            raise ZeroDivisionError("zero denominator")
        if not nv:
            self.m, self.num, self.den = m, (), (one,)
            return
        if len(dv) > 1 and len(nv) > 1:
            g = _pgcd(nv, dv)
            if len(g) > 1:
                nv = _pdivmod(nv, g)[0]
                dv = _pdivmod(dv, g)[0]
        # a degree-0 numerator or denominator is automatically coprime
        lead = dv[-1]
        if lead != one:
            li = lead.inv()
            nv = _pscale(nv, li)
            dv = _pscale(dv, li)
        self.m, self.num, self.den = m, nv, dv

    @staticmethod
    def _as_cyc(m: int, c) -> Cyc:
        if isinstance(c, Cyc):
            if c.m != m:
                raise ValueError(f"mixed conductors: {m} vs {c.m}")
            return c
        if isinstance(c, (int, Fraction)):
            return _rational_cyc(m, euler_phi(m), c)
        return Cyc(m, (c,))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_const(cls, m: int, v) -> "CycRat":
        return cls(m, (v,))

    @classmethod
    def poly(cls, m: int, coeffs: Iterable) -> "CycRat":
        return cls(m, coeffs)

    @classmethod
    def q(cls, m: int, k: int = 1) -> "CycRat":
        """The monomial q^k."""
        if k < 0:
            raise ValueError("use division for negative powers")
        return cls(m, (0,) * k + (1,))

    # -- coercion -------------------------------------------------------------

    def _co(self, other):
        if isinstance(other, CycRat):
            if other.m != self.m:
                raise ValueError(f"mixed conductors: {self.m} vs {other.m}")
            return other
        if isinstance(other, (int, Fraction, Cyc)):
            return CycRat.from_const(self.m, other)
        return None

    # -- field operations -------------------------------------------------------
    #
    # Inputs are canonical, so classical cross-cancellation (Henrici) keeps
    # every gcd small and leaves results canonical without a final reduction.

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if d1 == d2:
            num = _padd(n1, n2)
            if len(d1) == 1:
                return _mk_rat(self.m, num, d1)
            return CycRat(self.m, num, d1)
        g = _pgcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else ()
        if len(g) <= 1:
            num = _padd(_pmul(n1, d2), _pmul(n2, d1))
            return _mk_rat(self.m, num, _pmul(d1, d2))
        d1r = _pdivmod(d1, g)[0]
        d2r = _pdivmod(d2, g)[0]
        t = _padd(_pmul(n1, d2r), _pmul(n2, d1r))
        if not t:
            return CycRat(self.m)
        g2 = _pgcd(t, g)
        if len(g2) > 1:
            t = _pdivmod(t, g2)[0]
            g = _pdivmod(g, g2)[0]
        return _mk_rat(self.m, t, _pmul(_pmul(d1r, d2r), g))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _mk_rat(self.m, _pneg(self.num), self.den)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return CycRat(self.m)
        if self.is_one:
            return o
        if o.is_one:
            return self
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if len(n1) > 1 and len(d2) > 1:
            g = _pgcd(n1, d2)
            if len(g) > 1:
                n1 = _pdivmod(n1, g)[0]
                d2 = _pdivmod(d2, g)[0]
        if len(n2) > 1 and len(d1) > 1:
            g = _pgcd(n2, d1)
            if len(g) > 1:
                n2 = _pdivmod(n2, g)[0]
                d1 = _pdivmod(d1, g)[0]
        return _mk_rat(self.m, _pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def _inverse(self) -> "CycRat":
        if not self.num:
            raise ZeroDivisionError("division by zero rational function")
        lead = self.num[-1]
        if lead == _cyc_one(self.m):
            return _mk_rat(self.m, self.den, self.num)
        li = lead.inv()
        return _mk_rat(self.m, _pscale(self.den, li), _pscale(self.num, li))

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        out = CycRat.from_const(self.m, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return len(self.num) == 1 and self.num[0] == _cyc_one(self.m) and len(self.den) == 1

    @property
    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycRat):
            if self.m != other.m:
                co = self._constant_value()
                oc = other._constant_value()
                return co is not None and oc is not None and co == oc
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Cyc)):
            c = self._constant_value()
            return c is not None and c == other
        return NotImplemented

    def _constant_value(self) -> Cyc | None:
        if len(self.den) == 1 and len(self.num) <= 1:
            return self.num[0] if self.num else _cyc_zero(self.m)
        return None

    def __hash__(self) -> int:
        c = self._constant_value()
        if c is not None:
            return hash(c)
        return hash((self.m, self.num, self.den))

    def __str__(self) -> str:
        num = _render_poly(self.num)
        if len(self.den) == 1:
            return num
        return f"({num})/({_render_poly(self.den)})"

    def __repr__(self) -> str:
        return f"CycRat({self.m}, {self})"


def _mk_rat(m: int, num, den) -> CycRat:
    # trusted constructor: num/den coprime with den monic, or num empty
    out = object.__new__(CycRat)
    if not num:
        out.m, out.num, out.den = m, (), (_cyc_one(m),)
    else:
        out.m, out.num, out.den = m, num, den
    return out


def _render_poly(coeffs) -> str:
    if not coeffs:
        return "0"
    pieces = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        cs = str(c)
        if k == 0:
            pieces.append(cs if c.is_rational else f"({cs})")
            continue
        mono = "q" if k == 1 else f"q^{k}"
        if c == 1:
            pieces.append(mono)
        elif c == -1:
            pieces.append(f"-{mono}")
        elif c.is_rational:
            pieces.append(f"{cs}*{mono}")
        else:
            pieces.append(f"({cs})*{mono}")
    out = pieces[0]
    for t in pieces[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


# ---------------------------------------------------------------------------
# parameter modes


@dataclass(frozen=True)
class ParamMode:
    """Where the parameters live: q formal (symbolic) or substituted (eval).

    c is always concrete; the symbolic mode fixes c = xi_m^{-1}, which is the
    specialization every construction downstream relies on.  Eval mode
    substitutes an explicit nonzero (q0, c0).
    """

    m: int
    q0: Cyc | None
    c0: Cyc

    @property
    def is_symbolic(self) -> bool:
        return self.q0 is None

    def c_pow(self, k: int) -> Cyc:
        return self.c0**k

    def qpow(self, k: int) -> CycRat:
        """q^k in this mode (a monomial, or the evaluated constant)."""
        if k < 0:
            raise ValueError("negative q powers are not used")
        if self.q0 is None:
            return CycRat.q(self.m, k)
        return CycRat.from_const(self.m, self.q0**k)

    def one(self) -> CycRat:
        return CycRat.from_const(self.m, 1)

    def zero(self) -> CycRat:
        return CycRat(self.m)

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
    q0 = CycRat._as_cyc(m, q0)
    c0 = zeta(m, -1) if c0 is None else CycRat._as_cyc(m, c0)
    if not q0:
        raise ValueError("q0 must be nonzero")
    if not c0:
        raise ValueError("c0 must be nonzero")
    return ParamMode(m, q0, c0)


def _require_m(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")


@lru_cache(maxsize=None)
def epsilon(n: int, mode: ParamMode) -> CycRat:
    """The scalar-product deformation parameter for degree n, m not dividing n.

    epsilon_n = (q^n - 1) / ((1 - xi^n) c^n); with the symbolic c = xi^{-1}
    this is (1 - q^n) / (1 - xi^{-n}).
    """
    m = mode.m
    if n <= 0:
        raise ValueError(f"epsilon is defined for positive n, got {n}")
    if n % m == 0:
        raise ValueError(f"epsilon_{n} is undefined: {m} divides {n}")
    if not mode.is_symbolic and mode.q0**n == _cyc_one(m):
        raise DegenerateEvaluationPoint(
            f"q0^{n} = 1 at the evaluation point: epsilon_{n} vanishes and the "
            "scalar product degenerates; choose a different q0"
        )
    denom = (_cyc_one(m) - zeta(m, n)) * mode.c_pow(n)
    return (mode.qpow(n) - 1) * denom.inv()


def evaluate(a: CycRat, q0) -> Cyc:
    """Exact substitution of q = q0; raises PoleAtSpecialization on a pole.

    The canonical form guarantees numerator and denominator have no common
    root, so a vanishing denominator is a genuine pole.
    """
    x = CycRat._as_cyc(a.m, q0)
    dv = _peval(a.den, x)
    if not dv:
        raise PoleAtSpecialization(f"denominator of {a} vanishes at q = {x}")
    return _peval(a.num, x) * dv.inv()


# ---------------------------------------------------------------------------
# serialization

def _cyc_vec_json(c: Cyc) -> list[str]:
    return [str(x) for x in c.coeffs]


def scalar_to_json(a: CycRat) -> dict:
    """{"num": [...], "den": [...]}: outer index is the power of q, inner the
    coefficient vector over 1, xi, ..., xi^{phi(m)-1}, rationals as strings."""
    return {
        "num": [_cyc_vec_json(c) for c in a.num],
        "den": [_cyc_vec_json(c) for c in a.den],
    }


def scalar_from_json(m: int, obj: dict) -> CycRat:
    num = [Cyc(m, [Fraction(s) for s in vec]) for vec in obj["num"]]
    den = [Cyc(m, [Fraction(s) for s in vec]) for vec in obj["den"]]
    return CycRat(m, num, den)


_LITERAL = re.compile(r"^\s*(?P<sign>-)?\s*(?:(?P<rat>\d+(?:/\d+)?)\s*\*?\s*)?(?P<xi>xi(?:\^(?P<exp>-?\d+))?)?\s*$")


def parse_scalar_literal(m: int, text: str) -> Cyc:
    """Parse "3", "1/2", "-2", "xi", "xi^2" or "3/2*xi^2" into a Cyc."""
    mt = _LITERAL.match(text)
    if not mt or (mt.group("rat") is None and mt.group("xi") is None):
        raise ValueError(f"cannot parse scalar literal {text!r}")
    r = Fraction(mt.group("rat")) if mt.group("rat") else _F1
    if mt.group("sign"):
        r = -r
    out = Cyc(m, (r,))
    if mt.group("xi"):
        k = int(mt.group("exp")) if mt.group("exp") else 1
        out = out * zeta(m, k)
    return out
