"""The graded ring generated by the power sums p_n with n prime to m.

Elements are kept on the normalized power sums P_rho = p_rho / eps_rho: eps
is multiplicative, so multiplication is union of partitions and derivations
act term by term.  There q_n = sum P_rho / z_rho, so the q-products and the
inverse change to the m-reduced q-basis, one PExpr row per reduced lambda,
depend on m alone.  `to_p` converts to p once, at the edge.  `weigh` clears
the diagonal pairing on P into a vector, so `coefficient_dot` is the one sum
over P: it pairs, and it reads each reduced coordinate off its row.
`raising_sum` is the one raising sum, of the zero mode's series and Newton's.

Construction rule: the public `PExpr(...)`/`QExpr(...)` constructors
validate every key and modulus and coerce int and Fraction coefficients.
Ring operations on valid operands build their results through the trusted
`_Expr._raw` or the keyed summation `_Expr._collect`, so nothing is checked
twice.  Every sum of ring elements goes through `PExpr.sum`.  A key is
coerced by `Partition(...)`, and mixed moduli raise as for the scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from .errors import InternalCheckError, VerificationError
from .partitions import (
    Partition,
    _raw_partition,
    _require_m,
    _require_same_m,
    enumerate_partitions,
    union,
    z_of,
)
from .scalars import (
    Cyc,
    CycRat,
    ParamMode,
    _as_cyc,
    _cyc_one,
    _cyc_zero,
    clear_denominators,
    epsilon,
    scalar_to_json,
)

__all__ = [
    "PExpr",
    "QExpr",
    "p_multiply",
    "to_p",
    "q_to_p",
    "qprod_to_p",
    "r_to_p",
    "raising_sum",
    "epsilon_product",
    "pairing_weights",
    "weigh",
    "coefficient_dot",
    "p_to_q_reduced",
    "modular_relation_check",
]


def _sort_key(lam: Partition):
    # weight ascending, then reverse-lexicographic (dominance-compatible) within a weight
    return (lam.weight, tuple(-p for p in lam))


class _Expr:
    """Finitely supported map from partitions to nonzero scalars of one
    modulus; zero coefficients are dropped, and int and Fraction ones become
    Cycs.  Subclasses name their `basis` and validate each key in `_check_key`."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        _require_m(m)
        self.m = m
        clean: dict[Partition, Cyc | CycRat] = {}
        for lam, c in (terms or {}).items():
            lam = Partition(lam)
            self._check_key(lam)
            c = c if isinstance(c, CycRat) else _as_cyc(m, c)
            _require_same_m(m, c.m)
            if c:
                clean[lam] = c
        self.terms = clean

    @classmethod
    def _raw(cls, m: int, terms: dict) -> "_Expr":
        # trusted constructor: keys valid for cls, coefficients nonzero scalars of modulus m
        out = object.__new__(cls)
        out.m = m
        out.terms = terms
        return out

    @classmethod
    def _collect(cls, m: int, pairs) -> "_Expr":
        """Trusted (key, coefficient) pairs summed by key: equal keys add in
        arrival order, and zero sums are dropped once, at the end."""
        out: dict[Partition, Cyc | CycRat] = {}
        for key, c in pairs:
            out[key] = out[key] + c if key in out else c
        return cls._raw(m, {key: c for key, c in out.items() if c})

    def coeff(self, lam) -> Cyc | CycRat:
        return self.terms.get(Partition(lam), _cyc_zero(self.m))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_items(self) -> list[tuple[Partition, Cyc | CycRat]]:
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self.terms:
            return f"{name}(0)"
        bits = [f"({c})*{self.basis[0]}{list(lam)}" for lam, c in self.sorted_items()]
        return f"{name}(" + " + ".join(bits) + ")"

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "basis": self.basis,
            "terms": [
                {"partition": lam.to_json(), "coeff": scalar_to_json(c)}
                for lam, c in self.sorted_items()
            ],
        }


class PExpr(_Expr):
    """Finitely supported map from m-regular partitions to scalars, on the
    P basis, or on the p basis once `to_p` has converted it."""

    __slots__ = ()
    basis = "p"

    def _check_key(self, lam: Partition) -> None:
        if not lam.is_regular(self.m):
            raise ValueError(f"p-basis key {lam} has a part divisible by {self.m}")

    @classmethod
    def zero(cls, m: int) -> "PExpr":
        return cls(m)

    @classmethod
    def one(cls, m: int) -> "PExpr":
        return cls(m, {Partition(): 1})

    @classmethod
    def sum(cls, m: int, exprs) -> "PExpr":
        """Sum of ring elements of modulus m, in one pass; zero when empty."""

        def pairs():
            for f in exprs:
                _require_same_m(m, f.m)
                yield from f.terms.items()

        return cls._collect(m, pairs())

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "PExpr") -> "PExpr":
        return PExpr.sum(self.m, (self, other))

    def __sub__(self, other: "PExpr") -> "PExpr":
        return self + (-other)

    def __neg__(self) -> "PExpr":
        return PExpr._raw(self.m, {lam: -c for lam, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PExpr):
            return NotImplemented
        _require_same_m(self.m, other.m)
        return PExpr._collect(self.m, (
            (union(la, lb), ca * cb)
            for la, ca in self.terms.items() for lb, cb in other.terms.items()
        ))

    def scale(self, c) -> "PExpr":
        if not c:
            return PExpr.zero(self.m)
        return PExpr._raw(self.m, {lam: v * c for lam, v in self.terms.items()})

    # -- structure ----------------------------------------------------------

    def homogeneous_degree(self) -> int | None:
        """The common weight of the support; None when zero."""
        if not self.terms:
            return None
        weights = {lam.weight for lam in self.terms}
        if len(weights) > 1:
            raise ValueError(f"not homogeneous: weights {sorted(weights)}")
        return weights.pop()


class QExpr(_Expr):
    """Coordinates of a ring element in the generalized complete basis: any
    partition is a key, and `p_to_q_reduced` gives the unique coordinates on
    the m-reduced keys, which form a basis."""

    __slots__ = ()
    basis = "q"

    def _check_key(self, lam: Partition) -> None:
        pass

    def to_p(self) -> PExpr:
        """Expand back into the P coordinates."""
        return PExpr.sum(self.m, (qprod_to_p(lam, self.m).scale(c) for lam, c in self.sorted_items()))


def p_multiply(f: PExpr, g: PExpr) -> PExpr:
    """Product in the ring: bilinear extension of partition union."""
    return f * g


@lru_cache(maxsize=None)
def epsilon_product(lam: Partition, mode: ParamMode) -> Cyc | CycRat:
    """Product of epsilon over the parts (empty partition gives 1)."""
    return prod((epsilon(part, mode) for part in lam), start=mode.one())


def to_p(f: PExpr, mode: ParamMode) -> PExpr:
    """f on the p basis: a_rho P_rho = (a_rho / eps_rho) p_rho."""
    _require_same_m(f.m, mode.m)
    return PExpr._raw(f.m, {rho: c / epsilon_product(rho, mode) for rho, c in f.terms.items()})


@lru_cache(maxsize=None)
def q_to_p(n: int, m: int) -> PExpr:
    """The degree-n generalized complete function, in P.

    Sum of P_rho / z_rho over m-regular rho of weight n; zero for
    negative n, one for n = 0.
    """
    if n < 0:
        return PExpr.zero(m)
    return PExpr(m, {rho: Fraction(1, z_of(rho)) for rho in enumerate_partitions(n, "m_regular", m)})


@lru_cache(maxsize=None)
def qprod_to_p(lam: Partition, m: int) -> PExpr:
    """Product of the generalized complete functions over the parts of lam, in P.

    lam is split into halves, so the recursion is logarithmically deep in its
    length and each cached sub-product is again a partition's.
    """
    if len(lam) <= 1:
        return q_to_p(lam[0], m) if lam else PExpr.one(m)
    k = len(lam) // 2
    return qprod_to_p(_raw_partition(lam[:k]), m) * qprod_to_p(_raw_partition(lam[k:]), m)


@lru_cache(maxsize=None)
def r_to_p(n: int, mode: ParamMode) -> PExpr:
    """Degree-n coefficient of the creation exponential, in P.

    Closed form: sum over m-regular rho of weight n of
    prod_i (q^{rho_i} - 1) P_rho / z_rho.  A weight that vanishes at an
    evaluation point is a vanishing eps_rho, for `epsilon` to reject.  The
    series-expansion tests pin this against a direct truncated exponential.
    """
    if n < 0:
        return PExpr.zero(mode.m)
    terms = {}
    for rho in enumerate_partitions(n, "m_regular", mode.m):
        w = prod((mode.qpow(part) - 1 for part in rho), start=mode.one())
        if not w:
            epsilon_product(rho, mode)  # raises DegenerateEvaluationPoint
        terms[rho] = w / z_of(rho)
    return PExpr._raw(mode.m, terms)


def raising_sum(m: int, entries, creation) -> PExpr:
    """sum w R_k q_nu over the (k, nu, w) entries, in P, R_k = creation(k): one
    product R_k A_k per degree k, with A_k = sum w q_nu expanded into P once."""
    groups: dict[int, list] = {}
    for k, nu, w in entries:
        groups.setdefault(k, []).append((nu, w))
    return PExpr.sum(m, (p_multiply(creation(k), QExpr._collect(m, combo).to_p())
                         for k, combo in groups.items()))


@lru_cache(maxsize=None)
def pairing_weights(n: int, mode: ParamMode) -> dict[Partition, Cyc | CycRat]:
    """The pairing on P at weight n: w_rho = <P_rho, P_rho> = z_rho / eps_rho
    over the m-regular rho of weight n.  P is orthogonal, so
    <f, g> = sum_rho f_rho g_rho w_rho."""
    return {rho: z_of(rho) / epsilon_product(rho, mode)
            for rho in enumerate_partitions(n, "m_regular", mode.m)}


def weigh(f: PExpr, mode: ParamMode) -> tuple[Cyc | CycRat, PExpr]:
    """(K, g) for a homogeneous f in P: K is the monic lcm of the denominators
    of the f_rho w_rho of `pairing_weights`, and g_rho = K f_rho w_rho is a
    polynomial, so K <h, f> = coefficient_dot(h, g) for h of f's weight.

    K is the vector's own: a factor of eps_rho that f_rho cancels stays out
    of it, which keeps g as short as the p-form cleared.  One gcd per
    coefficient that depends on q, and `clear_denominators`'s; none in eval
    mode, where K = 1.
    """
    _require_same_m(f.m, mode.m)
    if f.is_zero:
        return mode.one(), f
    w = pairing_weights(f.homogeneous_degree(), mode)
    lcm, vals = clear_denominators(f.m, [w[rho] * c for rho, c in f.terms.items()])
    return lcm, PExpr._raw(f.m, dict(zip(f.terms, vals)))


def coefficient_dot(f: PExpr, g: PExpr) -> Cyc | CycRat:
    """sum_rho f_rho g_rho over the common support: a sum of products, with
    no gcd when the coefficients are polynomials."""
    _require_same_m(f.m, g.m)
    small, large = (f, g) if len(f.terms) <= len(g.terms) else (g, f)
    return sum((c * large.terms[rho] for rho, c in small.terms.items() if rho in large.terms),
               _cyc_zero(f.m))


# ---------------------------------------------------------------------------
# change of basis to the m-reduced q-basis


def _exact_inverse(a: list[list[Cyc]], m: int) -> list[list[Cyc]]:
    """Gauss-Jordan over Q(xi_m), pivoting on the first nonzero entry."""
    n = len(a)
    one, zero = _cyc_one(m), _cyc_zero(m)
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise InternalCheckError(
                f"singular change-of-basis matrix at column {col}: the m-reduced "
                "q's failed to span, which contradicts the basis theorem"
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero:
                fac = -aug[r][col]
                aug[r] = [x + fac * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _reduced_basis_solver(n: int, m: int) -> dict[Partition, PExpr]:
    """Each m-reduced lambda of weight n, in `enumerate_partitions` order, to its
    row of the inverse change of basis, a PExpr on the m-regular rho (read-only)."""
    regular = tuple(enumerate_partitions(n, "m_regular", m))
    cols = tuple(enumerate_partitions(n, "m_reduced", m))
    if len(regular) != len(cols):
        raise InternalCheckError(
            f"|m-regular| != |m-reduced| at weight {n}: {len(regular)} vs {len(cols)}"
        )
    inv = _exact_inverse([[qprod_to_p(c, m).coeff(r) for c in cols] for r in regular], m)
    return {lam: PExpr._raw(m, {rho: x for rho, x in zip(regular, row) if x}) for lam, row in zip(cols, inv)}


def p_to_q_reduced(f: PExpr) -> QExpr:
    """Coordinates in the m-reduced q-basis: lambda's is coefficient_dot(row, f)."""
    if f.is_zero:
        return QExpr._raw(f.m, {})
    rows = _reduced_basis_solver(f.homogeneous_degree(), f.m)
    return QExpr._collect(f.m, ((lam, coefficient_dot(row, f)) for lam, row in rows.items()))


# ---------------------------------------------------------------------------
# the modular relation among the q's


def modular_relation_check(k: int, m: int) -> QExpr:
    """Degree-km coefficient of the m-fold twisted product of the q series.

    The product over i of Y(xi^i z) telescopes to 1, so the coefficient must
    vanish identically; it is expanded in P and asserted zero.
    Returns the intermediate q-coordinates (the relation itself) on success.
    The factors are multiplied one at a time, each state a partition of the
    degrees taken with integer counts per exponent of xi mod m.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    total = k * m
    states: dict[tuple[int, ...], list[int]] = {(): [1] + [0] * (m - 1)}
    for i in range(1, m + 1):
        nxt: dict[tuple[int, ...], list[int]] = {}
        for taken, row in states.items():
            for n in range(total - sum(taken) + 1):
                key = tuple(sorted(taken + (n,), reverse=True)) if n else taken
                acc = nxt.setdefault(key, [0] * m)
                for e, c in enumerate(row):
                    acc[(e + i * n) % m] += c
        states = nxt
    relation = QExpr._collect(m, ((_raw_partition(taken), Cyc(m, row))
                                  for taken, row in states.items() if sum(taken) == total))
    delta = relation.to_p()
    if not delta.is_zero:
        raise VerificationError(
            f"twisted q-series product has a nonzero z^{total} coefficient, in P: {delta!r}"
        )
    return relation
