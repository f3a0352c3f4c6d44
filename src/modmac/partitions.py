"""Integer partitions, their classification, and the dominance order.

Partitions index everything else in this package: power-sum monomials,
generalized complete functions, operator matrices.  A `Partition` is a
validated tuple: the public constructor checks that the parts are positive
integers in weakly decreasing order and hands a `Partition` back unchanged,
so `Partition(x)` is the one coercion; everything else (hashing,
equality, ordering, indexing, `repr`) is the tuple's own.  Partitions
derived from valid ones (unions, leftovers, prefixes) are built
by the trusted `_raw_partition`, which skips the check.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from itertools import product as iproduct
from math import factorial, prod
from operator import index, neg
from typing import Iterable, Iterator

__all__ = [
    "Partition",
    "enumerate_partitions",
    "dominates",
    "union",
    "z_of",
    "mult_factorial",
    "lowerings",
]

_KINDS = ("all", "m_regular", "m_reduced")


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if isinstance(parts, Partition):
            return parts
        ps = tuple(map(index, parts))
        for i, p in enumerate(ps):
            if p <= 0:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i > 0 and ps[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing, got {ps}")
        return tuple.__new__(cls, ps)

    @property
    def weight(self) -> int:
        return sum(self)

    def multiplicities(self) -> dict[int, int]:
        """Part value -> multiplicity, largest part first."""
        out: dict[int, int] = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    def is_regular(self, m: int) -> bool:
        """True when no part is divisible by m."""
        return all(p % m != 0 for p in self)

    def is_reduced(self, m: int) -> bool:
        """True when every multiplicity is strictly below m."""
        return all(v < m for v in self.multiplicities().values())

    def is_strict(self) -> bool:
        """True when all parts are distinct."""
        return len(set(self)) == len(self)

    def to_json(self) -> list[int]:
        return list(self)


def _raw_partition(parts: Iterable[int]) -> Partition:
    # trusted constructor: parts already positive ints in weakly decreasing order
    return tuple.__new__(Partition, parts)


def _neg_head(p: Partition) -> int:
    return -p[0]


@lru_cache(maxsize=None)
def _partitions(n: int, kind: str, m: int | None) -> tuple[Partition, ...]:
    # Descent by part value, largest first, each value c taken k times with
    # the larger k first: reverse-lexicographic order, (n), (n-1,1), ....  A
    # class only walks the values and multiplicities it allows (m_regular
    # skips multiples of m, m_reduced takes k <= m-1), so nothing is filtered.
    # Once at most half the weight remains, the rest is the tail of the cached
    # class of the remainder with parts below c: first parts descend,
    # so that tail is contiguous and a bisection finds its start.  Caching only
    # weights <= n/2 keeps the memory near the class of n itself.
    out: list[Partition] = []
    most = m - 1 if kind == "m_reduced" else n

    def rec(remaining: int, bound: int, prefix: tuple[int, ...]) -> None:
        if 2 * remaining <= n:
            if remaining == 0:
                out.append(_raw_partition(prefix))
                return
            tail = _partitions(remaining, kind, m)
            start = bisect_left(tail, -bound, key=_neg_head)
            out.extend([_raw_partition(prefix + t) for t in tail[start:]])
            return
        for c in range(min(bound, remaining), 0, -1):
            if kind == "m_regular" and c % m == 0:
                continue
            for k in range(min(most, remaining // c), 0, -1):
                rec(remaining - k * c, c - 1, prefix + (c,) * k)

    rec(n, n, ())
    return tuple(out)


def _require_m(m: int) -> None:
    # the one modulus rule, shared by the partition classes and the scalars
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")


def _require_same_m(a: int, b: int) -> None:
    # the one modulus-agreement rule: operands of one operation share m
    if a != b:
        raise ValueError(f"mixed moduli: {a} vs {b}")


def enumerate_partitions(n: int, kind: str = "all", m: int | None = None) -> list[Partition]:
    """All partitions of n of the requested class, reverse-lexicographically.

    kind is one of "all", "m_regular" (no part divisible by m) or
    "m_reduced" (every multiplicity below m).

    The order is a linear extension of dominance, greatest first: at the
    first index where two partitions of n differ, the dominance-greater one
    has the larger part.
    """
    if n < 0:
        raise ValueError(f"weight must be non-negative, got {n}")
    if kind not in _KINDS:
        raise ValueError(f"unknown partition class {kind!r}; expected one of {_KINDS}")
    if m is not None:
        _require_m(m)
    elif kind != "all":
        raise ValueError("m is required for the m_regular / m_reduced classes")
    return list(_partitions(n, kind, None if kind == "all" else m))


def dominates(a: Partition, b: Partition) -> bool:
    """True when a >= b in dominance (equal weight required).

    The partial sums are compared only up to the shorter partition: past its
    end its partial sums equal the full weight, so padding with zeros would
    decide nothing more.
    """
    if a.weight != b.weight:
        raise ValueError(f"dominance is defined only within one weight: |{a}| != |{b}|")
    return all(x >= y for x, y in zip(accumulate(a), accumulate(b)))


def union(a: Partition, b: Partition) -> Partition:
    """Multiset union: multiplicities add."""
    return _raw_partition(sorted(a + b, reverse=True))


def z_of(a: Partition) -> int:
    """The centralizer-order constant: product of i^{m_i} * m_i! over part values."""
    return prod(a) * mult_factorial(a)


def mult_factorial(a: Partition) -> int:
    """Product of the factorials of the multiplicities."""
    return _count_factorial(a.multiplicities())


def _count_factorial(counts: dict[int, int]) -> int:
    # mult_factorial from the multiplicities, as `_split_counts` yields them
    return prod(map(factorial, counts.values()))


def _split_counts(lam: Partition) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    # each sub-multiset of lam and its complement once, as multiplicities
    # (part value -> count, largest first, no zeros)
    counts = lam.multiplicities()
    parts, mults = tuple(counts), tuple(counts.values())
    for choice in iproduct(*(range(a + 1) for a in mults)):
        yield ({v: c for v, c in zip(parts, choice) if c},
               {v: a - c for v, a, c in zip(parts, mults, choice) if a > c})


def lowerings(lam: Partition) -> dict[tuple[int, int, Partition], int]:
    """Count the tuples (i_1..i_s), 0 <= i_j <= lam_j, by (k, t, nu): their
    sum, the number of positive i_j and the partition of the positive
    leftovers lam_j - i_j.  The one lowering table of the raising sums:
    `x0_apply_series` reads every entry, `newton_lhs` those with t = len(lam).
    Parts are added one at a time and equal states merged, so a run of c
    equal parts costs a polynomial in c, not (v + 1)^c tuples.
    """
    states: dict[tuple[int, tuple[int, ...]], int] = {(0, ()): 1}
    for p in lam:
        nxt: dict[tuple[int, tuple[int, ...]], int] = {}
        for (t, nu), c in states.items():
            for left in range(p + 1):
                at = bisect_left(nu, -left, key=neg)
                key = (t + (left < p), nu[:at] + (left,) + nu[at:] if left else nu)
                nxt[key] = nxt.get(key, 0) + c
        states = nxt
    return {(sum(lam) - sum(nu), t, _raw_partition(nu)): c for (t, nu), c in states.items()}
