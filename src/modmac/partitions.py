"""Integer partitions, their classification, and the dominance order.

Partitions index everything else in this package: power-sum monomials,
generalized complete functions, operator matrices.  A `Partition` is a
validated tuple: the public constructor checks that the parts are positive
integers in weakly decreasing order, and everything else (hashing,
equality, ordering, indexing, `repr`) is the tuple's own.  Partitions
derived from valid ones (unions, leftovers, prefixes) are built
by the trusted `_raw_partition`, which skips the check.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from itertools import product as iproduct
from math import factorial
from operator import index
from typing import Iterable

__all__ = [
    "Partition",
    "enumerate_partitions",
    "dominates",
    "union",
    "z_of",
    "mult_factorial",
    "lowering_tuple_counts",
]

_KINDS = ("all", "m_regular", "m_reduced")


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
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


@lru_cache(maxsize=None)
def _all_partitions(n: int) -> tuple[Partition, ...]:
    # Recursive descent emits reverse-lexicographic order: (n), (n-1,1), ...
    out: list[Partition] = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(_raw_partition(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(n, n, ())
    return tuple(out)


def _check_m(m: int | None, required: bool) -> None:
    if m is None:
        if required:
            raise ValueError("m is required for the m_regular / m_reduced classes")
        return
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")


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
    _check_m(m, required=kind != "all")
    ps = _all_partitions(n)
    if kind == "m_regular":
        return [p for p in ps if p.is_regular(m)]
    if kind == "m_reduced":
        return [p for p in ps if p.is_reduced(m)]
    return list(ps)


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
    out = 1
    for i, mi in a.multiplicities().items():
        out *= i**mi * factorial(mi)
    return out


def mult_factorial(a: Partition) -> int:
    """Product of the factorials of the multiplicities."""
    out = 1
    for mi in a.multiplicities().values():
        out *= factorial(mi)
    return out


LoweringCounts = tuple[tuple[tuple[int, int, Partition], int], ...]


@lru_cache(maxsize=None)
def lowering_tuple_counts(lam: Partition) -> LoweringCounts:
    """Count the tuples (i_1..i_s), 0 <= i_j <= lam_j, by their signature
    (k, t, nu): k the sum of the i_j, t the number of nonzero i_j, nu the
    partition of the positive leftovers lam_j - i_j.  Returns ((k, t, nu),
    count) pairs in order of first occurrence.

    The one exhaustive tuple walk: `x0_apply_series` takes every entry,
    `nl_brute` and `newton_lhs` the entries with t = len(lam), where every
    i_j >= 1.
    """
    counts: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for tup in iproduct(*(range(p + 1) for p in lam)):
        left = tuple(sorted((p - i for p, i in zip(lam, tup) if p > i), reverse=True))
        key = (sum(tup), len(tup) - tup.count(0), left)
        counts[key] = counts.get(key, 0) + 1
    return tuple(((k, t, _raw_partition(left)), c) for (k, t, left), c in counts.items())
