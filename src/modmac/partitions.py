"""Integer partitions, their classification, and the dominance order.

Partitions index everything else in this package: power-sum monomials,
generalized complete functions, operator matrices.  Values are immutable
and hashable so they can be used freely as dictionary keys.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import factorial
from operator import index
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Partition",
    "CountCheck",
    "enumerate_partitions",
    "count_check",
    "dominance_compare",
    "dominates",
    "union",
    "subtract",
    "z_of",
    "mult_factorial",
    "dominance_linear_extension",
    "lowering_tuple_counts",
]

_KINDS = ("all", "m_regular", "m_reduced")


class Partition:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("_parts", "_weight")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(map(index, parts))
        for i, p in enumerate(ps):
            if p <= 0:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i > 0 and ps[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing, got {ps}")
        self._parts = ps
        self._weight = sum(ps)

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return self._weight

    @property
    def length(self) -> int:
        return len(self._parts)

    def mult(self, i: int) -> int:
        """Multiplicity of the part value i."""
        return self._parts.count(i)

    def multiplicities(self) -> dict[int, int]:
        """Part value -> multiplicity, largest part first."""
        out: dict[int, int] = {}
        for p in self._parts:
            out[p] = out.get(p, 0) + 1
        return out

    def is_regular(self, m: int) -> bool:
        """True when no part is divisible by m."""
        return all(p % m != 0 for p in self._parts)

    def is_reduced(self, m: int) -> bool:
        """True when every multiplicity is strictly below m."""
        return all(v < m for v in self.multiplicities().values())

    def is_strict(self) -> bool:
        """True when all parts are distinct."""
        return len(set(self._parts)) == len(self._parts)

    def to_json(self) -> list[int]:
        return list(self._parts)

    @classmethod
    def from_json(cls, obj: Iterable[int]) -> "Partition":
        return cls(obj)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i):
        return self._parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        if isinstance(other, tuple):
            return self._parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"


class CountCheck(NamedTuple):
    regular_count: int
    reduced_count: int
    equal: bool


@lru_cache(maxsize=None)
def _all_partitions(n: int) -> tuple[Partition, ...]:
    # Recursive descent emits reverse-lexicographic order: (n), (n-1,1), ...
    if n == 0:
        return (Partition(()),)
    out: list[Partition] = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
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


def count_check(n: int, m: int) -> CountCheck:
    """Cardinalities of the m-regular and m-reduced partitions of n."""
    _check_m(m, required=True)
    a = len(enumerate_partitions(n, "m_regular", m))
    b = len(enumerate_partitions(n, "m_reduced", m))
    return CountCheck(a, b, a == b)


def _partial_sums(p: Partition, upto: int) -> list[int]:
    out, acc = [], 0
    for i in range(upto):
        acc += p.parts[i] if i < p.length else 0
        out.append(acc)
    return out


def dominance_compare(a: Partition, b: Partition) -> str:
    """Compare two partitions of equal weight in the dominance order.

    Returns "greater", "less", "equal" or "incomparable".  The shorter
    partition is padded with zeros for the partial sums.
    """
    if a.weight != b.weight:
        raise ValueError(
            f"dominance is defined only within one weight: |{a.parts}| != |{b.parts}|"
        )
    if a == b:
        return "equal"
    k = max(a.length, b.length)
    sa, sb = _partial_sums(a, k), _partial_sums(b, k)
    ge = all(x >= y for x, y in zip(sa, sb))
    le = all(x <= y for x, y in zip(sa, sb))
    if ge:
        return "greater"
    if le:
        return "less"
    return "incomparable"


def dominates(a: Partition, b: Partition) -> bool:
    """True when a >= b in dominance (equal weight required)."""
    return dominance_compare(a, b) in ("greater", "equal")


def union(a: Partition, b: Partition) -> Partition:
    """Multiset union: multiplicities add."""
    return Partition(sorted(a.parts + b.parts, reverse=True))


def subtract(a: Partition, b: Partition) -> Partition:
    """Multiset difference a \\ b; requires b's multiplicities to fit inside a's."""
    remaining = list(a.parts)
    for p in b.parts:
        try:
            remaining.remove(p)
        except ValueError:
            raise ValueError(
                f"cannot subtract {b.parts} from {a.parts}: multiplicity of {p} would go negative"
            ) from None
    return Partition(remaining)


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


def dominance_linear_extension(ps: Iterable[Partition]) -> list[Partition]:
    """Total order compatible with dominance, greatest first.

    Reverse-lexicographic order refines dominance on a fixed weight (at the
    first differing index the dominance-greater partition has the larger
    part), so sorting by the part tuples descending is already a linear
    extension and is deterministic across runs.
    """
    out = list(ps)
    weights = {p.weight for p in out}
    if len(weights) > 1:
        raise ValueError(f"mixed weights in linear extension input: {sorted(weights)}")
    out.sort(key=lambda p: p.parts, reverse=True)
    return out


LoweringCounts = tuple[tuple[tuple[int, int, Partition], int], ...]


@lru_cache(maxsize=None)
def lowering_tuple_counts(lam: Partition, start: int) -> LoweringCounts:
    """Count the tuples (i_1..i_s), start <= i_j <= lam_j, by their signature
    (k, t, nu): k the sum of the i_j, t the number of nonzero i_j, nu the
    partition of the positive leftovers lam_j - i_j.  Returns ((k, t, nu),
    count) pairs in order of first occurrence.

    The one exhaustive tuple walk: `nl_brute` and `newton_lhs` start at 1,
    `x0_apply_series` at 0.
    """
    if start not in (0, 1):
        raise ValueError(f"lowering tuples start at 0 or 1, got {start}")
    counts: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for tup in iproduct(*(range(start, p + 1) for p in lam.parts)):
        left = tuple(sorted((p - i for p, i in zip(lam.parts, tup) if p > i), reverse=True))
        key = (sum(tup), len(tup) - tup.count(0), left)
        counts[key] = counts.get(key, 0) + 1
    return tuple(((k, t, Partition(left)), c) for (k, t, left), c in counts.items())
