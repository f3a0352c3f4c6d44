from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, product
from math import comb

import pytest

from modmac.partitions import (
    Partition,
    dominates,
    enumerate_partitions,
    lowerings,
    mult_factorial,
    union,
    z_of,
)

P = Partition


def test_constructor_validation():
    assert P(()) == () and type(P(())) is Partition
    assert P((3, 1)).weight == 4
    with pytest.raises(ValueError):
        P((1, 3))
    with pytest.raises(ValueError):
        P((2, 0))
    with pytest.raises(ValueError):
        P((-1,))


@pytest.mark.parametrize("parts", [[2.7, 1], (2, 1.0), (Fraction(3),), ("2",)],
                         ids=["float", "integral-float", "fraction", "str"])
def test_non_integer_parts_are_a_type_error(parts):
    # 2.7 must not be truncated to 2
    with pytest.raises(TypeError):
        P(parts)


def test_basic_accessors():
    lam = P((3, 2, 2, 1))
    assert len(lam) == 4 and lam[0] == 3 and lam[1:] == (2, 2, 1)
    assert lam.count(2) == 2 and lam.count(5) == 0
    assert lam.multiplicities() == {3: 1, 2: 2, 1: 1}
    assert lam.is_regular(4) and not lam.is_regular(2)
    assert lam.is_reduced(3) and not lam.is_reduced(2)
    assert not lam.is_strict() and P((3, 1)).is_strict()


def test_enumerate_examples():
    assert enumerate_partitions(4, "m_regular", 2) == [(3, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(4, "m_reduced", 2) == [(4,), (3, 1)]
    assert enumerate_partitions(0, "all", 3) == [()]
    # equinumerosity: as many m-regular as m-reduced partitions
    for n, m, count in ((3, 3, 2), (4, 2, 2), (0, 5, 1)):
        assert len(enumerate_partitions(n, "m_regular", m)) == count
        assert len(enumerate_partitions(n, "m_reduced", m)) == count


def test_enumerate_is_reverse_lexicographic():
    for n in range(0, 9):
        ps = enumerate_partitions(n)
        assert ps == sorted(ps, reverse=True)
        assert len(set(ps)) == len(ps)


def _oracle_partitions(n):
    # every composition of n (a subset of the n-1 cut points), sorted into a
    # partition: independent of the descent in enumerate_partitions
    out = set()
    for cuts in range(1 << max(n - 1, 0)):
        parts, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        if n:
            parts.append(run)
        out.add(tuple(sorted(parts, reverse=True)))
    return sorted(out, reverse=True)


def _in_class(p, kind, m):
    if kind == "m_regular":
        return all(x % m for x in p)
    if kind == "m_reduced":
        return max(Counter(p).values(), default=0) < m
    return True


def test_enumerate_matches_an_independent_generator():
    # n up to 16 puts the weight on both sides of the half-weight splice and
    # m above n for the small weights
    for n in range(0, 17):
        every = _oracle_partitions(n)
        assert enumerate_partitions(n) == every
        for m in range(2, 14):
            for kind in ("m_regular", "m_reduced"):
                want = [p for p in every if _in_class(p, kind, m)]
                assert enumerate_partitions(n, kind, m) == want, (n, kind, m)


def _counts(top, distinct):
    # coefficients of prod_k 1/(1 - x^k), or of prod_k (1 + x^k) for distinct parts
    c = [1] + [0] * top
    for k in range(1, top + 1):
        for n in (range(top, k - 1, -1) if distinct else range(k, top + 1)):
            c[n] += c[n - k]
    return c


def test_enumerate_counts_match_known_values():
    p = _counts(40, distinct=False)
    assert p[40] == 37338
    assert [len(enumerate_partitions(n)) for n in range(41)] == p
    q = _counts(60, distinct=True)
    assert q[60] == 10880
    for kind in ("m_reduced", "m_regular"):
        assert [len(enumerate_partitions(n, kind, 2)) for n in range(61)] == q


@pytest.mark.parametrize("kind,m", [("all", None), ("m_regular", 3), ("m_reduced", 3)])
def test_enumerate_returns_a_fresh_list(kind, m):
    # the classes are cached: a caller's edits must not reach the next caller,
    # neither at this weight nor through the tails spliced into larger ones
    for n in range(9):
        got = enumerate_partitions(n, kind, m)
        got.append(P((n + 1,)))
        got.reverse()
        del got[1:]
        enumerate_partitions(n, kind, m).clear()
    for n in range(17):
        want = [p for p in _oracle_partitions(n) if _in_class(p, kind, m)]
        assert enumerate_partitions(n, kind, m) == want


def test_enumerate_errors():
    with pytest.raises(ValueError):
        enumerate_partitions(3, "m_regular", 1)
    with pytest.raises(ValueError):
        enumerate_partitions(3, "m_regular")
    with pytest.raises(ValueError):
        enumerate_partitions(-1)
    with pytest.raises(ValueError):
        enumerate_partitions(3, "weird")


def test_dominance_examples():
    # greater: one way only
    assert dominates(P((4,)), P((3, 1))) and not dominates(P((3, 1)), P((4,)))
    assert dominates(P((3,)), P((1, 1, 1))) and not dominates(P((1, 1, 1)), P((3,)))
    # incomparable: neither way
    assert not dominates(P((3, 1, 1, 1)), P((2, 2, 2)))
    assert not dominates(P((2, 2, 2)), P((3, 1, 1, 1)))
    # equal: both ways
    assert dominates(P((2, 2)), P((2, 2)))
    with pytest.raises(ValueError):
        dominates(P((2,)), P((1,)))


def _dominates_padded(a, b):
    # the textbook definition: partial sums of both, zero-padded to one length
    k = max(len(a), len(b))
    sa = list(accumulate(tuple(a) + (0,) * (k - len(a))))
    sb = list(accumulate(tuple(b) + (0,) * (k - len(b))))
    return all(x >= y for x, y in zip(sa, sb))


def test_dominates_matches_padded_partial_sums():
    # every ordered pair of partitions of each n <= 12
    for n in range(0, 13):
        ps = enumerate_partitions(n)
        for a in ps:
            for b in ps:
                assert dominates(a, b) == _dominates_padded(a, b), (a, b)


def test_dominance_is_a_partial_order():
    # every triple of partitions of one n <= 8: 15,858 triples
    for n in range(1, 9):
        ps = enumerate_partitions(n)
        for a, b, c in product(ps, repeat=3):
            # antisymmetry: both ways only for equal partitions
            if dominates(a, b) and dominates(b, a):
                assert a == b
            # reflexivity
            assert dominates(a, a)
            # transitivity
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c), (a, b, c)


def test_row_and_rectangle_are_extreme():
    # (km) dominates and (k^m) is dominated by every partition of km of length <= m
    for m in (2, 3, 4):
        for k in range(1, 13 // m + 1):
            n = k * m
            row, rect = P((n,)), P((k,) * m)
            for lam in enumerate_partitions(n):
                if len(lam) <= m:
                    assert dominates(row, lam)
                    assert dominates(lam, rect)


def test_lowering_counts_examples():
    # 0 <= i_j <= lam_j, keyed by (sum, number lowered, positive leftovers)
    assert lowerings(P((2, 1))) == {
        (0, 0, P((2, 1))): 1, (1, 1, P((2,))): 1, (1, 1, P((1, 1))): 1,
        (2, 2, P((1,))): 1, (2, 1, P((1,))): 1, (3, 2, P(())): 1}
    assert lowerings(P(())) == {(0, 0, P(())): 1}
    # a run of ones: one entry per number lowered
    assert lowerings(P((1,) * 40)) == {(t, t, P((1,) * (40 - t))): comb(40, t) for t in range(41)}
    # a bare tuple would hash and compare equal but have no weight
    for _, _, nu in lowerings(P((3, 2, 2))):
        assert type(nu) is Partition


def _direct_lowerings(lam, low=0):
    # every tuple low <= i_j <= lam_j, counted by (k, t, nu)
    want = Counter()
    for tup in product(*(range(low, p + 1) for p in lam)):
        nu = P(sorted((p - i for p, i in zip(lam, tup) if p > i), reverse=True))
        want[sum(tup), sum(1 for i in tup if i), nu] += 1
    return want


def test_lowering_counts_match_direct_count():
    lams = [lam for n in range(11) for lam in enumerate_partitions(n)]
    for lam in lams + [P((1,) * 12), P((2,) * 6 + (1,) * 6)]:
        got = lowerings(lam)
        assert got == _direct_lowerings(lam), lam
        # the Newton left-hand side's slice: exactly the tuples with every i_j >= 1
        assert {key: c for key, c in got.items() if key[1] == len(lam)} == \
            _direct_lowerings(lam, 1), lam


def test_lowering_counts_fold_a_long_run():
    # 3^40 tuples, merged into the C(42, 2) choices of how many 2s stay,
    # become 1 or vanish
    table = lowerings(P((2,) * 40))
    assert len(table) == comb(42, 2)
    assert sum(table.values()) == 3 ** 40


def test_union_examples():
    assert union(P((2, 1)), P((1,))) == P((2, 1, 1))
    assert union(P(()), P((3, 1))) == P((3, 1))
    assert type(union(P((2, 1)), P((1,)))) is Partition


def test_union_adds_multiplicities():
    # every pair of the 252 multisets of at most 5 parts from 1..5
    multisets = [P(parts) for k in range(6)
                 for parts in combinations_with_replacement(range(5, 0, -1), k)]
    assert len(multisets) == 252
    for a, b in product(multisets, repeat=2):
        both = union(a, b)
        assert Counter(both) == Counter(a) + Counter(b)
        assert both == union(b, a) and both.weight == a.weight + b.weight


def test_z_and_mult_factorial():
    assert z_of(P((3, 1))) == 3
    assert z_of(P((2, 2))) == 8
    assert z_of(P((1, 1, 1))) == 6
    assert z_of(P(())) == 1
    assert mult_factorial(P((2, 2, 2, 1, 1))) == 12
    assert mult_factorial(P(())) == 1


def test_linear_extension():
    # enumerate_partitions lists a weight greatest first in dominance
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(6, "m_regular", 3) == [
        (5, 1), (4, 2), (4, 1, 1), (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1,) * 6
    ]
    assert enumerate_partitions(4, "m_reduced", 2) == [(4,), (3, 1)]
    assert enumerate_partitions(0, "m_reduced", 2) == [()]


def test_linear_extension_respects_dominance():
    # for each kind the tuples descend, and no partition dominates one listed
    # before it
    for kind, ms in (("all", (None,)), ("m_regular", (2, 3, 5)), ("m_reduced", (2, 3, 5))):
        for m in ms:
            for n in range(11):
                order = enumerate_partitions(n, kind, m)
                assert order == sorted(order, reverse=True)
                for i, a in enumerate(order):
                    assert not any(dominates(b, a) for b in order[i + 1:]), (kind, m, a)


def test_json_round_trip():
    lam = P((3, 1))
    assert lam.to_json() == [3, 1]
    assert P(lam.to_json()) == lam
    assert P(()).to_json() == []


def test_partition_of_a_partition_is_itself():
    lam = P((3, 1, 1))
    assert P(lam) is lam
    assert type(P([3, 1, 1])) is P and P([3, 1, 1]) == lam


def test_hash_and_equality():
    assert P((2, 1)) == P([2, 1]) == (2, 1)
    assert len({P((2, 1)), P((2, 1)), P((3,))}) == 2
    # a partition is a tuple: same hash, and the tuple's repr
    assert hash(P((2, 1))) == hash((2, 1))
    assert repr(P((2, 1))) == "(2, 1)" and f"{P(())}" == "()"
