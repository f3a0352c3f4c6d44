import random
from fractions import Fraction
from itertools import combinations

import pytest

from modmac.errors import InternalCheckError
from modmac.newton import (
    _clamped_quotient,
    d_lambda_mu,
    d_mu,
    newton_lhs,
    newton_rhs,
    nl_brute,
    nl_closed,
    nl_falling,
    qpow_dseq,
    r_from_recursion,
)
from modmac.partitions import Partition, dominates, enumerate_partitions, lowerings
from modmac.scalars import Cyc, CycRat, eval_mode, symbolic_mode
from modmac.symfunc import q_to_p, r_to_p

P = Partition
F = Fraction
M2 = symbolic_mode(2)
Q = CycRat.q(2)
D2 = qpow_dseq(M2)


def test_nl_brute_reads_as_the_lowering_table_slice():
    # the exhaustive walk and the fold agree on every i_j >= 1 tuple count
    for n in range(0, 9):
        below = [nu for w in range(n) for nu in enumerate_partitions(w)]
        for lam in enumerate_partitions(n):
            table = lowerings(lam)
            for nu in below:
                assert nl_brute(lam, nu) == table.get((n - nu.weight, len(lam), nu), 0), (lam, nu)


def test_nl_brute_examples():
    assert nl_brute(P((3, 2)), P((2,))) == 1
    assert nl_brute(P((2, 1)), P((2,))) == 0
    assert nl_brute(P(()), P(())) == 1
    assert nl_brute(P((2, 2, 2)), P((1,))) == 3


def test_nl_closed_examples():
    assert nl_closed(P((2, 1)), P((1,))) == 1
    assert nl_closed(P((2, 2)), P((1, 1))) == 1
    assert nl_closed(P((2, 1)), P(())) == 1
    assert nl_falling(P((2, 1)), P((1,))) == 1
    assert nl_falling(P((4, 4)), P((3, 1))) == 2 == nl_brute(P((4, 4)), P((3, 1)))


def test_d_mu_examples():
    assert d_mu(P((5,)), D2) == Q**5 - 1
    assert d_mu(P((1, 1)), D2) == -(Q - 1)
    assert d_mu(P((2, 1)), D2) == -(Q**2 + Q - 2)
    assert d_mu(P((1, 1, 1)), D2) == Q - 1
    with pytest.raises(ValueError):
        d_mu(P(()), D2)


def test_d_lambda_mu_examples():
    assert d_lambda_mu(P((2, 1)), P((2, 1)), D2) == -(Q - 1)
    assert d_lambda_mu(P((4,)), P((4,)), D2) == Q**4 - 1
    assert d_lambda_mu(P((1, 1)), P((2,)), D2) == Q**2 - 1
    with pytest.raises(ValueError):
        d_lambda_mu(P((2,)), P((1,)), D2)
    with pytest.raises(ValueError):
        d_lambda_mu(P(()), P(()), D2)


def _paper_d_lambda_mu(lam, mu, d, zero):
    # the paper's sum over proper sub-multisets nu of mu of N(lam, nu) d_{mu \ nu},
    # nu chosen by its positions in mu and each multiset taken once
    splits = {}
    for r in range(len(mu)):
        for idx in combinations(range(len(mu)), r):
            nu = P(mu[i] for i in idx)
            splits[nu] = P(mu[i] for i in range(len(mu)) if i not in idx)
    return sum((d_mu(rho, d) * nl_brute(lam, nu) for nu, rho in splits.items()), zero)


def test_d_lambda_mu_matches_the_paper_sum():
    rng = random.Random(7)
    vals = {n: Cyc(3, (F(rng.randint(-9, 9), rng.randint(1, 7)),)) for n in range(1, 8)}
    cases = [(qpow_dseq(symbolic_mode(m)), Cyc(m)) for m in (2, 3)]
    cases.append((vals.__getitem__, Cyc(3)))
    for d, zero in cases:
        for n in range(1, 8):
            ps = enumerate_partitions(n)
            for lam, mu in ((lam, mu) for lam in ps for mu in ps if dominates(mu, lam)):
                want = _paper_d_lambda_mu(lam, mu, d, zero)
                assert d_lambda_mu(lam, mu, d) == want, (lam, mu)


def test_newton_lhs_examples():
    assert newton_lhs(P((1,)), M2) == r_to_p(1, M2)
    assert newton_lhs(P((2,)), M2) == q_to_p(2, 2).scale(Q**2 - 1)
    with pytest.raises(ValueError):
        newton_lhs(P(()), M2)


def test_recursion_reproduces_closed_form():
    # with the standard sequence, the convolution recursion must rebuild the
    # closed-form creation coefficients
    for mode in (M2, symbolic_mode(3)):
        rs = r_from_recursion(8, qpow_dseq(mode), mode)
        for n in range(0, 9):
            assert rs[n] == r_to_p(n, mode), n


def test_theorem_generic_sequences():
    rng = random.Random(424242)
    me = eval_mode(3, 2)
    for _ in range(3):
        vals = {n: Cyc(3, (F(rng.randint(-9, 9), rng.randint(1, 7)),))
                for n in range(1, 6)}
        d = lambda n: vals[n]
        rs = r_from_recursion(5, d, me)
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                assert newton_lhs(lam, me, rs=rs) == newton_rhs(lam, me, d), lam


def test_clamped_quotient_rejects_an_inexact_division():
    # a positive product that m(nu)! does not divide means a broken closed form
    assert _clamped_quotient(-4, {1: 2}, "falling form") == 0
    with pytest.raises(InternalCheckError, match=r"^falling form gave 3, not divisible by m\(nu\)! = 2"):
        _clamped_quotient(3, {1: 2}, "falling form")
