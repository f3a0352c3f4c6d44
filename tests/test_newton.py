import random
from fractions import Fraction

import pytest

from modmac.newton import (
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
from modmac.partitions import Partition, enumerate_partitions
from modmac.scalars import Cyc, CycRat, eval_mode, symbolic_mode
from modmac.symfunc import q_to_p, r_to_p

P = Partition
F = Fraction
M2 = symbolic_mode(2)
Q = CycRat.q(2)
D2 = qpow_dseq(M2)


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
