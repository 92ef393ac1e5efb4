"""Scalar algebra instances and the 1x1 embedding."""

from __future__ import annotations

import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supcalc as sc
from supcalc.semiring import LiteralError, add, eq, mul


EXACT = (sc.QNN, sc.Q, sc.BOOL)


@pytest.mark.parametrize("sr", EXACT, ids=lambda s: s.name)
def test_semiring_axioms_exact(sr):
    rng = random.Random(17)
    pool = sr.test_pool
    for _ in range(1000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert sr.eq(sr.add(a, b), sr.add(b, a))
        assert sr.eq(sr.add(sr.add(a, b), c), sr.add(a, sr.add(b, c)))
        assert sr.eq(sr.add(a, sr.zero), a)
        assert sr.eq(sr.mul(sr.mul(a, b), c), sr.mul(a, sr.mul(b, c)))
        assert sr.eq(sr.mul(a, sr.one), a)
        assert sr.eq(sr.mul(sr.one, a), a)
        assert sr.eq(sr.mul(a, sr.add(b, c)), sr.add(sr.mul(a, b), sr.mul(a, c)))
        assert sr.eq(sr.mul(sr.add(a, b), c), sr.add(sr.mul(a, c), sr.mul(b, c)))
        assert sr.eq(sr.mul(a, sr.zero), sr.zero)
        assert sr.eq(sr.mul(sr.zero, a), sr.zero)


@pytest.mark.parametrize("sr", (sc.QNN, sc.Q, sc.BOOL, sc.F64),
                         ids=lambda s: s.name)
def test_is_zero_is_equality_with_zero(sr):
    values = list(sr.test_pool) + [v for pair in sr.weight_pool for v in pair]
    values += [sr.add(a, b) for a in sr.test_pool for b in sr.test_pool]
    if sr is sc.F64:
        values += [1e-12, -1e-12, 1e-9, 2e-9, 0.1 + 0.2 - 0.3, -0.0]
    if sr is sc.Q:
        values += [F(1) + F(-1), F(1, 3) - F(1, 3)]
    for v in values:
        assert sr.is_zero(v) == sr.eq(v, sr.zero), v


def test_semiring_axioms_float_within_tolerance():
    sr = sc.F64
    rng = random.Random(17)
    for _ in range(1000):
        a, b, c = (rng.choice(sr.test_pool) for _ in range(3))
        assert abs(sr.mul(a, sr.add(b, c)) - (a * b + a * c)) <= 1e-12
        assert abs(sr.add(a, b) - (b + a)) <= 1e-12


@pytest.mark.parametrize("sr", (sc.QNN, sc.Q, sc.F64), ids=lambda s: s.name)
def test_embed_is_a_homomorphism(sr):
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.choice(sr.test_pool), rng.choice(sr.test_pool)
        lhs = sc.add(sc.embed(a, sr), sc.embed(b, sr))
        assert lhs.equal(sc.embed(sr.add(a, b), sr))
        lhs = sc.compose(sc.embed(a, sr), sc.embed(b, sr))
        assert lhs.equal(sc.embed(sr.mul(a, b), sr))


def test_embed_injective_on_pool():
    for sr in (sc.QNN, sc.Q, sc.BOOL):
        images = [tuple(sc.embed(v, sr).entries) for v in sr.test_pool]
        assert len(set(images)) == len(sr.test_pool)


def test_embed_units():
    assert sc.embed(F(1)).equal(sc.identity(1, sc.QNN))
    assert sc.embed(F(0)).equal(sc.zero_mat(1, 1, sc.QNN))
    assert sc.embed(F(3, 4)).entries == [F(3, 4)]


def test_weight_pairs():
    assert sc.make_weight_pair(F(1, 2), F(1, 2), sc.QNN) == sc.WeightPair(F(1, 2), F(1, 2))
    assert sc.make_weight_pair(F(1), F(0), sc.QNN).p == F(1)
    with pytest.raises(sc.WeightError):
        sc.make_weight_pair(F(1, 2), F(1, 4), sc.QNN)


def test_weight_pairs_are_semiring_relative():
    # in the two-point algebra 1+1=1, so (1,1) is a legal pair
    sc.make_weight_pair(True, True, sc.BOOL)
    with pytest.raises(sc.WeightError):
        sc.make_weight_pair(False, False, sc.BOOL)
    # in the signed rationals, 2 + (-1) = 1
    sc.make_weight_pair(F(2), F(-1), sc.Q)


def test_literal_rejections():
    with pytest.raises(LiteralError):
        sc.BOOL.from_literal(F(1, 2))
    with pytest.raises(LiteralError):
        sc.QNN.from_literal(F(-1))
    assert sc.Q.from_literal(F(-1)) == F(-1)
    assert sc.F64.from_literal(F(1, 2)) == 0.5


def test_format_scalar_reparses():
    for sr in (sc.QNN, sc.Q, sc.F64, sc.BOOL):
        for v in sr.test_pool:
            text = sc.format_scalar(v)
            assert sr.eq(sr.from_literal(F(text)), v)


def test_get_semiring():
    assert sc.get_semiring("qnn") is sc.QNN
    with pytest.raises(sc.SemiringError):
        sc.get_semiring("tropical")


# The exact kernel behind QNN and Q, against Fraction's own operators:
# zero, signs, numerators and denominators above 2**64, and int operands,
# which take the operator.

_BIG = 2 ** 64
_INTS = st.integers(-3 * _BIG, 3 * _BIG) | st.integers(-12, 12)
_FRACTIONS = st.builds(F, _INTS, st.integers(1, 3 * _BIG) | st.integers(1, 12))
_OPERANDS = _FRACTIONS | _INTS | st.sampled_from([F(0), F(1), F(-1), 0, 1])


@settings(max_examples=1000, deadline=None)
@given(a=_OPERANDS, b=_OPERANDS)
def test_kernel_equals_fractions_operators(a, b):
    for kernel, op in ((mul, operator.mul), (add, operator.add)):
        got, want = kernel(a, b), op(a, b)
        assert got == want
        assert type(got) is type(want)
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)
        if type(a) is F and type(b) is F:
            assert type(got) is F


def test_exact_instances_use_the_kernel():
    assert sc.QNN.mul is mul and sc.QNN.add is add
    assert sc.Q.mul is mul and sc.Q.add is add
    assert sc.QNN.eq is eq and sc.Q.eq is eq


_FLOATS = st.floats() | st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0 ** 64])


def _equal_copy(a):
    """A distinct object equal to a: a Fraction rebuilt from its parts, an
    int or a float as the other numeric type."""
    if type(a) is F:
        return F(a.numerator, a.denominator)
    if type(a) is int:
        return F(a)
    if a != a or abs(a) == float("inf"):  # no Fraction equals it
        return a
    return F(a)


@settings(max_examples=1000, deadline=None)
@given(a=_OPERANDS | _FLOATS, b=_OPERANDS | _FLOATS)
def test_eq_kernel_equals_the_operator(a, b):
    for x, y in ((a, b), (b, a), (a, a), (a, _equal_copy(a)),
                 (_equal_copy(b), b)):
        got = eq(x, y)
        assert type(got) is bool
        assert got == operator.eq(x, y), (x, y)
