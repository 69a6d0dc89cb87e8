import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gelfond.partitions import (ExponentSequence, IntegerPartition,
                                RealPartition, as_exponents, dimension,
                                exponents_from_partition, muntz_tableau,
                                partition_from_exponents, partition_parts)
from oracles import (conjugate, contents, from_frobenius, frobenius,
                     hook_dimension, hook_partition_dimension, hooks,
                     interlacing_partitions)


@st.composite
def integer_partitions(draw, max_part=8, max_len=5):
    length = draw(st.integers(0, max_len))
    parts = sorted(
        draw(st.lists(st.integers(1, max_part), min_size=length,
                      max_size=length)),
        reverse=True)
    return IntegerPartition(parts)


@st.composite
def exponent_sequences(draw, max_n=5, max_exp=12):
    n = draw(st.integers(1, max_n))
    tail = sorted(draw(st.sets(st.integers(1, max_exp), min_size=n,
                               max_size=n)))
    return ExponentSequence((0,) + tuple(tail))


def test_real_partition_validity():
    RealPartition((3, 2, 2))
    RealPartition((5.5, 4.25, 0.5))
    RealPartition(())
    # repeated parts are fine; the shifted chain still decreases
    RealPartition((2, -0.5, -0.5))
    # parts must stay above -1
    with pytest.raises(ValueError):
        RealPartition((2, 1, -1))
    # shifted parts lambda_i - (i-1) must strictly decrease
    with pytest.raises(ValueError):
        RealPartition((1, 2))
    with pytest.raises(ValueError):
        RealPartition((2.0, 3.5, 1.0))


def test_real_partition_trailing_zeros():
    assert RealPartition((3, 1, 0, 0)) == RealPartition((3, 1))
    assert hash(RealPartition((3, 1, 0))) == hash(RealPartition((3, 1)))
    assert RealPartition((3, 1, 0)).padded(5).parts == (3, 1, 0, 0, 0)
    assert RealPartition((3, 1, 0)).stripped() == (3, 1)
    # appending zeros never invalidates a chain
    RealPartition((0.25, 0, 0, 0, 0, 0))


def test_exponent_partition_correspondence():
    lam = partition_from_exponents((0, 3, 4, 6, 9))
    assert lam.parts == (5, 3, 3, 2)
    assert tuple(exponents_from_partition(lam)) == (0, 3, 4, 6, 9)
    # trailing zeros carry the ambient length through the roundtrip
    lam2 = partition_from_exponents((0, 2, 3, 4))
    assert lam2.parts == (1, 0, 0)
    assert tuple(exponents_from_partition(lam2)) == (0, 2, 3, 4)


@given(exponent_sequences())
def test_correspondence_roundtrip(r):
    lam = partition_from_exponents(r)
    assert tuple(exponents_from_partition(lam, n=r.n)) == tuple(r)


def test_muntz_tableau_frozen():
    lam = partition_from_exponents((0, 3, 4, 6, 9))
    tab = muntz_tableau(lam)
    assert [x.parts for x in tab] == [
        (3, 3, 2), (6, 3, 2), (6, 4, 2), (6, 4, 4), (6, 4, 4, 3)]
    tab2 = muntz_tableau(RealPartition((4, 2, 0)))
    assert [x.stripped() for x in tab2] == [
        (2,), (5,), (5, 3), (5, 3, 1)]


def test_dimension_formulas_agree():
    # the partition (2, 1) is the hook (arm 1 | leg 1)
    assert hook_partition_dimension(1, 1, 3) == 8
    assert hook_dimension(IntegerPartition((2, 1)), 3) == 8
    for parts in [(), (1,), (2, 1), (3, 1, 1), (2, 2, 2), (4, 3, 2, 1)]:
        lam = IntegerPartition(parts)
        for n in range(1, 6):
            hd = hook_dimension(lam, n)
            if len(parts) <= n:
                assert hd == dimension(lam.as_real(), n)
                assert hd == dimension(lam, n)
            else:
                assert hd == 0


@given(integer_partitions(), st.integers(1, 5))
def test_dimension_routes_cross(lam, n):
    if lam.length <= n:
        assert hook_dimension(lam, n) == dimension(lam.as_real(), n)


def test_hook_dimension_matches_frobenius_hooks():
    for arm in range(4):
        for leg in range(4):
            lam = IntegerPartition((arm + 1,) + (1,) * leg)
            for n in range(1, 6):
                assert hook_partition_dimension(arm, leg, n) == \
                    hook_dimension(lam, n)


def test_pairwise_dimension_real():
    lam = RealPartition((2.5, 0.5))
    d = dimension(lam, 3)
    # prod over pairs (lam_i - lam_j + j - i)/(j - i) with one zero pad
    assert d == pytest.approx((2.5 - 0.5 + 1) / 1 * (2.5 + 2) / 2 * (0.5 + 1) / 1)
    with pytest.raises(ValueError):
        dimension(RealPartition((1.5, 0.5, 0.25)), 2)


def test_float_dimension_is_the_correctly_rounded_product():
    # Weyl's product over the float ladder a_j = lambda_j + n - 1 - j,
    # formed in Fractions and rounded once; inf beyond the float range
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 9)
        parts, top = [], rng.uniform(0.5, 40)
        for _ in range(rng.randint(1, n)):
            parts.append(top)
            top -= rng.choice((rng.uniform(0.05, 6), 10 ** rng.uniform(-9, -1)))
        padded = parts + [0] * (n - len(parts))
        a = [Fraction(p + n - 1 - j) for j, p in enumerate(padded)]
        exact = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                exact *= (a[i] - a[j]) / (j - i)
        value = dimension(tuple(parts), n)
        assert type(value) is float
        assert value == float(exact), (parts, n)
    assert dimension((3e300, 2e300, 1e300, 0.5), 4) == math.inf


def test_dimension_of_a_partition_longer_than_n():
    # no semistandard tableau has more rows than entries: 0 for an integer
    # partition; a real partition has no such convention and is refused
    assert dimension(IntegerPartition((2, 1, 1)), 2) == 0
    assert dimension((1, 1, 1, 0), 2) == 0
    assert type(dimension((2, 1), 3)) is int
    with pytest.raises(ValueError):
        dimension((Fraction(3, 2), Fraction(1, 2), Fraction(1, 4)), 2)


def test_frobenius_roundtrip():
    lam = IntegerPartition((5, 4, 4, 2, 1))
    arms, legs = frobenius(lam)
    assert arms == (4, 2, 1) and legs == (4, 2, 0)
    assert from_frobenius(arms, legs) == lam


@given(integer_partitions())
def test_frobenius_roundtrip_random(lam):
    arms, legs = frobenius(lam)
    assert from_frobenius(arms, legs) == lam


def test_conjugate_hooks_contents():
    lam = IntegerPartition((3, 2))
    assert conjugate(lam).parts == (2, 2, 1)
    assert hooks(lam) == ((4, 3, 1), (2, 1))
    assert contents(lam) == ((0, 1, 2), (-1, 0))
    assert sorted(h for row in hooks(lam) for h in row) == [1, 1, 2, 3, 4]


def test_interlacing():
    mu = IntegerPartition((2, 1))
    got = {x.parts for x in interlacing_partitions(mu)}
    assert got == {(1,), (2,), (1, 1), (2, 1)}
    assert {x.parts for x in interlacing_partitions(IntegerPartition(()))} \
        == {()}


def test_exponent_sequence_validation():
    r = as_exponents((0, 1, 2.5))
    assert r.n == 2 and r[2] == 2.5
    with pytest.raises(ValueError):
        ExponentSequence((1, 2, 3))       # must start at 0
    with pytest.raises(ValueError):
        ExponentSequence((0, 2, 2))       # strictly increasing
    with pytest.raises(ValueError):
        ExponentSequence((0, 3, 2))


def test_partition_parts_accepts_specs():
    assert partition_parts((3, 1)) == (3, 1)
    assert partition_parts(IntegerPartition((3, 1))) == (3, 1)
    assert partition_parts(RealPartition((3.5, 1))) == (3.5, 1)
    assert partition_parts((Fraction(7, 2), 1)) == (3.5, 1)
