import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semizn.laurent import LaurentPoly

from conftest import NEG_INF, as_direction, mono, weighted_degree


X = mono((1,))
Xinv = mono((-1,))
ONE1 = LaurentPoly.one(1)


def test_multiply_hand_examples():
    # (X - 1)(X^-1 - 1) = 2 - X - X^-1
    left = X - ONE1
    right = Xinv - ONE1
    assert left * right == LaurentPoly(1, {(0,): 2, (1,): -1, (-1,): -1})
    # absorbing zero
    assert (X - ONE1) * LaurentPoly.zero(1) == LaurentPoly.zero(1)
    # (1 + X1^2 X2^-1) * X1^-2 X2^3 = X1^-2 X2^3 + X2^2
    f1 = LaurentPoly(2, {(0, 0): 1, (2, -1): 1})
    f2 = mono((-2, 3))
    assert f1 * f2 == LaurentPoly(2, {(-2, 3): 1, (0, 2): 1})


def test_weighted_degree_examples():
    f1 = LaurentPoly(2, {(0, 0): 1, (2, -1): 1})
    f2 = mono((-2, 3))
    assert weighted_degree(f1, (0, 1)) == 0
    assert weighted_degree(f2, (0, 1)) == 3
    assert weighted_degree(LaurentPoly.zero(2), (0, 1)) == NEG_INF


def test_evaluate_positive_examples():
    assert (X - ONE1).evaluate_positive((1,)) == 0
    assert mono((-2, 3)).evaluate_positive((2, 1)) == Fraction(1, 4)
    assert LaurentPoly.zero(3).evaluate_positive((1, 2, 3)) == 0
    with pytest.raises(ValueError):
        X.evaluate_positive((0,))
    with pytest.raises(ValueError):
        X.evaluate_positive((-2,))


def ref_evaluate_positive(p: LaurentPoly, r) -> Fraction:
    """The formula `evaluate_positive` replaced: term by term in Fractions."""
    r = [Fraction(x) for x in r]
    total = Fraction(0)
    for e, c in p.terms.items():
        val = Fraction(1)
        for base, exp in zip(r, e):
            val *= base ** exp
        total += c * val
    return total


def test_evaluate_positive_matches_the_fraction_formula():
    """n = 0..3, negative exponents, int coefficients, and points p/q with
    p, q <= 7, ints among them.  `_value_at` of the point's (p, q) pairs is
    the same number, an int exactly when it is integral."""
    rng = random.Random(47)
    seen = Counter()
    for _ in range(600):
        n = rng.randint(0, 3)
        terms = {}
        for _ in range(rng.randint(0, 5)):
            terms[tuple(rng.randint(-4, 4) for _ in range(n))] = rng.randint(-9, 9)
        p = LaurentPoly(n, terms)
        r = [rng.choice((rng.randint(1, 7), Fraction(rng.randint(1, 7), rng.randint(1, 7))))
             for _ in range(n)]
        got = p.evaluate_positive(r)
        assert type(got) is Fraction and got == ref_evaluate_positive(p, r)
        value = p._value_at([(Fraction(x).numerator, Fraction(x).denominator) for x in r])
        assert value == got and (type(value) is int) == (got.denominator == 1)
        seen[type(value)] += 1
    assert min(seen.values()) >= 100, seen


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        X * LaurentPoly.one(2)
    with pytest.raises(ValueError):
        as_direction((0, 0), 2)


def test_json_style_invariants():
    """Terms are stored with int coefficients, repeated exponents summed and
    zero coefficients dropped."""
    p = LaurentPoly(2, [((1, 0), 5), ((0, 1), -3), ((1, 0), -3), ((2, 2), 0), ((0, 1), 3)])
    assert p.terms == {(1, 0): 2}
    assert all(type(c) is int for c in p.terms.values())


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(4, 2), 0.5, "3"], ids=repr)
def test_coefficients_must_be_ints(c):
    """The ring is Z[X^pm]: a Fraction, even an integral one, a float or a
    string is refused where the polynomial is built."""
    with pytest.raises(ValueError, match="not an int"):
        LaurentPoly(1, {(0,): c})


# -- property tests ------------------------------------------------------------

small_polys = st.builds(
    lambda items: LaurentPoly(2, dict(items)),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.integers(-5, 5),
        ),
        max_size=4,
    ),
)

directions = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: any(v))


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p - p == LaurentPoly.zero(2)


@given(small_polys, small_polys, directions)
@settings(max_examples=60, deadline=None)
def test_degree_multiplicativity(p, q, v):
    prod = p * q
    if p.is_zero() or q.is_zero():
        assert prod.is_zero()
        return
    assert weighted_degree(prod, v) == weighted_degree(p, v) + weighted_degree(q, v)


@given(small_polys, directions, st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_positive_scaling_invariance(p, v, num, den):
    c = Fraction(num, den)
    w = tuple(c * x for x in v)
    if p.is_zero():
        assert weighted_degree(p, v) == NEG_INF
        return
    assert weighted_degree(p, w) == c * weighted_degree(p, v)


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_evaluation_is_multiplicative(p, q):
    r = (Fraction(2, 3), Fraction(5, 1))
    assert (p * q).evaluate_positive(r) == p.evaluate_positive(r) * q.evaluate_positive(r)


def test_evaluate_positive_at_all_ones_is_the_coefficient_sum():
    """n = 0..3, negative exponents: the value at (1, ..., 1), the first
    sample of every refuter schedule, is the sum of the coefficients, and
    agrees with the fraction formula."""
    rng = random.Random(1111)
    for _ in range(300):
        n = rng.randint(0, 3)
        terms = {}
        for _ in range(rng.randint(0, 5)):
            terms[tuple(rng.randint(-4, 4) for _ in range(n))] = rng.randint(-9, 9)
        p = LaurentPoly(n, terms)
        for ones in ([1] * n, [Fraction(1)] * n):
            got = p.evaluate_positive(ones)
            assert type(got) is Fraction and got == sum(p.terms.values())
            assert got == ref_evaluate_positive(p, ones)
        assert type(p._value_at([(1, 1)] * n)) is int
