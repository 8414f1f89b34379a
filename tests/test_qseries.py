"""Ring behaviour of the exact q^(1/2)-series."""

import random
from fractions import Fraction

import pytest

from anomform.chroot import GradedRing, RootProfile
from anomform.modforms import delta_epsilon, theta_nullwert
from anomform.qseries import QQ, HalfQSeries, RingMismatchError, TruncationError


def series(terms, order2=12):
    return HalfQSeries.from_terms(QQ, terms, order2)


def random_series(rng, order2=10, max_terms=6):
    terms = [
        (rng.randrange(0, order2), Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
        for _ in range(rng.randrange(0, max_terms))
    ]
    return HalfQSeries.from_terms(QQ, terms, order2)


def test_addition_cancellation():
    a = series([(0, 1), (1, 1)])
    b = series([(1, -1)])
    assert a + b == series([(0, 1)])


def test_addition_shifts_constant_of_delta2():
    delta2 = delta_epsilon("delta2", 8)
    shifted = delta2 + Fraction(1, 8)
    assert shifted.coefficient(0) == 0
    assert shifted.coefficient(1) == -3
    assert shifted.coefficient(2) == -3


def test_add_zero_is_identity():
    a = series([(0, 3), (5, Fraction(-2, 7))])
    assert a + HalfQSeries.zero(QQ, 12) == a


def test_product_difference_of_squares():
    one_plus = series([(0, 1), (1, 1)])
    one_minus = series([(0, 1), (1, -1)])
    assert one_plus * one_minus == series([(0, 1), (2, -1)])


def test_square_of_8delta2_leading_terms():
    d8 = delta_epsilon("delta2", 8) * 8
    sq = d8 * d8
    assert sq.coefficient(0) == 1
    assert sq.coefficient(1) == 48


def test_mul_one_is_identity():
    a = series([(0, 2), (3, Fraction(1, 3))])
    assert a * HalfQSeries.one(QQ, 12) == a


def test_inverse_geometric():
    geom = series([(0, 1), (2, -1)]).inverse()
    for k in range(0, 12, 2):
        assert geom.coefficient(k) == 1
    assert geom.coefficient(1) == 0


def test_inverse_alternating_geometric():
    inv = series([(0, 1), (1, 1)]).inverse()
    for k in range(12):
        assert inv.coefficient(k) == (-1) ** k


def test_inverse_of_theta2_nullwert():
    t2 = theta_nullwert(2, 9)  # through q^4
    product = t2.inverse() * t2
    assert product == HalfQSeries.one(QQ, 9)


def test_pow_zero():
    d8 = delta_epsilon("delta2", 8) * 8
    assert d8**0 == HalfQSeries.one(QQ, 8)


def test_eps2_square_leading():
    eps2 = delta_epsilon("eps2", 8)
    sq = eps2**2
    assert sq.coefficient(2) == 1
    assert sq.coefficient(3) == 16
    assert sq.coefficient(0) == 0 and sq.coefficient(1) == 0


def test_8delta2_cube_coefficient():
    d8 = delta_epsilon("delta2", 8) * 8
    cube = d8**3
    assert cube.coefficient(0) == -1
    assert cube.coefficient(1) == -72


def test_ring_axioms_random():
    rng = random.Random(7001)
    one = HalfQSeries.one(QQ, 10)
    for _ in range(100):
        a, b, c = (random_series(rng) for _ in range(3))
        assert ((a + b) + c) == (a + (b + c))
        assert (a + b) == (b + a)
        assert a * b == b * a
        for left, right in (((a * b) * c, a * (b * c)), (a * (b + c), a * b + a * c)):
            k = min(left.order2, right.order2)
            assert left.truncate(k) == right.truncate(k)
        assert a * one == a


def test_inverse_roundtrip_random():
    rng = random.Random(7002)
    for _ in range(100):
        a = random_series(rng) + 1
        if not a.coefficient(0):
            a = a + 1
        product = a * a.inverse()
        assert product == HalfQSeries.one(QQ, product.order2)


def test_truncation_monotonicity():
    rng = random.Random(7003)
    for _ in range(50):
        terms_a = [(rng.randrange(0, 8), Fraction(rng.randrange(-5, 6))) for _ in range(4)]
        terms_b = [(rng.randrange(0, 8), Fraction(rng.randrange(-5, 6))) for _ in range(4)]
        low = HalfQSeries.from_terms(QQ, terms_a, 8) * HalfQSeries.from_terms(QQ, terms_b, 8)
        high = HalfQSeries.from_terms(QQ, terms_a, 12) * HalfQSeries.from_terms(QQ, terms_b, 12)
        assert high.truncate(low.order2) == low


def test_product_order_uses_valuation_window():
    # multiplying by an exact q^(1/2) monomial pushes the window out by one
    a = HalfQSeries.one(QQ, 6).shifted(1)
    b = series([(0, 1), (5, 4)], order2=6)
    assert (a * b).order2 == 7
    assert (a * b).coefficient(6) == 4
    # squaring a valuation-1 series likewise gains a half-step
    eps2 = delta_epsilon("eps2", 8)
    assert (eps2 * eps2).order2 == 9


def test_ring_mismatch_rejected():
    graded = GradedRing(RootProfile(2, 4))
    a = HalfQSeries.one(QQ, 6)
    b = HalfQSeries.one(graded, 6)
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a * b


def test_coefficient_beyond_truncation():
    a = series([(0, 1)], order2=4)
    with pytest.raises(TruncationError):
        a.coefficient(4)


def test_inverse_requires_unit_constant():
    with pytest.raises(ZeroDivisionError):
        series([(1, 1)]).inverse()


def test_serialization_roundtrip():
    eps2 = delta_epsilon("eps2", 9)
    obj = eps2.to_obj()
    assert obj[0] == {"exp2": 1, "coef": "1"}
    # q^(n/2) carries the sum of d^3 over the divisors d of n with n/d odd
    assert obj == [
        {"exp2": n, "coef": str(c)}
        for n, c in enumerate([1, 8, 28, 64, 126, 224, 344, 512], 1)
    ]


def test_shifted_extends_window():
    a = series([(0, 1), (2, 3)], order2=5)
    s = a.shifted(3)
    assert s.order2 == 8
    assert s.coefficient(3) == 1 and s.coefficient(5) == 3


def test_monomial_constructor():
    m = HalfQSeries.from_terms(QQ, [(3, Fraction(5, 2))], 6)
    assert m.coefficient(3) == Fraction(5, 2)
    assert m.val2 == 3 and not m.coefficient(0)


def test_graded_ring_rejects_foreign_profiles():
    small = GradedRing(RootProfile(2, 4))
    big = GradedRing(RootProfile(4, 8))
    with pytest.raises(ValueError, match="profile"):
        small.coerce(big.one)
