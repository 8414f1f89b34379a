"""Graded classes as integer numerators over one denominator, against the
Fraction-dict oracle of ``dense_series``.

Every result must be in lowest terms (denominator positive, gcd of the
denominator and all numerators 1, no zero numerator), so that equal classes
built by different paths compare equal.  Where the kernels rely on
integrality they raise ArithmeticError, which ``python -O`` keeps.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from anomform import chroot
from anomform.chroot import GradedClass, GradedRing, RootProfile
from dense_series import graded_product, graded_series_product, monomials

# odd and even fibers; dims 6 and 7 have fewer root pairs than their top weight
PROFILES = [RootProfile(6, 16), RootProfile(7, 20), RootProfile(12, 24), RootProfile(13, 24)]

# shared prime factors make sums, scalings and degree parts reducible
DENOMINATORS = [1, 2, 3, 4, 6, 9, 12, 35, 2**40]


def random_class(rng, profile, density=0.5):
    mons = [m for m in monomials(profile) if rng.random() < density]
    return GradedClass(
        profile,
        {m: Fraction(rng.randrange(-12, 13), rng.choice(DENOMINATORS)) for m in mons},
    )


def fractions_of(cls):
    return dict(cls.items())


def assert_lowest(cls):
    assert type(cls._den) is int and cls._den > 0
    assert all(type(n) is int and n for n in cls._num.values())
    assert gcd(cls._den, *cls._num.values()) == 1


def assert_matches(cls, want):
    assert_lowest(cls)
    assert fractions_of(cls) == want
    assert cls == GradedClass(cls.profile, want)


def operands(profile, seed):
    rng = random.Random(seed)
    pairs = [(random_class(rng, profile), random_class(rng, profile)) for _ in range(4)]
    a, b = pairs[0]
    pairs.append((a, -a + b.degree_component(4)))  # a + b cancels all but one degree
    pairs.append((a * 6, GradedClass.constant(profile, Fraction(1, 6))))
    pairs.append((GradedClass.zero(profile), b))
    return pairs


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: f"dim{p.fiber_dim}")
def test_class_arithmetic_matches_fraction_oracle(profile):
    w = profile.max_weight
    for a, b in operands(profile, 6000 + profile.fiber_dim):
        fa, fb = fractions_of(a), fractions_of(b)
        assert_matches(a * b, graded_product(fa, fb, 0, w))
        for d in range(0, profile.max_form_degree + 1, 2):
            w_d = d // 4 if d % 4 == 0 else -1  # no monomial has weight -1
            assert_matches(a.mul_degree(b, d), graded_product(fa, fb, w_d, w_d))
            want = {m: c for m, c in fa.items() if chroot.monomial_weight(m) == w_d}
            assert_matches(a.degree_component(d), want)
        total = {m: fa.get(m, 0) + fb.get(m, 0) for m in set(fa) | set(fb)}
        assert_matches(a + b, {m: c for m, c in total.items() if c})
        diff = {m: fa.get(m, 0) - fb.get(m, 0) for m in set(fa) | set(fb)}
        assert_matches(a - b, {m: c for m, c in diff.items() if c})
        assert_matches(-a, {m: -c for m, c in fa.items()})
        assert_matches(a.positive_part(), {m: c for m, c in fa.items() if m})
        for s in (Fraction(0), Fraction(-3, 4), 6, Fraction(1, 6), Fraction(35, 2**40)):
            assert_matches(a * s, {m: c * s for m, c in fa.items() if c * s})
            assert_matches(s * a, {m: c * s for m, c in fa.items() if c * s})
        for n in range(3):
            assert a.coefficient((n,)) == fa.get((n,) if n else (), 0)
        assert a.constant_term() == fa.get((), 0)


def random_series(rng, profile, order2):
    classes = {e: random_class(rng, profile, 0.3) for e in range(order2) if rng.random() < 0.7}
    return {e: c for e, c in classes.items() if c}


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: f"dim{p.fiber_dim}")
def test_series_kernel_matches_fraction_oracle(profile):
    rng = random.Random(7000 + profile.fiber_dim)
    ring = GradedRing(profile)
    cases = [
        (random_series(rng, profile, order2), random_series(rng, profile, order2), order2)
        for order2 in (1, 4, 7)
    ]
    u, v, c = (random_class(rng, profile) for _ in "uvc")
    # q^(1/2): u * (v c) + v * (-u c) cancels to an empty class, which is dropped
    cases.append(({0: u, 1: v}, {0: -(u * c), 1: v * c}, 4))
    for a, b, order2 in cases:
        got = ring.series_mul(a, b, order2)
        want = graded_series_product(
            {e: fractions_of(c) for e, c in a.items()},
            {e: fractions_of(c) for e, c in b.items()},
            order2,
            profile.max_weight,
        )
        assert sorted(got) == sorted(want)
        for e, cls in got.items():
            assert_matches(cls, want[e])


def test_equal_classes_from_different_paths_compare_equal():
    profile = RootProfile(13, 24)
    p = lambda i, c=1: GradedClass.p(profile, i, c)  # noqa: E731
    assert p(1, 2) * Fraction(1, 4) == p(1, Fraction(1, 2))
    assert GradedClass(profile, {(1,): Fraction(2, 4), (0, 1): Fraction(3, 6)}) == (
        p(1, Fraction(1, 2)) + p(2, Fraction(1, 2))
    )
    third = GradedClass.constant(profile, Fraction(1, 3))
    assert third * 3 == GradedClass.one(profile)
    assert (third + third + third)._den == 1
    mixed = p(1) + p(2, Fraction(1, 2))
    assert mixed.degree_component(4) == p(1) and mixed.degree_component(4)._den == 1
    assert (mixed - p(2, Fraction(1, 2))) == p(1)
    assert (mixed * Fraction(2, 3)) * Fraction(3, 2) == mixed
    assert mixed - mixed == GradedClass.zero(profile)
    assert (mixed - mixed)._den == 1
    half = GradedClass.constant(profile, Fraction(1, 2))
    assert half * (p(1) * 2) == p(1) and (half * (p(1) * 2))._den == 1
    assert half.mul_degree(p(1) * 2, 4) == p(1)


def test_power_sum_products_reject_fractional_power_sums(monkeypatch, clear_memos):
    profile = RootProfile(9, 12)
    half_p1 = GradedClass.p(profile, 1, Fraction(1, 2))
    monkeypatch.setattr(chroot, "power_sums", lambda profile, k_max: (half_p1,) * k_max)
    with pytest.raises(ArithmeticError, match="integer coefficients"):
        chroot.power_sum_products(profile, 1)


@pytest.mark.parametrize("den", [0, -2])
def test_nonpositive_denominator_is_rejected(monkeypatch, den):
    profile = RootProfile(9, 12)
    a, b = GradedClass.p(profile, 1, Fraction(1, 3)), GradedClass.p(profile, 2)
    monkeypatch.setattr(a, "_den", den)
    with pytest.raises(ArithmeticError, match="denominator must be positive"):
        a * b
    with pytest.raises(ArithmeticError, match="denominator must be positive"):
        a.mul_degree(b, 8)
    with pytest.raises(ArithmeticError, match="denominator must be positive"):
        -a
    with pytest.raises(ArithmeticError):
        GradedClass._wrap(profile, {(1,): 1}, den)
