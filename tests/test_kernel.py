"""The graded-ring product kernel against schoolbook oracles."""

import random
from fractions import Fraction

import pytest

from anomform.chroot import (
    GradedClass,
    RootProfile,
    even_part,
    product_over_root_pairs,
    product_over_roots,
)
from anomform.qseries import QQ, HalfQSeries, TruncationError

# dim 5 at degree 16 has fewer root pairs (2) than its top weight (4)
PROFILES = [RootProfile(1, 4), RootProfile(5, 16), RootProfile(19, 20), RootProfile(33, 36)]

# -1/3 and 7/2^40 force the common-denominator path to rescale numerators
SPECIAL = [Fraction(-1, 3), Fraction(7, 2**40), Fraction(1), Fraction(-5, 12)]


def monomials(profile):
    """All trimmed p-monomials of weight <= max_weight with at most n_pairs parts."""

    def exponents(i, room):
        if i > profile.n_pairs:
            yield ()
            return
        for a in range(room // i + 1):
            for rest in exponents(i + 1, room - a * i):
                yield (a,) + rest

    out = set()
    for mon in exponents(1, profile.max_weight):
        while mon and not mon[-1]:
            mon = mon[:-1]
        out.add(mon)
    return sorted(out)


def random_class(rng, profile, density=0.6):
    comp = {}
    for mon in monomials(profile):
        if rng.random() < density:
            if rng.random() < 0.3:
                comp[mon] = rng.choice(SPECIAL)
            else:
                comp[mon] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
    return GradedClass(profile, comp)


def weight(mon):
    return sum((i + 1) * a for i, a in enumerate(mon))


def schoolbook(a, b):
    """Every pair of monomials, exponent tuples added, truncated by weight."""
    profile = a.profile
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            n = max(len(m1), len(m2))
            m = tuple(
                (m1[i] if i < len(m1) else 0) + (m2[i] if i < len(m2) else 0)
                for i in range(n)
            )
            if weight(m) <= profile.max_weight:
                out[m] = out.get(m, Fraction(0)) + c1 * c2
    return GradedClass(profile, out)


def operand_pairs(profile, seed):
    rng = random.Random(seed)
    pairs = [(random_class(rng, profile), random_class(rng, profile)) for _ in range(3)]
    sparse = random_class(rng, profile, density=0.2)
    pairs.append((sparse, random_class(rng, profile)))
    pairs.append((GradedClass.zero(profile), sparse))
    pairs.append((GradedClass.one(profile), sparse))
    return pairs


def test_monomial_enumeration_counts():
    # partitions of k <= 9 into parts <= 16: sum of p(0..9)
    assert len(monomials(RootProfile(33, 36))) == 97
    assert monomials(RootProfile(1, 4)) == [()]
    assert len(monomials(RootProfile(5, 16))) == 1 + 1 + 2 + 2 + 3


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: f"dim{p.fiber_dim}")
def test_product_matches_schoolbook(profile):
    for a, b in operand_pairs(profile, 1000 + profile.fiber_dim):
        got = a * b
        want = schoolbook(a, b)
        assert got == want
        assert got.to_obj() == want.to_obj()
        assert b * a == want


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: f"dim{p.fiber_dim}")
def test_mul_degree_matches_degree_component(profile):
    for a, b in operand_pairs(profile, 2000 + profile.fiber_dim):
        full = a * b
        for d in range(0, profile.max_form_degree + 1, 2):
            got = a.mul_degree(b, d)
            want = full.degree_component(d)
            assert got == want
            assert got.to_obj() == want.to_obj()
        with pytest.raises(TruncationError):
            a.mul_degree(b, profile.max_form_degree + 2)
        with pytest.raises(TruncationError):
            a.mul_degree(b, profile.max_form_degree + 4)
        for d in (1, 3, profile.max_form_degree - 1):
            with pytest.raises(ValueError):
                a.mul_degree(b, d)


def test_mismatched_profiles_rejected():
    a = GradedClass.p(RootProfile(19, 20), 1)
    for other in (RootProfile(19, 16), RootProfile(18, 20)):
        b = GradedClass.p(other, 1)
        with pytest.raises(ValueError, match="different root profiles"):
            a * b
        with pytest.raises(ValueError, match="different root profiles"):
            a.mul_degree(b, 8)


@pytest.mark.parametrize("dim", [9, 19])
def test_generic_coefficients_agree_with_rational_path(dim):
    """q-series constants run the generic loop; rationals the integer one."""
    profile = RootProfile(dim, 4 * (dim // 4) + 4)
    rng = random.Random(dim)
    n_x = 2 * profile.max_weight + 1
    f = [Fraction(0)] * n_x
    f[0] = Fraction(3, 2)
    for k in range(2, n_x, 2):
        f[k] = rng.choice(SPECIAL + [Fraction(rng.randrange(-7, 8), rng.randrange(1, 6))])
    order2 = 3
    lifted = [HalfQSeries.from_terms(QQ, [(0, c)], order2) for c in even_part(f)]
    comp = product_over_root_pairs(lifted, profile, HalfQSeries.one(QQ, order2))
    assert GradedClass(
        profile, {mon: qc.coefficient(0) for mon, qc in comp.items()}
    ) == product_over_roots(f, profile)
    for exp2 in range(1, order2):
        assert all(not qc.coefficient(exp2) for qc in comp.values())
