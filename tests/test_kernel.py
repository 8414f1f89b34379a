"""The graded-ring and q-series product kernels against schoolbook oracles."""

import random
from fractions import Fraction

import pytest

from anomform.chroot import (
    GradedClass,
    GradedRing,
    RootProfile,
    eval_at_roots,
    pair_log,
    product_over_root_pairs,
)
from anomform.qseries import QQ, HalfQSeries, TruncationError
from dense_series import even_part, graded_product, monomials, product_over_roots

# dim 5 at degree 16 has fewer root pairs (2) than its top weight (4)
PROFILES = [RootProfile(1, 4), RootProfile(5, 16), RootProfile(19, 20), RootProfile(33, 36)]

# -1/3 and 7/2^40 force the common-denominator path to rescale numerators
SPECIAL = [Fraction(-1, 3), Fraction(7, 2**40), Fraction(1), Fraction(-5, 12)]


def random_class(rng, profile, density=0.6):
    comp = {}
    for mon in monomials(profile):
        if rng.random() < density:
            if rng.random() < 0.3:
                comp[mon] = rng.choice(SPECIAL)
            else:
                comp[mon] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
    return GradedClass(profile, comp)


def schoolbook(a, b):
    """Every pair of monomials, exponent tuples added, truncated by weight."""
    product = graded_product(dict(a.items()), dict(b.items()), 0, a.profile.max_weight)
    return GradedClass(a.profile, product)


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
def test_constant_q_series_agree_with_product_over_roots(dim):
    """q-constant u-coefficients give the rational genus at q^0 and nothing above."""
    profile = RootProfile(dim, 4 * (dim // 4) + 4)
    rng = random.Random(dim)
    n_x = 2 * profile.max_weight + 1
    f = [Fraction(0)] * n_x
    f[0] = Fraction(3, 2)
    for k in range(2, n_x, 2):
        f[k] = rng.choice(SPECIAL + [Fraction(rng.randrange(-7, 8), rng.randrange(1, 6))])
    order2 = 3
    lifted = [HalfQSeries.from_terms(QQ, [(0, c)], order2) for c in even_part(f)]
    got = product_over_root_pairs(*pair_log(lifted), profile)
    assert got.ring == GradedRing(profile)
    assert got.order2 == order2
    assert got.coefficient(0) == product_over_roots(f, profile)
    for exp2 in range(1, order2):
        assert not got.coefficient(exp2)


# -- q-series kernels (QQ and GradedRing) -----------------------------------


def schoolbook_series(a, b):
    """Every pair of q-terms multiplied in the coefficient ring, then summed."""
    order2 = min(a.order2 + b.val2, b.order2 + a.val2)
    coeffs = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < order2:
                coeffs[e] = coeffs[e] + c1 * c2 if e in coeffs else c1 * c2
    return HalfQSeries(a.ring, coeffs, order2)


def random_rational(rng):
    if rng.random() < 0.3:
        return rng.choice(SPECIAL)
    return Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4, 6, 7, 12)))


def random_series(rng, ring, order2, val2, coefficient):
    """A series with valuation exactly val2 (when val2 < order2)."""
    terms = [(val2, coefficient())] if val2 < order2 else []
    terms += [(e, coefficient()) for e in range(val2 + 1, order2) if rng.random() < 0.7]
    series = HalfQSeries.from_terms(ring, terms, order2)
    while val2 < order2 and series.val2 != val2:  # the valuation term drew a zero
        series = series + HalfQSeries.from_terms(ring, [(val2, ring.one)], order2)
    return series


def series_pairs(rng, ring, coefficient):
    """Mixed orders and valuations, so the valuation window sets order2."""
    pairs = []
    for order_a, val_a, order_b, val_b in (
        (9, 0, 9, 0),
        (7, 2, 11, 0),
        (6, 1, 9, 3),
        (12, 5, 5, 2),
    ):
        a = random_series(rng, ring, order_a, val_a, coefficient)
        b = random_series(rng, ring, order_b, val_b, coefficient)
        pairs.append((a, b))
    pairs.append((HalfQSeries.zero(ring, 7), pairs[0][1]))
    pairs.append((pairs[1][0], HalfQSeries.zero(ring, 4)))
    pairs.append((HalfQSeries.one(ring, 9), pairs[2][1]))
    return pairs


def assert_canonical(series):
    for exp2, c in series.items():
        assert exp2 < series.order2
        assert c, f"stored zero coefficient at exp2={exp2}"
        if isinstance(c, GradedClass):
            assert all(v for _, v in c.items())
        else:
            assert type(c) is Fraction


def assert_kernel_matches(a, b):
    want = schoolbook_series(a, b)
    for got in (a * b, b * a):
        assert got == want
        assert got.order2 == want.order2
        assert got.to_obj() == want.to_obj()
        assert_canonical(got)


@pytest.mark.parametrize("seed", range(6))
def test_rational_series_kernel_matches_schoolbook(seed):
    rng = random.Random(3000 + seed)
    for a, b in series_pairs(rng, QQ, lambda: random_rational(rng)):
        assert_kernel_matches(a, b)


@pytest.mark.parametrize("profile", PROFILES[:3], ids=lambda p: f"dim{p.fiber_dim}")
def test_graded_series_kernel_matches_schoolbook(profile):
    rng = random.Random(4000 + profile.fiber_dim)
    ring = GradedRing(profile)
    for a, b in series_pairs(rng, ring, lambda: random_class(rng, profile, density=0.4)):
        assert_kernel_matches(a, b)


def test_rational_series_kernel_cancellation():
    t = Fraction(1, 2)
    a = HalfQSeries.from_terms(QQ, [(0, Fraction(1, 3)), (1, t)], 6)
    b = HalfQSeries.from_terms(QQ, [(0, Fraction(1, 3)), (1, -t)], 6)
    got = a * b
    assert got == HalfQSeries.from_terms(QQ, [(0, Fraction(1, 9)), (2, Fraction(-1, 4))], 6)
    assert [e for e, _ in got.items()] == [0, 2]
    assert_kernel_matches(a, b)


def test_graded_series_kernel_cancellation():
    """(U + V t)(U' - V' t) with U V' = V U': the t-term cancels to an empty
    class, and p1 cancels inside the constant class (1 + p1)(1 - p1)."""
    profile = RootProfile(19, 20)
    ring = GradedRing(profile)
    p1 = GradedClass.p(profile, 1)
    w = GradedClass.p(profile, 2, Fraction(-3, 7)) + Fraction(5, 2)
    u, u_ = 1 + p1, 1 - p1
    a = HalfQSeries(ring, {0: u, 1: u * w}, 5)
    b = HalfQSeries(ring, {0: u_, 1: -(u_ * w)}, 5)
    got = a * b
    assert [e for e, _ in got.items()] == [0, 2]
    assert got.coefficient(0) == 1 - p1 * p1
    assert got.coefficient(0).coefficient((1,)) == 0
    assert_kernel_matches(a, b)


def test_graded_series_product_makes_no_class_product(monkeypatch):
    """Bundle assembly multiplies q-series over GradedRing: the bigraded
    kernel forms no GradedClass product per pair of q-terms."""
    profile = RootProfile(19, 20)
    ring = GradedRing(profile)
    rng = random.Random(5)
    a, b = series_pairs(rng, ring, lambda: random_class(rng, profile, density=0.4))[0]
    calls = []
    original = GradedClass.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(GradedClass, "__mul__", counting)
    got = a * b
    assert calls == []
    assert got == schoolbook_series(a, b)
    assert calls  # the oracle does go through GradedClass.__mul__


# -- root-pair product over q-dependent coefficients -------------------------


def direct_root_product(u_coeffs, roots, zero_root, w):
    """prod_j f(x_j) (times f(0) for a zero root) at rational x_j, weights <= w.

    Each root's factor is a polynomial in a weight variable t with q-series
    coefficients u_k x_j^(2k) t^k; the product is truncated at t^w and then
    summed over t, i.e. evaluated at t = 1.
    """
    one = HalfQSeries.one(QQ, u_coeffs[0].order2)
    poly = [u_coeffs[0] if zero_root else one]
    for x in roots:
        factor = [u * (Fraction(x) ** (2 * k)) for k, u in enumerate(u_coeffs[: w + 1])]
        out = [HalfQSeries.zero(QQ, one.order2) for _ in range(w + 1)]
        for i, a in enumerate(poly):
            for k, b in enumerate(factor[: w + 1 - i]):
                out[i + k] = out[i + k] + a * b
        poly = out
    return sum(poly, HalfQSeries.zero(QQ, one.order2))


@pytest.mark.parametrize(
    "profile",
    [RootProfile(5, 16), RootProfile(6, 20), RootProfile(9, 12)],
    ids=lambda p: f"dim{p.fiber_dim}",
)
@pytest.mark.parametrize("with_zero_root", [True, False])
def test_root_pair_product_matches_direct_product_at_rational_roots(profile, with_zero_root):
    """q-dependent u-coefficients: sum_e q^(e/2) eval_at_roots(coeff_e) is the
    per-root product of f at seeded rational roots, truncated at weight w.
    The product over the root pairs alone runs on the even profile with the
    same pairs."""
    if not with_zero_root:
        profile = RootProfile(2 * profile.n_pairs, profile.max_form_degree)
    rng = random.Random(6000 + profile.fiber_dim)
    order2 = 5
    w = profile.max_weight
    # u_0 and u_1 start at q^0, so every power of X reaches the q^0 window
    valuations = [0, 0] + [rng.randrange(3) for _ in range(w - 1)]
    u_coeffs = [
        random_series(rng, QQ, order2, val2, lambda: random_rational(rng)) for val2 in valuations
    ]
    got = product_over_root_pairs(*pair_log(u_coeffs), profile)
    assert got.ring == GradedRing(profile)
    assert got.order2 == order2
    zero_root = profile.has_zero_root
    for _ in range(3):
        roots = [
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(profile.n_pairs)
        ]
        evaluated = HalfQSeries.from_terms(
            QQ, [(e, eval_at_roots(got.coefficient(e), roots)) for e in range(order2)], order2
        )
        assert evaluated == direct_root_product(u_coeffs, roots, zero_root, w)
