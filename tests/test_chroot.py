"""Root-model conversions: products, sums, Newton roundtrips."""

import random
from fractions import Fraction
from math import factorial

import pytest

from anomform.chroot import (
    GradedClass,
    GradedRing,
    RootProfile,
    eval_at_roots,
    monomial_weight,
    power_sum_products,
    power_sums,
    product_over_root_pairs,
    sum_over_roots,
)
from anomform.qseries import QQ, HalfQSeries, TruncationError
from dense_series import poly_mul, product_over_roots


def p(profile, i, coeff=1):
    return GradedClass.p(profile, i, coeff)


# -- independent oracles -------------------------------------------------------


def direct_product_truncated(f, values, max_x_degree):
    """prod_j f(t * r_j) as a polynomial in the grading variable t, summed.

    Keeps only total x-degree <= max_x_degree, the same truncation the
    graded ring applies, then evaluates at t = 1.
    """
    n = max_x_degree + 1
    acc = [Fraction(0)] * n
    acc[0] = Fraction(1)
    for r in values:
        fr = [f[d] * Fraction(r) ** d if d < len(f) else Fraction(0) for d in range(n)]
        acc = poly_mul(acc, fr, n)
    return sum(acc)


def random_even_series(rng, n, unit=True):
    out = [Fraction(0)] * n
    out[0] = Fraction(1) if unit else Fraction(rng.randrange(1, 5))
    for k in range(2, n, 2):
        out[k] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return out


# -- products over the roots, through the reference log ----------------------


def test_product_of_constant_one():
    for dim in (1, 2, 5, 6):
        profile = RootProfile(dim, 8)
        f = [Fraction(1)] + [Fraction(0)] * 8
        assert product_over_roots(f, profile) == GradedClass.one(profile)


def test_product_single_root_reads_off_p1():
    profile = RootProfile(2, 4)
    f = [Fraction(1), Fraction(0), Fraction(-1, 24)]
    assert product_over_roots(f, profile) == GradedClass.one(profile) + p(profile, 1, Fraction(-1, 24))


def test_product_ahat_factor_two_pairs():
    # frozen oracle: (x/2)/sinh(x/2) = 1 - x^2/24 + 7x^4/5760 - ...
    profile = RootProfile(4, 8)
    f = [Fraction(1), 0, Fraction(-1, 24), 0, Fraction(7, 5760)]
    result = product_over_roots([Fraction(c) for c in f], profile)
    expected = (
        GradedClass.one(profile)
        + p(profile, 1, Fraction(-1, 24))
        + p(profile, 1) * p(profile, 1) * Fraction(7, 5760)
        + p(profile, 2, Fraction(-4, 5760))
    )
    assert result == expected


def test_product_multiplicativity_random():
    rng = random.Random(8101)
    for dim in (2, 5, 7, 10):
        profile = RootProfile(dim, 12)
        n = 2 * profile.max_weight + 1
        for _ in range(10):
            f = random_even_series(rng, n)
            g = random_even_series(rng, n)
            fg = poly_mul(f, g, n)
            lhs = product_over_roots(fg, profile)
            rhs = product_over_roots(f, profile) * product_over_roots(g, profile)
            assert lhs == rhs


def test_zero_root_neutrality():
    rng = random.Random(8102)
    for n_pairs in (1, 2, 3):
        even_profile = RootProfile(2 * n_pairs, 8)
        odd_profile = RootProfile(2 * n_pairs + 1, 8)
        f = random_even_series(rng, 2 * even_profile.max_weight + 1)
        assert f[0] == 1
        a = product_over_roots(f, even_profile)
        b = product_over_roots(f, odd_profile)
        assert a.items() == b.items()


def test_product_rejects_short_series():
    # weight 2 needs L_1 and L_2
    profile = RootProfile(4, 8)
    one = HalfQSeries.one(QQ, 1)
    with pytest.raises(ValueError, match="insufficient"):
        product_over_root_pairs(one, (one,), profile)


# -- sum_over_roots --------------------------------------------------------------


def exp_series(n, scale=1):
    return [Fraction(scale) ** i / factorial(i) for i in range(n)]


def test_sum_exponential_dim6():
    profile = RootProfile(6, 8)
    result = sum_over_roots(exp_series(2 * profile.max_weight + 1), profile)
    expected = (
        GradedClass.constant(profile, 6)
        + p(profile, 1)
        + (p(profile, 1) * p(profile, 1) - p(profile, 2) * 2) * Fraction(1, 12)
    )
    assert result == expected


def test_sum_constant_gives_rank():
    for dim in (1, 2, 3, 8, 9):
        profile = RootProfile(dim, 8)
        g = [Fraction(1)] + [Fraction(0)] * (2 * profile.max_weight)
        assert sum_over_roots(g, profile) == GradedClass.constant(profile, dim)


def test_sum_exponential_dim3():
    profile = RootProfile(3, 8)
    result = sum_over_roots(exp_series(2 * profile.max_weight + 1), profile)
    expected = (
        GradedClass.constant(profile, 3)
        + p(profile, 1)
        + p(profile, 1) * p(profile, 1) * Fraction(1, 12)
    )
    assert result == expected


# -- degree_component ------------------------------------------------------------


def test_degree_component_picks_weight():
    profile = RootProfile(2, 4)
    cls = GradedClass.one(profile) + p(profile, 1, Fraction(-1, 24))
    assert cls.degree_component(4) == p(profile, 1, Fraction(-1, 24))
    assert cls.degree_component(0) == GradedClass.one(profile)
    assert not cls.degree_component(2)


def test_degree_component_beyond_truncation():
    profile = RootProfile(2, 4)
    with pytest.raises(TruncationError):
        GradedClass.one(profile).degree_component(8)


# -- eval_at_roots ----------------------------------------------------------------


def test_eval_simple():
    profile = RootProfile(2, 4)
    assert eval_at_roots(p(profile, 1, Fraction(1, 3)), [Fraction(1)]) == Fraction(1, 3)


def test_eval_power_sum_identity():
    profile = RootProfile(4, 8)
    cls = p(profile, 1) * p(profile, 1) - p(profile, 2) * 2
    a, b = Fraction(2, 3), Fraction(-5, 7)
    assert eval_at_roots(cls, [a, b]) == a**4 + b**4


def test_eval_length_mismatch():
    profile = RootProfile(4, 8)
    with pytest.raises(ValueError, match="root values"):
        eval_at_roots(GradedClass.one(profile), [Fraction(1)])


def test_newton_roundtrip_against_direct_product():
    rng = random.Random(8103)
    for trial in range(50):
        n_pairs = rng.randrange(1, 5)
        has_zero = rng.randrange(2)
        dim = 2 * n_pairs + has_zero
        profile = RootProfile(dim, rng.choice((8, 12)))
        n = 2 * profile.max_weight + 1
        f = random_even_series(rng, n, unit=(rng.randrange(2) == 0))
        values = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n_pairs)]
        via_classes = eval_at_roots(product_over_roots(f, profile), values)
        # the zero root multiplies by f(0) exactly
        oracle = direct_product_truncated(f, values, 2 * profile.max_weight)
        if has_zero:
            oracle *= f[0]
        assert via_classes == oracle, f"trial {trial}: {via_classes} != {oracle}"


# -- power sums and ordering ------------------------------------------------------


def test_power_sums_match_eval():
    profile = RootProfile(6, 12)
    values = [Fraction(1, 2), Fraction(3), Fraction(-2, 5)]
    for k, s in enumerate(power_sums(profile, 3), start=1):
        assert eval_at_roots(s, values) == sum(v ** (2 * k) for v in values)


PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)


@pytest.mark.parametrize(
    "profile",
    [RootProfile(5, 16), RootProfile(6, 20), RootProfile(9, 12), RootProfile(34, 36)],
    ids=lambda p: f"dim{p.fiber_dim}",
)
def test_power_sum_products_are_integral_and_evaluate_to_power_sums(profile):
    """S^lambda over every partition lambda of each weight: integer
    coefficients, and at seeded rational roots prod_i sum_j x_j^(2 lambda_i)."""
    rng = random.Random(8300 + profile.fiber_dim)
    for weight in range(profile.max_weight + 1):
        entries = power_sum_products(profile, weight)
        parts_list = [parts for parts, _ in entries]
        assert len(set(parts_list)) == len(parts_list) == PARTITION_COUNTS[weight]
        for parts, s in entries:
            assert sum(parts) == weight and list(parts) == sorted(parts, reverse=True)
            assert all(type(c) is int and c for c in s.values())
            assert all(monomial_weight(m) == weight for m in s)
            roots = [
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                for _ in range(profile.n_pairs)
            ]
            want = Fraction(1)
            for k in parts:
                want *= sum(x ** (2 * k) for x in roots)
            assert eval_at_roots(GradedClass(profile, s), roots) == want
    with pytest.raises(ValueError, match="exceeds"):
        power_sum_products(profile, profile.max_weight + 1)


def test_rank_induced_vanishing():
    # p_i = 0 beyond n_pairs in the root model
    profile = RootProfile(2, 12)
    assert not GradedClass.p(profile, 2)
    assert power_sums(profile, 2)[1] == p(profile, 1) ** 2


def test_graded_lex_serialization_order():
    profile = RootProfile(6, 12)
    cls = p(profile, 3) + p(profile, 1) + p(profile, 2) * p(profile, 1) + p(profile, 1) ** 3
    monomials = [tuple(entry["monomial"]) for entry in cls.to_obj()]
    assert monomials == [(1,), (0, 0, 1), (1, 1), (3,)]
    weights = [monomial_weight(m) for m in monomials]
    assert weights == sorted(weights)


def test_serialization_roundtrip():
    profile = RootProfile(4, 8)
    cls = GradedClass.one(profile) + p(profile, 1, Fraction(-7, 3)) + p(profile, 2)
    assert cls.to_obj() == [
        {"monomial": [], "coef": "1"},
        {"monomial": [1], "coef": "-7/3"},
        {"monomial": [0, 1], "coef": "1"},
    ]


def test_newton_roundtrip_weight_five():
    # weight 5 (form degree 20), past the weights <= 3 of the trials above:
    # every u^k term of the log, k <= 5, carries k - 1 cross terms
    rng = random.Random(8104)
    for trial in range(12):
        n_pairs = rng.randrange(1, 7)
        has_zero = rng.randrange(2)
        profile = RootProfile(2 * n_pairs + has_zero, 20)
        f = random_even_series(rng, 2 * profile.max_weight + 1, unit=(rng.randrange(2) == 0))
        values = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n_pairs)]
        via_classes = eval_at_roots(product_over_roots(f, profile), values)
        oracle = direct_product_truncated(f, values, 2 * profile.max_weight)
        if has_zero:
            oracle *= f[0]
        assert via_classes == oracle, f"trial {trial}: {via_classes} != {oracle}"


def test_graded_ring_inverts_only_constant_classes():
    profile = RootProfile(6, 8)
    ring = GradedRing(profile)
    assert ring.invert(GradedClass.constant(profile, 4)) == GradedClass.constant(
        profile, Fraction(1, 4)
    )
    with pytest.raises(ZeroDivisionError):
        ring.invert(GradedClass.one(profile) + p(profile, 1))
    with pytest.raises(ZeroDivisionError):
        ring.invert(GradedClass.zero(profile))
