"""Characteristic series builders and the angle-convention bookkeeping."""

from fractions import Fraction
from math import factorial

import pytest

from anomform.chroot import GradedClass, RootProfile, product_over_roots
from anomform.genera import a_hat, ahat_root_series, cosh_series, l_class, l_root_series


def p(profile, i, coeff=1):
    return GradedClass.p(profile, i, coeff)


def spinor_character(profile):
    """ch of the spinor bundle: prod of 2 cosh(x_j/2) over pairs, a zero root adds nothing."""
    series = cosh_series(2 * profile.max_weight + 1, half=True, scale=2)
    return product_over_roots(series, profile, include_zero_root=False)


# -- independent series oracle: build the per-root factors from exponentials --


def exp_poly(c, n):
    """e^(c x) with rational c, dense to degree < n."""
    return [Fraction(c) ** i / factorial(i) for i in range(n)]


def poly_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b):
                if i + j >= n:
                    break
                out[i + j] += ai * bj
    return out


def poly_div(num, den, n):
    """num/den with den[0] != 0, by forward substitution."""
    out = [Fraction(0)] * n
    for k in range(n):
        acc = num[k] if k < len(num) else Fraction(0)
        for i in range(1, k + 1):
            if i < len(den):
                acc -= den[i] * out[k - i]
        out[k] = acc / den[0]
    return out


def oracle_x_over_tanh(n, half):
    # x/tanh(ax) = (e^(2ax) + 1) / ((e^(2ax) - 1)/x)
    a = Fraction(1, 2) if half else Fraction(1)
    e = exp_poly(2 * a, n + 1)
    num = list(e)
    num[0] += 1
    den_over_x = [e[i + 1] for i in range(n)]
    return poly_div(num, den_over_x, n)


def oracle_ahat_factor(n):
    # (x/2)/sinh(x/2): sinh(x/2)/(x/2) = (e^(x/2) - e^(-x/2))/x
    plus = exp_poly(Fraction(1, 2), n + 1)
    minus = exp_poly(Fraction(-1, 2), n + 1)
    den = [(plus[i + 1] - minus[i + 1]) for i in range(n)]
    one = [Fraction(1)] + [Fraction(0)] * (n - 1)
    return poly_div(one, den, n)


def test_root_series_against_exponential_oracles():
    n = 12
    assert ahat_root_series(n) == oracle_ahat_factor(n)
    full = oracle_x_over_tanh(n, half=False)
    half = oracle_x_over_tanh(n, half=True)
    assert l_root_series(n, "full") == full
    assert l_root_series(n, "half") == half
    assert cosh_series(n, half=True, scale=2) == [
        (exp_poly(Fraction(1, 2), n)[i] + exp_poly(Fraction(-1, 2), n)[i]) for i in range(n)
    ]


# -- frozen class values ---------------------------------------------------------


def test_a_hat_degree0():
    profile = RootProfile(6, 0)
    assert a_hat(profile) == GradedClass.one(profile)


def test_a_hat_dim2():
    profile = RootProfile(2, 4)
    assert a_hat(profile) == GradedClass.one(profile) + p(profile, 1, Fraction(-1, 24))


def test_a_hat_dim4_degree8():
    profile = RootProfile(4, 8)
    expected = p(profile, 1) ** 2 * Fraction(7, 5760) + p(profile, 2, Fraction(-4, 5760))
    assert a_hat(profile).degree_component(8) == expected


def test_l_full_dim2():
    profile = RootProfile(2, 4)
    assert l_class(profile, "full").degree_component(4) == p(profile, 1, Fraction(1, 3))


def test_l_half_dim2():
    profile = RootProfile(2, 4)
    assert l_class(profile, "half").degree_component(4) == p(profile, 1, Fraction(1, 6))
    assert l_class(profile, "half").constant_term() == 2


def test_l_full_dim6_degree8():
    profile = RootProfile(6, 8)
    expected = (p(profile, 2) * 7 - p(profile, 1) ** 2) * Fraction(1, 45)
    assert l_class(profile, "full").degree_component(8) == expected


def test_l_variant_aliases():
    profile = RootProfile(2, 4)
    assert l_class(profile, "full_angle") == l_class(profile, "full")
    with pytest.raises(ValueError, match="variant"):
        l_class(profile, "diagonal")


def test_spinor_rank_dim6():
    profile = RootProfile(6, 8)
    assert spinor_character(profile).constant_term() == 8
    assert spinor_character(RootProfile(7, 8)).constant_term() == 8  # zero root: no factor


def test_spinor_dim2_degree4():
    profile = RootProfile(2, 4)
    assert spinor_character(profile).degree_component(4) == p(profile, 1, Fraction(1, 4))


def test_per_root_identity_ahat_spinor_is_half_angle_l():
    for dim in (2, 4, 6, 8, 10):
        profile = RootProfile(dim, 12)
        assert a_hat(profile) * spinor_character(profile) == l_class(profile, "half")


def test_full_vs_half_degree_factor():
    # degree-4k components differ by 2^(n_pairs + zero_root - 2k) exactly
    for dim in (2, 3, 5, 6, 8, 10, 11):
        profile = RootProfile(dim, 20)
        full = l_class(profile, "full")
        half = l_class(profile, "half")
        zero = 1 if profile.has_zero_root else 0
        for k in range(0, 6):
            if 4 * k > profile.max_form_degree:
                continue
            factor = Fraction(2) ** (profile.n_pairs + zero - 2 * k)
            assert half.degree_component(4 * k) == full.degree_component(4 * k) * factor
