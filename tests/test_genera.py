"""Characteristic series builders and the angle-convention bookkeeping."""

from fractions import Fraction

import pytest

from anomform import anomaly, genera
from anomform.anomaly import verify_agw, verify_main_identity
from anomform.chroot import GradedClass, RootProfile
from anomform.genera import AHAT, L_FULL, L_HALF, a_hat, genus_pair_log, l_class
from dense_series import ahat_factor, even_part, exp_poly, product_over_roots, x_over_tanh


def p(profile, i, coeff=1):
    return GradedClass.p(profile, i, coeff)


def spinor_character(profile):
    """ch of the spinor bundle of an even-dimensional fiber: prod of 2 cosh(x_j/2)."""
    assert not profile.has_zero_root
    n = 2 * profile.max_weight + 1
    two_cosh = [a + b for a, b in zip(exp_poly(Fraction(1, 2), n), exp_poly(Fraction(-1, 2), n))]
    return product_over_roots(two_cosh, profile)


def exp_pair_log(f0, logs):
    """u-coefficients of f0 exp(sum_k l_k u^k): k E_k = sum_(0<j<=k) j l_j E_(k-j)."""
    out = [f0]
    for k in range(1, len(logs) + 1):
        out.append(sum(j * logs[j - 1] * out[k - j] for j in range(1, k + 1)) / k)
    return out


def test_root_series_against_exponential_oracles():
    """exp of each closed-form pair log is the per-root factor built from exponentials."""
    w = 12
    n = 2 * w + 1
    oracles = {
        AHAT: ahat_factor(n),
        L_FULL: x_over_tanh(n, half=False),
        L_HALF: x_over_tanh(n, half=True),
    }
    for genus, factor in oracles.items():
        assert exp_pair_log(*genus_pair_log(genus, w)) == even_part(factor)


@pytest.mark.parametrize("genus", [AHAT, L_FULL])
def test_perturbed_genus_constant_fails_agw_and_main_identity(clear_memos, monkeypatch, genus):
    """l_1 of the A-roof (or the L-class) log moved by 1/7 must fail every
    AGW formula and the main identity.  `verify routes` cannot catch this:
    the K-theory prefactor and the theta route's q^0 term read the same
    constants, so both routes move together."""

    def statuses():
        agw = [verify_agw(d).status for d in (2, 6, 10)]
        return agw + [verify_main_identity(d).status for d in (9, 10)]

    assert statuses() == ["pass"] * 5

    def perturbed(g, max_weight):
        f0, logs = genus_pair_log(g, max_weight)
        if g == genus:
            logs = (logs[0] + Fraction(1, 7),) + logs[1:]
        return f0, logs

    monkeypatch.setattr(genera, "genus_pair_log", perturbed)
    monkeypatch.setattr(anomaly, "genus_pair_log", perturbed)
    clear_memos()
    assert statuses() == ["fail"] * 5


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
