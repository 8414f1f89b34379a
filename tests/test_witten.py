"""Exterior/symmetric power characters and the theta bundle expansions.

Bundle coefficients are GradedClass values whose constant term is the
integer virtual rank; labels are attached only by the CLI.  The library
builds each factor from Adams-operation pair logs; Newton's identities
(``dense_series.elementary_from_power_sums``) are the oracle for its
exterior powers, and the factor-by-factor Theta_2 is the oracle for the
one built from the summed logs."""

from fractions import Fraction

import pytest

from anomform import anomaly, witten
from anomform.anomaly import (
    P1,
    P2,
    Q1,
    Q2,
    verify_decomposition_identity,
    verify_main_identity,
    verify_route_equivalence,
)
from anomform.chroot import GradedClass, GradedRing, RootProfile, sum_over_roots
from anomform.genera import L_FULL, L_HALF
from anomform.modforms import identity_parameters
from anomform.qseries import QQ, HalfQSeries, TruncationError
from anomform.witten import (
    THETA1,
    THETA2,
    ThetaBundleSeries,
    build_theta_bundle,
    chern_character,
    lambda_t_character,
    s_t_character,
    summed_theta2,
)
from dense_series import elementary_from_power_sums, exp_poly


def binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def newton_exterior_powers(profile, k_max):
    """(ch Lambda^0, ..., ch Lambda^k_max) of T_C Z by Newton's identities.

    The power sums are ch psi^k = sum over roots of e^(kx).
    """
    n = 2 * profile.max_weight + 1
    psums = [sum_over_roots(exp_poly(k, n), profile) for k in range(1, k_max + 1)]
    return elementary_from_power_sums(psums, k_max, GradedClass.one(profile))


def unreduced_lambda(profile, order2):
    """sum_k ch Lambda^k q^(k/2): Lambda_t of the reduced bundle times (1 + t)^dim, t = q^(1/2)."""
    ring = GradedRing(profile)
    unit = HalfQSeries.from_terms(QQ, [(0, 1), (1, 1)], order2) ** profile.fiber_dim
    return lambda_t_character(profile, 1, 1, order2) * unit.map_coefficients(ring.coerce, ring)


def test_exterior_power_ranks_are_binomials():
    for dim in (2, 3, 6, 7):
        profile = RootProfile(dim, 8)
        series = unreduced_lambda(profile, dim + 1)
        for k, e in enumerate(newton_exterior_powers(profile, dim)):
            assert e.constant_term() == binomial(dim, k)
            assert series.coefficient(k) == e


def test_exterior_powers_vanish_beyond_rank():
    # the partition sum never truncates at the rank: Lambda^k = 0 for k > dim
    # must come out of the pair logs themselves
    for dim in (2, 3, 6, 7):
        order2 = dim + 4
        profile = RootProfile(dim, 8)
        series = unreduced_lambda(profile, order2)
        assert not newton_exterior_powers(profile, dim + 1)[dim + 1]
        for k in range(dim + 1, order2):
            assert not series.coefficient(k)


@pytest.mark.parametrize("character", (lambda_t_character, s_t_character))
@pytest.mark.parametrize("t_sign, t_exp2", ((1, 0), (1, -1), (0, 1), (2, 1)))
def test_factor_rejects_bad_t(character, t_sign, t_exp2):
    with pytest.raises(ValueError):
        character(RootProfile(6, 8), t_sign, t_exp2, 6)


# (kind, fiber_dim, l_variant): every one passes unperturbed
ROUTE_CONTROLS = [
    (P2, 10, L_FULL), (Q2, 13, L_FULL), (Q2, 21, L_FULL), (P1, 10, L_HALF), (Q1, 21, L_HALF)
]


@pytest.mark.parametrize("kind, dim, variant", ROUTE_CONTROLS)
def test_route_check_sees_the_factor_logs(clear_memos, monkeypatch, kind, dim, variant):
    assert verify_route_equivalence(dim, kind, l_variant=variant).status == "pass"
    clear_memos()
    original = witten.product_over_root_pairs

    def perturbed(f0, logs, profile, weights=None):
        # double every factor's top-weight log: the identity-degree term
        return original(f0, [*logs[:-1], logs[-1] * 2], profile, weights)

    monkeypatch.setattr(witten, "product_over_root_pairs", perturbed)
    assert verify_route_equivalence(dim, kind, l_variant=variant).status == "fail"


def test_a_wrong_shared_s_factor_fails_both_kinds(clear_memos, monkeypatch):
    # S_(q^1) off by the trivial line at q^1: both bundles of the class share
    # the perturbed half, and each route check must still see it at exp2 2
    original = witten.s_t_character
    calls = []

    def perturbed(profile, t_sign, t_exp2, order2):
        series = original(profile, t_sign, t_exp2, order2)
        if t_exp2 != 2:
            return series
        calls.append(profile)
        return series + HalfQSeries(series.ring, {2: series.coefficient(0)}, order2)

    monkeypatch.setattr(witten, "s_t_character", perturbed)
    reports = [
        verify_route_equivalence(25, kind=P2),
        verify_route_equivalence(25, kind=P1, l_variant=L_HALF),
    ]
    assert [(r.status, [res["exp2"] for res in r.residuals]) for r in reports] == [
        ("fail", [2]), ("fail", [2]),
    ]
    assert len(calls) == 1  # one half, read by both kinds


def test_lambda_of_reduced_trivial_bundle_is_one():
    # reduced rank cancels: Lambda_t(E - dim E) with E trivial
    profile = RootProfile(1, 4)
    series = lambda_t_character(profile, 1, 2, 8)
    assert series == HalfQSeries.one(GradedRing(profile), 8)


def test_lambda_minus_qhalf_linear_coefficient():
    # the q^(1/2) coefficient of Lambda_{-q^(1/2)}(reduced T_C Z)
    profile = RootProfile(6, 8)
    series = lambda_t_character(profile, -1, 1, 6)
    expected = -(chern_character(profile) - 6)
    assert series.coefficient(1) == expected


def test_s_q_reduced_linear_coefficient():
    profile = RootProfile(2, 8)
    series = s_t_character(profile, 1, 2, 8)
    assert series.coefficient(2) == chern_character(profile) - 2


def test_lambda_s_duality():
    # S_t . Lambda_{-t} = 1 exactly to truncation
    profile = RootProfile(6, 8)
    for exp2 in (1, 2, 3):
        s = s_t_character(profile, 1, exp2, 8)
        lam = lambda_t_character(profile, -1, exp2, 8)
        assert s * lam == HalfQSeries.one(GradedRing(profile), 8)


def test_theta2_fourier_coefficients():
    profile = RootProfile(10, 12)
    theta = build_theta_bundle(THETA2, profile, 6)
    b0 = theta.series.coefficient(0)
    assert b0 == GradedClass.one(profile)
    b1 = theta.series.coefficient(1)
    assert b1 == -(chern_character(profile) - 10)
    assert b1.constant_term() == 0


def test_theta1_no_half_powers_and_q1_coefficient():
    profile = RootProfile(10, 12)
    theta = build_theta_bundle(THETA1, profile, 6)
    assert not theta.series.coefficient(1)
    q1 = theta.series.coefficient(2)
    assert q1 == (chern_character(profile) - 10) * 2


def test_theta_consistency_under_truncation():
    profile = RootProfile(6, 8)
    big = build_theta_bundle(THETA2, profile, 9)
    small = build_theta_bundle(THETA2, profile, 5)
    assert big.series.truncate(5) == small.series


def test_fourier_beyond_truncation():
    profile = RootProfile(6, 8)
    theta = build_theta_bundle(THETA2, profile, 4)
    with pytest.raises(TruncationError):
        theta.series.coefficient(4)


def test_rank_bookkeeping_matches_scalar_generating_function():
    # with every root at zero the reduced factors collapse to 1, so the
    # rank series of either theta bundle is exactly 1
    profile = RootProfile(7, 8)
    for kind in (THETA1, THETA2):
        theta = build_theta_bundle(kind, profile, 7)
        for exp2 in range(7):
            expected = 1 if exp2 == 0 else 0
            assert theta.series.coefficient(exp2).constant_term() == expected


def test_character_rank_must_be_integer():
    profile = RootProfile(2, 4)
    ring = GradedRing(profile)
    half = GradedClass.constant(profile, Fraction(1, 2))
    bad = HalfQSeries.from_terms(ring, [(0, 1), (2, half)], 4)
    with pytest.raises(ValueError, match="virtual rank 1/2 is not an integer"):
        ThetaBundleSeries(THETA2, profile, bad)


def test_theta_bundle_requires_trivial_leading_line():
    profile = RootProfile(2, 4)
    ring = GradedRing(profile)
    bad = HalfQSeries.from_terms(ring, [(0, GradedClass.zero(profile))], 4)
    with pytest.raises(ValueError, match="trivial line"):
        ThetaBundleSeries(THETA2, profile, bad)


SUMMED_CASES = [
    (profile, m + extra)
    for profile, m in sorted(
        {(anomaly._class_profile(d), identity_parameters(d)[1]) for d in range(1, 34) if d % 4},
        key=lambda case: case[0].fiber_dim,
    )
    for extra in (1, 3)
] + [
    (RootProfile(*shape), order2)  # unstable: fewer root pairs than the top weight
    for shape in ((3, 12), (5, 16), (4, 12))
    for order2 in (1, 4, 7)
]


@pytest.mark.parametrize(
    "profile, order2", SUMMED_CASES,
    ids=[f"{p.fiber_dim}-{p.max_form_degree}-o{o}" for p, o in SUMMED_CASES],
)
def test_summed_theta2_equals_the_factor_product(profile, order2):
    summed = summed_theta2(profile, order2)
    assert summed.series == build_theta_bundle(THETA2, profile, order2).series
    assert summed.series.order2 == order2


@pytest.mark.parametrize("dim", (6, 10, 14, 18, 25, 29))
def test_summed_theta2_sees_the_half_power_sign(dim, clear_memos, monkeypatch):
    # t = +q^(1/2) instead of -q^(1/2) in the Lambda factor's log: wrong b_r/z_r
    original = witten._factor_logs

    def flipped(adams_sign, t_sign, t_exp2, order2, max_weight):
        if (adams_sign, t_exp2) == (-1, 1):
            t_sign = -t_sign
        return original(adams_sign, t_sign, t_exp2, order2, max_weight)

    monkeypatch.setattr(witten, "_factor_logs", flipped)
    assert verify_decomposition_identity(dim).status == "fail"
    assert verify_main_identity(dim).status == "fail"
