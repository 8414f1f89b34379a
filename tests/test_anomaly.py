"""Identity verification: decompositions, the main identity, AGW, corollaries."""

from fractions import Fraction

import pytest

from anomform import anomaly
from anomform.anomaly import (
    CASE_CONSTANTS,
    COROLLARY_DIMENSIONS,
    P1,
    P2,
    Q2,
    ROUTE_KTHEORY,
    ROUTE_THETA,
    agw_densities,
    corollary_coefficients,
    identity_parameters,
    identity_profile,
    main_identity_sides,
    p_form,
    verify_agw,
    verify_decomposition_identity,
    verify_main_identity,
    verify_route_equivalence,
)
from anomform.chroot import GradedClass, RootProfile
from anomform.genera import a_hat, l_class
from anomform.qseries import HalfQSeries
from anomform.witten import chern_character
from dense_series import jet_degree_part, sampled_pair_jet

B_DIMS = (1, 2, 3, 9, 10, 11, 17, 18, 19)
Z_DIMS = (5, 6, 7, 13, 14, 15)
LARGE_M_DIMS = (25, 26, 27, 29, 30, 31, 33, 37)  # b at m = 3, 4; z at m = 4, 5


def p(profile, i, coeff=1):
    return GradedClass.p(profile, i, coeff)


# -- p_form ----------------------------------------------------------------------


def test_p2_constant_term_is_ahat_component():
    profile = identity_profile(2)
    series = p_form(P2, profile)
    assert series.coefficient(0) == p(profile, 1, Fraction(-1, 24))


def test_p1_constant_term_is_l_component():
    profile = identity_profile(2)
    assert p_form(P1, profile, l_variant="full").coefficient(0) == p(profile, 1, Fraction(1, 3))
    assert p_form(P1, profile, l_variant="half").coefficient(0) == p(profile, 1, Fraction(1, 6))


def test_p2_half_power_coefficient_dim10():
    profile = identity_profile(10)
    series = p_form(P2, profile)
    expected = (a_hat(profile) * (10 - chern_character(profile))).degree_component(12)
    assert series.coefficient(1) == expected


def test_p2_dim2_guard_coefficient():
    # P_2 = (p1/24)(8 delta_2), so the q^(1/2) coefficient is -24 (p1/24)
    profile = identity_profile(2)
    series = p_form(P2, profile)
    assert series.coefficient(1) == p(profile, 1, -1)
    assert series.coefficient(1) == series.coefficient(0) * 24


def test_p_form_kind_dimension_mismatch():
    with pytest.raises(ValueError, match="requires fiber dimension"):
        p_form(P2, identity_profile(6))
    with pytest.raises(ValueError, match="requires fiber dimension"):
        p_form(Q2, identity_profile(10))


# -- decomposition identity (series-level modularity) ------------------------------


@pytest.mark.parametrize("dim", B_DIMS + Z_DIMS)
def test_decomposition_identity_full_truncation(dim):
    report = verify_decomposition_identity(dim)
    expected = "degenerate-zero" if dim == 1 else "pass"
    assert report.status == expected
    assert report.residuals == []


@pytest.mark.parametrize("dim", (2, 10, 6))
def test_decomposition_guard_against_window_fitting(dim):
    # raising the truncation by two whole q-steps must keep residuals empty
    _, m, _ = identity_parameters(dim)
    base = verify_decomposition_identity(dim, order2=2 * m + 5)
    raised = verify_decomposition_identity(dim, order2=2 * m + 9)
    assert base.status == raised.status == "pass"
    assert raised.residuals == []


@pytest.mark.parametrize("dim", LARGE_M_DIMS)
def test_decomposition_identity_large_m(dim):
    report = verify_decomposition_identity(dim)
    assert report.status == "pass"
    assert report.residuals == []


@pytest.mark.parametrize("dim", (10, 13))
def test_dropped_last_term_fails_both_identities(dim, monkeypatch):
    # negative control: a bundle decomposition one term short
    case, m, _ = identity_parameters(dim)
    original = anomaly.decompose_theta2
    monkeypatch.setattr(anomaly, "decompose_theta2", lambda *a: original(*a)[:-1])
    report = verify_decomposition_identity(dim)
    assert report.status == "fail"
    assert report.residuals == [
        {"r": m, "error": f"{case}_{m} is missing from the decomposition"}
    ]
    assert verify_main_identity(dim).status == "fail"


@pytest.mark.parametrize("dim", (10, 13, 25))
def test_poisoned_theta_route_past_the_window_fails(dim, clear_memos, monkeypatch):
    # negative control: the theta-route P_2 altered one step past the matched
    # window, where only the series-level comparison can see it
    _, m, _ = identity_parameters(dim)
    original = anomaly.p_form

    def poisoned(kind, profile, route=ROUTE_KTHEORY, l_variant="full", order2=None):
        series = original(kind, profile, route, l_variant, order2)
        if route != ROUTE_THETA:
            return series
        bump = HalfQSeries(series.ring, {m + 2: series.coefficient(0)}, series.order2)
        return series + bump

    monkeypatch.setattr(anomaly, "p_form", poisoned)
    report = verify_decomposition_identity(dim)
    assert report.status == "fail"
    assert [r["exp2"] for r in report.residuals] == [m + 2]


@pytest.mark.parametrize("dim", (10, 13, 25))
def test_shifted_last_rank_fails_the_basis_check(dim, clear_memos, monkeypatch):
    # negative control: the Theta_2 window's last b_r/z_r with its rank off
    # by one, so eq3.12/eq3.33 must still read the K-theory decomposition
    _, m, _ = identity_parameters(dim)
    original = anomaly.decompose_theta2

    def shifted(*args):
        xs = original(*args)
        return xs[:-1] + (xs[-1] + 1,)

    monkeypatch.setattr(anomaly, "decompose_theta2", shifted)
    report = verify_decomposition_identity(dim)
    assert report.status == "fail"
    assert [(r["r"], r["error"]) for r in report.residuals] == [
        (m, "basis coefficient differs from A-roof ch(b_r)")
    ]


# -- main identity ------------------------------------------------------------------


@pytest.mark.parametrize("dim", B_DIMS + Z_DIMS)
def test_main_identity_full_angle_matches_expected_constant(dim):
    report = verify_main_identity(dim, "full")
    if dim == 1:
        assert report.status == "degenerate-zero"
        return
    case, m, _ = identity_parameters(dim)
    assert report.status == "pass"
    assert report.residuals == []
    assert report.lambda_measured == CASE_CONSTANTS[case] * 2 ** (6 * m)
    assert report.paper_ratio == 1


@pytest.mark.parametrize("dim", LARGE_M_DIMS)
def test_main_identity_large_m_matches_expected_constant(dim):
    report = verify_main_identity(dim, "full")
    case, m, _ = identity_parameters(dim)
    assert report.status == "pass"
    assert report.lambda_measured == CASE_CONSTANTS[case] * 2 ** (6 * m)
    assert report.paper_ratio == 1


@pytest.mark.parametrize("dim", B_DIMS + Z_DIMS)
def test_main_identity_half_angle_single_lambda_power_of_two(dim):
    if dim == 1:
        return
    report = verify_main_identity(dim, "half")
    assert report.status == "pass"
    ratio = report.paper_ratio
    assert ratio > 0
    # a (possibly negative) power of two
    num, den = ratio.numerator, ratio.denominator
    assert (num & (num - 1)) == 0 and (den & (den - 1)) == 0


@pytest.mark.parametrize("dim", (2, 3, 9, 10, 11, 5, 6, 7, 17, 18, 19, 13, 14, 15))
def test_convention_coherence(dim):
    # lambda(half)/lambda(full) equals the L-variant degree factor
    full = verify_main_identity(dim, "full")
    half = verify_main_identity(dim, "half")
    profile = identity_profile(dim)
    _, _, degree = identity_parameters(dim)
    k = degree // 4
    zero = 1 if profile.has_zero_root else 0
    predicted = Fraction(2) ** (profile.n_pairs + zero - 2 * k)
    assert half.lambda_measured == full.lambda_measured * predicted


def test_main_identity_sides_dim2_hand_values():
    lhs, rhs = main_identity_sides(2, "full")
    profile = identity_profile(2)
    assert lhs == p(profile, 1, Fraction(1, 3))
    assert rhs == p(profile, 1, Fraction(1, 24))


def test_main_identity_dim6_combination():
    # 2^6 h_0 + h_1 with h_r = {A-roof ch z_r} equals {L}^(8): the
    # spelled-out combination 22 A-roof_2 - {A-roof ch T_C}_2 = L_2
    profile = identity_profile(6)
    ahat = a_hat(profile)
    tc = chern_character(profile)
    combination = (ahat * 22 - ahat * tc).degree_component(8)
    assert combination == l_class(profile, "full").degree_component(8)


def test_report_serialization_schema():
    obj = verify_main_identity(10, "full").to_obj()
    assert obj["identity"] == "eq3.14"
    assert obj["fiber_dim"] == 10 and obj["m"] == 1
    assert obj["lambda"] == "512" and obj["paper_ratio"] == "1"
    assert obj["status"] == "pass" and obj["residuals"] == []
    assert obj["l_variant"] == "full" and obj["route"] == ROUTE_KTHEORY
    assert isinstance(obj["lhs"], list) and isinstance(obj["rhs"], list)


# -- AGW ------------------------------------------------------------------------------


@pytest.mark.parametrize("dim", (2, 6, 10))
def test_agw_cancellation(dim):
    report = verify_agw(dim)
    assert report.status == "pass"
    assert report.residuals == []


def test_agw_dim2_hand_check():
    i_half, _, i_a = agw_densities(2)
    profile = RootProfile(2, 4)
    assert i_half == p(profile, 1, Fraction(-1, 24))
    assert i_a == p(profile, 1, Fraction(-1, 24))  # -(1/8)(p1/3)
    assert -i_half + i_a == GradedClass.zero(profile)


def test_agw_monomial_bases():
    # residuals are checked over {p1}, {p1^2, p2}, {p1^3, p1 p2, p3}
    for dim, count in ((2, 1), (6, 2), (10, 3)):
        i_half, i_three, i_a = agw_densities(dim)
        monomials = {mon for cls in (i_half, i_three, i_a) for mon, _ in cls.items()}
        assert len(monomials) == count


def test_agw_rejects_other_dimensions():
    with pytest.raises(ValueError, match="no classical cancellation"):
        verify_agw(4)


# -- corollaries ----------------------------------------------------------------------


REFERENCE_VECTORS = {
    1: (1, 0, 8),
    2: (1, 0, 8),
    3: (1, 0, 8),
    5: (1, 1, -21),
    6: (1, 1, -22),
    7: (1, 1, -23),
    9: (1, -8, 8),
    10: (1, -8, 16),
    11: (1, -8, 24),
}


@pytest.mark.parametrize("dim", COROLLARY_DIMENSIONS)
def test_corollary_vectors_match_reference(dim):
    vector = corollary_coefficients(dim)
    assert vector.coefficients == tuple(Fraction(c) for c in REFERENCE_VECTORS[dim])


@pytest.mark.parametrize("dim", COROLLARY_DIMENSIONS)
def test_corollary_vector_kills_density_combination(dim):
    # {L}^(D) + c_T {A-roof ch T_C}^(D) + c_D {A-roof}^(D) = 0 at the
    # identity degree: the integrand-level content of each corollary
    _, _, degree = identity_parameters(dim)
    profile = identity_profile(dim)
    _, c_t, c_d = corollary_coefficients(dim).coefficients
    ahat = a_hat(profile)
    combo = (
        l_class(profile, "full").degree_component(degree)
        + (ahat * chern_character(profile)).degree_component(degree) * c_t
        + ahat.degree_component(degree) * c_d
    )
    assert not combo


def test_corollaries_translate_to_agw_combinations():
    # dim 2: -I_1/2 + I_A = -(1/8)(signature-combination); dims 6 and 10
    # likewise reproduce the three stated combinations exactly
    for dim, coeffs in ((2, (-1, 0, 1)), (6, (21, -1, 8)), (10, (-1, 1, 1))):
        i_half, i_three, i_a = agw_densities(dim)
        combo = i_half * coeffs[0] + i_three * coeffs[1] + i_a * coeffs[2]
        assert not combo


def test_corollary_unknown_dimension():
    with pytest.raises(ValueError, match="no corollary"):
        corollary_coefficients(4)


# -- route equivalence -------------------------------------------------------------


@pytest.mark.parametrize("dim", (1, 2, 3, 9, 10, 11))
def test_route_equivalence_p2_to_q_five_halves(dim):
    report = verify_route_equivalence(dim, order2=6)
    expected = "degenerate-zero" if dim == 1 else "pass"
    assert report.status == expected
    assert report.residuals == []


@pytest.mark.parametrize("dim", (5, 6, 7))
def test_route_equivalence_q2(dim):
    report = verify_route_equivalence(dim, order2=6)
    assert report.status == "pass"


@pytest.mark.parametrize("dim", (17, 18, 19, 13, 14, 15))
def test_route_equivalence_largest_cases(dim):
    report = verify_route_equivalence(dim, order2=7)
    assert report.status == "pass" and report.residuals == []


@pytest.mark.parametrize("dim", (17, 18, 19, 13, 14, 15))
def test_route_equivalence_largest_cases_at_the_class_order(dim):
    # verify all reads the K-theory P_2/Q_2 at m = 2 only through q^1, so
    # this is where the full-order K-theory series past the window is checked
    report = verify_route_equivalence(dim)
    assert report.status == "pass" and report.residuals == []


def test_route_equivalence_p1_half_angle_exact():
    report = verify_route_equivalence(2, kind=P1, order2=6, l_variant="half")
    assert report.status == "pass"


def test_route_equivalence_p1_full_angle_reports_first_mismatch():
    # the full-angle theta quotient doubles the bundle roots, so agreement
    # stops after the calibrated q^0 term; the report names the spot
    report = verify_route_equivalence(2, kind=P1, order2=6, l_variant="full")
    assert report.status == "fail"
    assert report.residuals[0]["exp2"] == 2


def test_p_form_routes_agree_directly():
    profile = identity_profile(10)
    via_k = p_form(P2, profile, ROUTE_KTHEORY, order2=6)
    via_t = p_form(P2, profile, ROUTE_THETA, order2=6)
    for exp2 in range(6):
        assert via_k.coefficient(exp2) == via_t.coefficient(exp2)


@pytest.mark.parametrize(
    "dim,kind,w,roots",
    [(2, P2, 2, ["1/10"]), (6, Q2, 4, ["1/10", "-3/20", "2/25"])],
)
def test_exact_series_match_numeric_quotient_jets(dim, kind, w, roots):
    # end-to-end oracle: the exact symbolic route evaluated at numeric tau
    # and rational roots must agree with the direct complex theta-quotient
    # product (independent code path through the product-formula thetas)
    import cmath

    from anomform.chroot import eval_at_roots

    profile = identity_profile(dim)
    series = p_form(kind, profile, ROUTE_KTHEORY, order2=10)
    tau = 1.5j
    q_half = cmath.exp(1j * cmath.pi * tau)
    root_fractions = [Fraction(r) for r in roots]
    exact = sum(
        complex(eval_at_roots(cls, root_fractions)) * q_half**exp2
        for exp2, cls in series.items()
    )
    numeric = jet_degree_part(sampled_pair_jet(2, tau, w), root_fractions, w)
    assert abs(exact - numeric) < 1e-12


def test_basis_decompose_of_p2_leads_with_minus_ahat():
    # the constant basis coefficient of P_2 at dim 10 is {A-roof ch(-C)}^(12)
    from anomform.modforms import basis_decompose

    profile = identity_profile(10)
    series = p_form(P2, profile)
    h = basis_decompose(series, 6)
    assert h[0] == -a_hat(profile).degree_component(12)
    expected_h1 = (
        a_hat(profile) * (chern_character(profile) + 62)
    ).degree_component(12)
    assert h[1] == expected_h1
