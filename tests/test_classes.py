"""Identity classes: a stable fiber's results equal its class representative's.

Every exact artifact of fiber dimension d is computed on the class profile
RootProfile(8m+2 or 8m-2, degree).  These tests compute the same things on
d's own profile and compare: the ring is the same, so the p-monomial
coefficients must agree, up to the half-angle L constant 2^ceil(d/2).
"""

import pytest

from anomform import anomaly
from anomform.anomaly import (
    COROLLARY_DIMENSIONS,
    P1,
    P2,
    Q1,
    Q2,
    ROUTE_KTHEORY,
    ROUTE_THETA,
    corollary_coefficients,
    identity_parameters,
    identity_profile,
    p_form,
    verify_decomposition_identity,
    verify_main_identity,
    verify_route_equivalence,
)
from anomform.chroot import RootProfile

B_DIMS = (1, 2, 3, 9, 10, 11, 17, 18, 19, 25, 26, 27)  # m <= 3
Z_DIMS = (5, 6, 7, 13, 14, 15, 21, 22, 23)
STABLE_DIMS = tuple(d for d in B_DIMS + Z_DIMS if d != 1)


def payload(series) -> tuple:
    """A series' order and coefficients, free of the profile they live over."""
    return series.order2, [(e, c.to_obj()) for e, c in series.items()]


def kinds(dim):
    return (P2, P1) if identity_parameters(dim)[0] == "b" else (Q2, Q1)


def test_class_representatives():
    assert anomaly._class_profile(1) == identity_profile(1)  # n_pairs 0 < weight 1
    for dim in STABLE_DIMS:
        case, m, degree = identity_parameters(dim)
        rep = 8 * m + 2 if case == "b" else 8 * m - 2
        assert anomaly._class_profile(dim) == RootProfile(rep, degree)


@pytest.mark.parametrize("route", (ROUTE_KTHEORY, ROUTE_THETA))
@pytest.mark.parametrize("dim", STABLE_DIMS)
def test_p_form_equals_class_result(dim, route):
    own, rep = identity_profile(dim), anomaly._class_profile(dim)
    scale = 2 ** ((dim + 1) // 2 - (rep.fiber_dim + 1) // 2)
    even, odd = kinds(dim)
    assert payload(p_form(even, own, route)) == payload(p_form(even, rep, route))
    assert payload(p_form(odd, own, route, "full")) == payload(p_form(odd, rep, route, "full"))
    assert payload(p_form(odd, own, route, "half")) == payload(
        p_form(odd, rep, route, "half") * scale
    )


@pytest.mark.parametrize("dim", COROLLARY_DIMENSIONS)
def test_corollary_keeps_its_values_on_the_own_profile(dim, monkeypatch):
    keyed = corollary_coefficients(dim)
    monkeypatch.setattr(anomaly, "_class_profile", identity_profile)
    assert corollary_coefficients(dim) == keyed


@pytest.mark.parametrize("l_variant", ("full", "half"))
def test_reports_equal_own_profile_reports(l_variant, monkeypatch):
    dims = tuple(d for d in B_DIMS + Z_DIMS if d < 20)
    checks = (
        verify_decomposition_identity,
        lambda d: verify_main_identity(d, l_variant),
        lambda d: verify_route_equivalence(d, order2=6),
        lambda d: verify_route_equivalence(d, kind=kinds(d)[1], order2=6, l_variant=l_variant),
    )
    keyed = [check(d).to_obj() for d in dims for check in checks]
    monkeypatch.setattr(anomaly, "_class_profile", identity_profile)
    assert [check(d).to_obj() for d in dims for check in checks] == keyed


def test_half_angle_route_residual_is_scaled_to_the_fiber(monkeypatch):
    # a failing half-angle comparison reports d's own coefficients, not the
    # representative's: perturb the theta route and compare both keyings
    original = anomaly.p_form.__wrapped__

    def perturbed(kind, profile, route=ROUTE_KTHEORY, l_variant="full", order2=None):
        series = original(kind, profile, route, l_variant, order2)
        return series * 3 if route == ROUTE_THETA else series

    monkeypatch.setattr(anomaly, "p_form", perturbed)
    keyed = verify_route_equivalence(11, kind=P1, order2=6, l_variant="half")
    assert keyed.status == "fail" and keyed.residuals[0]["exp2"] == 0
    monkeypatch.setattr(anomaly, "_class_profile", identity_profile)
    assert verify_route_equivalence(11, kind=P1, order2=6, l_variant="half") == keyed


def test_dim_1_keeps_its_own_profile_and_is_degenerate():
    assert verify_decomposition_identity(1).status == "degenerate-zero"
    assert verify_main_identity(1).status == "degenerate-zero"
    assert verify_route_equivalence(1, order2=6).status == "degenerate-zero"
