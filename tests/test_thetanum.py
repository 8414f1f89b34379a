"""Numeric theta evaluation and the transformation-law residual checks."""

import cmath
import random

import pytest

from anomform import thetanum
from anomform.modforms import delta_epsilon, theta2_nullwert, theta3_nullwert
from anomform.thetanum import (
    check_transformation,
    delta_epsilon_eval,
    nullwert,
    theta_eval,
    transformed_pq_residual,
)

RNG_SEED = 424242


def sample_points(count=20):
    rng = random.Random(RNG_SEED)
    return [
        (
            complex(rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5)),
            complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)),
        )
        for _ in range(count)
    ]


def test_upper_half_plane_required():
    with pytest.raises(ValueError, match="upper half"):
        theta_eval("theta", 0.1, complex(0.2, -1.0))


def test_theta_vanishes_at_origin():
    for tau in (1j, complex(0.3, 0.8)):
        assert abs(theta_eval("theta", 0.0, tau)) < 1e-15


def test_theta3_tends_to_one_at_infinity():
    assert abs(theta_eval("theta3", 0.0, 40j) - 1.0) < 1e-15


def test_parity_relations():
    for v, tau in sample_points():
        assert abs(theta_eval("theta", -v, tau) + theta_eval("theta", v, tau)) < 1e-10
        for kind in ("theta1", "theta2", "theta3"):
            assert abs(theta_eval(kind, -v, tau) - theta_eval(kind, v, tau)) < 1e-10


def test_exact_series_agree_with_product_evaluation():
    tau = 1.3j
    w = cmath.exp(1j * cmath.pi * tau)  # q^(1/2)
    order2 = 40
    pairs = [
        (theta2_nullwert(order2), nullwert("theta2", tau)),
        (theta3_nullwert(order2), nullwert("theta3", tau)),
        (delta_epsilon("delta1", order2), delta_epsilon_eval("delta1", tau)),
        (delta_epsilon("eps1", order2), delta_epsilon_eval("eps1", tau)),
        (delta_epsilon("delta2", order2), delta_epsilon_eval("delta2", tau)),
        (delta_epsilon("eps2", order2), delta_epsilon_eval("eps2", tau)),
    ]
    for series, direct in pairs:
        value = sum(complex(c) * w**exp2 for exp2, c in series.items())
        assert abs(value - direct) < 1e-10


def test_truncation_stability_under_doubled_terms():
    for v, tau in sample_points(10):
        for kind in ("theta", "theta1", "theta2", "theta3"):
            base = theta_eval(kind, v, tau, n_terms=24)
            double = theta_eval(kind, v, tau, n_terms=48)
            assert abs(base - double) < 1e-12


def test_theta2_tplus1_equals_theta3():
    v, tau = complex(0.3, 0.1), complex(0.2, 1.1)
    lhs = theta_eval("theta2", v, tau + 1)
    rhs = theta_eval("theta3", v, tau)
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("law", ["eq3.1", "eq3.2", "eq3.3", "eq3.4"])
def test_theta_transformation_laws(law):
    report = check_transformation(law, sample_points(), tol=1e-9)
    assert report.passed, report.max_residual
    assert len(report.residuals) == 40  # both the T-law and the S-law per point


def test_first_law_s_move_at_fixed_point_sample():
    report = check_transformation("eq3.1", [(0.2, 2j)], tol=1e-9)
    assert report.passed and report.max_residual < 1e-9


@pytest.mark.parametrize("law", ["eq3.5delta", "eq3.5eps"])
def test_delta_eps_transformation(law):
    taus = [tau for _, tau in sample_points(10)]
    report = check_transformation(law, taus, tol=1e-9)
    assert report.passed, report.max_residual


def test_delta_fixed_point_at_i():
    # tau = i is fixed by the S-action, tying the two weight-2 forms together
    assert abs(delta_epsilon_eval("delta2", 1j) + delta_epsilon_eval("delta1", 1j)) < 1e-12


def test_pq_transformation_m0():
    samples = [
        (0, [0.1], complex(0.3, 1.2)),
        (0, [0.17], complex(-0.2, 0.8)),
        (0, [0.05, -0.12], complex(0.1, 1.0)),
    ]
    report = check_transformation("eq3.11", samples, tol=1e-8)
    assert report.passed, report.residuals
    assert report.max_residual < 1e-9


def test_pq_transformation_q_side():
    residual = transformed_pq_residual(1, [0.1, -0.15, 0.08], complex(0.3, 1.2), z_case=True)
    assert residual < 1e-9


def test_unknown_law_rejected():
    with pytest.raises(ValueError, match="unknown transformation law"):
        check_transformation("eq9.9", [])


def test_insufficient_terms_warns():
    with pytest.warns(RuntimeWarning, match="n_terms"):
        theta_eval("theta3", 0.1, complex(0.0, 0.5), n_terms=2)


def test_report_serialization():
    report = check_transformation("eq3.5delta", [complex(0.1, 1.0)], tol=1e-9)
    obj = report.to_obj()
    assert obj["law"] == "eq3.5delta"
    assert obj["status"] == "pass"
    assert len(obj["residuals"]) == 1


def count_products(monkeypatch) -> list:
    """Record the kinds of every theta product loop from now on."""
    calls = []
    original = thetanum._theta_values

    def counted(kinds, v, tau, n_terms):
        calls.append(tuple(kinds))
        return original(kinds, v, tau, n_terms)

    monkeypatch.setattr(thetanum, "_theta_values", counted)
    return calls


@pytest.mark.parametrize("n_roots", (1, 2, 4))
@pytest.mark.parametrize("m, z_case", ((1, False), (2, True)))
def test_one_jet_per_side_whatever_the_roots(monkeypatch, n_roots, m, z_case):
    products = count_products(monkeypatch)
    jets = []
    original = thetanum._pair_jet

    def counted(side, tau, max_degree, n_terms):
        jets.append(side)
        return original(side, tau, max_degree, n_terms)

    monkeypatch.setattr(thetanum, "_pair_jet", counted)
    roots = [0.03 * (k + 1) * (-1) ** k for k in range(n_roots)]
    assert transformed_pq_residual(m, roots, complex(0.2, 1.1), z_case=z_case) < 1e-9
    assert sorted(jets) == [1, 2]
    # each jet: its nullwert, then one two-kind product per sample point
    points = 2 * (4 * m if z_case else 4 * m + 2) + 10
    side_1 = [("theta1",)] + [("theta", "theta1")] * points
    side_2 = [("theta2",)] + [("theta", "theta2")] * points
    assert products == side_1 + side_2


@pytest.mark.parametrize(
    "which, kinds",
    (("delta1", ("theta2", "theta3")), ("eps1", ("theta2", "theta3")),
     ("delta2", ("theta1", "theta3")), ("epsilon2", ("theta1", "theta3"))),
)
def test_delta_epsilon_makes_one_two_kind_product(monkeypatch, which, kinds):
    products = count_products(monkeypatch)
    delta_epsilon_eval(which, complex(0.1, 0.9))
    assert products == [kinds]


def test_unknown_theta_kind_rejected():
    with pytest.raises(ValueError, match="unknown theta kind 'theta9'"):
        theta_eval("theta9", 0.1, 1j)


def test_unknown_form_rejected():
    with pytest.raises(ValueError, match="unknown form 'delta3'"):
        delta_epsilon_eval("delta3", 1j)


def test_insufficient_terms_warning_names_the_caller():
    with pytest.warns(RuntimeWarning, match="n_terms") as record:
        theta_eval("theta3", 0.1, complex(0.0, 0.5), n_terms=2)
    with pytest.warns(RuntimeWarning, match="n_terms") as record_null:
        nullwert("theta2", complex(0.0, 0.5), n_terms=2)
    assert [r.filename for r in (*record, *record_null)] == [__file__, __file__]
