"""Numeric theta evaluation and the transformation-law residual checks."""

import cmath
import math
import random

import pytest

from anomform import thetanum
from anomform.modforms import delta_epsilon, theta_nullwert
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
        (theta_nullwert(2, order2), nullwert("theta2", tau)),
        (theta_nullwert(3, order2), nullwert("theta3", tau)),
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


def count_work(monkeypatch) -> tuple:
    """Record the tau of every table build and the kinds of every theta product from now on."""
    tables, products = [], []
    build, product = thetanum._tau_tables, thetanum._theta_products

    def counted_build(tau, n_terms, half):
        tables.append(tau)
        return build(tau, n_terms, half)

    def counted_product(kinds, v, table):
        products.append(tuple(kinds))
        return product(kinds, v, table)

    monkeypatch.setattr(thetanum, "_tau_tables", counted_build)
    monkeypatch.setattr(thetanum, "_theta_products", counted_product)
    return tables, products


@pytest.mark.parametrize("n_roots", (1, 2, 4))
@pytest.mark.parametrize("m, z_case", ((1, False), (2, True)))
def test_one_jet_per_side_whatever_the_roots(monkeypatch, n_roots, m, z_case):
    tables, products = count_work(monkeypatch)
    jets = []
    original = thetanum._pair_jet

    def counted(side, tau, max_degree, n_terms):
        jets.append(side)
        return original(side, tau, max_degree, n_terms)

    monkeypatch.setattr(thetanum, "_pair_jet", counted)
    roots = [0.03 * (k + 1) * (-1) ** k for k in range(n_roots)]
    tau = complex(0.2, 1.1)
    assert transformed_pq_residual(m, roots, tau, z_case=z_case) < 1e-9
    assert sorted(jets) == [1, 2]
    # one table per jet side serves its nullwert, theta'(0) and every sample point
    assert tables == [-1.0 / tau, tau]
    # each jet: its nullwert, then one two-kind product per sample point
    points = 2 * (4 * m if z_case else 4 * m + 2) + 10
    side_1 = [("theta1",)] + [("theta", "theta1")] * points
    side_2 = [("theta2",)] + [("theta", "theta2")] * points
    assert products == side_1 + side_2


def test_twiddle_rows_built_once_per_points():
    thetanum._dft_rows.cache_clear()
    for tau in (complex(0.2, 1.1), complex(-0.1, 0.9)):
        transformed_pq_residual(1, [0.1, -0.05], tau)
    # both sides of both samples sample at the same 22 points
    info = thetanum._dft_rows.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("law", ["eq3.1", "eq3.2", "eq3.3", "eq3.4"])
def test_theta_law_sample_builds_three_tables(monkeypatch, law):
    tables, products = count_work(monkeypatch)
    samples = sample_points(3)
    check_transformation(law, samples)
    # the T-partner at (v, tau) and the S-partner at (tau v, tau) share one table
    assert tables == [t for _, tau in samples for t in (tau + 1, tau, -1.0 / tau)]
    kind = thetanum._LAW_KIND[law]
    per_sample = [(kind,), (thetanum._T_PARTNER[kind],), (kind,), (thetanum._S_PARTNER[kind],)]
    assert products == per_sample * len(samples)


@pytest.mark.parametrize(
    "which, kinds",
    (("delta1", ("theta2", "theta3")), ("eps1", ("theta2", "theta3")),
     ("delta2", ("theta1", "theta3")), ("epsilon2", ("theta1", "theta3"))),
)
def test_delta_epsilon_makes_one_two_kind_product(monkeypatch, which, kinds):
    tables, products = count_work(monkeypatch)
    delta_epsilon_eval(which, complex(0.1, 0.9))
    assert (len(tables), products) == (1, [kinds])


@pytest.mark.parametrize(
    "law, samples, message",
    (
        ("eq3.5delta", [1j, complex(0.3, -1.0)], r"tau=\(0\.3-1j\) is not a finite point"),
        ("eq3.1", [(0.2, 1j), (0.2, complex(float("nan"), 1.0))], r"tau=\(nan\+1j\) is not"),
        ("eq3.2", [(0.2, 1j), (0.2, complex(0.3, float("inf")))], r"tau=\(0\.3\+infj\) is not"),
        # product_terms_needed(-1/tau) is 586 348 485
        ("eq3.11", [(0, [0.1], 1j), (0, [0.1], complex(10000, 1))],
         r"tau=\(10000\+1j\) needs more than 10000"),
        # 5.86 million terms at tau itself
        ("eq3.5eps", [1j, complex(0.3, 1e-6)], r"tau=\(0\.3\+1e-06j\) needs more than 10000"),
        # -1/tau's imaginary part underflows to zero
        ("eq3.5delta", [1j, complex(1e200, 1.0)], r"tau=\(1e\+200\+1j\) needs more than 10000"),
        # sample sets that would pass with nothing checked
        ("eq3.1", [], "eq3.1 has no samples to check"),
        ("eq3.5delta", (), "eq3.5delta has no samples to check"),
        # a product over zero root pairs is 1: its degree-w part is 0 on both sides
        ("eq3.11", [(1, [], 1.1j)], "eq3.11 sample has no roots"),
        ("eq3.32", [(1, [0.1, 0.05], 1j), (2, (), 1.1j)], "eq3.32 sample has no roots"),
    ),
)
def test_unusable_tau_rejected_before_any_evaluation(monkeypatch, law, samples, message):
    def refuse(tau, n_terms, half):
        raise AssertionError(f"evaluated at tau={tau}")

    monkeypatch.setattr(thetanum, "_tau_tables", refuse)
    with pytest.raises(ValueError, match=message):
        check_transformation(law, samples)


def test_product_term_cap_matches_product_terms_needed():
    cap = thetanum.MAX_PRODUCT_TERMS
    below, above = (math.log(1e16) / (2 * math.pi * (n + 0.5)) for n in (cap - 1, cap))
    assert thetanum.product_terms_needed(complex(0, below)) == cap
    assert thetanum.product_terms_needed(complex(0, above)) == cap + 1
    assert check_transformation("eq3.5delta", [complex(0, below)]).passed
    with pytest.raises(ValueError, match="needs more than"):
        check_transformation("eq3.5delta", [complex(0, above)])


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
    # once per tau whose table falls short, not once per product
    tau = complex(0.1, 0.5)  # two terms fall short at tau, not at -1/tau
    with pytest.warns(RuntimeWarning, match="n_terms") as record:
        transformed_pq_residual(1, [0.1, 0.2], tau, n_terms=2)
    assert [r.filename for r in record] == [__file__]
    with pytest.warns(RuntimeWarning, match="n_terms") as record:
        check_transformation("eq3.5delta", [tau], n_terms=2)
    assert [r.filename for r in record] == [__file__]
    with pytest.warns(RuntimeWarning, match="n_terms") as record:
        check_transformation("eq3.1", [(0.1, tau)], n_terms=2)
    assert [r.filename for r in record] == [__file__] * 2  # at tau + 1 and at tau
