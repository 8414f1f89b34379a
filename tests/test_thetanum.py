"""Numeric theta evaluation and the transformation-law residual checks."""

import cmath
import math
import random

import pytest

from anomform import thetanum
from anomform.cli import _numeric_default_samples
from anomform.modforms import delta_epsilon, theta_nullwert
from anomform.thetanum import (
    check_transformation,
    delta_epsilon_eval,
    nullwert,
    theta_eval,
    transformed_pq_residual,
)
from dense_series import sampled_pair_jet

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


# each theta law with every kind but its own S-transformation partner
WRONG_S_PARTNERS = [
    (law, wrong)
    for law, kind in thetanum._LAW_KIND.items()
    for wrong in ("theta", "theta1", "theta2", "theta3")
    if wrong != thetanum._S_PARTNER[kind]
]


@pytest.mark.parametrize("law", ["eq3.1", "eq3.2", "eq3.3", "eq3.4"])
def test_flipped_t_phase_fails_every_t_residual(monkeypatch, law):
    # negative control: the e^(i pi/4) of tau -> tau + 1 dropped where the
    # law has it and added where it has not
    kind = thetanum._LAW_KIND[law]
    monkeypatch.setitem(thetanum._T_PHASE, kind, not thetanum._T_PHASE[kind])
    residuals = check_transformation(law, _numeric_default_samples(law)).residuals
    assert min(residuals[0::2]) > 0.5  # |1 - e^(i pi/4)| = 0.765
    assert max(residuals[1::2]) < 1e-12  # the S-law is untouched


@pytest.mark.parametrize("law, wrong", WRONG_S_PARTNERS)
def test_wrong_s_partner_fails_every_s_residual(monkeypatch, law, wrong):
    # negative control: tau -> -1/tau lands on another theta function
    monkeypatch.setitem(thetanum._S_PARTNER, thetanum._LAW_KIND[law], wrong)
    residuals = check_transformation(law, _numeric_default_samples(law)).residuals
    assert min(residuals[1::2]) > 1e-3
    assert max(residuals[0::2]) < 1e-12  # the T-law is untouched


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
    sides = []
    original = thetanum._pair_logs

    def counted(side, w, size):
        sides.append((side, w))
        return original(side, w, size)

    monkeypatch.setattr(thetanum, "_pair_logs", counted)
    roots = [0.03 * (k + 1) * (-1) ** k for k in range(n_roots)]
    tau = complex(0.2, 1.1)
    assert transformed_pq_residual(m, roots, tau, z_case=z_case) < 1e-9
    # one pair-log read per side serves every root; no product-formula theta is evaluated
    w = 4 * m if z_case else 4 * m + 2
    assert sides == [(1, w), (2, w)]
    assert tables == products == []


def test_pair_log_table_built_once_per_side_and_weight(monkeypatch, clear_memos):
    builds = []
    original = thetanum.theta_quotient_pair_series

    def counted(kind, l_variant, order2, max_weight):
        builds.append((kind, order2, max_weight))
        return original(kind, l_variant, order2, max_weight)

    monkeypatch.setattr(thetanum, "theta_quotient_pair_series", counted)
    rng = random.Random(RNG_SEED)
    # the tables read at tau and at -1/tau; the first tau has Im 1/2 at both, and
    # every later one lies in |tau - i| < 1, where both are larger
    taus = [complex(math.sqrt(0.75), 0.5)] + [
        complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.8)) for _ in range(8)]
    for law, m in (("eq3.11", 0), ("eq3.11", 1), ("eq3.32", 1), ("eq3.32", 2)):
        samples = [(m, [rng.uniform(-0.2, 0.2) for _ in range(n)], tau)
                   for tau in taus for n in (1, 2, 3)]
        assert check_transformation(law, samples).passed
    assert [(kind, w) for kind, _, w in builds] == [
        (kind, w) for w in (1, 3, 2, 4) for kind in ("P1", "P2")]
    # a tau that needs more terms replaces its tables by ones at least twice as long
    (first_order2,) = {order2 for kind, order2, w in builds if (kind, w) == ("P2", 1)}
    del builds[:]
    assert transformed_pq_residual(0, [0.1], complex(0.0, 0.2)) < 1e-9
    assert [(kind, w) for kind, _, w in builds] == [("P2", 1)]
    assert builds[0][1] >= 2 * first_order2
    assert set(thetanum._PAIR_LOG_MEMO) == {(side, w) for side in (1, 2) for w in (2, 6, 4, 8)}


@pytest.mark.parametrize("side", (1, 2))
@pytest.mark.parametrize("tau", (complex(0.3, 1.2), complex(-0.2, 0.9)))
def test_closed_form_pair_jet_matches_sampled_oracle(side, tau):
    # one root x = 1: the degree-d part of the product is the jet coefficient c_d
    oracle = sampled_pair_jet(side, tau, 4)
    for d in (0, 2, 4):
        closed, _ = thetanum._root_pair_product(side, d, tau, [1.0], None)
        assert abs(closed - oracle[d]) < 1e-10
    # the quotient is even in x
    assert max(abs(oracle[1]), abs(oracle[3])) < 1e-10


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
        # so is one whose roots are all 0, or whose degree w = 4m+2 (eq3.11) or 4m is below 2
        ("eq3.11", [(0, [0.1], 1j), (1, [0.0, 0j], 1.1j)], "eq3.11 sample has no roots other"),
        ("eq3.11", [(0, [0.1], 1j), (-1, [0.1], 1.1j)], "eq3.11 sample has m below 0"),
        ("eq3.32", [(1, [0.1], 1j), (0, [0.1], 1.1j)], "eq3.32 sample has m below 1"),
        # product-formula factors outside the normal doubles: q^(1/8) at tau or -1/tau ...
        ("eq3.1", [(0.2, 1j), (0.2, 1000j)], r"tau=1000j takes q\^\(1/8\) or e\^\(2 pi i v\)"),
        ("eq3.5eps", [1j, 0.001j], r"tau=0\.001j takes q\^\(1/8\)"),
        ("eq3.5delta", [1j, complex(0.3, 950.0)], r"tau=\(0\.3\+950j\) takes"),
        # ... or e^(2 pi i v') at v' = v or tau v
        ("eq3.2", [(0.2, 1j), (complex(0.1, 120.0), 1j)], r"tau=1j takes q\^\(1/8\)"),
        ("eq3.3", [(complex(0.2, 0.1), 1j), (complex(0.2, 0.1), 600j)], r"tau=600j takes"),
    ),
)
def test_unusable_tau_rejected_before_any_evaluation(monkeypatch, law, samples, message):
    def refuse(tau, n_terms, half):
        raise AssertionError(f"evaluated at tau={tau}")

    monkeypatch.setattr(thetanum, "_tau_tables", refuse)
    with pytest.raises(ValueError, match=message):
        check_transformation(law, samples)


def test_theta_laws_hold_at_theta_zero():
    # theta(0, tau) = 0 on both sides of eq3.1: two exact zeros agree
    report = check_transformation("eq3.1", [(0.0, 1j), (0j, complex(0.3, 1.2))])
    assert report.residuals == [0.0] * 4


def test_theta_law_residual_is_relative(monkeypatch):
    # at v = 1e-10 theta is about 1e-10: a doubled lhs is off by 1e-10 absolutely
    samples = [(1e-10, 1j), (complex(2e-11, 1e-11), complex(-0.3, 0.8))]
    assert check_transformation("eq3.1", samples).max_residual < 1e-14
    evaluate = thetanum.theta_eval
    monkeypatch.setattr(thetanum, "theta_eval", lambda *args: 2 * evaluate(*args))
    report = check_transformation("eq3.1", samples)
    assert not report.passed and min(report.residuals) > 0.99


def test_epsilon_law_residual_is_relative(monkeypatch):
    # epsilon_2(-1/tau) at tau = 0.05i is about e^(-20 pi) = 5e-28
    assert abs(delta_epsilon_eval("eps2", -1.0 / 0.05j)) < 1e-26
    assert check_transformation("eq3.5eps", [0.05j]).passed
    evaluate = thetanum.delta_epsilon_eval
    monkeypatch.setattr(thetanum, "delta_epsilon_eval",
                        lambda which, tau, n: (2 if which == "eps2" else 1) * evaluate(which, tau, n))
    report = check_transformation("eq3.5eps", [0.05j])
    assert not report.passed and report.residuals[0] > 0.99


@pytest.mark.parametrize("tau", (complex(0.5, 0.5), complex(-0.5, 0.5)))
def test_delta_law_holds_where_delta1_vanishes(tau):
    # delta_1((+-1 + i)/2) = 0, so |rhs| is rounding noise; the nullwert 4th powers are not
    assert abs(delta_epsilon_eval("delta1", tau)) < 1e-15
    assert check_transformation("eq3.5delta", [tau]).max_residual < 1e-14


def test_product_term_cap_matches_product_terms_needed():
    cap = thetanum.MAX_PRODUCT_TERMS
    below, above = (math.log(1e16) / (2 * math.pi * (n + 0.5)) for n in (cap - 1, cap))
    assert thetanum.product_terms_needed(complex(0, below)) == cap
    assert thetanum.product_terms_needed(complex(0, above)) == cap + 1
    # the jet law evaluates no product formula, so it runs up to the cap
    assert check_transformation("eq3.11", [(0, [0.1], complex(0, below))]).passed
    with pytest.raises(ValueError, match="needs more than"):
        check_transformation("eq3.5delta", [complex(0, above)])
    # there q^(1/8) at -1/tau is no normal double: eq3.1-eq3.5 refuse the sample
    with pytest.raises(ValueError, match="outside the normal doubles"):
        check_transformation("eq3.5delta", [complex(0, below)])


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
