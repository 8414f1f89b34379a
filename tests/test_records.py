"""The library's seven record classes: construction, equality, hashing, immutability.

RootProfile keys every memo, so its equality, hash and repr are pinned
exactly; the other records compare field by field, and only with their own
class.
"""

import re
from fractions import Fraction

import pytest

from anomform.anomaly import (
    CorollaryVector,
    IdentityClass,
    IdentityReport,
    _class_profile,
    corollary_coefficients,
    identity_class,
)
from anomform.chroot import GradedClass, GradedRing, RootProfile
from anomform.cli import RunConfig
from anomform.qseries import HalfQSeries
from anomform.thetanum import NumericCheckReport
from anomform.witten import THETA1, THETA2, ThetaBundleSeries, build_theta_bundle


def test_root_profile_equality_hash_and_repr():
    profile = RootProfile(3, 12)
    assert profile == RootProfile(fiber_dim=3, max_form_degree=12)
    assert profile != RootProfile(3, 8) and profile != RootProfile(5, 12)
    assert profile != (3, 12) and (3, 12) != profile
    assert hash(profile) == hash((3, 12))
    assert {RootProfile(3, 12): "x"}[profile] == "x"
    assert repr(profile) == "RootProfile(fiber_dim=3, max_form_degree=12)"
    assert (profile.n_pairs, profile.has_zero_root, profile.max_weight) == (1, True, 3)


def test_root_profile_is_immutable():
    profile = RootProfile(3, 12)
    with pytest.raises(AttributeError):
        profile.fiber_dim = 5
    with pytest.raises(AttributeError):
        profile.extra = 1
    with pytest.raises(AttributeError):
        del profile.max_form_degree
    assert profile == RootProfile(3, 12)


@pytest.mark.parametrize(
    "args, message",
    (
        ((0, 4), "fiber_dim must be positive"),
        ((3, -2), "max_form_degree must be a non-negative even integer"),
        ((3, 5), "max_form_degree must be a non-negative even integer"),
    ),
)
def test_root_profile_rejects_bad_fields(args, message):
    with pytest.raises(ValueError, match=message):
        RootProfile(*args)


def test_theta_bundle_series_compares_field_by_field():
    profile = RootProfile(2, 4)
    bundle = build_theta_bundle(THETA2, profile, 6)
    assert bundle == build_theta_bundle(THETA2, RootProfile(2, 4), 6)
    assert bundle == ThetaBundleSeries(kind=THETA2, profile=profile, series=bundle.series)
    assert bundle != build_theta_bundle(THETA1, profile, 6)
    assert bundle != bundle.truncate(4)
    assert bundle != (THETA2, profile, bundle.series)
    with pytest.raises(AttributeError):
        bundle.kind = THETA1
    with pytest.raises(AttributeError):
        del bundle.series


def test_identity_class_is_shared_compares_field_by_field_and_is_immutable():
    profile = _class_profile(11)
    record = identity_class(profile)
    assert record is identity_class(_class_profile(9))  # one record per class
    assert record == IdentityClass(profile)
    assert (record.case, record.m, record.degree, record.kind) == ("b", 1, 12, "P2")
    assert (record.decomposition_id, record.main_id) == ("eq3.12", "eq3.14")
    assert len(record.brs) == len(record.hs) == 2 and isinstance(record.hs, tuple)
    assert record != IdentityClass(_class_profile(13))
    with pytest.raises(AttributeError):
        record.hs = ()
    with pytest.raises(AttributeError):
        del record.rhs


@pytest.mark.parametrize(
    "kind, terms, message",
    (
        (THETA2, "zero", "theta bundle must start with the trivial line at q^0"),
        (THETA1, "odd", "Theta_1 is supported on integer q-powers"),
        (THETA2, "half", "virtual rank 1/2 is not an integer"),
    ),
)
def test_theta_bundle_series_validation_messages(kind, terms, message):
    profile = RootProfile(2, 4)
    one = GradedClass.one(profile)
    rest = {
        "zero": [(0, GradedClass.zero(profile))],
        "odd": [(0, one), (1, one)],
        "half": [(0, one), (2, GradedClass.constant(profile, Fraction(1, 2)))],
    }[terms]
    series = HalfQSeries.from_terms(GradedRing(profile), rest, 4)
    with pytest.raises(ValueError, match=re.escape(message)):
        ThetaBundleSeries(kind, profile, series)


def test_corollary_vector_compares_field_by_field():
    vector = corollary_coefficients(6)
    assert vector == CorollaryVector(6, vector.coefficients)
    assert vector == CorollaryVector(fiber_dim=6, coefficients=vector.coefficients)
    assert vector != CorollaryVector(2, vector.coefficients)
    assert vector != (6, vector.coefficients)
    assert hash(vector) == hash(CorollaryVector(6, tuple(vector.coefficients)))
    assert vector.basis == CorollaryVector.basis == ("signature-twist", "TCZ-twist", "trivial-twist")
    with pytest.raises(AttributeError):
        vector.coefficients = ()


def identity_report(**changes):
    fields = dict(identity="eq3.12", fiber_dim=9, m=1, l_variant=None, route=None,
                  lambda_measured=Fraction(1), paper_ratio=Fraction(1),
                  residuals=["0"], status="pass")
    fields.update(changes)
    return IdentityReport(**fields)


def test_identity_report_construction_and_equality():
    report = identity_report()
    positional = IdentityReport("eq3.12", 9, 1, None, None, Fraction(1), Fraction(1), ["0"], "pass")
    assert report == positional
    assert (report.lhs, report.rhs) == ([], [])
    assert report != identity_report(status="fail")
    assert report != identity_report(lhs=["1"])
    assert identity_report(lhs=["1"], rhs=["2"]) == IdentityReport(
        "eq3.12", 9, 1, None, None, Fraction(1), Fraction(1), ["0"], "pass", ["1"], ["2"])
    assert report != report.to_obj()
    with pytest.raises(TypeError):
        hash(report)


def test_identity_report_lists_are_fresh_per_instance():
    first, second = identity_report(), identity_report()
    assert first.lhs is not second.lhs and first.rhs is not second.rhs
    first.lhs.append("1")
    first.rhs.append("2")
    assert (second.lhs, second.rhs) == ([], [])
    assert identity_report().lhs == []


def test_numeric_check_report_compares_field_by_field():
    report = NumericCheckReport("eq3.5delta", [{"tau": "1j"}], [1e-12], 1e-9, None)
    same = NumericCheckReport(law="eq3.5delta", samples=[{"tau": "1j"}], residuals=[1e-12],
                              tolerance=1e-9, n_terms=None)
    assert report == same
    assert report != NumericCheckReport("eq3.5delta", [{"tau": "1j"}], [1e-12], 1e-9, 40)
    assert (report.passed, report.max_residual) == (True, 1e-12)
    report.residuals.append(1.0)
    assert report != same and not report.passed
    with pytest.raises(TypeError):
        hash(report)


def test_run_config_defaults_and_equality():
    config = RunConfig()
    assert (config.q_order2, config.max_form_degree, config.tolerance) == (None, None, 1e-9)
    assert (config.l_variant, config.out_format, config.out_path) == ("full", "json", None)
    assert (config.allow_degenerate, config.given) == (False, set())
    assert config == RunConfig()
    assert RunConfig(6, 8, 1e-6, "half") == RunConfig(q_order2=6, max_form_degree=8,
                                                     tolerance=1e-6, l_variant="half")
    assert config != RunConfig(given={"tol"})
    config.tolerance = 1e-3
    assert config.tolerance == 1e-3 and config != RunConfig()


def test_run_config_given_is_fresh_per_instance():
    assert RunConfig().given is not RunConfig().given
    first = RunConfig()
    first.given.add("tol")
    assert RunConfig().given == set()
