"""In-process memos: fresh-build values, bounded builds and solves, no caller mutates them."""

import json
from collections import Counter

import pytest

from anomform import anomaly, cli, genera, modforms, witten
from anomform.anomaly import ROUTE_KTHEORY, ROUTE_THETA, identity_profile, verify_route_equivalence
from anomform.genera import AHAT, L_FULL, L_HALF, genus_pair_log
from anomform.qseries import HalfQSeries
from anomform.witten import THETA1, THETA2, build_theta_bundle, theta_bundle


def count_builds(monkeypatch) -> Counter:
    """Count the real theta-bundle builds per (kind, profile) from now on."""
    builds = Counter()
    original = witten.build_theta_bundle

    def counted(kind, profile, order2):
        builds[kind, profile] += 1
        return original(kind, profile, order2)

    monkeypatch.setattr(witten, "build_theta_bundle", counted)
    return builds


@pytest.mark.parametrize("kind", (THETA1, THETA2))
@pytest.mark.parametrize("orders, n_builds", (((5, 9, 7), 2), ((9, 5), 1)))
def test_memo_matches_fresh_build(clear_memos, monkeypatch, kind, orders, n_builds):
    profile = identity_profile(10)
    builds = count_builds(monkeypatch)
    for order2 in orders:
        got = theta_bundle(kind, profile, order2)
        assert got.series.order2 == order2
        assert got == build_theta_bundle(kind, profile, order2)
    # a larger request rebuilds once; a smaller one only truncates
    assert builds == {(kind, profile): n_builds}


def test_verify_all_builds_each_bundle_once(clear_memos, monkeypatch, tmp_path):
    builds = count_builds(monkeypatch)
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert builds and set(builds.values()) == {1}


def count_calls(monkeypatch, counts: Counter, module, name: str) -> None:
    """Count the calls made through `module`.`name` from now on."""
    original = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_verify_all_solves_each_decomposition_once(clear_memos, monkeypatch, tmp_path):
    counts = Counter()
    count_calls(monkeypatch, counts, anomaly, "decompose_theta2")
    count_calls(monkeypatch, counts, anomaly, "basis_decompose")
    count_calls(monkeypatch, counts, modforms, "_solve")
    count_calls(monkeypatch, counts, witten, "build_theta_bundle")
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    # one Theta_2 solve and one eq3.12/eq3.33 decomposition per identity
    # class (dim 1, b at m = 0, 1, 2 and z at m = 1, 2), read by its 15
    # decomposition, main and corollary checks; each solve is one _solve
    assert counts == {
        "decompose_theta2": 6, "basis_decompose": 6, "_solve": 12, "build_theta_bundle": 6,
    }
    counts.clear()
    assert cli.main(argv) == 0  # the second run finds every class in the memos
    assert counts == {}


def _empty_every_container(obj) -> None:
    """Empty every list and dict reachable from obj."""
    for value in obj.values() if isinstance(obj, dict) else obj:
        if isinstance(value, (list, dict)):
            _empty_every_container(value)
    obj.clear()


def test_a_mutated_report_changes_no_later_report(clear_memos, monkeypatch):
    # the last b_r off by one, so the eq3.12 residuals carry serialised classes
    original = anomaly.decompose_theta2

    def shifted(*args):
        xs = original(*args)
        return xs[:-1] + (xs[-1] + 1,)

    monkeypatch.setattr(anomaly, "decompose_theta2", shifted)
    checks = (anomaly.verify_decomposition_identity, anomaly.verify_main_identity)
    dims = (9, 10, 11)
    first = [check(dim) for dim in dims for check in checks]
    expected = json.loads(json.dumps([report.to_obj() for report in first]))
    assert first[0].residuals[0]["basis"] and first[0].lhs and first[1].rhs
    for report in first:
        for field in (report.residuals, report.lhs, report.rhs):
            _empty_every_container(field)
    assert [check(dim).to_obj() for dim in dims for check in checks] == expected


def test_decomposition_memo_keys_on_the_q_order(clear_memos, monkeypatch):
    # the theta-route P_2 poisoned at exp2 8: past dim 10's class order 7,
    # inside the q-order 9
    original = anomaly.p_form

    def poisoned(kind, profile, route=ROUTE_KTHEORY, l_variant=L_FULL, order2=None):
        series = original(kind, profile, route, l_variant, order2)
        if route != ROUTE_THETA or series.order2 <= 8:
            return series
        return series + HalfQSeries(series.ring, {8: series.coefficient(0)}, series.order2)

    monkeypatch.setattr(anomaly, "p_form", poisoned)
    assert anomaly.verify_decomposition_identity(10).status == "pass"
    raised = anomaly.verify_decomposition_identity(11, order2=9)
    assert (raised.status, [r["exp2"] for r in raised.residuals]) == ("fail", [8])
    assert anomaly.verify_decomposition_identity(9).status == "pass"


def test_verify_all_builds_each_matrix_and_bernoulli_number_once(clear_memos, tmp_path):
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    counts = []
    for _ in range(2):  # the second run finds every constant in the memos
        assert cli.main(argv) == 0
        counts.append((modforms._combination_matrix.cache_info(), genera._bernoulli.cache_info()))
    (matrices, bernoulli), (matrices_again, bernoulli_again) = counts
    # one combination matrix per decomposition weight, b: 4m+2 = 2, 6, 10 and
    # z: 4m = 4, 8, read by the 6 class decompositions and the 6 solves
    assert (matrices.misses, matrices.currsize, matrices.hits) == (5, 5, 7)
    # B_0..B_10, for the largest identity weight 5, each computed once
    assert (bernoulli.misses, bernoulli.currsize) == (11, 11)
    assert (matrices_again.misses, bernoulli_again.misses) == (5, 11)


def test_bernoulli_numbers_are_shared_by_every_genus(clear_memos):
    genus_pair_log(AHAT, 5)
    assert genera._bernoulli.cache_info().misses == 11
    genus_pair_log(L_FULL, 5)
    genus_pair_log(L_HALF, 3)
    assert genera._bernoulli.cache_info().misses == 11


def test_combination_matrix_is_fresh_per_call(clear_memos):
    first = modforms.combination_matrix(10)
    expected = [list(row) for row in first]
    first[0][0] += 1
    first.pop()
    assert modforms.combination_matrix(10) == expected
    assert modforms._combination_matrix.cache_info().misses == 1


def test_verify_all_computes_each_series_once(clear_memos, tmp_path):
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    # one theta-route P2/Q2 series per class (6, shared by the decomposition
    # and route checks at the class order) plus the K-theory route of the
    # classes the route checks cover: b m=0, b m=1, z m=1
    assert anomaly.p_form.cache_info().misses == 9


def test_routes_and_decomposition_share_the_class_order(clear_memos, tmp_path):
    assert cli.main(["verify", "routes", "--dim", "10", "--out", str(tmp_path / "r.json")]) == 0
    misses = anomaly.p_form.cache_info().misses
    assert anomaly.verify_decomposition_identity(10).status == "pass"
    # both read the theta-route P2 series at the class order 2m+5 = 7
    assert anomaly.p_form.cache_info().misses == misses


def test_second_verify_all_is_byte_identical(clear_memos, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    argv = ["verify", "all", "--allow-degenerate", "--out"]
    assert cli.main(argv + [str(first)]) == 0
    assert cli.main(argv + [str(second)]) == 0  # every artifact from the memos
    assert first.read_bytes() == second.read_bytes()


def test_route_cases_compute_each_series_once(clear_memos):
    # the routes-m3 case list one class lower: 18 checks over 2 classes
    cases = [("P2", d, "full") for d in (9, 10, 11)] + [("Q2", d, "full") for d in (5, 6, 7)]
    cases += [(k, d, v) for k, dims in (("P1", (9, 10, 11)), ("Q1", (5, 6, 7)))
              for d in dims for v in ("half", "full")]
    for kind, dim, variant in cases:
        verify_route_equivalence(dim, kind=kind, l_variant=variant)
    # one series per class, kind, route and L variant: 2 for P2/Q2, 4 for P1/Q1 each
    assert anomaly.p_form.cache_info().misses == 12
