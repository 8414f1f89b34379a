"""In-process memos: fresh-build values, bounded builds and solves, no caller mutates them."""

from collections import Counter

import pytest

from anomform import anomaly, cli, genera, modforms, witten
from anomform.anomaly import identity_profile, verify_route_equivalence
from anomform.genera import AHAT, L_FULL, L_HALF, genus_pair_log
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


def test_verify_all_solves_each_decomposition_once(clear_memos, tmp_path):
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    # decomposition, main and corollary checks share one solve per identity
    # class: dim 1, b at m = 0, 1, 2 and z at m = 1, 2
    assert modforms.decompose_theta2.cache_info().misses == 6


def test_verify_all_builds_each_matrix_and_bernoulli_number_once(clear_memos, tmp_path):
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    counts = []
    for _ in range(2):  # the second run finds every constant in the memos
        assert cli.main(argv) == 0
        counts.append((modforms._combination_matrix.cache_info(), genera._bernoulli.cache_info()))
    (matrices, bernoulli), (matrices_again, bernoulli_again) = counts
    # one combination matrix per decomposition weight, b: 4m+2 = 2, 6, 10 and
    # z: 4m = 4, 8, read by the 15 decomposition checks and the 6 solves
    assert (matrices.misses, matrices.currsize, matrices.hits) == (5, 5, 16)
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
