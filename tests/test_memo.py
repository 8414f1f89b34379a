"""In-process memos: fresh-build values, bounded builds and solves, no caller mutates them."""

from collections import Counter

import pytest

from anomform import cli, modforms, witten
from anomform.anomaly import identity_profile
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


def test_verify_all_builds_each_bundle_at_most_twice(clear_memos, monkeypatch, tmp_path):
    builds = count_builds(monkeypatch)
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert builds and max(builds.values()) <= 2


def test_verify_all_solves_each_decomposition_once(clear_memos, tmp_path):
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    # decomposition, main and corollary checks share one solve per profile
    assert modforms.decompose_theta2.cache_info().misses == len(cli.SWEEP_DIMENSIONS)


def test_second_verify_all_is_byte_identical(clear_memos, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    argv = ["verify", "all", "--allow-degenerate", "--out"]
    assert cli.main(argv + [str(first)]) == 0
    assert cli.main(argv + [str(second)]) == 0  # every artifact from the memos
    assert first.read_bytes() == second.read_bytes()
