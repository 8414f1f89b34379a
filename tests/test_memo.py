"""In-process memos: fresh-build values, bounded builds and solves, no caller mutates them."""

import json
from collections import Counter

import pytest

from anomform import anomaly, cli, genera, modforms, witten
from anomform.anomaly import ROUTE_KTHEORY, ROUTE_THETA, identity_profile, verify_route_equivalence
from anomform.chroot import RootProfile
from anomform.genera import AHAT, L_FULL, L_HALF, genus_pair_log
from anomform.qseries import HalfQSeries
from anomform.witten import THETA1, THETA2, build_theta_bundle, theta_bundle


def count_builds(monkeypatch) -> Counter:
    """Count the real theta-bundle builds per (kind, profile) from now on."""
    builds = Counter()
    original = witten.build_theta_bundle

    def counted(kind, profile, order2, **kwargs):
        builds[kind, profile] += 1
        return original(kind, profile, order2, **kwargs)

    monkeypatch.setattr(witten, "build_theta_bundle", counted)
    return builds


def count_factor_builds(monkeypatch) -> Counter:
    """Count the S_t and Lambda_t factor builds per (name, profile, t_sign, t_exp2) from now on."""
    factors = Counter()
    for name in ("s_t_character", "lambda_t_character"):

        def counted(profile, t_sign, t_exp2, order2, name=name, original=getattr(witten, name)):
            factors[name, profile, t_sign, t_exp2] += 1
            return original(profile, t_sign, t_exp2, order2)

        monkeypatch.setattr(witten, name, counted)
    return factors


def factor_totals(factors: Counter) -> dict:
    """Factor builds per factor name."""
    totals = Counter()
    for (name, *_), n in factors.items():
        totals[name] += n
    return dict(totals)


@pytest.mark.parametrize("kind", (THETA1, THETA2))
@pytest.mark.parametrize("orders, n_builds", (((5, 9, 7), 2), ((9, 5), 1)))
def test_memo_matches_fresh_build(clear_memos, monkeypatch, kind, orders, n_builds):
    profile = identity_profile(10)
    builds = count_builds(monkeypatch)
    factors = count_factor_builds(monkeypatch)
    got = [theta_bundle(kind, profile, order2) for order2 in orders]
    # a larger request rebuilds once, with its S and Lambda factors; a
    # smaller one only truncates.  At order2 5 and 9 either kind has 2 and 4
    # S factors (exp2 2, 4, ...) and as many Lambda factors
    assert builds == {(kind, profile): n_builds}
    n_factors = {(5, 9, 7): 2 + 4, (9, 5): 4}[orders]
    assert factor_totals(factors) == {"s_t_character": n_factors, "lambda_t_character": n_factors}
    for bundle, order2 in zip(got, orders):
        assert bundle.series.order2 == order2
        assert bundle == build_theta_bundle(kind, profile, order2)


# (kind, order2) requests: either kind first, higher orders after lower ones and lower after higher
REQUESTS = {
    "theta1-first": [(THETA1, 7), (THETA2, 7)],
    "theta2-first": [(THETA2, 7), (THETA1, 7)],
    "higher-later": [(THETA2, 5), (THETA1, 9), (THETA2, 9), (THETA1, 7)],
    "lower-later": [(THETA2, 9), (THETA1, 2), (THETA1, 9)],
}
# the orders the shared S half is built at, and whether the memo holds it after each request
HALVES = {
    "theta1-first": ([7], [True, False]),
    "theta2-first": ([7], [True, False]),
    "higher-later": ([5, 9], [True, True, False, False]),
    "lower-later": ([9], [True, True, False]),
}


@pytest.mark.parametrize("name", REQUESTS)
@pytest.mark.parametrize(
    "profile",
    (identity_profile(10), identity_profile(25), RootProfile(3, 12)),
    ids=("dim10", "dim25-zero-root", "unstable-3-12"),
)
def test_both_kinds_share_one_symmetric_half(clear_memos, monkeypatch, profile, name):
    factors = count_factor_builds(monkeypatch)
    got, held = [], []
    for kind, order2 in REQUESTS[name]:
        got.append(theta_bundle(kind, profile, order2))
        held.append(profile in witten._THETA_MEMO)
    half_orders, expected_held = HALVES[name]
    # each S factor is built once per order the half is built at, whichever
    # kind asked first; the half leaves the memo once both kinds are held at
    # its order or above
    s_builds = {key[3]: n for key, n in factors.items() if key[0] == "s_t_character"}
    assert s_builds == Counter(e for o in half_orders for e in range(2, o, 2))
    assert held == expected_held
    for bundle, (kind, order2) in zip(got, REQUESTS[name]):
        assert bundle == build_theta_bundle(kind, profile, order2)


def test_verify_all_builds_each_bundle_once(clear_memos, monkeypatch, tmp_path):
    builds = count_builds(monkeypatch)
    factors = count_factor_builds(monkeypatch)
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert builds and set(builds.values()) == {1}
    # and every factor of every bundle once
    assert factors and set(factors.values()) == {1}


def count_calls(monkeypatch, counts: Counter, module, name: str) -> None:
    """Count the calls made through `module`.`name` from now on."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_verify_all_solves_each_decomposition_once(clear_memos, monkeypatch, tmp_path):
    counts = Counter()
    count_calls(monkeypatch, counts, anomaly, "decompose_theta2")
    count_calls(monkeypatch, counts, anomaly, "basis_decompose")
    count_calls(monkeypatch, counts, modforms, "_solve")
    count_calls(monkeypatch, counts, witten, "build_theta_bundle")
    count_calls(monkeypatch, counts, witten, "s_t_character")
    count_calls(monkeypatch, counts, witten, "lambda_t_character")
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    # one Theta_2 solve and one eq3.12/eq3.33 decomposition per identity
    # class (dim 1, b at m = 0, 1, 2 and z at m = 1, 2), read by its 15
    # decomposition, main and corollary checks; each solve is one _solve.
    # The solves read the summed Theta_2: only the K-theory route of the
    # classes b m=0, z m=1 and b m=1 builds a bundle, Theta_2 at order2 5,
    # 7 and 7, with 2 + 3 + 3 S factors and as many Lambda factors
    assert counts == {
        "decompose_theta2": 6, "basis_decompose": 6, "_solve": 12, "build_theta_bundle": 3,
        "s_t_character": 8, "lambda_t_character": 8,
    }
    counts.clear()
    assert cli.main(argv) == 0  # the second run finds every class in the memos
    assert counts == {}


def test_main_then_routes_builds_theta2_once(clear_memos, monkeypatch):
    orders = []
    original = witten.build_theta_bundle

    def recorded(kind, profile, order2, **kwargs):
        orders.append((kind, order2))
        return original(kind, profile, order2, **kwargs)

    monkeypatch.setattr(witten, "build_theta_bundle", recorded)
    factors = count_factor_builds(monkeypatch)
    assert anomaly.verify_main_identity(10).status == "pass"
    assert verify_route_equivalence(10).status == "pass"
    # the solve reads the summed Theta_2; the K-theory route builds at 2m+5,
    # each of its S and Lambda_(-q^(n-1/2)) factors once
    assert orders == [(THETA2, 7)]
    assert sorted((key[0], key[3]) for key in factors) == [
        ("lambda_t_character", 1), ("lambda_t_character", 3), ("lambda_t_character", 5),
        ("s_t_character", 2), ("s_t_character", 4), ("s_t_character", 6),
    ]
    assert set(factors.values()) == {1}


def test_decompose_theta2_builds_no_bundle(clear_memos, monkeypatch):
    counts = Counter()
    count_calls(monkeypatch, counts, witten, "build_theta_bundle")
    count_calls(monkeypatch, counts, witten, "theta_bundle")
    count_calls(monkeypatch, counts, witten, "s_t_character")
    count_calls(monkeypatch, counts, witten, "lambda_t_character")
    for dim in (1, 2, 6, 10, 25):
        modforms.decompose_theta2(modforms.identity_parameters(dim)[1], anomaly._class_profile(dim))
    assert counts == {}


def test_verify_all_computes_each_corollary_class_once(clear_memos, tmp_path):
    argv = ["verify", "all", "--allow-degenerate", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    # 9 corollary dimensions over 4 classes: dim 1, b at m = 0 and 1, z at m = 1
    info = anomaly._corollary_class.cache_info()
    assert (info.misses, info.hits) == (4, 5)


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
