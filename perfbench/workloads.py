"""The four workloads: seeded inputs, one cold pass, and its verdict checks.

``make_inputs`` runs in the benchmark process and turns the seed into plain
JSON inputs.  ``run_pass`` and ``check_pass`` run in a fresh interpreter
(``child.py``); the library sees only the generated inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import answers

NAMES = ("verify-all", "sweep-m4", "routes-m3", "numeric-laws")

# verify all: the CLI's 15 identity-class dimensions (m <= 2), its agw,
# corollary and route dimensions, and its default numeric laws.
VERIFY_ALL_DIMS = tuple(d for d in range(1, 20) if d % 8 not in (0, 4))
VERIFY_ALL_ROUTE_DIMS = (2, 3, 5, 6, 7, 9, 10, 11)
VERIFY_ALL_LAWS = ("eq3.1", "eq3.2", "eq3.3", "eq3.4", "eq3.5delta", "eq3.5eps", "eq3.11")

# The top of the identity sweep that fits a cold pass: b-class m = 3 (weight 7)
# and z-class m = 4 (weight 8).
SWEEP_DIMS = (25, 29)

ROUTE_CASES = (
    [("P2", d, None) for d in (25, 26, 27)]
    + [("P1", d, v) for d in (25, 26, 27) for v in ("half", "full")]
    + [("Q2", d, None) for d in (21, 22, 23)]
    + [("Q1", d, v) for d in (21, 22, 23) for v in ("half", "full")]
)

# numeric laws: (law, m) groups and samples per group
THETA_LAWS = ("eq3.1", "eq3.2", "eq3.3", "eq3.4")
DELTA_EPS_LAWS = ("eq3.5delta", "eq3.5eps")
JET_LAWS = (("eq3.11", 0), ("eq3.11", 1), ("eq3.11", 2), ("eq3.32", 1), ("eq3.32", 2))
THETA_SAMPLES = 1500
DELTA_EPS_SAMPLES = 1500
JET_SAMPLES = 120


def _taus(rng: random.Random, n: int) -> list:
    """n taus, Re in [-0.5, 0.5], Im in [0.5, 2], one per stratum of each axis.

    Stratifying keeps the per-pass cost (the product length grows as Im tau
    falls) nearly the same from seed to seed.
    """
    re_strata = rng.sample(range(n), n)
    im_strata = rng.sample(range(n), n)
    return [
        [-0.5 + (re_strata[i] + rng.random()) / n, 0.5 + 1.5 * (im_strata[i] + rng.random()) / n]
        for i in range(n)
    ]


def make_inputs(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    if name == "verify-all":
        return {"argv": ["verify", "all", "--allow-degenerate"]}
    if name == "sweep-m4":
        return {"dims": rng.sample(SWEEP_DIMS, len(SWEEP_DIMS))}
    if name == "routes-m3":
        return {"cases": rng.sample(ROUTE_CASES, len(ROUTE_CASES))}
    if name == "numeric-laws":
        groups = []
        for law in THETA_LAWS:
            taus = _taus(rng, THETA_SAMPLES)
            vs = [[rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5)] for _ in taus]
            groups.append({"law": law, "samples": [[v, t] for v, t in zip(vs, taus)]})
        for law in DELTA_EPS_LAWS:
            groups.append({"law": law, "samples": _taus(rng, DELTA_EPS_SAMPLES)})
        for law, m in JET_LAWS:
            samples = [
                [m, [rng.uniform(-0.2, 0.2) for _ in range(m + 1)], tau]
                for tau in _taus(rng, JET_SAMPLES)
            ]
            groups.append({"law": law, "m": m, "samples": samples})
        rng.shuffle(groups)
        return {"groups": groups}
    raise ValueError(f"unknown workload {name!r}")


def _numeric_samples(law: str, samples: list) -> list:
    c = lambda pair: complex(*pair)  # noqa: E731
    if law in THETA_LAWS:
        return [(c(v), c(t)) for v, t in samples]
    if law in DELTA_EPS_LAWS:
        return [c(t) for t in samples]
    return [(m, roots, c(t)) for m, roots, t in samples]


def run_pass(name: str, inputs: dict, tmp_dir: Path) -> list:
    """One pass; returns the report objects of every check it ran."""
    from anomform import anomaly, cli, thetanum

    if name == "verify-all":
        out = tmp_dir / "verify-all.json"
        cli.main(inputs["argv"] + ["--out", str(out)])
        return json.loads(out.read_text())["results"]
    if name == "sweep-m4":
        results = []
        for dim in inputs["dims"]:
            results.append(anomaly.verify_decomposition_identity(dim).to_obj())
            results.append(anomaly.verify_main_identity(dim).to_obj())
        return results
    if name == "routes-m3":
        return [
            anomaly.verify_route_equivalence(dim, kind=kind, l_variant=variant or "full").to_obj()
            for kind, dim, variant in inputs["cases"]
        ]
    if name == "numeric-laws":
        return [
            thetanum.check_transformation(
                g["law"], _numeric_samples(g["law"], g["samples"]), tol=answers.NUMERIC_TOL
            ).to_obj()
            for g in inputs["groups"]
        ]
    raise ValueError(f"unknown workload {name!r}")


def _result_key(obj: dict):
    if "law" in obj:
        return ("numeric", obj["law"])
    if "coefficients" in obj:
        return ("corollary", obj.get("fiber_dim"))
    ident = obj.get("identity", "")
    dim = obj.get("fiber_dim")
    if ident in ("eq3.12", "eq3.33"):
        return ("decomposition", dim)
    if ident in ("eq3.14", "eq3.35"):
        return ("main", dim)
    if ident.startswith("eq1."):
        return ("agw", dim)
    if ident.startswith("routes-"):
        return ("routes", dim)
    return ("unknown", ident, dim)


def _verify_all_expected() -> dict:
    expected = {}
    for dim in VERIFY_ALL_DIMS:
        expected[("decomposition", dim)] = lambda o, d=dim: answers.check_decomposition(o, d)
        expected[("main", dim)] = lambda o, d=dim: answers.check_main(o, d)
    for dim in answers.AGW_IDENTITIES:
        expected[("agw", dim)] = lambda o, d=dim: answers.check_agw(o, d)
    for dim in answers.COROLLARY_DIMS:
        expected[("corollary", dim)] = lambda o, d=dim: answers.check_corollary(o, d)
    for dim in VERIFY_ALL_ROUTE_DIMS:
        kind = "P2" if answers.identity_class(dim)[0] == "b" else "Q2"
        expected[("routes", dim)] = lambda o, k=kind: answers.check_route(o, k, None)
    for law in VERIFY_ALL_LAWS:
        expected[("numeric", law)] = lambda o, law=law: answers.check_numeric(o, law)
    return expected


def check_pass(name: str, inputs: dict, results: list):
    """(checks attempted, problems): every verdict against its known answer.

    A missing, duplicated or unexpected result is a wrong verdict, and so is
    an exact payload whose digest differs from the recorded one.
    """
    problems = []
    if name == "verify-all":
        expected = _verify_all_expected()
        seen = {}
        for obj in results:
            key = _result_key(obj)
            if key in seen or key not in expected:
                problems.append(f"{key}: unexpected or duplicated result")
            else:
                seen[key] = obj
        for key, check in expected.items():
            problem = check(seen[key]) if key in seen else "missing"
            if problem:
                problems.append(f"{key}: {problem}")
        attempted = len(expected) + len(results) - len(seen)  # extras count too
    elif name == "sweep-m4":
        attempted = 2 * len(inputs["dims"])
        for i, dim in enumerate(inputs["dims"]):
            for obj, check in zip(results[2 * i : 2 * i + 2],
                                  (answers.check_decomposition, answers.check_main)):
                problem = check(obj, dim)
                if problem:
                    problems.append(f"dim {dim}: {problem}")
    elif name == "routes-m3":
        attempted = len(inputs["cases"])
        for obj, (kind, dim, variant) in zip(results, inputs["cases"]):
            problem = answers.check_route(obj, kind, variant)
            if problem:
                problems.append(f"{kind} dim {dim} {variant}: {problem}")
    else:
        attempted = len(inputs["groups"])
        for obj, group in zip(results, inputs["groups"]):
            problem = answers.check_numeric(obj, group["law"])
            if problem:
                problems.append(f"{group['law']} m={group.get('m')}: {problem}")
    if name != "verify-all":
        problems += ["missing result"] * (attempted - len(results))
    want = answers.DIGESTS.get(name)
    digest = answers.payload_digest(results)
    if want is not None:
        attempted += 1
        if digest != want:
            problems.append(f"exact payload digest {digest[:16]} != recorded {want[:16]}")
    return attempted, problems, digest
