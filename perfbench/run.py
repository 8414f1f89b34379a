"""anomform benchmark: cold-process passes, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh interpreter (``child.py``), so module-level
caches start empty as they do for a user.  A run interleaves set-up probes
(interpreter start plus ``import anomform.cli``, then a fixed Fraction loop
that records machine speed) with workload passes, in an order drawn from the
seed, until ``--seconds`` is spent.  Every verdict is checked against its
known answer (``answers.py``).

``--trace 0`` prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb
and wrong_verdicts.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics of ``metrics.py``.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import metrics
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
MIN_PASSES = 2  # untraced passes per run, even past the deadline
MIN_SETUP_SAMPLES = 12
RUN_LIMIT_S = 170  # a hung child is killed so that a run ends within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong verdict)."""


def spawn(request: dict, env: dict, run_start: float) -> dict:
    """Run one child; adds setup_s (spawn to import done)."""
    request = dict(request, src=str(SRC))
    t_spawn = time.perf_counter()
    timeout = max(1.0, RUN_LIMIT_S - (t_spawn - run_start))
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a child was still running {RUN_LIMIT_S} s into the run") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["t_import"] - t_spawn
    return out


def summarize(values: list) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples above."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        out["tail_pct"] = int(100 * (n - 10) / n)
        out["tail"] = ordered[n - 11]
    return out


def describe(label: str, stats: dict, unit: str) -> str:
    text = f"{label:<14} median {stats['median']:.4f} {unit}"
    if "q1" in stats:
        text += f"  q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}"
    if "tail" in stats:
        text += f"  p{stats['tail_pct']} {stats['tail']:.4f}"
    else:
        text += "  (tail percentile needs >= 11 samples)"
    return text + f"  n={stats['n']}"


def basis_monomials(profiles: list) -> int:
    """p-monomials of weight <= max_weight in n_pairs classes, summed (computed)."""
    total = 0
    for fiber_dim, max_form_degree in profiles:
        n_pairs, w_max = fiber_dim // 2, max_form_degree // 4
        ways = [1] + [0] * w_max  # partitions of w into parts <= n_pairs
        for part in range(1, n_pairs + 1):
            for w in range(part, w_max + 1):
                ways[w] += ways[w - part]
        total += sum(ways)
    return total


def layer_metrics(traced: list, untraced_walls: list) -> dict:
    first = traced[0]["trace"]
    calls, keys = first["calls"], first["distinct_keys"]

    def median_of(kind, layer):
        return statistics.median(t["trace"][kind][layer] for t in traced)

    def reuse(layer):
        return keys[layer] / calls[layer] if calls[layer] else 0.0

    values = {
        "chroot.basis_monomials": basis_monomials(first["profiles"]),
        "witten.theta_bundle.reuse": reuse("witten.theta_bundle"),
        "modforms.modular_basis.reuse": reuse("modforms.modular_basis"),
        "cli.report_bytes": traced[0].get("report_bytes", 0),
        "trace.overhead_s": statistics.median(t["wall_s"] for t in traced)
        - statistics.median(untraced_walls),
    }
    for name, _, _ in metrics.PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in values:
            continue
        values[name] = calls[layer] if kind == "calls" else median_of(kind, layer)
    return values


def run(args) -> dict:
    run_start = time.perf_counter()
    if not (SRC / "anomform" / "__init__.py").is_file():
        raise BenchError(f"no anomform sources under {SRC}")
    rng = random.Random(f"order:{args.seed}")
    inputs = workloads.make_inputs(args.workload, args.seed)
    tmp_dir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pass_request = {"mode": "pass", "workload": args.workload, "inputs": inputs,
                    "tmp_dir": str(tmp_dir), "traced": False}
    spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
    if args.trace:
        spans_path.parent.mkdir(exist_ok=True)
    probes, passes, traced = [], [], []
    try:
        spawn({"mode": "probe"}, env, run_start)  # writes bytecode caches; not a sample
        start = time.perf_counter()
        deadline = start + args.seconds
        slot_s = 0.0
        while len(passes) < (1 if args.trace else MIN_PASSES) or (
            time.perf_counter() + slot_s <= deadline
        ):
            slot = ["probe", "pass"] + (["traced"] if args.trace else [])
            rng.shuffle(slot)
            slot_start = time.perf_counter()
            for kind in slot:
                if kind == "probe":
                    probes.append(spawn({"mode": "probe"}, env, run_start))
                elif kind == "pass":
                    passes.append(spawn(pass_request, env, run_start))
                else:
                    traced.append(spawn(dict(pass_request, traced=True,
                                             spans_path=str(spans_path)), env, run_start))
            slot_s = time.perf_counter() - slot_start
        while len(probes) + len(passes) < MIN_SETUP_SAMPLES:
            probes.append(spawn({"mode": "probe"}, env, run_start))
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    outs = passes + traced
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    wall = summarize([o["wall_s"] for o in passes])
    setup = summarize([o["setup_s"] for o in probes + passes])
    rss = summarize([o["rss_mb"] for o in passes])
    calib = summarize([o["calib_s"] for o in probes])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  measured {elapsed:.1f} s")
    print(f"machine        Fraction loop median {calib['median']:.4f} s  "
          f"min {min(o['calib_s'] for o in probes):.4f}  "
          f"max {max(o['calib_s'] for o in probes):.4f}  n={calib['n']}  (context, not a metric)")
    print(describe("wall_s", wall, "s"))
    print("  passes (s):", " ".join(f"{o['wall_s']:.3f}" for o in passes))
    print(describe("setup_s", setup, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    print(f"{'wrong_verdicts':<14} {failed / attempted:.4f} share  "
          f"({failed} of {attempted} checks over {len(outs)} passes)")
    digests = sorted({o["digest"] for o in outs})
    print(f"{'exact digest':<14} {', '.join(d[:16] for d in digests)}"
          + ("" if args.workload in answers.DIGESTS else "  (not pinned)"))
    for problem in sorted({p for o in outs for p in o["problems"]})[:10]:
        print(f"  wrong: {problem}")

    if not args.trace:
        values = {"wall_s": wall["median"], "setup_s": setup["median"],
                  "peak_rss_mb": rss["median"]}
        units = dict(metrics.END_TO_END)
    else:
        values = layer_metrics(traced, [o["wall_s"] for o in passes])
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        repeat = all(t["trace"]["calls"] == traced[0]["trace"]["calls"] for t in traced)
        print(f"traced passes {len(traced)}  untraced passes {len(passes)}  "
              f"checks/pass {traced[0]['trace']['checks']}  "
              f"spans/pass {traced[0]['trace']['spans']}  exact counts repeat: {repeat}  "
              f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
        for name, unit, prediction in metrics.PER_LAYER:
            print(f"  {name:<34} {values[name]:>14.6g} {unit:<6} -> {prediction}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
