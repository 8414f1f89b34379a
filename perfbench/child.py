"""One fresh interpreter of the benchmark: a set-up probe or one cold pass.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; reads its request as JSON on stdin and prints one JSON line.
``t_import`` is taken right after ``import anomform.cli`` on the shared
monotonic clock, so the parent can compute interpreter start plus import.
"""

import time

import anomform.cli  # what every CLI invocation imports

T_IMPORT = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop (machine-speed context)."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 10001):
        acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 1000003, 7)
    return time.perf_counter() - start


def main() -> int:
    request = json.loads(sys.stdin.read())
    src = Path(request["src"]).resolve()
    if Path(anomform.__file__).resolve().parent.parent != src:
        print(f"anomform imported from {anomform.__file__}, not {src}", file=sys.stderr)
        return 2
    out = {"t_import": T_IMPORT}
    if request["mode"] == "probe":
        out["calib_s"] = calibrate()
        print(json.dumps(out))
        return 0

    import workloads
    from tracer import Tracer

    name, inputs = request["workload"], request["inputs"]
    tmp_dir = Path(request["tmp_dir"])
    tracer = None
    if request["traced"]:
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        results = workloads.run_pass(name, inputs, tmp_dir)
        error = None
    except Exception as err:  # a crash is a wrong verdict on every check
        frame = traceback.extract_tb(err.__traceback__)[-1]
        results = []
        error = f"{type(err).__name__}: {err} ({frame.filename}:{frame.lineno})"
    out["wall_s"] = time.perf_counter() - start
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, problems, digest = workloads.check_pass(name, inputs, results)
    if error:
        problems.insert(0, error)
    out.update(attempted=attempted, failed=min(len(problems), attempted),
               problems=problems[:5], digest=digest)
    if name == "verify-all" and not error:
        out["report_bytes"] = (tmp_dir / "verify-all.json").stat().st_size
    if tracer is not None:
        out["trace"] = tracer.summary()
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
