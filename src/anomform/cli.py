"""Command-line front end: expand | decompose | verify | report.

Exact series are printed (or written) as JSON wrapped in a versioned
envelope; verification suites exit 0 only when every check passes
(degenerate-zero results count as passes only under --allow-degenerate)
and 1 when one fails.  Exit code 2 flags usage errors and unreadable or
unwritable files, 3 an internal fault (an exact computation raised
ArithmeticError, TruncationError or SpanError; its traceback goes to
stderr).  Checks run serially in one process and share its memos (bundles,
bases, genera, series and each class's ``anomaly.identity_class`` record),
so each exact artifact is built once per identity class and run.  Every
exact check of a class reads its series at one truncation: --q-order, else
the class order 2m+5.  A verify option that none of the requested suites
reads, as a flag or a config key, is a usage error.  So is a report file
whose entries do not score or render as results.

q-orders on the command line are in doubled exponent units (the exp2 of
q^(exp2/2)) and are exclusive bounds, matching the series representation.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

from . import anomaly, modforms, thetanum
from .anomaly import COROLLARY_DIMENSIONS, identity_profile
from .chroot import GradedClass
from .genera import normalize_l_variant
from .modforms import SpanError, decomposition_case, identity_parameters
from .qseries import Record, TruncationError, series_text
from .witten import THETA1, THETA2, theta_bundle

REPORT_VERSION = 1

B_DIMENSIONS = (1, 2, 3, 9, 10, 11, 17, 18, 19)
Z_DIMENSIONS = (5, 6, 7, 13, 14, 15)
SWEEP_DIMENSIONS = B_DIMENSIONS + Z_DIMENSIONS
NUMERIC_SEED = 20260808


class UsageError(ValueError):
    """Bad parameters: exit code 2."""


class RunConfig(Record):
    def __init__(self, q_order2: int | None = None, max_form_degree: int | None = None,
                 tolerance: float = 1e-9, l_variant: str = "full", out_format: str = "json",
                 out_path: str | None = None, allow_degenerate: bool = False,
                 given: set | None = None):
        self.q_order2 = q_order2
        self.max_form_degree = max_form_degree
        self.tolerance = tolerance
        self.l_variant = l_variant
        self.out_format = out_format
        self.out_path = out_path
        self.allow_degenerate = allow_degenerate
        self.given = set() if given is None else given  # keys set by a flag or the config file

    def to_obj(self) -> dict:
        return {
            "q_order": self.q_order2,
            "max_degree": self.max_form_degree,
            "tol": self.tolerance,
            "l_variant": self.l_variant,
            "format": self.out_format,
        }


def read_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments ignored."""
    values = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = {
    "q_order": ("q_order2", int),
    "max_degree": ("max_form_degree", int),
    "tol": ("tolerance", float),
    "l_variant": ("l_variant", str),
    "format": ("out_format", str),
    "out": ("out_path", str),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        for key, raw in read_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            attr, cast = _CONFIG_KEYS[key]
            setattr(config, attr, cast(raw))
            config.given.add(key)
    for key, (attr, _) in _CONFIG_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, attr, value)
            config.given.add(key)
    config.allow_degenerate = bool(getattr(args, "allow_degenerate", False))
    config.l_variant = normalize_l_variant(config.l_variant)
    if config.out_format not in ("json", "table"):
        raise UsageError(f"unknown format {config.out_format!r} (use 'json' or 'table')")
    if not math.isfinite(config.tolerance):
        raise UsageError("tolerance must be finite")
    if config.tolerance <= 0:
        raise UsageError("tolerance must be positive")
    if config.q_order2 is not None and config.q_order2 < 1:
        raise UsageError("q-order must be at least 1")
    return config


# -- command implementations ---------------------------------------------------


def _character_obj(g: GradedClass, label: str) -> dict:
    """A virtual character as {rank, form, label}; the rank is g's constant term."""
    return {
        "rank": int(g.constant_term()),
        "form": g.positive_part().to_obj(),
        "label": label,
    }


def cmd_expand(args: argparse.Namespace, config: RunConfig) -> tuple:
    order2 = config.q_order2 if config.q_order2 is not None else 12
    results = []
    if args.target == "theta-nullwert":
        if args.i is None:
            raise UsageError("theta-nullwert requires --i")
        if args.i == 1 and not args.fourth_power:
            raise UsageError(
                "theta_1(0,tau) alone is not an exact q^(1/2)-series "
                "(q^(1/8) prefactor); pass --fourth-power or use verify numeric"
            )
        if args.fourth_power:
            if args.i == 1:
                series = modforms.theta1_nullwert_fourth(order2)
            else:
                series = modforms.theta_nullwert(args.i, order2) ** 4
            name = f"theta{args.i}^4"
        else:
            series = modforms.theta_nullwert(args.i, order2)
            name = f"theta{args.i}"
        results.append({"target": name, "q_order": order2, "series": series.to_obj()})
    elif args.target == "delta-eps":
        if not args.which:
            raise UsageError("delta-eps requires --which")
        try:
            series = modforms.delta_epsilon(args.which, order2)
        except ValueError as err:
            raise UsageError(str(err))
        which = modforms._DELTA_EPS_ALIASES.get(args.which, args.which)
        weight, group = modforms._DELTA_EPS_SPECS[which]
        results.append({"target": args.which, "q_order": order2, "weight": weight,
                        "group": group, "series": series.to_obj()})
    elif args.target == "theta-bundle":
        if args.kind not in (THETA1, THETA2):
            raise UsageError("theta-bundle requires --kind theta1|theta2")
        if args.dim is None:
            raise UsageError("theta-bundle requires --dim")
        try:
            # an explicit --max-degree admits fibers outside the identity classes
            profile = identity_profile(args.dim, config.max_form_degree)
            bundle = theta_bundle(args.kind, profile, order2)
        except ValueError as err:
            raise UsageError(str(err))
        prefix = "A" if args.kind == THETA1 else "B"
        results.append(
            {
                "target": args.kind,
                "fiber_dim": args.dim,
                "q_order": order2,
                "coefficients": [
                    {"exp2": exp2, **_character_obj(coeff, f"{prefix}_{exp2}")}
                    for exp2, coeff in bundle.series.items()
                ],
            }
        )
    else:
        raise UsageError(f"unknown expand target {args.target!r}")
    return results, 0


def cmd_decompose(args: argparse.Namespace, config: RunConfig) -> tuple:
    if args.m is None or args.dim is None:
        raise UsageError("decompose requires --m and --dim")
    try:
        case = decomposition_case(args.m, args.dim)
    except ValueError as err:
        raise UsageError(str(err))
    profile = identity_profile(args.dim, config.max_form_degree)
    # the solve reads only q^0..q^(m/2), so --q-order is echoed but not used
    xs = modforms.decompose_theta2(args.m, profile)
    results = [
        {"case": case, "m": args.m, "fiber_dim": args.dim, **_character_obj(x, f"{case}_{r}")}
        for r, x in enumerate(xs)
    ]
    return results, 0


def _numeric_default_samples(law: str) -> list:
    rng = random.Random(NUMERIC_SEED)
    if law in ("eq3.1", "eq3.2", "eq3.3", "eq3.4"):
        return [
            (
                complex(rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5)),
                complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)),
            )
            for _ in range(20)
        ]
    if law in ("eq3.5delta", "eq3.5eps"):
        return [
            complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)) for _ in range(10)
        ]
    if law == "eq3.11":
        taus = [complex(0.3, 1.2), complex(-0.2, 0.8), complex(0.1, 1.5)]
        return [
            (0, [round(rng.uniform(-0.2, 0.2), 3) or 0.1], tau) for tau in taus
        ] + [(0, [0.1, -0.15], complex(0.25, 1.1))]
    if law == "eq3.32":
        return [(1, [0.1, -0.15, 0.08], complex(0.3, 1.2))]
    raise UsageError(f"unknown numeric law {law!r}")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise UsageError(f"cannot parse complex number {text!r}")


def _numeric_reports(args: argparse.Namespace, config: RunConfig) -> list:
    laws: list
    if getattr(args, "law", None):
        law = args.law
        laws = ["eq3.5delta", "eq3.5eps"] if law == "eq3.5" else [law]
    else:
        laws = ["eq3.1", "eq3.2", "eq3.3", "eq3.4", "eq3.5delta", "eq3.5eps", "eq3.11"]
    taus = [_parse_complex(t) for t in (getattr(args, "tau", None) or [])]
    reports = []
    for law in laws:
        if taus and law in ("eq3.5delta", "eq3.5eps"):
            samples = taus
        elif taus and law in ("eq3.11", "eq3.32"):
            m = 0 if law == "eq3.11" else 1
            roots = [0.1] if law == "eq3.11" else [0.1, -0.15, 0.08]
            samples = [(m, roots, tau) for tau in taus]
        elif taus:
            samples = [(complex(0.2, 0.1), tau) for tau in taus]
        else:
            samples = _numeric_default_samples(law)
        reports.append(
            thetanum.check_transformation(law, samples, tol=config.tolerance)
        )
    return reports


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> tuple:
    suite = args.suite
    # options no requested suite reads are usage errors, not silent no-ops
    if args.kind is not None and suite not in ("routes", "all"):
        raise UsageError(f"--kind is read only by the routes suite, not {suite}")
    for flag in ("law", "tau"):
        if getattr(args, flag) is not None and suite not in ("numeric", "all"):
            raise UsageError(f"--{flag} is read only by the numeric suite, not {suite}")
    if args.dim is not None and suite == "numeric":
        raise UsageError("--dim is read by every suite but numeric")
    if config.q_order2 is not None and suite not in ("decomposition", "routes", "all"):
        raise UsageError(f"q_order is read only by decomposition and routes, not {suite}")
    if "tol" in config.given and suite not in ("numeric", "all"):
        raise UsageError(f"tol is read only by the numeric suite, not {suite}")
    if "l_variant" in config.given and suite not in ("main", "agw", "routes", "all"):
        raise UsageError(f"l_variant is read only by main, agw and routes, not {suite}")
    if config.max_form_degree is not None:
        raise UsageError("verify does not read max_degree (--max-degree or config key)")
    if args.m is not None and args.dim is None:
        raise UsageError("--m needs --dim (it only validates the fiber dimension)")
    tasks = []
    dims = [args.dim] if args.dim is not None else None
    if args.m is not None:
        try:
            decomposition_case(args.m, args.dim)
        except ValueError as err:
            raise UsageError(str(err))
    # tasks run in the order added: the route checks first, as they read the
    # bundles at the class order (or --q-order); the later checks read Theta_2
    # only through q^(m/2) and truncate it, so each bundle is built once
    if suite in ("routes", "all"):
        kind = args.kind
        for dim in dims or (2, 3, 9, 10, 11, 5, 6, 7):
            case, m, _ = identity_parameters(dim)
            if kind and not dims and (case == "b") != (kind in (anomaly.P1, anomaly.P2)):
                continue  # --kind alone runs on the default dims of its own case
            tasks.append((
                ("routes", dim, m, ""),
                lambda d=dim: anomaly.verify_route_equivalence(
                    d, kind=kind, order2=config.q_order2, l_variant=config.l_variant
                ),
            ))
    if suite in ("decomposition", "all"):
        for dim in dims or SWEEP_DIMENSIONS:
            _, m, _ = identity_parameters(dim)
            if config.q_order2 is not None and config.q_order2 < m + 3:
                raise UsageError(
                    f"q-order {config.q_order2} below m+3 = {m + 3} for dim {dim} "
                    "(matched window plus guards)"
                )
            tasks.append((
                ("eq3.12/33", dim, m, ""),
                lambda d=dim: anomaly.verify_decomposition_identity(d, config.q_order2),
            ))
    if suite in ("main", "all"):
        for dim in dims or SWEEP_DIMENSIONS:
            _, m, _ = identity_parameters(dim)
            tasks.append((
                ("eq3.14/35", dim, m, config.l_variant),
                lambda d=dim: anomaly.verify_main_identity(d, config.l_variant),
            ))
    if suite in ("agw", "all"):
        for dim in dims or (2, 6, 10):
            if dim not in (2, 6, 10):
                if suite == "agw":
                    raise UsageError(f"agw suite needs --dim 2, 6 or 10, got {dim}")
                continue
            tasks.append((
                ("eq1.x", dim, 0, config.l_variant),
                lambda d=dim: anomaly.verify_agw(d, config.l_variant),
            ))
    if suite in ("corollaries", "all"):
        for dim in dims or COROLLARY_DIMENSIONS:
            if dim not in COROLLARY_DIMENSIONS:
                if suite == "corollaries":
                    raise UsageError(f"no corollary for fiber dimension {dim}")
                continue
            tasks.append((
                ("corollary", dim, 0, ""),
                lambda d=dim: anomaly.corollary_coefficients(d),
            ))
    if suite in ("numeric", "all"):
        tasks.append((("z-numeric", 0, 0, ""), lambda: _numeric_reports(args, config)))

    # reports are ordered by key, not by run order
    outcomes = sorted(((key, fn()) for key, fn in tasks), key=lambda kv: kv[0])
    results = []
    for _, obj in outcomes:
        if isinstance(obj, list):
            results.extend(r.to_obj() for r in obj)
        else:
            results.append(obj.to_obj())
    return results, _exit_code(results, config.allow_degenerate)


def _exit_code(results: list, allow_degenerate: bool) -> int:
    ok_statuses = {"pass", "degenerate-zero"} if allow_degenerate else {"pass"}
    for entry in results:
        status = entry.get("status")
        if status is None:
            continue  # corollary vectors carry no status
        if status not in ok_statuses:
            return 1
    return 0


def cmd_report(args: argparse.Namespace, config: RunConfig) -> tuple:
    if not args.infile:
        raise UsageError("report requires --in FILE")
    path = Path(args.infile)
    if not path.exists():
        raise UsageError(f"no such report file: {args.infile}")
    envelope = json.loads(path.read_text())
    results = envelope.get("results", []) if isinstance(envelope, dict) else None
    if not isinstance(results, list) or not all(isinstance(r, dict) for r in results):
        raise UsageError(f"{args.infile} is not a report (a JSON object with a results list)")
    for i, entry in enumerate(results):
        # an entry that cannot be scored or rendered in either format is no result
        try:
            _exit_code([entry], False)
            render_table([entry])
        except (KeyError, TypeError, ValueError) as err:
            raise UsageError(f"{args.infile} is not a report (results[{i}]: {err!r})")
    return results, _exit_code(results, config.allow_degenerate)


# -- output ------------------------------------------------------------------


def render_envelope(results: list, config: RunConfig) -> str:
    envelope = {
        "version": REPORT_VERSION,
        "config": config.to_obj(),
        "results": results,
    }
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _form_str(form_obj: list) -> str:
    """A character's positive-degree part: no constant term, so always (coef)*mon."""
    if not form_obj:
        return "0"
    return " + ".join(
        f"({term['coef']})*{GradedClass._mon_str(term['monomial'])}" for term in form_obj
    )


def render_table(results: list) -> str:
    lines = []
    for entry in results:
        if "status" in entry and "identity" in entry:
            lam = entry.get("lambda")
            ratio = entry.get("paper_ratio")
            lines.append(
                f"{entry['identity']:<12} dim={entry.get('fiber_dim', '-'):<3} "
                f"m={entry.get('m', '-')} variant={entry.get('l_variant') or '-':<5} "
                f"lambda={lam if lam is not None else '-':<8} "
                f"ratio={ratio if ratio is not None else '-':<5} {entry['status']}"
            )
        elif "law" in entry:
            worst = max(entry["residuals"]) if entry["residuals"] else 0.0
            lines.append(
                f"{entry['law']:<12} samples={len(entry['samples']):<3} "
                f"max_residual={worst:.3e} tol={entry['tolerance']:.1e} {entry['status']}"
            )
        elif "coefficients" in entry and "basis" in entry:
            coeffs = ", ".join(entry["coefficients"])
            lines.append(f"corollary    dim={entry['fiber_dim']:<3} ({coeffs})")
        elif "label" in entry and "rank" in entry:
            lines.append(
                f"{entry['label']}: rank={entry['rank']} ch+ = {_form_str(entry['form'])}"
            )
        elif "coefficients" in entry and "fiber_dim" in entry:
            lines.append(f"{entry['target']} (dim {entry['fiber_dim']}):")
            for coeff in entry["coefficients"]:
                lines.append(
                    f"  {coeff['label']}: rank={coeff['rank']} ch+ = {_form_str(coeff['form'])}"
                )
        elif "series" in entry:
            text = series_text((term["exp2"], term["coef"]) for term in entry["series"])
            lines.append(f"{entry.get('target', 'series')}: {text}")
        else:
            lines.append(json.dumps(entry, sort_keys=True))
    return "\n".join(lines) + "\n"


def emit(results: list, config: RunConfig) -> None:
    text = (
        render_envelope(results, config)
        if config.out_format == "json"
        else render_table(results)
    )
    if config.out_path:
        Path(config.out_path).write_text(text)
    else:
        sys.stdout.write(text)


# -- argument parsing ----------------------------------------------------------


def _common_options() -> argparse.ArgumentParser:
    # Shared flags, accepted before or after the subcommand.  SUPPRESS keeps
    # a post-subcommand default from clobbering a pre-subcommand value.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument(
        "--q-order",
        dest="q_order",
        type=int,
        help="truncation bound in doubled exponent units (exclusive exp2 of q^(exp2/2))",
    )
    common.add_argument("--max-degree", dest="max_degree", type=int,
                        help="top form degree kept in the graded ring")
    common.add_argument("--tol", type=float, help="numeric check tolerance")
    common.add_argument("--l-variant", dest="l_variant", choices=["full", "half"],
                        help="L-class angle convention (default full)")
    common.add_argument("--format", choices=["json", "table"], help="output format")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--config", help="flat key=value config file (flags override)")
    common.add_argument("--allow-degenerate", action="store_true",
                        help="count degenerate-zero results as passing")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="anomform",
        description=(
            "Exact verification of modular-invariance cancellation identities: "
            "q-expansions, bundle decompositions, identity reports."
        ),
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print exact q-expansions", parents=[common])
    p_expand.add_argument("target", choices=["theta-nullwert", "delta-eps", "theta-bundle"])
    p_expand.add_argument("--i", type=int, default=None,
                          help="theta index (0, 2, 3; 1 only with --fourth-power)")
    p_expand.add_argument("--fourth-power", action="store_true", default=False,
                          help="expand the 4th power of the nullwert")
    p_expand.add_argument("--which", default=None, help="delta1 | eps1 | delta2 | eps2")
    p_expand.add_argument("--kind", default=None, help="theta1 | theta2")
    p_expand.add_argument("--dim", type=int, default=None, help="fiber dimension")

    p_dec = sub.add_parser("decompose", parents=[common],
                           help="solve for the virtual bundle coefficients")
    p_dec.add_argument("--m", type=int, default=None)
    p_dec.add_argument("--dim", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run a verification suite", parents=[common])
    p_verify.add_argument(
        "suite",
        choices=["main", "decomposition", "agw", "corollaries", "routes", "numeric", "all"],
    )
    p_verify.add_argument("--m", type=int, default=None,
                          help="validated against --dim when both given")
    p_verify.add_argument("--dim", type=int, default=None,
                          help="restrict to one fiber dimension")
    p_verify.add_argument("--kind", choices=["P1", "P2", "Q1", "Q2"], default=None,
                          help="route-equivalence series kind")
    p_verify.add_argument("--law", default=None,
                          help="numeric law id (eq3.1..eq3.4, eq3.5, eq3.11, eq3.32)")
    p_verify.add_argument("--tau", action="append", default=None,
                          help="numeric sample tau (repeatable)")

    p_report = sub.add_parser("report", parents=[common],
                              help="re-render a previously written report")
    p_report.add_argument("--in", dest="infile", default=None, help="report JSON file")

    return parser


_COMMANDS = {
    "expand": cmd_expand,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "report": cmd_report,
}


def _attach_dash_values(argv: list) -> list:
    """Write `--tol -inf` as `--tol=-inf`, and likewise for `--tau`.

    argparse reads a separate value that starts with '-' and is not a plain
    negative number (-inf, -0.2+1.1i) as an unknown option, not as the value.
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--tol", "--tau") and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        config = build_config(args)
        results, code = _COMMANDS[args.command](args, config)
        emit(results, config)
    except (ArithmeticError, TruncationError, SpanError):
        # an exact computation failed inside: a fault, not a usage error
        sys.excepthook(*sys.exc_info())  # the traceback, without importing traceback
        return 3
    except (ValueError, OSError) as err:  # UsageError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
