"""Known answers for every check the benchmark runs.

They are written down from the identity catalog of the project description
(PAPER.md), not captured from the program:

* fiber dimensions d = 8m+1..8m+3 carry eq3.12 / eq3.14 with lambda =
  8 * 2^(6m); d = 8m-3..8m-1 carry eq3.33 / eq3.35 with lambda = 2^(6m).
  Under the full-angle L the measured ratio to that constant is exactly 1.
  Dimension 1 has no positive-degree forms: both identities are
  ``degenerate-zero``.
* eq1.1 / eq1.2 / eq1.3 (dimensions 2, 6, 10) vanish identically.
* Corollary vectors are integral and lead with 1; dimension 6 gives
  (1, +1, -22) and dimension 11 gives (1, -8, +24).
* routes-P2 / routes-Q2 agree; P1 / Q1 agree under the half-angle L and,
  by design, differ under the full-angle L first at exp2 = 2.
* Every numeric transformation law stays below the 1e-9 tolerance.

The exact-payload digests at the bottom are the one exception: they pin the
bytes of the exact results (lambda, paper_ratio, residuals, lhs, rhs and
corollary coefficients) so that a speed-up cannot change a report.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

NUMERIC_TOL = 1e-9
ROUTE_FULL_ANGLE_FIRST_DIFF = 2
COROLLARY_DIMS = (1, 2, 3, 5, 6, 7, 9, 10, 11)
COROLLARY_VECTORS = {6: (1, 1, -22), 11: (1, -8, 24)}
AGW_IDENTITIES = {2: "eq1.1", 6: "eq1.2", 10: "eq1.3"}


def identity_class(dim: int):
    """('b', m) for d = 8m+1..8m+3, ('z', m) for d = 8m-3..8m-1."""
    r = dim % 8
    if r in (1, 2, 3):
        return "b", dim // 8
    if r in (5, 6, 7):
        return "z", dim // 8 + 1
    raise ValueError(f"dimension {dim} is in no identity class")


def expected_lambda(dim: int) -> Fraction:
    case, m = identity_class(dim)
    return Fraction(8 if case == "b" else 1) * 2 ** (6 * m)


def _status(obj, want):
    if obj.get("status") != want:
        return f"status {obj.get('status')!r}, expected {want!r}"
    return None


def check_decomposition(obj: dict, dim: int):
    case, _ = identity_class(dim)
    want_id = "eq3.12" if case == "b" else "eq3.33"
    if obj.get("identity") != want_id:
        return f"identity {obj.get('identity')!r}, expected {want_id}"
    if dim == 1:
        return _status(obj, "degenerate-zero")
    return _status(obj, "pass") or (
        None if obj.get("paper_ratio") == "1" else f"paper_ratio {obj.get('paper_ratio')!r}"
    )


def check_main(obj: dict, dim: int):
    case, _ = identity_class(dim)
    want_id = "eq3.14" if case == "b" else "eq3.35"
    if obj.get("identity") != want_id:
        return f"identity {obj.get('identity')!r}, expected {want_id}"
    if dim == 1:
        return _status(obj, "degenerate-zero")
    problem = _status(obj, "pass")
    if problem:
        return problem
    if obj.get("paper_ratio") != "1":
        return f"paper_ratio {obj.get('paper_ratio')!r}, expected '1'"
    if obj.get("lambda") is None or Fraction(obj["lambda"]) != expected_lambda(dim):
        return f"lambda {obj.get('lambda')!r}, expected {expected_lambda(dim)}"
    return None


def check_agw(obj: dict, dim: int):
    if obj.get("identity") != AGW_IDENTITIES[dim]:
        return f"identity {obj.get('identity')!r}, expected {AGW_IDENTITIES[dim]}"
    return _status(obj, "pass") or (None if not obj.get("residuals") else "residuals")


def check_corollary(obj: dict, dim: int):
    coeffs = [Fraction(c) for c in obj.get("coefficients", [])]
    if len(coeffs) != 3 or any(c.denominator != 1 for c in coeffs):
        return f"coefficients {obj.get('coefficients')!r} are not three integers"
    if coeffs[0] != 1:
        return f"leading coefficient {coeffs[0]}, expected 1"
    want = COROLLARY_VECTORS.get(dim)
    if want is not None and tuple(coeffs) != want:
        return f"vector {tuple(map(int, coeffs))}, expected {want}"
    return None


def check_route(obj: dict, kind: str, variant: str | None):
    if obj.get("identity") != f"routes-{kind}":
        return f"identity {obj.get('identity')!r}, expected routes-{kind}"
    if kind in ("P1", "Q1") and variant == "full":
        problem = _status(obj, "fail")
        if problem:
            return problem
        first = obj.get("residuals") or [{}]
        if first[0].get("exp2") != ROUTE_FULL_ANGLE_FIRST_DIFF:
            return f"first difference at exp2={first[0].get('exp2')}, expected 2"
        return None
    return _status(obj, "pass")


def check_numeric(obj: dict, law: str):
    if obj.get("law") != law:
        return f"law {obj.get('law')!r}, expected {law}"
    residuals = obj.get("residuals") or []
    if not residuals:
        return "no residuals"
    worst = max(residuals)
    if not worst < NUMERIC_TOL:
        return f"residual {worst:.3g} above {NUMERIC_TOL}"
    return _status(obj, "pass")


# -- exact-payload digest ----------------------------------------------------

_EXACT_FIELDS = (
    "identity", "fiber_dim", "l_variant", "lambda", "paper_ratio",
    "residuals", "lhs", "rhs", "coefficients",
)


def payload_digest(results: list) -> str:
    """sha256 of the canonical JSON of the exact fields of exact results.

    Numeric reports (they carry ``law``) and the envelope's ``config`` are
    left out; entries are sorted so the digest ignores result order.
    """
    rows = sorted(
        json.dumps({k: obj[k] for k in _EXACT_FIELDS if k in obj}, sort_keys=True,
                   separators=(",", ":"))
        for obj in results
        if "law" not in obj
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# Recorded from the commit that introduced the benchmark (the library as it
# stood then); every later report must reproduce these bytes.  A mismatch
# counts as one wrong verdict per pass.  numeric-laws has no exact payload.
DIGESTS = {
    "verify-all": "a134a4d8f6dc4089f7840f8689d5e627f4190e293af1838e89c418e00a2b5fd7",
    "sweep-m4": "59ffc4c9377711c1cc284a886954cab6f9fc166e2fb867a86b0ddb50c3d62532",
    "routes-m3": "acc6f50c15a8f084ddc441c0ef4d471287a1a3b5110797adcc32dfb604c9dfc1",
}
