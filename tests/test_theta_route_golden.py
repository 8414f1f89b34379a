"""A rewrite of the theta-quotient route never changes a series: stored p_form output.

`verify routes` stops at the first coefficient where the two routes differ,
and the full-angle P1/Q1 series differ from the K-theory route from q^1 on,
so nothing else pins them.  `tests/data/theta_route.json` holds the
theta-product `p_form` series, with its computed `order2`, of P1/P2 at dims
2 and 10 and Q1/Q2 at dims 6 and 14 on their class profiles: full and half
L for P1/Q1, at the default q-order and at order2 9.  At m = 4 it also holds
P1/P2 at dim 33 (weight 9) and Q1/Q2 at dim 30 (weight 8), at the default
q-order only, where every partition of the weight enters the root product.
Rewrite the file with
`PYTHONPATH=src python tests/test_theta_route_golden.py` only for a
deliberate change of the series, and say why in the change log.
"""

import json
from pathlib import Path

from anomform.anomaly import P1, P2, Q1, Q2, ROUTE_THETA, _class_profile, p_form
from anomform.genera import L_FULL, L_HALF

DATA = Path(__file__).parent / "data" / "theta_route.json"

_CASES = (((P1, P2), (2, 10)), ((Q1, Q2), (6, 14)))
_LARGE_CASES = (((P1, P2), (33,)), ((Q1, Q2), (30,)))


def golden_cases():
    """(kind, fiber_dim, l_variant, order2) for the stored set; None is the default order."""
    cases = []
    for order2, kinds in ((None, _CASES), (9, _CASES), (None, _LARGE_CASES)):
        for (first, second), dims in kinds:
            for dim in dims:
                cases.append((first, dim, L_FULL, order2))
                cases.append((first, dim, L_HALF, order2))
                cases.append((second, dim, L_FULL, order2))
    return cases


def golden_text() -> str:
    entries = []
    for kind, dim, variant, order2 in golden_cases():
        series = p_form(kind, _class_profile(dim), ROUTE_THETA, variant, order2)
        entries.append(
            {
                "kind": kind,
                "fiber_dim": dim,
                "l_variant": variant,
                "q_order": order2,
                "order2": series.order2,
                "series": series.to_obj(),
            }
        )
    return "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"


def test_theta_route_series_are_byte_identical(clear_memos):
    assert golden_text() == DATA.read_text()


if __name__ == "__main__":
    DATA.write_text(golden_text())
