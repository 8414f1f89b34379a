"""A speedup never changes a residual: numeric law reports against a stored file.

`tests/data/numeric_laws.json` holds `check_transformation(...).to_obj()` for
a small seeded set of every numeric law: the theta T/S laws eq3.1-eq3.4, the
delta/epsilon S-laws eq3.5, and the S-transfer jets eq3.11 at m = 0, 1, 2 and
eq3.32 at m = 1, 2, each jet sample with m + 1 distinct roots.  JSON writes
floats with `repr`, so the comparison is bit for bit.  Rewrite the file with
`PYTHONPATH=src python tests/test_numeric_golden.py` only for a deliberate
change of the numbers, and say why in the change log.
"""

import json
import random
from pathlib import Path

from anomform.thetanum import check_transformation

DATA = Path(__file__).parent / "data" / "numeric_laws.json"
SEED = "numeric-golden"


def _tau(rng):
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))


def golden_groups():
    """(law, samples, n_terms) for the stored set, drawn from one seeded stream."""
    rng = random.Random(SEED)
    groups = []
    for law in ("eq3.1", "eq3.2", "eq3.3", "eq3.4"):
        samples = [(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5)), _tau(rng))
                   for _ in range(3)]
        groups.append((law, samples, None))
    for law in ("eq3.5delta", "eq3.5eps"):
        groups.append((law, [_tau(rng) for _ in range(3)], None))
    for law, m in (("eq3.11", 0), ("eq3.11", 1), ("eq3.11", 2), ("eq3.32", 1), ("eq3.32", 2)):
        samples = []
        for _ in range(2):
            roots = [rng.uniform(-0.2, 0.2) for _ in range(m + 1)]
            assert len(set(roots)) == m + 1
            samples.append((m, roots, _tau(rng)))
        groups.append((law, samples, None))
    # one explicit truncation per family
    groups.append(("eq3.2", [(complex(0.1, 0.2), complex(0.2, 1.1))], 40))
    groups.append(("eq3.5eps", [complex(-0.3, 0.9)], 40))
    groups.append(("eq3.11", [(1, [0.07, -0.13], complex(0.1, 1.3))], 40))
    return groups


def golden_text() -> str:
    reports = [check_transformation(law, samples, n_terms=n_terms).to_obj()
               for law, samples, n_terms in golden_groups()]
    return json.dumps(reports, indent=1) + "\n"


def test_numeric_law_reports_are_bit_identical():
    assert golden_text() == DATA.read_text()


if __name__ == "__main__":
    DATA.write_text(golden_text())
