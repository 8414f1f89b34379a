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
from fractions import Fraction
from pathlib import Path

import pytest

from anomform import thetanum
from anomform.qseries import QQ, HalfQSeries
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


def _double_lhs(monkeypatch):
    product = thetanum._root_pair_product

    def doubled(side, w, tau, roots, n_terms):
        value, scale = product(side, w, tau, roots, n_terms)
        return (2 * value if side == 1 else value), scale

    monkeypatch.setattr(thetanum, "_root_pair_product", doubled)


def _power_of_two_short(monkeypatch):
    # 2^(w-1) tau^w in place of 2^w tau^w
    product = thetanum._root_pair_product

    def halved(side, w, tau, roots, n_terms):
        value, scale = product(side, w, tau, roots, n_terms)
        return (value / 2 if side == 2 else value), scale

    monkeypatch.setattr(thetanum, "_root_pair_product", halved)


def _perturb_l1_constant(monkeypatch):
    # L_1 + 1/1000 on the A-roof (Theta_2) side
    series = thetanum.theta_quotient_pair_series

    def perturbed(kind, l_variant, order2, max_weight):
        f0, logs = series(kind, l_variant, order2, max_weight)
        if kind == "P2" and logs:
            shift = HalfQSeries(QQ, {0: Fraction(1, 1000)}, order2)
            logs = (logs[0] + shift, *logs[1:])
        return f0, logs

    monkeypatch.setattr(thetanum, "theta_quotient_pair_series", perturbed)


@pytest.mark.parametrize("control", (_double_lhs, _power_of_two_short, _perturb_l1_constant))
def test_jet_law_negative_controls_fail_on_every_golden_sample(monkeypatch, clear_memos, control):
    control(monkeypatch)
    jet_groups = [g for g in golden_groups() if g[0] in ("eq3.11", "eq3.32")]
    assert {law for law, _, _ in jet_groups} == {"eq3.11", "eq3.32"}
    for law, samples, n_terms in jet_groups:
        for sample in samples:
            report = check_transformation(law, [sample], n_terms=n_terms)
            assert report.to_obj()["status"] == "fail", (law, sample, report.residuals)


if __name__ == "__main__":
    DATA.write_text(golden_text())
