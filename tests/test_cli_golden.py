"""Stored stdout of `expand` and `decompose`, compared byte for byte.

`tests/data/cli_outputs.json` maps each command line below to the exact
stdout it printed when the file was written.  The nullwert expansions and
their 4th powers, and the delta/epsilon envelopes, which carry each form's
weight and congruence subgroup, are pinned at the default order and (for
delta/epsilon) through q^20, order2 41; the decompositions carry
the b_r (dim 10) and z_r (dim 13) virtual characters.  Rewrite the file with
`PYTHONPATH=src python tests/test_cli_golden.py` only for a deliberate change
of an output, and say why in the change log.
"""

import json
from pathlib import Path

import pytest

from anomform.cli import main

DATA = Path(__file__).parent / "data" / "cli_outputs.json"

COMMANDS = tuple(
    ("expand", "delta-eps", "--which", which)
    for which in ("delta1", "eps1", "delta2", "eps2", "epsilon1", "epsilon2")
) + tuple(
    ("expand", "delta-eps", "--which", which, "--q-order", "41")
    for which in ("delta1", "eps1", "delta2", "eps2")
) + tuple(
    ("expand", "theta-nullwert", "--i", i) for i in ("0", "2", "3")
) + tuple(
    ("expand", "theta-nullwert", "--i", i, "--fourth-power") for i in ("1", "2", "3")
) + (
    ("decompose", "--m", "1", "--dim", "10"),
    ("decompose", "--m", "2", "--dim", "13"),
)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_stdout_is_byte_identical(clear_memos, capsys, argv):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == json.loads(DATA.read_text())[" ".join(argv)]


if __name__ == "__main__":
    import contextlib
    import io

    stored = {}
    for argv in COMMANDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(list(argv)) == 0
        stored[" ".join(argv)] = buffer.getvalue()
    DATA.write_text(json.dumps(stored, indent=1) + "\n")
