"""A speedup never changes a report: `verify all --out` against stored files.

The files under tests/data were written by `anomform verify all
--allow-degenerate --out FILE`, once with the default settings and once with
`--l-variant half`, and are compared byte for byte.  The half-angle run
exits 1: the three AGW combinations are stated for the full-angle L.
"""

from pathlib import Path

import pytest

from anomform import cli

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, extra, code",
    (("verify_all.json", [], 0), ("verify_all_half.json", ["--l-variant", "half"], 1)),
)
def test_verify_all_report_is_byte_identical(clear_memos, tmp_path, name, extra, code):
    out = tmp_path / name
    assert cli.main(["verify", "all", "--allow-degenerate", *extra, "--out", str(out)]) == code
    assert out.read_bytes() == (DATA / name).read_bytes()
