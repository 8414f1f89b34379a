"""Exact table text of the series, corollary, bundle and numeric renderers,
the series repr, and the message of every usage error."""

import re

import pytest

from anomform.cli import main
from anomform.modforms import theta2_nullwert
from anomform.qseries import QQ, HalfQSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ("expand", "delta-eps", "--which", "eps2", "--q-order", "8"),
            "eps2: q^(1/2) + (8)*q + (28)*q^(3/2) + (64)*q^2 + (126)*q^(5/2)"
            " + (224)*q^3 + (344)*q^(7/2)\n",
        ),
        (
            ("expand", "theta-nullwert", "--i", "2", "--q-order", "6"),
            "theta2: 1 + (-2)*q^(1/2) + (2)*q^2\n",
        ),
        (("expand", "theta-nullwert", "--i", "0", "--q-order", "4"), "theta0: 0\n"),
        (("verify", "corollaries", "--dim", "6"), "corollary    dim=6   (1, 1, -22)\n"),
        (
            ("expand", "theta-bundle", "--kind", "theta2", "--dim", "2", "--q-order", "3"),
            "theta2 (dim 2):\n"
            "  B_0: rank=1 ch+ = 0\n"
            "  B_1: rank=0 ch+ = (-1)*p1\n"
            "  B_2: rank=0 ch+ = (-1)*p1\n",
        ),
    ],
)
def test_table_text(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--format", "table")
    assert (code, out, err) == (0, expected, "")


def test_numeric_table_lines(capsys):
    code, out, _ = run(
        capsys, "verify", "numeric", "--law", "eq3.5", "--tau", "0.3+1.2i", "--format", "table"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for which, line in zip(("delta", "eps"), lines):
        pattern = rf"^eq3.5{which} +samples=1 +max_residual=\S+ tol=1.0e-09 pass$"
        assert re.match(pattern, line), line


def test_numeric_s_law_m1_passes(capsys):
    code, _, _ = run(capsys, "verify", "numeric", "--law", "eq3.32")
    assert code == 0


def test_series_repr():
    assert repr(theta2_nullwert(4)) == "1 + (-2)*q^(1/2) + O(q^2)"
    assert repr(HalfQSeries.zero(QQ, 2)) == "0 + O(q)"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "agw", "--dim", "3"), "agw suite needs --dim 2, 6 or 10, got 3"),
        (("verify", "corollaries", "--dim", "13"), "no corollary for fiber dimension 13"),
        (("verify", "main", "--dim", "4"), "(0 or 4 mod 8) has no identity class"),
        (("--tol", "-1", "verify", "agw", "--dim", "2"), "tolerance must be positive"),
        (("verify", "agw", "--q-order", "0"), "q-order must be at least 1"),
    ],
)
def test_usage_error_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
