"""Exit status 1 means only that a check failed: an unwritable --out path or a
dimension without an identity class is a usage error (2), and an internal
ArithmeticError, TruncationError or SpanError is exit 3.  So is a verify
option that none of the requested suites reads.  Also: decompose accepts any
positive --q-order, because its solve does not read past q^(m/2)."""

import json

import pytest

from anomform import anomaly, modforms
from anomform.cli import main
from anomform.qseries import TruncationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "verify", "agw", "--dim", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not target.exists()


def test_internal_fault_exits_3(clear_memos, monkeypatch, capsys):
    original = modforms.modular_basis

    def perturbed(weight, order2):
        basis = original(weight, order2)
        return [basis[0] * 2] + basis[1:]

    monkeypatch.setattr(modforms, "modular_basis", perturbed)
    code, out, err = run(capsys, "decompose", "--m", "1", "--dim", "10")
    assert code == 3
    assert out == ""
    assert "triangular diagonal must be a unit" in err


def test_decompose_accepts_low_q_order(clear_memos, capsys):
    code, out, _ = run(capsys, "decompose", "--m", "1", "--dim", "10")
    assert code == 0
    default = json.loads(out)["results"]
    clear_memos()
    code, out, _ = run(capsys, "decompose", "--m", "1", "--dim", "10", "--q-order", "3")
    assert code == 0
    assert json.loads(out)["results"] == default


def test_decompose_q_order_zero_exits_2(capsys):
    code, out, err = run(capsys, "decompose", "--m", "1", "--dim", "10", "--q-order", "0")
    assert (code, out) == (2, "")
    assert "q-order must be at least 1" in err


def test_truncation_error_in_a_computation_exits_3(monkeypatch, capsys):
    def truncated(*args):
        raise TruncationError("comparison window exceeds available truncation")

    monkeypatch.setattr(anomaly, "verify_main_identity", truncated)
    code, out, err = run(capsys, "verify", "main", "--dim", "10")
    assert (code, out) == (3, "")
    assert "Traceback" in err and "TruncationError: comparison window" in err


def test_dimension_without_identity_class_exits_2(capsys):
    code, out, err = run(capsys, "verify", "main", "--dim", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: fiber dimension 4")


@pytest.mark.parametrize(
    "argv, message",
    (
        (("verify", "agw", "--dim", "2", "--kind", "Q1"), "--kind is read only by the routes"),
        (("verify", "main", "--dim", "10", "--law", "eq3.99", "--tau", "garbage"), "--law"),
        (("verify", "decomposition", "--dim", "10", "--tau", "0.3+1.2i"), "--tau is read only"),
        (("verify", "agw", "--dim", "2", "--max-degree", "7"), "does not read max_degree"),
        (("verify", "main", "--m", "2"), "--m needs --dim"),
        (
            ("verify", "numeric", "--dim", "4", "--law", "eq3.5", "--tau", "0.3+1.2i"),
            "--dim is read by every suite but numeric",
        ),
        (("verify", "main", "--dim", "10", "--q-order", "2"), "q_order is read only by decomposition and routes"),
        (("verify", "agw", "--dim", "2", "--q-order", "9"), "not agw"),
        (("verify", "corollaries", "--q-order", "9"), "not corollaries"),
        (("verify", "numeric", "--law", "eq3.5", "--q-order", "9"), "not numeric"),
    ),
)
def test_verify_option_no_suite_reads_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_verify_max_degree_from_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("max_degree = 8\n")
    code, out, err = run(capsys, "verify", "agw", "--dim", "2", "--config", str(config))
    assert (code, out) == (2, "")
    assert "does not read max_degree" in err


def test_verify_q_order_from_config_file_exits_2_unless_read(clear_memos, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("q_order = 9\n")
    code, out, err = run(capsys, "verify", "main", "--dim", "6", "--config", str(config))
    assert (code, out) == (2, "")
    assert "q_order is read only by decomposition and routes, not main" in err
    code, out, _ = run(capsys, "verify", "decomposition", "--dim", "6", "--config", str(config))
    assert code == 0 and json.loads(out)["config"]["q_order"] == 9
