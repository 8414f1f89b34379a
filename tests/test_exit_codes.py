"""Exit status 1 means only that a check failed: an unwritable --out path or a
dimension without an identity class is a usage error (2), and an internal
ArithmeticError, TruncationError or SpanError is exit 3.  A verify option
that none of the requested suites reads, as a flag or a config key, is a
usage error too.  Also: decompose accepts any positive --q-order, because
its solve does not read past q^(m/2)."""

import json

import pytest

from anomform import anomaly, modforms, thetanum
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
        (
            ("verify", "corollaries", "--dim", "6", "--l-variant", "half", "--tol", "0.5"),
            "tol is read only by the numeric suite, not corollaries",
        ),
        (("verify", "main", "--dim", "10", "--tol", "0.5"), "tol is read only by the numeric"),
        (("verify", "routes", "--dim", "10", "--tol", "1e-3"), "not routes"),
        (
            ("verify", "corollaries", "--dim", "6", "--l-variant", "half"),
            "l_variant is read only by main, agw and routes, not corollaries",
        ),
        (("verify", "decomposition", "--dim", "10", "--l-variant", "full"), "not decomposition"),
        (("verify", "numeric", "--law", "eq3.5", "--l-variant", "half"), "not numeric"),
    ),
)
def test_verify_option_no_suite_reads_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "law, tau, message",
    (
        ("eq3.5", "0.3-1i", "tau=(0.3-1j) is not a finite point of the upper half plane"),
        ("eq3.1", "nan+1i", "tau=(nan+1j) is not a finite point"),
        ("eq3.11", "10000+1i", "tau=(10000+1j) needs more than 10000 product terms"),
        (None, "0.3+1e-6i", "tau=(0.3+1e-06j) needs more than 10000 product terms"),
        # e^(2 pi i tau v) underflows at v = 0.2+0.1i, and q^(1/8) at tau
        ("eq3.1", "1000i", "tau=1000j takes q^(1/8) or e^(2 pi i v) outside the normal doubles"),
        ("eq3.3", "1000i", "tau=1000j takes q^(1/8)"),
        ("eq3.4", "1000i", "tau=1000j takes q^(1/8)"),
        # q^(1/8) at -1/tau underflows: theta there would be flushed to 0
        ("eq3.1", "0.001i", "tau=0.001j takes q^(1/8)"),
        ("eq3.5", "0.001i", "tau=0.001j takes q^(1/8)"),
    ),
)
def test_verify_numeric_unusable_tau_exits_2(monkeypatch, capsys, law, tau, message):
    def refuse(tau, n_terms, half):
        raise AssertionError(f"evaluated at tau={tau}")

    monkeypatch.setattr(thetanum, "_tau_tables", refuse)
    argv = ["verify", "numeric", "--tau", tau] + (["--law", law] if law else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "law, tau",
    (("eq3.11", "20i"), ("eq3.32", "0.05i"), ("eq3.11", "0.01i"), ("eq3.32", "300i"),
     ("eq3.11", "0.001i")),
)
def test_verify_numeric_jet_law_far_from_i_exits_0(capsys, law, tau):
    code, out, _ = run(capsys, "verify", "numeric", "--law", law, "--tau", tau)
    (report,) = json.loads(out)["results"]
    assert (code, report["status"]) == (0, "pass"), report["residuals"]


def test_verify_max_degree_from_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("max_degree = 8\n")
    code, out, err = run(capsys, "verify", "agw", "--dim", "2", "--config", str(config))
    assert (code, out) == (2, "")
    assert "does not read max_degree" in err


@pytest.mark.parametrize(
    "line, suite, message",
    (
        ("tol = 0.5", "corollaries", "tol is read only by the numeric suite, not corollaries"),
        ("l_variant = half", "decomposition", "l_variant is read only by main, agw and routes"),
    ),
)
def test_verify_tol_and_l_variant_from_config_file_exit_2(tmp_path, capsys, line, suite, message):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code, out, err = run(capsys, "verify", suite, "--dim", "6", "--config", str(config))
    assert (code, out) == (2, "")
    assert message in err


def test_verify_tol_and_l_variant_accepted_where_read(clear_memos, capsys):
    code, out, _ = run(capsys, "verify", "numeric", "--law", "eq3.5", "--tol", "1e-6")
    assert code == 0 and json.loads(out)["config"]["tol"] == 1e-6
    code, out, _ = run(capsys, "verify", "main", "--dim", "6", "--l-variant", "half")
    assert json.loads(out)["config"]["l_variant"] == "half"
    code, out, _ = run(capsys, "verify", "agw", "--dim", "2", "--l-variant", "full")
    assert code == 0


def test_verify_q_order_from_config_file_exits_2_unless_read(clear_memos, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("q_order = 9\n")
    code, out, err = run(capsys, "verify", "main", "--dim", "6", "--config", str(config))
    assert (code, out) == (2, "")
    assert "q_order is read only by decomposition and routes, not main" in err
    code, out, _ = run(capsys, "verify", "decomposition", "--dim", "6", "--config", str(config))
    assert code == 0 and json.loads(out)["config"]["q_order"] == 9
