"""Exit status 1 means only that a check failed: an unwritable --out path is a
usage error (2) and an internal ArithmeticError is exit 3.  Also: decompose
accepts any positive --q-order, because its solve does not read past q^(m/2)."""

import json

from anomform import modforms
from anomform.cli import main


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
