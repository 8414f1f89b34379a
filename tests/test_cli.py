"""CLI surface: subcommands, exit codes, determinism, memo transparency,
labels and table rendering of virtual characters, the rejection of the
removed --jobs / --cache-dir options, and the package's exported names."""

import json

import pytest

import anomform
from anomform.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def results_of(out):
    envelope = json.loads(out)
    assert envelope["version"] == 1
    assert "config" in envelope
    return envelope["results"]


def test_expand_eps2_leading_terms(capsys):
    code, out, _ = run(capsys, "expand", "delta-eps", "--which", "eps2", "--q-order", "8")
    assert code == 0
    series = results_of(out)[0]["series"]
    assert series[0] == {"exp2": 1, "coef": "1"}
    assert series[1] == {"exp2": 2, "coef": "8"}


def test_expand_theta_nullwert(capsys):
    code, out, _ = run(capsys, "expand", "theta-nullwert", "--i", "2", "--q-order", "6")
    assert code == 0
    series = results_of(out)[0]["series"]
    assert series[0] == {"exp2": 0, "coef": "1"}
    assert series[1] == {"exp2": 1, "coef": "-2"}


def test_expand_bare_theta1_exits_2(capsys):
    code, _, err = run(capsys, "expand", "theta-nullwert", "--i", "1")
    assert code == 2
    assert "q^(1/8)" in err


def test_expand_theta1_fourth_power(capsys):
    code, out, _ = run(
        capsys, "expand", "theta-nullwert", "--i", "1", "--fourth-power", "--q-order", "6"
    )
    assert code == 0
    series = results_of(out)[0]["series"]
    assert series[0] == {"exp2": 1, "coef": "16"}


@pytest.mark.parametrize("kind", ("theta1", "theta2"))
def test_expand_theta_bundle_listing(capsys, kind):
    code, out, _ = run(
        capsys, "expand", "theta-bundle", "--kind", kind, "--dim", "10", "--q-order", "5"
    )
    assert code == 0
    coefficients = results_of(out)[0]["coefficients"]
    labels = [c["label"] for c in coefficients]
    if kind == "theta2":
        assert labels[0] == "B_0" and "B_1" in labels
    else:
        assert labels[0] == "A_0" and "A_2" in labels
        assert all(c["exp2"] % 2 == 0 for c in coefficients)


def test_expand_theta_bundle_off_class_dim_needs_max_degree(capsys):
    code, _, err = run(capsys, "expand", "theta-bundle", "--kind", "theta2", "--dim", "4")
    assert code == 2 and "identity class" in err
    code, out, _ = run(
        capsys,
        "expand", "theta-bundle", "--kind", "theta2", "--dim", "4",
        "--max-degree", "8", "--q-order", "4",
    )
    assert code == 0
    assert results_of(out)[0]["coefficients"][0]["label"] == "B_0"


def test_decompose_b_case(capsys):
    code, out, _ = run(capsys, "decompose", "--m", "1", "--dim", "10")
    assert code == 0
    entries = results_of(out)
    assert entries[0]["label"] == "b_0" and entries[0]["rank"] == -1
    assert entries[1]["label"] == "b_1" and entries[1]["rank"] == 72


def test_decompose_z_case(capsys):
    code, out, _ = run(capsys, "decompose", "--m", "1", "--dim", "6")
    assert code == 0
    entries = results_of(out)
    assert entries[0]["label"] == "z_0" and entries[0]["rank"] == 1
    # z_1 = -T_C Z - 42 C at dim 6, so the virtual rank is -6 - 42
    assert entries[1]["label"] == "z_1" and entries[1]["rank"] == -48


def test_decompose_results_do_not_depend_on_q_order(clear_memos, capsys):
    # the solve reads only q^0..q^(m/2) of Theta_2
    texts = []
    for order in ("4", "9"):
        clear_memos()
        code, out, _ = run(capsys, "decompose", "--m", "1", "--dim", "10", "--q-order", order)
        assert code == 0
        texts.append(json.dumps(results_of(out), indent=2, sort_keys=True))
    assert texts[0] == texts[1]


def test_decompose_table_and_report_rerender(tmp_path, capsys):
    expected = (
        "z_0: rank=1 ch+ = 0\n"
        "z_1: rank=-48 ch+ = (-1)*p1 + (1/6)*p2 + (-1/12)*p1^2\n"
    )
    code, out, _ = run(capsys, "decompose", "--m", "1", "--dim", "6", "--format", "table")
    assert code == 0 and out == expected
    path = tmp_path / "z.json"
    assert run(capsys, "decompose", "--m", "1", "--dim", "6", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "report", "--in", str(path), "--format", "table")
    assert code == 0 and out == expected


def test_decompose_class_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "decompose", "--m", "0", "--dim", "6")
    assert code == 2
    assert "not in a class" in err


def test_verify_agw_dim6(capsys):
    code, out, _ = run(capsys, "verify", "agw", "--dim", "6")
    assert code == 0
    entries = results_of(out)
    assert entries[0]["identity"] == "eq1.2" and entries[0]["status"] == "pass"


def test_verify_main_reports_lambda(capsys):
    code, out, _ = run(
        capsys, "verify", "main", "--m", "1", "--dim", "10", "--l-variant", "full"
    )
    assert code == 0
    entry = results_of(out)[0]
    assert entry["lambda"] == "512" and entry["paper_ratio"] == "1"


def test_verify_main_m_dim_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "verify", "main", "--m", "0", "--dim", "10")
    assert code == 2
    assert "not in a class" in err


def test_verify_numeric_with_tau(capsys):
    code, out, _ = run(capsys, "verify", "numeric", "--law", "eq3.5", "--tau", "0.3+1.2i")
    assert code == 0
    entries = results_of(out)
    assert {e["law"] for e in entries} == {"eq3.5delta", "eq3.5eps"}
    assert all(r < 1e-9 for e in entries for r in e["residuals"])


def test_verify_routes_respects_l_variant(capsys):
    code, _, _ = run(
        capsys, "verify", "routes", "--dim", "2", "--kind", "P1", "--l-variant", "half"
    )
    assert code == 0
    code, _, _ = run(
        capsys, "verify", "routes", "--dim", "2", "--kind", "P1", "--l-variant", "full"
    )
    assert code == 1  # full-angle Theta_1 route diverges past the calibrated term


def test_verify_routes_kind_without_dim_runs_its_own_case(capsys):
    code, out, _ = run(capsys, "verify", "routes", "--kind", "P1", "--l-variant", "half")
    assert code == 0
    assert [e["fiber_dim"] for e in results_of(out)] == [2, 3, 9, 10, 11]
    code, out, _ = run(capsys, "verify", "routes", "--kind", "Q2")
    assert code == 0
    assert [e["fiber_dim"] for e in results_of(out)] == [5, 6, 7]
    # an explicit --dim of the other case is still a usage error
    code, _, err = run(capsys, "verify", "routes", "--kind", "Q2", "--dim", "2")
    assert code == 2 and "Q2 requires fiber dimension" in err


def test_verify_degenerate_needs_flag(capsys):
    code, _, _ = run(capsys, "verify", "main", "--dim", "1")
    assert code == 1
    code, _, _ = run(capsys, "verify", "main", "--dim", "1", "--allow-degenerate")
    assert code == 0


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--allow-degenerate")
    assert code == 0
    entries = results_of(out)
    assert len(entries) > 30


def test_determinism_byte_identical(capsys):
    _, first, _ = run(capsys, "verify", "main", "--dim", "6")
    _, second, _ = run(capsys, "verify", "main", "--dim", "6")
    assert first == second


def test_cache_transparency(clear_memos, capsys):
    # the first run builds the bundle, the second reads it from the memo
    args = ("decompose", "--m", "1", "--dim", "10")
    _, cold, _ = run(capsys, *args)
    _, warm, _ = run(capsys, *args)
    assert cold == warm


@pytest.mark.parametrize("flag", (("--jobs", "2"), ("--cache-dir", "X")))
def test_removed_flags_exit_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "agw", "--dim", "2", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ("jobs", "cache_dir"))
def test_removed_config_keys_exit_2(tmp_path, capsys, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}=1\n")
    code, _, err = run(capsys, "verify", "agw", "--dim", "2", "--config", str(config))
    assert code == 2 and "unknown config key" in err


def test_config_file_and_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("q_order=6\nl_variant=half\n")
    _, out, _ = run(capsys, "expand", "delta-eps", "--which", "eps2", "--config", str(config))
    envelope = json.loads(out)
    assert envelope["config"]["q_order"] == 6
    assert envelope["config"]["l_variant"] == "half"
    _, out, _ = run(
        capsys,
        "expand", "delta-eps", "--which", "eps2",
        "--config", str(config), "--q-order", "4",
    )
    assert json.loads(out)["config"]["q_order"] == 4


def test_bad_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("no_such_key=1\n")
    code, _, err = run(capsys, "expand", "delta-eps", "--which", "eps2", "--config", str(config))
    assert code == 2 and "unknown config key" in err


@pytest.mark.parametrize("value", ("xml", "JSON"))
def test_bad_config_format_exits_2(tmp_path, capsys, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"format={value}\n")
    code, out, err = run(capsys, "verify", "agw", "--dim", "2", "--config", str(config))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("value", ("nan", "inf", "-inf", "NaN", "Infinity"))
def test_non_finite_tolerance_flag_exits_2(tmp_path, capsys, value):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, f"--tol={value}", "verify", "numeric", "--law", "eq3.5eps",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "error: tolerance must be finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("before_command", (True, False))
def test_separate_negative_infinity_tolerance_reaches_the_check(tmp_path, capsys, before_command):
    # "--tol -inf" is one option with its value, before or after the subcommand
    out_path = tmp_path / "report.json"
    command = ["verify", "numeric", "--law", "eq3.5eps", "--out", str(out_path)]
    argv = ["--tol", "-inf", *command] if before_command else [*command, "--tol", "-inf"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: tolerance must be finite\n"
    assert not out_path.exists()


def test_separate_negative_tau_is_read_as_the_value(capsys):
    code, out, _ = run(capsys, "verify", "numeric", "--law", "eq3.5delta", "--tau", "-0.3+1.2i")
    assert code == 0
    assert len(results_of(out)[0]["samples"]) == 1


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
def test_non_finite_tolerance_config_key_exits_2(tmp_path, capsys, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"tol={value}\n")
    code, out, err = run(capsys, "verify", "numeric", "--law", "eq3.5eps", "--config", str(config))
    assert (code, out) == (2, "")
    assert "error: tolerance must be finite" in err


def test_report_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "agw", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "report", "--in", str(out_path))
    assert code == 0
    assert len(results_of(out)) == 3


def test_report_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "report", "--in", "/nonexistent/report.json")
    assert code == 2


@pytest.mark.parametrize(
    "text",
    ("[]", '{"results": [1]}', '{"results": 5}', '{"results": [[]]}', '"report"', "{not json"),
)
def test_report_file_that_is_not_a_report_exits_2(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    code, out, err = run(capsys, "report", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, fmt",
    (
        ('{"results": [{"status": []}]}', "json"),
        ('{"results": [{"law": "eq3.1"}]}', "table"),
        ('{"results": [{"law": "eq3.1"}]}', "json"),
        ('{"results": [{"identity": "eq1.1", "status": "pass", "lambda": []}]}', "table"),
    ),
)
def test_report_entries_that_are_not_results_exit_2(tmp_path, capsys, text, fmt):
    """An entry that cannot be scored or rendered is named, whatever the format."""
    path = tmp_path / "report.json"
    path.write_text(text)
    code, out, err = run(capsys, "report", "--in", str(path), "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "is not a report (results[0]" in err
    assert "Traceback" not in err


def test_table_format(capsys):
    code, out, _ = run(capsys, "verify", "agw", "--dim", "2", "--format", "table")
    assert code == 0
    assert "eq1.1" in out and "pass" in out


def test_out_file_written(tmp_path, capsys):
    path = tmp_path / "series.json"
    code, out, _ = run(
        capsys, "expand", "delta-eps", "--which", "delta2", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["results"][0]["weight"] == 2


def test_every_exported_name_resolves():
    # a deleted export must leave `from anomform import *` working
    for name in anomform.__all__:
        assert hasattr(anomform, name), name
