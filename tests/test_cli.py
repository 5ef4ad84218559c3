"""Command-line front end: exit codes, output files, and determinism."""

import argparse
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from statealign import bench, cli
from statealign.certify import calibrate_sigma
from statealign.cli import build_parser, main
from statealign.interventions import DEFAULT_METHOD_IDS

SMALL = """\
[stream]
dimension = 6
length = 60
deletion_time = 30
deletion_size = 3
horizon = 20
condition_number = 4.0

[optimizer]
eta = 0.1
tau = 5

[experiment]
interventions = oracle, noop
probe_count = 8
contraction_trials = 0
seeds = 7
"""

GRID = SMALL + "\n[grid]\nkappa = 2.0, 8.0\ntau = 3, 5\n"


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL)
    return path


def _masked(path) -> str:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("wall_clock_s")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[drop] = "-"
        out.append(",".join(cells))
    return "\n".join(out)


def test_certify_prints_exact_zero_sigma(capsys):
    assert main(["certify", "--alpha", "0", "--eps", "1", "--delta", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "sigma 0.0" in out
    assert "exact true" in out
    argv = ["certify", "--alpha", "0.5", "--eps", "1", "--delta", "0.05", "--beta", "0.01"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"sigma {calibrate_sigma(0.5, 1.0, 0.05)!r}" in lines
    assert "beta 0.01" in lines
    assert "exact false" in lines


def test_missing_config_file_exits_1(capsys, tmp_path):
    code = main(["exp2", "--config", str(tmp_path / "nope.ini")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "nope.ini" in err


def test_unknown_config_key_exits_1(capsys, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[stream]\nduration = 9\n")
    assert main(["exp2", "--config", str(path)]) == 1


def test_misspelled_config_section_exits_1(capsys, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL + "\n[optimiser]\neta = 5.0\n")
    assert main(["exp2", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "config error: unknown section [optimiser]" in captured.err
    assert "exact_recovery" not in captured.out


def test_bad_seed_list_exits_1(capsys, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL.replace("seeds = 7", "seeds = 0, x"))
    assert main(["exp2", "--config", str(path)]) == 1
    assert "config error: bad value 'x' for seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, grid",
    [
        (["exp2", "--seed", "-1"], ""),
        (["inspect", "--seed", "-2"], ""),
        (["grid"], "\n[grid]\nseed = -4, 1\n"),
    ],
)
def test_negative_seed_exits_1(capsys, tmp_path, argv, grid):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL + grid)
    assert main([*argv, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "config error: seed must be >= 0, got -" in captured.err
    assert captured.out == ""


def test_more_than_one_seed_exits_1(capsys, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL.replace("seeds = 7", "seeds = 0, 1, 2"))
    assert main(["exp2", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "config error: seeds takes one seed, got 3; use [grid] seed" in captured.err
    assert "exact_recovery" not in captured.out


@pytest.mark.parametrize("command", ["exp1", "exp2"])
def test_workers_is_a_grid_only_flag(capsys, small_cfg, command):
    assert main([command, "--config", str(small_cfg), "--workers", "2"]) == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exp2", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["certify", "--alpha", "abc", "--eps", "1", "--delta", "1"], "argument --alpha: invalid float"),
        (["grid", "--workers", "x"], "argument --workers: invalid int value: 'x'"),
        (["exp2", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["certify", "--alpha", "0.25"], "the following arguments are required: --eps, --delta"),
        ([], "the following arguments are required: command"),
    ],
)
def test_a_usage_error_is_one_config_error_line_and_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exp2", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize(
    "section, key",
    [
        ("optimizer", "eta"),
        ("stream", "condition_number"),
        ("stream", "mu"),
        ("stream", "drift_period"),
        ("optimizer", "curvature_eps"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_config_value_exits_1(capsys, tmp_path, section, key, value):
    lines = [line for line in SMALL.splitlines() if not line.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    path = tmp_path / "exp.ini"
    path.write_text("\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n")
    assert main(["exp2", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"config error: bad value '{value}' for {key}" in captured.err
    assert "exact_recovery" not in captured.out


def test_overflowing_condition_number_times_mu_exits_1(capsys, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL.replace("condition_number = 4.0", "condition_number = 1e308\nmu = 10"))
    assert main(["exp2", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "condition_number * mu" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["exp2", "grid"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("privacy_epsilon", "0"),
        ("privacy_epsilon", "-1.5"),
        ("privacy_delta", "0"),
        ("privacy_delta", "1"),
        ("privacy_delta", "1.5"),
    ],
)
def test_out_of_range_privacy_value_exits_1_before_any_work(
    capsys, monkeypatch, tmp_path, command, key, value
):
    def no_work(*args, **kwargs):
        raise AssertionError("a stream was generated for an invalid config")

    monkeypatch.setattr(bench, "generate_stream", no_work)
    path = tmp_path / "exp.ini"
    path.write_text(SMALL + f"{key} = {value}\n")
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert key in err


def test_non_utf8_config_file_exits_1(capsys, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_bytes(b"# r\xe9sum\xe9 in Latin-1\n" + SMALL.encode("ascii"))
    assert main(["exp2", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "exp.ini" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "0.25", "--eps", "0", "--delta", "0.05"],
        ["--alpha", "0.25", "--eps", "1", "--delta", "1"],
        ["--alpha", "nan", "--eps", "1", "--delta", "0.05"],
        ["--alpha", "0.25", "--eps", "1", "--delta", "0.05", "--beta", "nan"],
        ["--alpha", "0.25", "--eps", "1", "--delta", "0.05", "--beta", "inf"],
        ["--alpha", "0.25", "--eps", "1", "--delta", "0.05", "--beta", "-1"],
        ["--alpha", "1e308", "--eps", "0.001", "--delta", "0.05"],
    ],
)
def test_certify_bad_argument_exits_1(capsys, argv):
    assert main(["certify", *argv]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "sigma" not in captured.out


def test_unknown_grid_axis_exits_1(capsys, tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text(SMALL + "\n[grid]\nfoo = 1, 2\n")
    assert main(["grid", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "foo" in err


@pytest.mark.parametrize(
    "axes",
    ["kappa = 2.0, 10.0\ncondition_number = 50.0", "deletion_time = 20\nt_del = 25, 30"],
)
def test_grid_axes_that_set_one_field_exit_1(capsys, tmp_path, axes):
    path = tmp_path / "grid.ini"
    path.write_text(SMALL + "\n[grid]\n" + axes + "\n")
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    first, second = (line.split(" =")[0] for line in axes.splitlines())
    assert f"config error: grid axes {first!r} and {second!r} both set" in captured.err
    assert "median_auc" not in captured.out
    assert not out.exists()


def test_unwritable_output_exits_2(capsys, small_cfg, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["exp2", "--config", str(small_cfg), "--out", str(blocker / "out")])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "interventions, message",
    [
        ("noop, noop", "interventions repeats noop"),
        ("oracle, window:3, noop, window:3", "interventions repeats window:3"),
        ("", "interventions names no method"),
    ],
)
def test_repeated_or_missing_intervention_ids_exit_1(capsys, tmp_path, interventions, message):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL.replace("interventions = oracle, noop", f"interventions = {interventions}"))
    assert main(["exp2", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_unexpected_failure_is_one_runtime_error_line_and_exit_2(capsys, tmp_path):
    """A logistic stream this ill-conditioned fails in numpy's Cholesky factorization."""
    path = tmp_path / "exp.ini"
    path.write_text(
        "[stream]\nregime = logistic\ndimension = 6\nlength = 60\ndeletion_time = 30\n"
        "horizon = 20\ncondition_number = 1e300\n\n[experiment]\ncontraction_trials = 0\n"
    )
    assert main(["exp2", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "runtime error: LinAlgError: Matrix is not positive definite\n"
    assert captured.out == ""


def test_a_run_that_overflows_reports_nan_auc_and_no_exact_recovery(capsys, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[stream]\ndimension = 6\nlength = 60\ndeletion_time = 30\nhorizon = 20\n"
        "condition_number = 1e300\nmu = 1\n\n[experiment]\ncontraction_trials = 0\n"
    )
    out = tmp_path / "runs"
    with np.errstate(all="ignore"):
        assert main(["exp2", "--config", str(path), "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if ": " in line]
    assert lines == [f"{m}: future_state_auc=nan exact_recovery=false" for m in DEFAULT_METHOD_IDS]
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["upd_dir_auc"] for row in rows] == ["nan"] * len(DEFAULT_METHOD_IDS)


def test_exp2_writes_results_and_traces(capsys, small_cfg, tmp_path):
    out = tmp_path / "runs"
    code = main(["exp2", "--config", str(small_cfg), "--out", str(out)])
    assert code == 0
    assert (out / "results.csv").is_file()
    assert (out / "trace_oracle.csv").is_file()
    assert (out / "trace_noop.csv").is_file()
    stdout = capsys.readouterr().out
    assert "oracle: future_state_auc=0.0 exact_recovery=true" in stdout
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3
    # 21 future steps recorded: k = 0..20
    assert len((out / "trace_noop.csv").read_text().splitlines()) == 22


def test_out_prints_each_written_path_once_in_write_order(capsys, small_cfg, tmp_path):
    out = tmp_path / "runs"
    assert main(["exp2", "--config", str(small_cfg), "--out", str(out)]) == 0
    written = ["results.csv", "trace_oracle.csv", "trace_noop.csv"]
    assert capsys.readouterr().out.splitlines()[:4] == [str(out / name) for name in written] + [
        "oracle: future_state_auc=0.0 exact_recovery=true"
    ]
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID)
    for fmt in ("csv", "json"):
        out = tmp_path / f"grid_{fmt}"
        assert main(["grid", "--config", str(grid), "--out", str(out), "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [str(out / f"results.{fmt}"), str(out / "summary.csv")]
        assert lines[2].startswith("oracle: median_auc=")
        assert sorted(p.name for p in out.iterdir()) == sorted([f"results.{fmt}", "summary.csv"])


def test_exp1_reports_noop_only(capsys, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL.replace("= oracle, noop", "= oracle, noop, mem_reset"))
    out = tmp_path / "runs"
    assert main(["exp1", "--config", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "noop:" in stdout
    assert "oracle:" not in stdout and "mem_reset:" not in stdout
    with open(out / "results.csv", newline="") as fh:
        assert [row["method"] for row in csv.DictReader(fh)] == ["noop"]
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "trace_noop.csv"]
    # 21 future steps recorded: k = 0..20
    assert len((out / "trace_noop.csv").read_text().splitlines()) == 22


def test_negative_horizon_exits_1_before_any_work(capsys, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[stream]\ndimension = 5\nlength = 200\ndeletion_time = 100\ndeletion_size = 3\n"
        "horizon = -20\n\n[optimizer]\ntau = 4\n\n[experiment]\ninterventions = oracle, noop\n"
    )
    assert main(["exp2", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: horizon must be >= 0, got -20\n"
    assert not (tmp_path / "out").exists()


def test_json_format_writes_results_json(small_cfg, tmp_path):
    out = tmp_path / "runs"
    code = main(["exp2", "--config", str(small_cfg), "--out", str(out), "--format", "json"])
    assert code == 0
    docs = json.loads((out / "results.json").read_text())
    methods = [row["method"] for row in docs[0]["rows"]]
    assert methods == ["oracle", "noop"]
    assert not (out / "results.csv").exists()


def test_seed_flag_overrides_config(capsys, small_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["exp2", "--config", str(small_cfg), "--out", str(out1), "--seed", "7"])
    main(["exp2", "--config", str(small_cfg), "--out", str(out2), "--seed", "8"])
    rows1 = (out1 / "results.csv").read_text().splitlines()[1]
    rows2 = (out2 / "results.csv").read_text().splitlines()[1]
    assert rows1.split(",")[0] == "7"
    assert rows2.split(",")[0] == "8"


def test_reruns_are_byte_identical_outside_wall_clock(small_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["exp2", "--config", str(small_cfg), "--out", str(out1)]) == 0
    assert main(["exp2", "--config", str(small_cfg), "--out", str(out2)]) == 0
    assert _masked(out1 / "results.csv") == _masked(out2 / "results.csv")
    trace1 = (out1 / "trace_noop.csv").read_bytes()
    trace2 = (out2 / "trace_noop.csv").read_bytes()
    assert trace1 == trace2


def test_grid_writes_per_point_rows_and_summary(capsys, tmp_path):
    cfg = tmp_path / "grid.ini"
    cfg.write_text(GRID)
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    # 4 grid points x 2 methods
    assert len(lines) == 1 + 8
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("method,runs,")
    assert len(summary) == 3
    stdout = capsys.readouterr().out
    assert "oracle: median_auc=0.0 exact_recovery_rate=1.0" in stdout


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_grid_workers_below_one_exits_1(capsys, tmp_path, workers):
    cfg = tmp_path / "grid.ini"
    cfg.write_text(SMALL + "\n[grid]\ntau = 3, 5\n")
    assert main(["grid", "--config", str(cfg), "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert f"config error: workers must be >= 1, got {workers}" in captured.err
    assert "median_auc" not in captured.out


def test_grid_worker_count_does_not_change_results(tmp_path):
    cfg = tmp_path / "grid.ini"
    cfg.write_text(GRID)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["grid", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["grid", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
    assert _masked(out1 / "results.csv") == _masked(out2 / "results.csv")
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_inspect_applies_one_intervention(capsys, small_cfg):
    code = main(["inspect", "--config", str(small_cfg), "--intervention", "oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "deletion set (recent): [28, 29, 30]" in out
    assert "param_err=0.0" in out


def test_unknown_intervention_id_exits_1(capsys, small_cfg):
    code = main(["inspect", "--config", str(small_cfg), "--intervention", "teleport"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_bad_window_length_exits_1(capsys, small_cfg):
    code = main(["inspect", "--config", str(small_cfg), "--intervention", "window:x"])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "'window:x'" in err


@pytest.mark.parametrize(
    "method_id",
    ["window:٣", "window:3_0", "window:+3", "window: 3"],
    ids=["arabic-indic-digit", "underscore", "plus-sign", "space"],
)
def test_window_length_in_anything_but_ascii_digits_exits_1_before_any_work(
    capsys, tmp_path, method_id
):
    path = tmp_path / "exp.ini"
    path.write_text(
        SMALL.replace("interventions = oracle, noop", f"interventions = oracle, {method_id}"),
        encoding="utf-8",
    )
    assert main(["exp2", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert f"config error: bad window length in intervention id {method_id!r}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method_id", ["window:03", "window:003"])
def test_a_window_length_with_a_leading_zero_exits_1_before_any_work(capsys, tmp_path, method_id):
    """window:3 and window:03 would name one method and give it two rows."""
    path = tmp_path / "exp.ini"
    path.write_text(
        SMALL.replace("interventions = oracle, noop", f"interventions = oracle, window:3, {method_id}")
    )
    assert main(["exp2", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert f"config error: bad window length in intervention id {method_id!r}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_docstring_and_readme_name_exactly_the_parser_subcommands():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = sorted(sub.choices)
    assert commands == sorted(["exp1", "exp2", "grid", "certify", "inspect"])
    assert sorted(re.findall(r"^    bench (\S+)", cli.__doc__, re.M)) == commands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    assert sorted(set(re.findall(r"^bench (\S+)", usage, re.M))) == commands
