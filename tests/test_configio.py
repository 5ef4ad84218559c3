"""Flat key-value config files: loading, coercion, and grid axes."""

import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from statealign.bench import ExperimentConfig
from statealign.cli import main
from statealign.configio import load_config, load_grid_axes
from statealign.errors import InvalidConfig
from statealign.olbfgs import StepConfig
from statealign.stream import DeletionMode, Regime, StreamConfig

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

FULL = """\
[stream]
regime = logistic
dimension = 6
length = 80
deletion_time = 30
deletion_size = 3
deletion_mode = random
horizon = 20
condition_number = 4.0

[optimizer]
eta = 0.5
tau = 7
curvature_eps = 1e-6

[experiment]
interventions = oracle, noop, window:12
probe_count = 8
memory_weight = 0.25
contraction_trials = 0
seeds = 3
privacy_epsilon = 2.0
"""


def test_load_config_covers_all_sections(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(FULL)
    cfg = load_config(path)
    assert cfg.stream.regime is Regime.LOGISTIC
    assert cfg.stream.dimension == 6
    assert cfg.stream.deletion_mode is DeletionMode.RANDOM
    assert cfg.stream.condition_number == 4.0
    assert cfg.optimizer.eta == 0.5
    assert cfg.optimizer.tau == 7
    assert cfg.optimizer.curvature_eps == 1e-6
    assert cfg.interventions == ("oracle", "noop", "window:12")
    assert cfg.memory_weight == 0.25
    assert cfg.seeds == (3,)
    assert cfg.privacy_epsilon == 2.0
    # untouched knobs keep their defaults
    assert cfg.privacy_delta == 0.05
    assert cfg.stream.mu == 1.0


def test_unknown_keys_fail_loudly(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[stream]\nduration = 80\n")
    with pytest.raises(InvalidConfig, match="duration"):
        load_config(path)
    path.write_text("[experiment]\nverbosity = 3\n")
    with pytest.raises(InvalidConfig, match="verbosity"):
        load_config(path)


@pytest.mark.parametrize(
    "text, section",
    [
        ("[optimiser]\neta = 5.0\n", "optimiser"),
        ("[DEFAULT]\neta = 5.0\n\n[optimizer]\ntau = 3\n", "DEFAULT"),
    ],
    ids=["misspelled", "default-keys"],
)
def test_unknown_sections_fail_loudly(tmp_path, text, section):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    with pytest.raises(InvalidConfig, match=rf"unknown section \[{section}\]"):
        load_config(path)
    with pytest.raises(InvalidConfig, match=rf"unknown section \[{section}\]"):
        load_grid_axes(path)


def test_bad_values_name_the_key(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[stream]\nlength = soon\n")
    with pytest.raises(InvalidConfig, match="length"):
        load_config(path)
    path.write_text("[stream]\nregime = cubic\n")
    with pytest.raises(InvalidConfig, match="regime"):
        load_config(path)
    path.write_text("[experiment]\nseeds = 0, x\n")
    with pytest.raises(InvalidConfig, match="bad value 'x' for seeds"):
        load_config(path)
    path.write_text("[stream]\ndimension = 2%5\n")
    with pytest.raises(InvalidConfig, match="bad value '2%5' for dimension"):
        load_config(path)
    path.write_text("[experiment]\nprivacy_epsilon = nan\n")
    with pytest.raises(InvalidConfig, match="bad value 'nan' for privacy_epsilon"):
        load_config(path)
    path.write_text("[grid]\nkappa = 2.0, inf\n")
    with pytest.raises(InvalidConfig, match="bad value 'inf' for kappa"):
        load_grid_axes(path)


def test_missing_file_names_the_path(tmp_path):
    missing = tmp_path / "nope.ini"
    with pytest.raises(InvalidConfig, match="nope.ini"):
        load_config(missing)


def test_loaded_config_is_validated(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[stream]\ndimension = 0\n")
    with pytest.raises(InvalidConfig):
        load_config(path)


def test_grid_axes_parse_typed_value_lists(tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text(
        "[grid]\nkappa = 2.0, 8.0\ntau = 3, 5\ndeletion_mode = recent, random\n"
        "t_del = 30\nseed = 1, 2\nlength = 90\ncurvature_eps = 1e-8, 1e-4\n"
    )
    axes = load_grid_axes(path)
    assert axes["kappa"] == [2.0, 8.0]
    assert axes["tau"] == [3, 5]
    assert axes["deletion_mode"] == ["recent", "random"]
    assert axes["t_del"] == [30]
    assert axes["seed"] == [1, 2]
    assert axes["length"] == [90]
    assert axes["curvature_eps"] == [1e-8, 1e-4]


def test_grid_axis_without_values_is_rejected(capsys, tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text("[grid]\nkappa = ,\n")
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: grid axis 'kappa' has no values"]
    assert not out.exists()


def test_inline_comments_are_stripped(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[optimizer]\ntau = 7  # memory length\n")
    cfg = load_config(path)
    assert cfg.optimizer.tau == 7


def test_grid_rejects_unknown_axes_and_bad_enum_values(tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text("[grid]\nfoo = 1, 2\n")
    with pytest.raises(InvalidConfig, match="foo"):
        load_grid_axes(path)
    path.write_text("[grid]\nregime = quadratic, cubic\n")
    with pytest.raises(InvalidConfig, match="cubic"):
        load_grid_axes(path)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load(path):
    cfg = load_config(path)
    assert cfg.seeds
    if "[grid]" in path.read_text():
        assert load_grid_axes(path)


def test_optimizer_ridge_is_rejected_in_favour_of_the_stream_ridge(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[optimizer]\nridge = 0.5\n")
    with pytest.raises(InvalidConfig, match=r"unknown key 'ridge' in \[optimizer\]"):
        load_config(path)


@pytest.mark.parametrize("key, value", [("gamma_mode", "constant"), ("gamma0", "0.5")])
def test_removed_optimizer_keys_are_unknown(tmp_path, key, value):
    path = tmp_path / "exp.ini"
    path.write_text(f"[optimizer]\n{key} = {value}\n")
    with pytest.raises(InvalidConfig, match=rf"unknown key '{key}' in \[optimizer\]"):
        load_config(path)
    path.write_text(f"[grid]\n{key} = {value}\n")
    with pytest.raises(InvalidConfig, match=rf"unknown key '{key}' in \[grid\]"):
        load_grid_axes(path)


def _readme_keys(section: str) -> list[str]:
    """The backticked keys of README's `- `[section]`: ...` bullet.

    Parenthesised notes are dropped, and the list ends at the first ';'
    or '.' that follows.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = re.search(rf"^- `\[{section}\]`:(.*?)(?=^\S|^$)", text, re.M | re.S)
    assert bullet, f"README has no [{section}] key list"
    body = bullet.group(1)
    while re.search(r"\([^()]*\)", body):
        body = re.sub(r"\([^()]*\)", "", body)
    return re.findall(r"`(\w+)`", re.split(r"[;.]", body, maxsplit=1)[0])


@pytest.mark.parametrize(
    "section, cls",
    [("stream", StreamConfig), ("optimizer", StepConfig), ("experiment", ExperimentConfig)],
)
def test_readme_key_lists_are_the_config_fields(section, cls):
    keys = [f.name for f in fields(cls) if not is_dataclass(f.default_factory)]
    assert sorted(_readme_keys(section)) == sorted(keys)
