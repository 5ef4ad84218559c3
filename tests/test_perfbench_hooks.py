"""The benchmark's traced, pooled path still finds and merges every hook.

perfbench/hooks.py looks the hooked functions up by name, grid pool
workers inherit its wrappers by fork, and their span tables are merged
back into the parent's. A renamed function or a broken merge shows as a
non-empty `missing` or `broken` list, or as zero calls. The run happens
in a subprocess because the hooks patch the package for the rest of the
process.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]

TINY_GRID = """\
[stream]
dimension = 4
length = 60
deletion_time = 30
deletion_size = 3
horizon = 20

[optimizer]
eta = 0.1

[experiment]
interventions = oracle, noop, window_tau
probe_count = 4
contraction_trials = 3
seeds = 0

[grid]
tau = 3, 5
"""


def traced_run(tmp_path, config_text: str, command: str, *options: str) -> dict:
    """The record of `perfbench/child.py run --trace` over one `bench COMMAND` run."""
    config = tmp_path / "config.ini"
    config.write_text(config_text)
    record_path = tmp_path / "record.json"
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    argv = [
        sys.executable, str(ROOT / "perfbench" / "child.py"), "run", str(record_path),
        "--trace", str(trace_dir), "--",
        command, "--config", str(config), *options, "--out", str(tmp_path / "out"),
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(record_path.read_text())


def traced_grid_run(tmp_path, config_text: str) -> dict:
    """The record of a traced run over a 2-worker grid."""
    return traced_run(tmp_path, config_text, "grid", "--workers", "2")


@functools.cache
def perfbench_run():
    """perfbench/run.py as a module, loaded once: numpy, which it imports, loads once per process."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    # run.py sets thread variables in os.environ when it is imported, and its
    # dataclasses look their module up in sys.modules.
    with mock.patch.dict(os.environ), mock.patch.dict(sys.modules, {spec.name: run}):
        spec.loader.exec_module(run)
    return run


def layer_metrics(record: dict) -> dict:
    """perfbench/run.py's per-layer metrics of a traced record."""
    return perfbench_run().layer_metrics(record["trace"], record["workers_merged"])


def test_traced_grid_run_merges_every_hook_from_two_workers(tmp_path):
    record = traced_grid_run(tmp_path, TINY_GRID)
    assert record["rc"] == 0
    assert record["trace"]["missing"] == []
    assert record["trace"]["broken"] == []
    assert record["workers_merged"] >= 1
    stats = record["trace"]["stats"]
    for span in (
        "olbfgs.advance",
        "bench.grid_point",
        "olbfgs.two_loop.probe",
        "olbfgs.two_loop.grad",
        "certify.empirical_contraction",
        "metrics.direction_gap",
    ):
        assert stats.get(span, [0])[0] > 0, span
    # The contraction trials start from states the run reaches, so they step no history.
    assert stats.get("certify.step", [0])[0] == 0
    # The optimizer's traced counts: 116 scalar steps, every pair accepted,
    # and 631 pairs seen over the 116 + 54 two_loop calls. The scalar steps
    # are each point's training (30) and its oracle and window_tau replays;
    # the step each contraction trial takes is a LaneBank.move, which
    # neither counts.
    layer = layer_metrics(record)
    assert layer["olbfgs.advance.pairs_accepted"] == 116
    assert layer["olbfgs.advance.pairs_rejected"] == 0
    assert layer["olbfgs.two_loop.pairs_mean"] == 631 / 170


def test_traced_grid_without_contraction_trials_reports_every_layer_metric(tmp_path):
    """Shaped like the grid-depth workload: the propagation alone applies the probes."""
    record = traced_grid_run(
        tmp_path, TINY_GRID.replace("contraction_trials = 3", "contraction_trials = 0")
    )
    assert record["rc"] == 0
    layer = layer_metrics(record)
    assert record["trace"]["missing"] == []
    assert [name for name, value in layer.items() if value is None] == []
    # metrics.state_gaps applies the probes and metrics.direction_gap compares
    # the directions once per step for all lanes: 2 points x (20 steps + 1).
    assert layer["olbfgs.two_loop.probe.calls"] == 2 * 21
    assert layer["metrics.direction_gap.calls"] == 2 * 20
    assert layer["metrics.direction_gap.degenerate"] == 0


def test_traced_exp2_run_reports_every_layer_metric_as_strict_json(tmp_path):
    """Shaped like the exp2 workloads: one un-pooled run whose contraction trials apply probes too."""
    single = TINY_GRID.split("[grid]")[0]
    record = traced_run(tmp_path, single, "exp2")
    assert record["rc"] == 0
    assert record["trace"]["missing"] == []
    assert record["trace"]["broken"] == []
    layer = layer_metrics(record)
    assert [name for name, value in layer.items() if value is None] == []
    json.dumps(layer, allow_nan=False)
    # metrics.state_gaps applies the probes once per step (20 steps + 1),
    # and twice more per contraction trial.
    assert layer["olbfgs.two_loop.probe.calls"] >= 20 + 1
