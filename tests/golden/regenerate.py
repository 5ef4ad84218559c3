"""Golden files: three small runs whose outputs are committed.

`tests/test_golden.py` reruns every case and compares the files byte
for byte, so a change that claims to move no number is checked against
the files below. `wall_clock_s` is the only nondeterministic column; it
is written as nan here.

A change that moves numbers on purpose regenerates the files with

    PYTHONPATH=src python tests/golden/regenerate.py

and reports, per column, how far the values moved.
"""
from __future__ import annotations

import sys
from pathlib import Path

from statealign.bench import (
    ExperimentConfig,
    aggregate,
    run_experiment,
    run_grid,
    write_results_csv,
    write_results_json,
    write_summary_csv,
    write_trace_csv,
)
from statealign.olbfgs import StepConfig
from statealign.stream import DeletionMode, Regime, StreamConfig

GOLDEN_DIR = Path(__file__).resolve().parent

# Acceptance criterion 6's contractive stream, shortened; all nine
# default methods, so rho_emp, alpha_bound and sigma_cert are numbers.
QUADRATIC = ExperimentConfig(
    stream=StreamConfig(
        dimension=10,
        length=400,
        deletion_time=300,
        deletion_size=5,
        horizon=100,
        condition_number=1.5,
        drift_amplitude=0.0,
        drift_noise=0.01,
        deletion_mode=DeletionMode.RECENT,
    ),
    optimizer=StepConfig(eta=0.1, tau=10),
    memory_weight=0.005,
    contraction_trials=40,
    seeds=(0,),
)

LOGISTIC = ExperimentConfig(
    stream=StreamConfig(
        regime=Regime.LOGISTIC,
        dimension=10,
        length=400,
        deletion_time=300,
        deletion_size=5,
        horizon=100,
        curvature_drift=0.5,
        deletion_mode=DeletionMode.HIGH_GRADIENT,
    ),
    optimizer=StepConfig(eta=0.1, tau=10),
    seeds=(0,),
)

# At tau=20 the window_5tau window (100 events) covers the whole prefix
# at both deletion times.
GRID_BASE = ExperimentConfig(
    stream=StreamConfig(
        dimension=10,
        length=200,
        deletion_time=100,
        deletion_size=5,
        horizon=100,
        condition_number=1.5,
        drift_amplitude=0.0,
        drift_noise=0.01,
        deletion_mode=DeletionMode.RECENT,
    ),
    optimizer=StepConfig(eta=0.1, tau=10),
    contraction_trials=0,
    seeds=(0,),
)
GRID_AXES = {"tau": [5, 20], "t_del": [40, 100]}


def _blank_wall_clock(results) -> None:
    for res in results:
        for row in res.methods:
            row.wall_clock_s = float("nan")


def write_single(cfg: ExperimentConfig, out: Path, require_contractive: bool) -> None:
    """results.csv, results.json and every trace_<method>.csv of one exp2 run."""
    res = run_experiment(cfg)
    if require_contractive and not res.rho_emp < 1.0:
        raise RuntimeError(f"golden run is not contractive: rho_emp={res.rho_emp!r}")
    _blank_wall_clock([res])
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv([res], str(out / "results.csv"))
    write_results_json([res], str(out / "results.json"))
    for method, trace in res.traces.items():
        write_trace_csv(trace, str(out / f"trace_{method}.csv"))


def write_grid(out: Path) -> None:
    """results.csv and summary.csv of the 4-point grid."""
    results = run_grid(GRID_BASE, GRID_AXES)
    _blank_wall_clock(results)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(results, str(out / "results.csv"))
    write_summary_csv(aggregate(results), str(out / "summary.csv"))


CASES = {
    "exp2_quadratic": lambda out: write_single(QUADRATIC, out, require_contractive=True),
    "exp2_logistic": lambda out: write_single(LOGISTIC, out, require_contractive=False),
    "grid": write_grid,
}


def main() -> int:
    for name, write in CASES.items():
        write(GOLDEN_DIR / name)
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
