"""End-to-end acceptance checks, one test per shipped criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion. Each test also prints the numbers it gates on, so running
with `-s` doubles as a short report. Tolerances are fixed here and in
README.md; configurations are frozen so reruns are reproducible.
"""

import time

import numpy as np
import pytest

from statealign.bench import (
    ExperimentConfig,
    grid_points,
    run_experiment,
    run_grid,
    write_results_csv,
)
from statealign.certify import calibrate_sigma, deviation_bound
from statealign.metrics import fit_decay_rate
from statealign.olbfgs import StepConfig, two_loop
from statealign.stream import DeletionMode, StreamConfig

from helpers import dense_inverse_hessian, mp_sigma, random_memory


def _quadratic(**overrides) -> StreamConfig:
    base = dict(
        dimension=25,
        length=700,
        deletion_time=300,
        deletion_size=5,
        horizon=150,
        deletion_mode=DeletionMode.RECENT,
    )
    base.update(overrides)
    return StreamConfig(**base)


def test_criterion_01_oracle_rows_are_zero_on_the_default_grid():
    base = ExperimentConfig(
        stream=_quadratic(length=5000, deletion_time=500, horizon=4500),
        optimizer=StepConfig(eta=0.1, tau=10),
        interventions=("oracle", "noop"),
        contraction_trials=0,
        seeds=(0,),
    )
    start = time.monotonic()
    results = run_grid(base, {"kappa": [2.0, 10.0], "tau": [5, 10]})
    elapsed = time.monotonic() - start
    worst = 0.0
    for res in results:
        oracle = res.method_row("oracle")
        for value in (
            oracle.initial_param_err,
            oracle.initial_mem_err,
            oracle.initial_state_err,
            oracle.final_state_err,
            oracle.future_state_auc,
            oracle.future_param_auc,
            oracle.upd_dir_auc,
        ):
            worst = max(worst, abs(value))
            assert abs(value) <= 1e-12
        assert oracle.exact_recovery is True
    print(f"criterion 1: 4 grid points, worst oracle error {worst!r}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_02_deep_window_replay_recovers_recent_deletions_exactly():
    worst = 0.0
    for kappa in (2.0, 10.0):
        for seed in (0, 1, 2):
            cfg = ExperimentConfig(
                stream=_quadratic(
                    dimension=10, length=350, deletion_time=100, horizon=200,
                    condition_number=kappa,
                ),
                optimizer=StepConfig(eta=0.1, tau=20),
                interventions=("window_5tau",),
                contraction_trials=0,
                seeds=(seed,),
            )
            res = run_experiment(cfg, keep_traces=False)
            auc = res.method_row("window_5tau").future_state_auc
            worst = max(worst, auc)
            assert auc <= 1e-10
    print(f"criterion 2: 6 configurations, worst window_5tau future AUC {worst!r}")


def test_criterion_03_recent_deletions_leave_direct_memory_within_tau():
    tau = 10
    clearances = []
    for seed in range(10):
        cfg = ExperimentConfig(
            stream=_quadratic(),
            optimizer=StepConfig(eta=0.1, tau=tau),
            interventions=("noop",),
            contraction_trials=0,
            seeds=(seed,),
        )
        res = run_experiment(cfg)
        noop = res.method_row("noop")
        assert noop.direct_mass_at_del == 5
        assert noop.clearance_time is not None
        assert noop.clearance_time <= tau
        mass = res.traces["noop"].direct_mass
        assert all(int(m) == 0 for m in mass[noop.clearance_time:])
        clearances.append(noop.clearance_time)
    print(f"criterion 3: 10/10 seeds, mass 5 at k=0, clearance times {clearances}")


def test_criterion_04_random_and_ranked_deletions_persist_indirectly():
    threshold = 100 * 1e-12
    lows = {}
    for mode in (DeletionMode.RANDOM, DeletionMode.HIGH_GRADIENT):
        aucs = []
        for seed in range(10):
            cfg = ExperimentConfig(
                stream=_quadratic(deletion_mode=mode),
                optimizer=StepConfig(eta=0.1, tau=10),
                interventions=("noop",),
                contraction_trials=0,
                seeds=(seed,),
            )
            res = run_experiment(cfg, keep_traces=False)
            noop = res.method_row("noop")
            assert noop.direct_mass_at_del == 0
            assert noop.future_state_auc > threshold
            aucs.append(noop.future_state_auc)
        lows[mode.value] = min(aucs)
    print(f"criterion 4: smallest noop AUC per mode {lows} (threshold {threshold!r})")


def test_criterion_05_two_loop_matches_the_dense_matrix_oracle():
    rng = np.random.default_rng(20240817)
    worst = worst_rel = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        tau = int(rng.integers(1, 6))
        n_pairs = int(rng.integers(1, tau + 1))
        mem = random_memory(rng, d, n_pairs, tau=tau)
        dense = dense_inverse_hessian(mem)
        q = rng.normal(size=d)
        err = float(np.max(np.abs(two_loop(mem, q) - dense @ q)))
        # Outputs reach 5e6 here, where 1e-9 is one ulp; the bound scaled
        # by the operator's norm is the one that measures accuracy.
        scale = float(np.linalg.norm(dense, 2) * np.max(np.abs(q)))
        worst = max(worst, err)
        worst_rel = max(worst_rel, err / scale)
        assert err < 1e-9
        assert err <= 1e-11 * scale
    print(f"criterion 5: 100 cases, worst max-abs deviation {worst!r}, worst relative {worst_rel!r}")


def test_criterion_06_deviation_bound_covers_noop_traces():
    failures = []
    rhos = []
    for seed in range(10):
        cfg = ExperimentConfig(
            stream=_quadratic(
                dimension=10,
                horizon=250,
                condition_number=1.5,
                drift_amplitude=0.0,
                drift_noise=0.01,
            ),
            optimizer=StepConfig(eta=0.1, tau=10),
            interventions=("noop",),
            memory_weight=0.005,
            contraction_trials=40,
            seeds=(seed,),
        )
        res = run_experiment(cfg)
        rho = res.rho_emp
        rhos.append(round(rho, 3))
        if not rho < 1.0:
            failures.append(f"seed {seed}: rho_emp={rho!r} >= 1")
            continue
        trace = res.traces["noop"].state_err
        for k in range(len(trace)):
            bound = deviation_bound(rho, float(trace[0]), k)
            if trace[k] > bound * (1.0 + 1e-9) + 1e-15:
                failures.append(
                    f"seed {seed}: E_theta({k})={trace[k]!r} exceeds bound {bound!r}"
                )
                break
    print(f"criterion 6: rho_emp per seed {rhos}, failures: {failures or 'none'}")
    assert len(failures) <= 1, "; ".join(failures)


def test_criterion_07_noise_calibration_matches_high_precision_reference():
    alphas = (1e-6, 1e-3, 0.013, 1.0, 472.0)
    epsilons = (0.1, 0.5, 1.0, 2.5, 7.5)
    deltas = (1e-8, 1e-4, 1e-2, 0.05)
    worst = 0.0
    points = 0
    for alpha in alphas:
        for eps in epsilons:
            for delta in deltas:
                got = calibrate_sigma(alpha, eps, delta)
                want = mp_sigma(alpha, eps, delta)
                rel = abs(got - want) / want
                worst = max(worst, rel)
                points += 1
                assert rel <= 1e-12
    assert points == 100
    assert calibrate_sigma(0.0, 1.0, 0.05) == 0.0
    print(f"criterion 7: 100 lattice points, worst relative error {worst!r}, sigma(0)=0")


def test_criterion_08_window_replay_ordering_over_a_27_point_grid():
    # deletion_time = 100 only makes the base a valid config; the t_del
    # axis sets it at every point.
    base = ExperimentConfig(
        stream=_quadratic(length=500, deletion_time=100, horizon=400),
        optimizer=StepConfig(eta=0.1, tau=10),
        interventions=("oracle", "noop", "window_tau", "window_5tau"),
        contraction_trials=0,
        seeds=(0,),
    )
    axes = {
        "kappa": [2.0, 10.0, 50.0],
        "tau": [10, 20, 40],
        "t_del": [30, 50, 100],
    }
    start = time.monotonic()
    results = run_grid(base, axes)
    elapsed = time.monotonic() - start
    assert len(results) == 27

    from statealign.bench import aggregate

    summary = {row["method"]: row for row in aggregate(results)}
    med_oracle = summary["oracle"]["median_future_state_auc"]
    med_deep = summary["window_5tau"]["median_future_state_auc"]
    med_shallow = summary["window_tau"]["median_future_state_auc"]
    share = summary["window_5tau"]["share_better_than_noop"]
    print(
        f"criterion 8: medians oracle={med_oracle!r} window_5tau={med_deep!r} "
        f"window_tau={med_shallow!r}, share better than noop {share:.3f}, {elapsed:.1f}s"
    )
    assert med_oracle == 0.0
    assert med_oracle <= med_deep <= med_shallow
    assert share >= 0.6
    assert elapsed < 600.0


def test_criterion_09_decay_fit_recovers_planted_rates_without_clamping():
    k = np.arange(60)
    decaying = 0.7 * 0.93**k
    fit = fit_decay_rate(decaying, 0, 59)
    assert fit.rho_hat == pytest.approx(0.93, rel=1e-9)
    assert fit.c_hat == pytest.approx(0.7, rel=1e-9)

    amplifying = 0.1 * 1.08**k
    blowup = fit_decay_rate(amplifying, 0, 59)
    assert blowup.rho_hat > 1.0
    assert blowup.rho_hat == pytest.approx(1.08, rel=1e-9)
    print(
        f"criterion 9: recovered rho {fit.rho_hat!r} and c {fit.c_hat!r}; "
        f"amplifying trace reported as {blowup.rho_hat!r}"
    )


def test_criterion_10_grid_rows_rerun_byte_identically(tmp_path):
    base = ExperimentConfig(
        stream=_quadratic(
            dimension=6, length=60, deletion_time=30, deletion_size=3,
            horizon=20, condition_number=4.0,
        ),
        optimizer=StepConfig(eta=0.1, tau=5),
        interventions=("oracle", "noop"),
        probe_count=8,
        contraction_trials=0,
        seeds=(7,),
    )
    axes = {"kappa": [2.0, 8.0], "tau": [3, 5]}
    full = run_grid(base, axes)
    points = grid_points(axes)
    pick = 2
    rerun = run_grid(base, {name: [value] for name, value in points[pick].items()})
    assert rerun[0].seed == full[pick].seed

    full_csv = tmp_path / "full.csv"
    rerun_csv = tmp_path / "rerun.csv"
    write_results_csv(full, str(full_csv))
    write_results_csv(rerun, str(rerun_csv))
    header = full_csv.read_text().splitlines()[0].split(",")
    timing = header.index("wall_clock_s")
    methods = len(base.interventions)
    originals = full_csv.read_text().splitlines()[1 + pick * methods:][:methods]
    replays = rerun_csv.read_text().splitlines()[1:]
    assert len(originals) == len(replays) == methods
    for before, after in zip(originals, replays):
        cells_before = before.split(",")
        cells_after = after.split(",")
        cells_before[timing] = cells_after[timing] = "-"
        assert cells_before == cells_after
    print(f"criterion 10: grid point {points[pick]} rerun reproduced {methods} rows byte-for-byte")
