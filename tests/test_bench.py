"""Experiment harness: single runs, grids, aggregation, and flat-file output."""

import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from statealign import bench, certify, metrics, olbfgs
from statealign.bench import (
    CSV_COLUMNS,
    TRACE_COLUMNS,
    ExperimentConfig,
    MethodResult,
    RunResult,
    aggregate,
    atomic_write,
    derive_point_seed,
    grid_points,
    result_rows,
    run_experiment,
    run_grid,
    write_results_csv,
    write_results_json,
    write_summary_csv,
    write_trace_csv,
)
from statealign.errors import EmptyResults, InvalidAxis, InvalidConfig
from statealign.interventions import DEFAULT_METHOD_IDS, apply as apply_intervention
from statealign.metrics import MetricTrace, make_probes
from statealign.olbfgs import (
    LaneBank,
    StepConfig,
    advance,
    direct_mass,
    replay,
    state_key,
    two_loop,
)
from statealign.stream import Regime, StreamConfig, edit_history


def small_config(**overrides) -> ExperimentConfig:
    stream = StreamConfig(
        dimension=6,
        length=60,
        deletion_time=30,
        deletion_size=3,
        horizon=20,
        condition_number=4.0,
    )
    base = dict(
        stream=stream,
        optimizer=StepConfig(eta=0.1, tau=5),
        interventions=("oracle", "noop"),
        probe_count=8,
        contraction_trials=0,
        seeds=(7,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_oracle_row_is_exactly_zero_and_noop_ratio_is_one():
    res = run_experiment(small_config())
    oracle = res.method_row("oracle")
    assert oracle.initial_param_err == 0.0
    assert oracle.initial_mem_err == 0.0
    assert oracle.initial_state_err == 0.0
    assert oracle.final_state_err == 0.0
    assert oracle.future_state_auc == 0.0
    assert oracle.future_param_auc == 0.0
    assert oracle.upd_dir_auc == 0.0
    assert oracle.direct_mass_at_del == 0
    assert oracle.exact_recovery is True
    noop = res.method_row("noop")
    assert noop.future_state_auc > 0.0
    assert noop.exact_recovery is False
    assert noop.auc_ratio_vs_noop == 1.0
    assert oracle.auc_ratio_vs_noop == 0.0


def test_experiment1_compares_actual_to_counterfactual_only():
    # Experiment 1 is run_experiment on a config whose interventions are ("noop",);
    # `bench exp1` sets that on whatever config it loads.
    res = run_experiment(small_config(interventions=("noop",)))
    assert [m.method for m in res.methods] == ["noop"]
    assert list(res.traces) == ["noop"]
    trace = res.traces["noop"]
    assert len(trace) == small_config().stream.horizon + 1


def test_recent_deletions_clear_after_tau_accepted_pushes():
    res = run_experiment(small_config())
    noop = res.method_row("noop")
    trace = res.traces["noop"]
    assert noop.direct_mass_at_del == 3
    assert int(trace.direct_mass[0]) == 3
    assert noop.clearance_time == 5
    assert all(int(m) == 0 for m in trace.direct_mass[5:])


def test_clearance_is_none_when_horizon_is_too_short():
    cfg = small_config()
    cfg = ExperimentConfig(
        stream=StreamConfig(
            dimension=6, length=40, deletion_time=30, deletion_size=3,
            horizon=3, condition_number=4.0,
        ),
        optimizer=cfg.optimizer,
        interventions=("noop",),
        probe_count=8,
        contraction_trials=0,
        seeds=(7,),
    )
    res = run_experiment(cfg)
    assert res.method_row("noop").clearance_time is None


def test_same_seed_reruns_share_future_and_probe_hashes():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert a.future_hash == b.future_hash
    assert a.probe_hash == b.probe_hash
    c = run_experiment(small_config(seeds=(8,)))
    assert c.future_hash != a.future_hash


def test_contraction_feeds_alpha_bound_and_sigma():
    res = run_experiment(small_config(contraction_trials=10, memory_weight=0.0))
    assert math.isfinite(res.rho_emp)
    noop = res.method_row("noop")
    if res.rho_emp < 1.0:
        assert noop.alpha_bound == noop.initial_state_err * res.rho_emp ** 20
        assert noop.sigma_cert > 0.0
    else:
        assert any("rho_emp" in v for v in res.assumption_violations)


def test_noop_trace_above_the_contraction_bound_is_a_violation(monkeypatch):
    monkeypatch.setattr(bench.certify, "empirical_contraction", lambda *args, **kwargs: 0.5)
    res = run_experiment(small_config(contraction_trials=1))
    errs = res.traces["noop"].state_err
    bound, first = errs[0], None
    for k in range(1, len(errs)):
        bound = 0.5 * bound
        if errs[k] > bound * (1.0 + 1e-9) + 1e-15:
            first = k
            break
    assert first is not None
    assert res.assumption_violations == [
        f"contractive-updates: NoOp trace exceeds bound at k={first}"
    ]


def test_a_diverging_run_reports_nan_rows_and_a_violation_without_warnings():
    cfg = ExperimentConfig(
        stream=StreamConfig(
            dimension=10, length=600, deletion_time=200, horizon=400, condition_number=1e6
        ),
        optimizer=StepConfig(eta=5.0, tau=5),
        interventions=("oracle", "noop"),
        seeds=(0,),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_experiment(cfg)
    for row in res.methods:
        assert math.isnan(row.future_state_auc) and math.isnan(row.final_state_err)
    assert res.assumption_violations == [
        "contractive-updates: rho_emp is nan (a contraction trial diverged)"
    ]
    assert np.geterr()["over"] == "warn"


def test_a_diverged_contraction_trial_makes_rho_emp_nan_and_a_violation():
    """17 of the 25 trial ratios are nan here, and a finite one comes first."""
    cfg = small_config(
        stream=StreamConfig(
            dimension=10, length=600, deletion_time=200, horizon=400, condition_number=1e6
        ),
        optimizer=StepConfig(eta=5.0, tau=5),
        probe_count=32,
        contraction_trials=25,
        seeds=(0,),
    )
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_experiment(cfg)
    assert math.isnan(res.rho_emp)
    assert res.assumption_violations == [
        "contractive-updates: rho_emp is nan (a contraction trial diverged)"
    ]
    for row in res.methods:
        assert math.isnan(row.alpha_bound) and math.isnan(row.sigma_cert)


def test_phase_fit_reads_only_a_too_short_interval_as_nan(monkeypatch):
    trace = np.array([1.0, 0.5, 0.25, 0.125])
    assert bench._phase_fit(trace, 0, 3) == pytest.approx(0.5, rel=1e-12)
    assert math.isnan(bench._phase_fit(trace, 0, 1))

    def broken_fit(*args, **kwargs):
        raise ZeroDivisionError("a fault inside the fit")

    monkeypatch.setattr(metrics, "fit_decay_rate", broken_fit)
    with pytest.raises(ZeroDivisionError, match="a fault inside the fit"):
        bench._phase_fit(trace, 0, 3)


# ---------------------------------------------------------------------------
# Propagation lanes
# ---------------------------------------------------------------------------


def test_oracle_intervention_reproduces_the_oracle_state_bit_for_bit():
    _, ctx, _ = bench.prepare_run(replace(small_config(), seeds=(7,)))
    oracle = apply_intervention("oracle", ctx)
    edited = edit_history(ctx.full_prefix, ctx.deletions)
    assert state_key(oracle.state) == state_key(replay(ctx.theta0, edited, ctx.step_cfg))
    whole = apply_intervention(f"window:{len(ctx.full_prefix)}", ctx)
    assert state_key(oracle.state) == state_key(whole.state)


def test_a_run_replays_the_prefix_and_each_replay_method_once(monkeypatch):
    """The contraction trials and lane 0 step nothing on their own."""
    calls = []
    real_advance = olbfgs.advance

    def counting_advance(state, event, cfg):
        calls.append(event.index)
        return real_advance(state, event, cfg)

    monkeypatch.setattr(olbfgs, "advance", counting_advance)
    cfg = small_config(
        interventions=("oracle", "noop", "mem_reset", "window:5"), contraction_trials=25
    )
    res = run_experiment(cfg)
    assert len(calls) == cfg.stream.deletion_time + sum(r.replayed_events for r in res.methods)
    assert res.method_row("oracle").replayed_events > 0
    assert res.method_row("window:5").replayed_events > 0


def test_contraction_trials_start_from_the_states_a_replay_of_the_stream_reaches():
    cfg = small_config(interventions=("oracle", "mem_reset"), contraction_trials=25)
    strm, ctx, _ = bench.prepare_run(cfg)
    t_del = cfg.stream.deletion_time
    rng = np.random.default_rng(np.random.SeedSequence((7, 0x636F6E74)))
    positions = sorted(int(p) for p in rng.integers(0, t_del + cfg.stream.horizon, size=25))
    assert min(positions) < t_del <= max(positions)
    trials = [(replay(ctx.theta0, strm.events[:p], ctx.step_cfg), strm.events[p]) for p in positions]
    probes = make_probes(cfg.stream.dimension, cfg.probe_count, 7)
    want = certify.empirical_contraction(trials, ctx.step_cfg, rng, probes, cfg.memory_weight)
    hidden = run_experiment(cfg)
    shared = run_experiment(replace(cfg, interventions=("oracle", "noop", "mem_reset")))
    assert list(hidden.traces) == ["oracle", "mem_reset"]
    assert hidden.rho_emp == shared.rho_emp == want


def test_identical_start_states_share_one_propagation(monkeypatch):
    lanes = []
    real_two_loop = metrics.two_loop

    def counting_two_loop(memory, q):
        lanes.append(memory.w.shape[0])
        return real_two_loop(memory, q)

    monkeypatch.setattr(metrics, "two_loop", counting_two_loop)
    cfg = small_config(interventions=("oracle", "noop", "retain_ft"))
    res = run_experiment(cfg)
    assert lanes == [2] * (cfg.stream.horizon + 1)
    assert res.traces["retain_ft"] is res.traces["noop"]
    assert res.method_row("oracle").future_state_auc == 0.0


def reference_propagation(oracle0, starts, future, cfg, probes, memory_weight, deletions):
    """_propagate_lanes before the lane bank: scalar advance, lane by lane.

    Each lane's probe action is the compact one of a one-lane bank, which
    gives a lane the same bits as in any bank. The distances are written
    out per lane with np.linalg.norm and 1-D `@`, so the comparison does
    not go through the stacked metric functions.
    """
    keys = [state_key(st) for st in (oracle0, *starts)]
    by_key = dict(zip(keys, (oracle0, *starts)))
    lanes = list(by_key.values())

    n, h = len(lanes), len(future)
    param = np.empty((n, h + 1))
    memory = np.empty((n, h + 1))
    state = np.empty((n, h + 1))
    direction = np.full((n, h + 1), np.nan)
    mass = np.zeros((n, h + 1), dtype=np.int64)
    loss = np.full((n, h + 1), np.nan)

    for k in range(h + 1):
        actions = [two_loop(LaneBank([st]), probes)[0] for st in lanes]
        for i, st in enumerate(lanes):
            e_w = float(np.linalg.norm(st.w - lanes[0].w))
            diff = actions[i] - actions[0]
            e_z = math.sqrt(float(np.mean(np.sum(diff * diff, axis=0))))
            param[i, k] = e_w
            memory[i, k] = e_z
            state[i, k] = e_w + memory_weight * e_z
            mass[i, k] = direct_mass(st, deletions)
        if k < h:
            steps = [advance(st, future[k], cfg) for st in lanes]
            lanes = [st for st, _ in steps]
            ref = steps[0][1].direction
            for i, (_, info) in enumerate(steps):
                d_i = info.direction
                n_i, n_ref = float(np.linalg.norm(d_i)), float(np.linalg.norm(ref))
                if n_i < metrics.DIRECTION_EPS or n_ref < metrics.DIRECTION_EPS:
                    pass  # a degenerate direction has no angle: nan
                elif np.array_equal(d_i, ref):
                    direction[i, k] = 0.0
                else:
                    direction[i, k] = 1.0 - float(d_i @ ref) / (n_i * n_ref)
                loss[i, k] = info.loss
    traces = {
        key: MetricTrace(
            param_err=param[i],
            memory_err=memory[i],
            state_err=state[i],
            direction_err=direction[i],
            direct_mass=mass[i],
            loss=loss[i],
        )
        for i, key in enumerate(by_key)
    }
    return [traces[key] for key in keys[1:]]


@pytest.mark.parametrize(
    "stream_overrides, optimizer_overrides, diverges",
    [
        ({}, {}, False),
        (
            {"regime": Regime.LOGISTIC, "ridge": 0.01},
            {"eta": 0.05, "tau": 3},
            False,
        ),
        ({"condition_number": 30.0}, {"tau": 12, "curvature_eps": 1e-3}, False),
        # Every lane turns non-finite from about k = 50 on, some through inf.
        (
            {"length": 180, "deletion_time": 100, "horizon": 80, "condition_number": 1e5},
            {"eta": 10.0, "tau": 10},
            True,
        ),
    ],
)
def test_propagate_lanes_matches_the_per_lane_loop_bit_for_bit(
    stream_overrides, optimizer_overrides, diverges
):
    """Equal bits everywhere, except that a NaN's sign bit may differ (it prints as nan)."""
    cfg = small_config(interventions=DEFAULT_METHOD_IDS)
    cfg = replace(
        cfg,
        stream=replace(cfg.stream, **stream_overrides),
        optimizer=replace(cfg.optimizer, **optimizer_overrides),
    )
    strm, ctx, _ = bench.prepare_run(replace(cfg, seeds=(7,)))
    starts = [apply_intervention(m, ctx).state for m in DEFAULT_METHOD_IDS]
    oracle0 = starts[0]
    future = strm.future(cfg.stream.deletion_time, cfg.stream.horizon)
    probes = make_probes(cfg.stream.dimension, cfg.probe_count, 7)
    args = (oracle0, starts, future, ctx.step_cfg, probes, 0.7, ctx.deletions)
    with np.errstate(all="ignore"):
        got, _ = bench._propagate_lanes(*args)
        want = reference_propagation(*args)
    assert len({id(t) for t in got}) == len({id(t) for t in want})
    assert any(not np.isfinite(t.state_err).all() for t in want) == diverges
    for a, b in zip(got, want):
        for name in ("param_err", "memory_err", "state_err", "direction_err", "direct_mass", "loss"):
            x, y = getattr(a, name), getattr(b, name)
            nan = np.isnan(x)
            assert x.dtype == y.dtype and np.array_equal(nan, np.isnan(y)), name
            assert x[~nan].tobytes() == y[~nan].tobytes(), name


def test_a_start_state_one_ulp_from_the_oracle_gets_its_own_lane():
    cfg = small_config()
    strm, ctx, _ = bench.prepare_run(replace(cfg, seeds=(7,)))
    oracle0 = apply_intervention("oracle", ctx).state
    nudged = oracle0.clone()
    nudged.w[0] = np.nextafter(nudged.w[0], np.inf)
    future = strm.future(cfg.stream.deletion_time, cfg.stream.horizon)
    probes = make_probes(cfg.stream.dimension, cfg.probe_count, 7)
    (same, apart), _ = bench._propagate_lanes(
        oracle0, [oracle0.clone(), nudged], future, ctx.step_cfg, probes, 1.0, ctx.deletions
    )
    assert apart is not same
    assert same.state_auc() == 0.0
    assert apart.param_err[0] > 0.0


def test_pair_source_is_part_of_the_lane_key():
    cfg = small_config()
    strm, ctx, _ = bench.prepare_run(replace(cfg, seeds=(7,)))
    oracle0 = apply_intervention("oracle", ctx).state
    deleted, kept = ctx.actual.clone(), ctx.actual.clone()
    deleted.src[-1] = min(ctx.deletions.indices)
    kept.src[-1] = cfg.stream.length
    future = strm.future(cfg.stream.deletion_time, cfg.stream.horizon)
    probes = make_probes(cfg.stream.dimension, cfg.probe_count, 7)
    (a, b), _ = bench._propagate_lanes(
        oracle0, [deleted, kept], future, ctx.step_cfg, probes, 1.0, ctx.deletions
    )
    assert a is not b
    assert a.direct_mass[0] == b.direct_mass[0] + 1
    assert a.state_err.tobytes() == b.state_err.tobytes()


def test_stops_copy_the_last_start_states_lane_bit_for_bit():
    cfg = small_config()
    strm, ctx, at_stops = bench.prepare_run(cfg, (0, 4, 4, 29))
    prefix = ctx.full_prefix
    for p, got in zip((0, 4, 4, 29), at_stops):
        assert state_key(got) == state_key(replay(ctx.theta0, prefix[:p], ctx.step_cfg))
    oracle0 = apply_intervention("oracle", ctx).state
    future = strm.future(cfg.stream.deletion_time, cfg.stream.horizon)
    probes = make_probes(cfg.stream.dimension, cfg.probe_count, 7)
    stops = (0, 4, 4, 19)
    traces, copies = bench._propagate_lanes(
        oracle0, [ctx.actual.clone(), ctx.actual], future, ctx.step_cfg, probes, 1.0,
        ctx.deletions, stops,
    )
    assert traces[0] is traces[1]
    for k, got in zip(stops, copies):
        assert state_key(got) == state_key(replay(ctx.actual, future[:k], ctx.step_cfg))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def test_grid_points_cross_axes_in_alphabetical_order():
    pts = grid_points({"tau": [1, 2], "kappa": [3.0]})
    assert pts == [{"kappa": 3.0, "tau": 1}, {"kappa": 3.0, "tau": 2}]
    assert grid_points({}) == [{}]


def test_derive_point_seed_is_stable_and_separates_points():
    p1 = {"kappa": 2.0, "tau": 5}
    assert derive_point_seed(0, p1) == derive_point_seed(0, dict(reversed(p1.items())))
    assert derive_point_seed(0, p1) != derive_point_seed(0, {"kappa": 2.0, "tau": 10})
    assert derive_point_seed(0, p1) != derive_point_seed(1, p1)
    assert derive_point_seed(3, {}) == 3
    assert derive_point_seed(3, {"seed": 9}) == 9


def test_degenerate_grid_matches_direct_run():
    direct = run_experiment(small_config(), keep_traces=False)
    via_grid = run_grid(small_config(), {}, workers=1)
    assert len(via_grid) == 1
    assert via_grid[0].seed == direct.seed
    assert _rows_without_timing(via_grid[0]) == _rows_without_timing(direct)


def _rows_without_timing(result: RunResult) -> list[dict]:
    rows = []
    for row in result_rows(result):
        # repr() maps nan to "nan" so NaN cells compare equal across runs
        rows.append({k: repr(v) for k, v in row.items() if k != "wall_clock_s"})
    return rows


def test_grid_results_do_not_depend_on_worker_count():
    axes = {"kappa": [2.0, 8.0], "tau": [3, 5]}
    serial = run_grid(small_config(), axes, workers=1)
    parallel = run_grid(small_config(), axes, workers=2)
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert a.seed == b.seed
        assert _rows_without_timing(a) == _rows_without_timing(b)


def test_grid_rejects_unknown_axis_and_empty_values():
    with pytest.raises(InvalidAxis):
        run_grid(small_config(), {"teleport": [1]}, workers=1)
    with pytest.raises(InvalidAxis):
        run_grid(small_config(), {"kappa": []}, workers=1)


def test_grid_checks_every_axis_value_before_any_point_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(bench, "run_experiment", lambda *args, **kwargs: ran.append(args))
    with pytest.raises(InvalidAxis, match="cubic"):
        run_grid(small_config(), {"regime": ["quadratic", "cubic"]}, workers=1)
    assert ran == []


def test_grid_pool_has_no_more_workers_than_points(monkeypatch):
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(bench, "_grid_worker", lambda cfg: cfg.optimizer.tau)
    assert run_grid(small_config(), {"tau": [3, 5]}, workers=64) == [3, 5]
    assert len(run_grid(small_config(), {"kappa": [2.0, 8.0], "tau": [3, 5]}, workers=3)) == 4
    assert made == [2, 3]


@pytest.mark.parametrize("workers", [0, -5])
def test_grid_rejects_workers_below_one_before_any_point_runs(monkeypatch, workers):
    ran = []
    monkeypatch.setattr(bench, "_grid_worker", ran.append)
    with pytest.raises(InvalidConfig, match=f"workers must be >= 1, got {workers}"):
        run_grid(small_config(), {"tau": [3, 5]}, workers=workers)
    assert ran == []


@pytest.mark.parametrize(
    "alias, field, value", [("kappa", "condition_number", 50.0), ("t_del", "deletion_time", 30)]
)
def test_grid_rejects_an_alias_and_its_field_before_any_point_runs(monkeypatch, alias, field, value):
    ran = []
    monkeypatch.setattr(bench, "_grid_worker", ran.append)
    for first, second in ((alias, field), (field, alias)):
        message = f"grid axes '{first}' and '{second}' both set {field}"
        with pytest.raises(InvalidAxis, match=message):
            run_grid(small_config(), {first: [value], second: [value]}, workers=1)
    assert ran == []
    # A config error, so the command line reports it with exit 1.
    assert issubclass(InvalidAxis, InvalidConfig)


def test_grid_rejects_a_negative_seed_before_any_point_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(bench, "run_experiment", lambda *args, **kwargs: ran.append(args))
    # With another axis the point's seed is a hash, which would hide the bad seed.
    for axes in ({"seed": [1, -4]}, {"seed": [1, -4], "tau": [3, 5]}):
        with pytest.raises(InvalidConfig, match="seed must be >= 0, got -4"):
            run_grid(small_config(), axes, workers=1)
    assert ran == []


def test_grid_validates_every_point_before_any_point_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(bench, "run_experiment", lambda *args, **kwargs: ran.append(args))
    cfg = small_config()
    cfg = replace(cfg, stream=replace(cfg.stream, length=300, deletion_time=100))
    # horizon = 150 is a valid point; 250 runs past the stream's end, and -5 is negative.
    for bad, message in (
        (250, "deletion_time \\+ horizon must not exceed length"),
        (-5, "horizon must be >= 0, got -5"),
    ):
        with pytest.raises(InvalidConfig, match=message):
            run_grid(cfg, {"horizon": [150, bad]}, workers=1)
    assert ran == []


def test_grid_point_that_is_valid_only_as_a_whole_runs():
    """horizon = 300 on the base length of 200 is invalid; with length = 400 it is not."""
    cfg = small_config()
    cfg = replace(cfg, stream=replace(cfg.stream, length=200, deletion_time=50, horizon=100))
    (result,) = run_grid(cfg, {"horizon": [300], "length": [400]}, workers=1)
    assert result.horizon == 300
    assert result.seed == derive_point_seed(7, {"horizon": 300, "length": 400})
    assert [row.method for row in result.methods] == ["oracle", "noop"]


def test_seed_axis_overrides_base_seed():
    results = run_grid(small_config(), {"seed": [11, 12]}, workers=1)
    assert [r.seed for r in results] == [11, 12]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _method_row(method: str, auc: float, ratio: float = float("nan"),
                exact: bool = False) -> MethodResult:
    return MethodResult(
        method=method,
        initial_param_err=auc / 10,
        initial_mem_err=0.0,
        initial_state_err=auc / 10,
        final_state_err=auc / 100,
        future_state_auc=auc,
        future_param_auc=auc,
        upd_dir_auc=0.0,
        direct_mass_at_del=0,
        clearance_time=0,
        exact_recovery=exact,
        avg_future_loss=1.0,
        auc_ratio_vs_noop=ratio,
        rho_p1=float("nan"),
        rho_p2=float("nan"),
        rho_p3=float("nan"),
        replayed_events=4,
        extra_grad_evals=0,
        wall_clock_s=0.0,
        alpha_bound=float("nan"),
        sigma_cert=float("nan"),
    )


def _run(methods: list[MethodResult], seed: int = 0) -> RunResult:
    return RunResult(
        seed=seed,
        regime="quadratic",
        kappa=10.0,
        tau=10,
        deletion_mode="recent",
        deletion_size=5,
        t_del=500,
        horizon=4500,
        methods=methods,
        rho_emp=float("nan"),
        future_hash="0" * 16,
        probe_hash="0" * 16,
    )


def test_aggregate_matches_hand_computed_summary():
    results = [
        _run([_method_row("oracle", 0.0, 0.0, exact=True),
              _method_row("noop", 2.0, 1.0),
              _method_row("fix", 1.0, 0.5)], seed=0),
        _run([_method_row("oracle", 0.0, 0.0, exact=True),
              _method_row("noop", 4.0, 1.0),
              _method_row("fix", 5.0, 1.25)], seed=1),
    ]
    summary = {row["method"]: row for row in aggregate(results)}

    assert summary["noop"]["runs"] == 2
    assert summary["noop"]["median_future_state_auc"] == 3.0
    assert summary["noop"]["mean_future_state_auc"] == 3.0
    assert summary["fix"]["median_auc_ratio_vs_noop"] == pytest.approx(0.875)
    assert summary["fix"]["share_better_than_noop"] == 0.5
    assert summary["oracle"]["exact_recovery_rate"] == 1.0
    assert summary["fix"]["exact_recovery_rate"] == 0.0
    # run 0 best non-oracle is fix (1 < 2), run 1 is noop (4 < 5)
    assert summary["fix"]["best_non_oracle_share"] == 0.5
    assert summary["noop"]["best_non_oracle_share"] == 0.5
    assert math.isnan(summary["oracle"]["best_non_oracle_share"])
    assert summary["fix"]["mean_replayed_events"] == 4.0


@pytest.mark.parametrize("order", [1, -1])
def test_aggregate_ranks_finite_aucs_only_in_either_row_order(order):
    nan = float("nan")
    diverged = _run([_method_row("noop", nan, nan), _method_row("param_only", 1.0, nan)][::order])
    all_diverged = _run([_method_row("noop", nan, nan), _method_row("param_only", math.inf, nan)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = {row["method"]: row for row in aggregate([diverged, all_diverged])}
    # The second run has no finite non-oracle AUC, so only the first is comparable.
    assert summary["param_only"]["best_non_oracle_share"] == 1.0
    assert summary["noop"]["best_non_oracle_share"] == 0.0
    assert math.isnan(summary["param_only"]["median_auc_ratio_vs_noop"])


def test_aggregate_rejects_empty_input():
    with pytest.raises(EmptyResults):
        aggregate([])


# ---------------------------------------------------------------------------
# Flat files
# ---------------------------------------------------------------------------


def test_results_csv_columns_and_cell_formats(tmp_path):
    res = run_experiment(small_config(), keep_traces=False)
    path = tmp_path / "results.csv"
    write_results_csv([res], str(path))
    lines = path.read_text().splitlines()
    # The documented schema (README "Output formats"), spelled out here so
    # that a change to the dataclasses that derive it shows up as a failure.
    assert lines[0] == (
        "seed,regime,kappa,tau,deletion_mode,deletion_size,t_del,horizon,method,"
        "initial_param_err,initial_mem_err,initial_state_err,final_state_err,"
        "future_state_auc,future_param_auc,upd_dir_auc,direct_mass_at_del,"
        "clearance_time,exact_recovery,avg_future_loss,auc_ratio_vs_noop,"
        "rho_p1,rho_p2,rho_p3,replayed_events,extra_grad_evals,wall_clock_s,"
        "alpha_bound,sigma_cert"
    )
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(res.methods)
    header = lines[0].split(",")
    for line, method in zip(lines[1:], res.methods):
        cells = dict(zip(header, line.split(",")))
        assert cells["method"] == method.method
        assert cells["seed"] == "7"
        assert cells["exact_recovery"] in ("true", "false")
        # repr() round-trips doubles exactly
        assert float(cells["future_state_auc"]) == method.future_state_auc
        assert float(cells["kappa"]) == 4.0
        clearance = method.clearance_time
        assert cells["clearance_time"] == ("-1" if clearance is None else str(clearance))


def test_trace_csv_has_one_row_per_step(tmp_path):
    res = run_experiment(small_config())
    path = tmp_path / "trace_noop.csv"
    write_trace_csv(res.traces["noop"], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 1 + len(res.traces["noop"])
    first = dict(zip(TRACE_COLUMNS, lines[1].split(",")))
    assert first["k"] == "0"
    assert float(first["E_theta"]) == res.method_row("noop").initial_state_err
    # no loss or direction is recorded at the final step
    last = dict(zip(TRACE_COLUMNS, lines[-1].split(",")))
    assert last["loss"] == "nan"


def test_summary_csv_round_trip(tmp_path):
    res = run_experiment(small_config(), keep_traces=False)
    summary = aggregate([res])
    path = tmp_path / "summary.csv"
    write_summary_csv(summary, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "method,runs,median_future_state_auc,mean_future_state_auc,"
        "median_initial_state_err,median_final_state_err,median_auc_ratio_vs_noop,"
        "share_better_than_noop,exact_recovery_rate,best_non_oracle_share,"
        "median_avg_future_loss,mean_replayed_events"
    )
    assert len(lines) == 1 + len(summary)


def test_results_json_carries_run_level_fields(tmp_path):
    import json

    res = run_experiment(small_config(), keep_traces=False)
    path = tmp_path / "results.json"
    write_results_json([res], str(path))
    docs = json.loads(path.read_text())
    assert len(docs) == 1
    assert docs[0]["future_hash"] == res.future_hash
    assert docs[0]["probe_hash"] == res.probe_hash
    assert docs[0]["assumption_violations"] == res.assumption_violations
    assert len(docs[0]["rows"]) == len(res.methods)


def test_rerun_is_byte_identical_outside_timing_columns(tmp_path):
    def masked_csv(path) -> str:
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("wall_clock_s")
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[drop] = "-"
            out.append(",".join(cells))
        return "\n".join(out)

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv([run_experiment(small_config(), keep_traces=False)], str(p1))
    write_results_csv([run_experiment(small_config(), keep_traces=False)], str(p2))
    assert masked_csv(p1) == masked_csv(p2)


def test_failed_atomic_write_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(str(path), "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(path), "new \u00e9\n")
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]
    plain = tmp_path / "plain.txt"
    with open(plain, "w") as fh:
        fh.write("x")
    assert path.stat().st_mode == plain.stat().st_mode


def test_config_validation_rejects_bad_knobs():
    with pytest.raises(InvalidConfig):
        small_config(probe_count=0).validate()
    with pytest.raises(InvalidConfig):
        small_config(memory_weight=-0.5).validate()
    with pytest.raises(InvalidConfig):
        small_config(seeds=()).validate()
    with pytest.raises(InvalidConfig):
        small_config(seeds=(1, 2)).validate()
    with pytest.raises(InvalidConfig):
        small_config(seeds=(-1,)).validate()
    with pytest.raises(InvalidConfig):
        small_config(memory_weight=float("nan")).validate()
    with pytest.raises(InvalidConfig):
        small_config(interventions=("noop", "teleport")).validate()
