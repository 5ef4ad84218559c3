"""Experiment harness: deletion benchmarks over synthetic streams.

The single-deletion protocol trains on a prefix, selects a deletion set,
builds the counterfactual reference by replaying the edited prefix from
the global initial state, applies each configured intervention, then
steps the reference and every distinct repaired state in lockstep over
one shared future segment while recording per-step discrepancies. A grid
runner crosses configuration axes with derived per-point seeds, and an
aggregator reduces rows to per-method summaries.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from typing import get_type_hints

import numpy as np

from . import certify, metrics
from .errors import EmptyResults, IntervalTooShort, InvalidAxis, InvalidConfig
from .interventions import (
    DEFAULT_METHOD_IDS,
    InterventionContext,
    InterventionCost,
    apply as apply_intervention,
    parse_intervention,
)
from .metrics import MetricTrace, make_probes
from .olbfgs import (
    LaneBank,
    OptimizerState,
    StepConfig,
    direct_mass,
    initial_state,
    replay,
    state_key,
)
from .stream import (
    DeletionSet,
    Event,
    EventStream,
    LogisticSample,
    QuadraticSample,
    StreamConfig,
    generate_stream,
    require_finite,
    select_deletion_set,
)

EXACT_RECOVERY_EPS = 1e-12

TRACE_COLUMNS = ("k", "E_w", "E_Z", "E_theta", "D_upd", "M_direct", "loss")


def _check_seeds(seeds: tuple[int, ...]) -> None:
    if len(seeds) != 1:
        raise InvalidConfig(f"seeds takes one seed, got {len(seeds)}; use [grid] seed for several")
    if seeds[0] < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seeds[0]}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run, checked when built: stream, update rule, methods, seed, knobs."""

    stream: StreamConfig = field(default_factory=StreamConfig)
    optimizer: StepConfig = field(default_factory=StepConfig)
    interventions: tuple[str, ...] = DEFAULT_METHOD_IDS
    probe_count: int = 32
    memory_weight: float = 1.0
    seeds: tuple[int, ...] = (0,)
    contraction_trials: int = 25
    privacy_epsilon: float = 1.0
    privacy_delta: float = 0.05

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        require_finite(self)
        if self.probe_count < 1:
            raise InvalidConfig("probe_count must be >= 1")
        if self.memory_weight < 0:
            raise InvalidConfig("memory_weight must be >= 0")
        _check_seeds(self.seeds)
        if self.contraction_trials < 0:
            raise InvalidConfig("contraction_trials must be >= 0")
        if self.privacy_epsilon <= 0:
            raise InvalidConfig("privacy_epsilon must be > 0")
        if not 0 < self.privacy_delta < 1:
            raise InvalidConfig("privacy_delta must lie in (0, 1)")
        if not self.interventions:
            raise InvalidConfig("interventions names no method")
        for i, method_id in enumerate(self.interventions):
            parse_intervention(method_id)
            # Each method's row and trace file are keyed by its id.
            if method_id in self.interventions[:i]:
                raise InvalidConfig(f"interventions repeats {method_id}")


def experiment1_defaults() -> ExperimentConfig:
    """Small-horizon decay study: d=25, T=700, t_del=300, H=250."""
    return ExperimentConfig(
        stream=StreamConfig(length=700, deletion_time=300, horizon=250),
        interventions=("noop",),
    )


def experiment2_defaults() -> ExperimentConfig:
    """Full intervention comparison: d=25, T=5000, t_del=500, H=4500."""
    return ExperimentConfig(
        stream=StreamConfig(length=5000, deletion_time=500, horizon=4500)
    )


@dataclass
class MethodResult:
    method: str
    initial_param_err: float
    initial_mem_err: float
    initial_state_err: float
    final_state_err: float
    future_state_auc: float
    future_param_auc: float
    upd_dir_auc: float
    direct_mass_at_del: int
    clearance_time: int | None
    exact_recovery: bool
    avg_future_loss: float
    auc_ratio_vs_noop: float
    rho_p1: float
    rho_p2: float
    rho_p3: float
    replayed_events: int
    extra_grad_evals: int
    wall_clock_s: float
    alpha_bound: float
    sigma_cert: float


@dataclass
class RunResult:
    seed: int
    regime: str
    kappa: float
    tau: int
    deletion_mode: str
    deletion_size: int
    t_del: int
    horizon: int
    methods: list[MethodResult]
    rho_emp: float
    future_hash: str
    probe_hash: str
    assumption_violations: list[str] = field(default_factory=list)
    traces: dict[str, MetricTrace] = field(default_factory=dict)

    def method_row(self, method: str) -> MethodResult:
        for row in self.methods:
            if row.method == method:
                return row
        raise KeyError(method)


# One results row: the run key, then every MethodResult field in order.
RUN_KEY_COLUMNS = (
    "seed", "regime", "kappa", "tau", "deletion_mode", "deletion_size", "t_del", "horizon"
)
CSV_COLUMNS = RUN_KEY_COLUMNS + tuple(f.name for f in fields(MethodResult))


def _hash_events(events: list[Event]) -> str:
    h = hashlib.sha256()
    for e in events:
        # The literal 'insert' keeps the hashed bytes, and so every future_hash, stable.
        h.update(f"{e.time},insert,{e.index};".encode("ascii"))
        p = e.payload
        if isinstance(p, QuadraticSample):
            h.update(p.hessian.tobytes())
            h.update(p.minimizer.tobytes())
        elif isinstance(p, LogisticSample):
            h.update(p.features.tobytes())
            h.update(str(p.label).encode("ascii"))
    return h.hexdigest()[:16]


def _hash_probes(probes: np.ndarray) -> str:
    return hashlib.sha256(probes.tobytes()).hexdigest()[:16]


def _propagate_lanes(
    oracle0: OptimizerState,
    starts: list[OptimizerState],
    future: list[Event],
    cfg: StepConfig,
    probes: np.ndarray,
    memory_weight: float,
    deletions: DeletionSet,
    stops: tuple[int, ...] = (),
) -> tuple[list[MetricTrace], list[OptimizerState]]:
    """Step the oracle and every distinct start state in lockstep over `future`.

    Lane 0 is the oracle. Start states with equal `state_key`s (the same
    bits in w and memory, and the same pair sources) share one lane and
    one trace. Every lane, lane 0 included, is measured against lane 0,
    so a start state equal to the oracle gets exactly the trace its own
    propagation would give.
    The lanes step together in one LaneBank and are measured together by
    `metrics.state_gaps` and `metrics.direction_gap`. Every w, pair,
    direction, loss and direct mass has the bits that `advance` gives lane
    by lane; E_Z comes from the bank's compact probe action, which gives
    each lane the same bits in any bank, so lane 0 against itself is
    exactly 0. For each k in
    `stops`, the lane of the last start state is copied out before
    future[k] is stepped. Returns one trace per start state, in order, and
    the copies, in `stops` order.
    """
    keys = [state_key(st) for st in (oracle0, *starts)]
    by_key = dict(zip(keys, (oracle0, *starts)))
    bank = LaneBank(list(by_key.values()))
    tapped = list(by_key).index(keys[-1])
    copies = dict.fromkeys(stops)

    n, h = len(by_key), len(future)
    param = np.empty((n, h + 1))
    memory = np.empty((n, h + 1))
    state = np.empty((n, h + 1))
    direction = np.full((n, h + 1), np.nan)
    mass = np.zeros((n, h + 1), dtype=np.int64)
    loss = np.full((n, h + 1), np.nan)

    for k in range(h + 1):
        param[:, k], memory[:, k], state[:, k] = metrics.state_gaps(bank, probes, memory_weight)
        # No future event is deleted, so once every count is 0 it stays 0.
        if k == 0 or mass[:, k - 1].any():
            mass[:, k] = direct_mass(bank, deletions)
        if k in copies:
            copies[k] = bank.lane(tapped)
        if k < h:
            loss[:, k], directions = bank.move(future[k], cfg)
            direction[:, k] = metrics.direction_gap(directions, directions[0])
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
    return [traces[key] for key in keys[1:]], [copies[k] for k in stops]


def _phase_fit(trace: np.ndarray, k_lo: int, k_hi: int) -> float:
    try:
        return metrics.fit_decay_rate(trace, k_lo, k_hi).rho_hat
    except IntervalTooShort:
        return float("nan")


def _summarize_method(
    label: str,
    trace: MetricTrace,
    cost: InterventionCost,
    tau: int,
    horizon: int,
) -> MethodResult:
    state_auc = trace.state_auc()
    clearance = trace.clearance_time()
    finite_losses = trace.loss[~np.isnan(trace.loss)]
    avg_loss = float(np.mean(finite_losses)) if finite_losses.size else float("nan")

    boundary = tau
    if clearance is not None and clearance <= 2 * tau:
        boundary = clearance
    rho_p1 = _phase_fit(trace.state_err, 0, boundary - 1) if boundary >= 3 else float("nan")
    rho_p2 = (
        _phase_fit(trace.state_err, boundary, 2 * tau - 1)
        if 2 * tau - 1 - boundary >= 2
        else float("nan")
    )
    rho_p3 = _phase_fit(trace.state_err, 2 * tau, horizon) if horizon - 2 * tau >= 2 else float("nan")

    return MethodResult(
        method=label,
        initial_param_err=float(trace.param_err[0]),
        initial_mem_err=float(trace.memory_err[0]),
        initial_state_err=float(trace.state_err[0]),
        final_state_err=float(trace.state_err[-1]),
        future_state_auc=state_auc,
        future_param_auc=trace.param_auc(),
        upd_dir_auc=trace.direction_auc(),
        direct_mass_at_del=int(trace.direct_mass[0]),
        clearance_time=clearance,
        exact_recovery=bool(state_auc <= EXACT_RECOVERY_EPS),
        avg_future_loss=avg_loss,
        auc_ratio_vs_noop=float("nan"),
        rho_p1=rho_p1,
        rho_p2=rho_p2,
        rho_p3=rho_p3,
        replayed_events=cost.replayed_events,
        extra_grad_evals=cost.extra_grad_evals,
        wall_clock_s=cost.wall_clock_seconds,
        alpha_bound=float("nan"),
        sigma_cert=float("nan"),
    )


def prepare_run(
    cfg: ExperimentConfig, stops: tuple[int, ...] = ()
) -> tuple[EventStream, InterventionContext, list[OptimizerState]]:
    """The pre-deletion protocol: stream, training, deletions.

    Generates the stream on the config's seed, trains from the global
    initial state on the prefix up to t_del and selects the deletion set.
    Returns the stream, the context every intervention receives (theta0,
    the unedited prefix, the trained state, the deletions and the step
    config) and, for each of the ascending `stops` (each < t_del), the
    state the training reached after that many events.
    """
    scfg = cfg.stream
    step_cfg = cfg.optimizer
    strm = generate_stream(scfg, cfg.seeds[0])
    theta0 = initial_state(scfg.dimension, step_cfg)
    prefix = strm.prefix(scfg.deletion_time)
    actual, done, at_stops = theta0, 0, []
    for stop in stops:
        actual = replay(actual, prefix[done:stop], step_cfg)
        at_stops.append(actual)
        done = stop
    actual = replay(actual, prefix[done:], step_cfg)
    deletions = select_deletion_set(
        strm, scfg.deletion_time, scfg.deletion_mode, scfg.deletion_size, grad_state=actual.w
    )
    ctx = InterventionContext(
        actual=actual, deletions=deletions, step_cfg=step_cfg, theta0=theta0, full_prefix=prefix
    )
    return strm, ctx, at_stops


@np.errstate(all="ignore")
def run_experiment(cfg: ExperimentConfig, keep_traces: bool = True) -> RunResult:
    """One run on the config's seed with every method it names; see the module docstring.

    A contraction trial at position p starts from the training's state after
    p events (p < t_del) or from the actual state's lane at k = p - t_del.
    The run steps with numpy's floating-point warnings off: a diverging run
    reports itself by its non-finite rows and its assumption violation.
    """
    seed = cfg.seeds[0]
    method_ids = cfg.interventions
    scfg = cfg.stream
    step_cfg = cfg.optimizer
    t_del = scfg.deletion_time
    horizon = scfg.horizon
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x636F6E74)))
    positions = sorted(rng.integers(0, t_del + horizon, size=cfg.contraction_trials).tolist())
    strm, ctx, bases = prepare_run(cfg, tuple(p for p in positions if p < t_del))

    future = strm.future(t_del, horizon)
    probes = make_probes(scfg.dimension, cfg.probe_count, seed)
    oracle = apply_intervention("oracle", ctx)
    intervened = [oracle if m == "oracle" else apply_intervention(m, ctx) for m in method_ids]
    future_stops = tuple(p - t_del for p in positions if p >= t_del)
    # The actual state goes last: a hidden lane, or the lane of a method with
    # its bits (noop, retain_ft).
    actual = [ctx.actual] if future_stops else []
    method_traces, future_bases = _propagate_lanes(
        oracle.state,
        [iv.state for iv in intervened] + actual,
        future,
        step_cfg,
        probes,
        cfg.memory_weight,
        ctx.deletions,
        future_stops,
    )
    method_traces = method_traces[: len(method_ids)]
    bases += future_bases
    rows = [
        _summarize_method(m, trace, iv.cost, step_cfg.tau, len(future))
        for m, iv, trace in zip(method_ids, intervened, method_traces)
    ]
    noop_trace = next((t for m, t in zip(method_ids, method_traces) if m == "noop"), None)

    noop_auc = next((r.future_state_auc for r in rows if r.method == "noop"), float("nan"))
    for row in rows:
        if noop_auc > 0:
            row.auc_ratio_vs_noop = row.future_state_auc / noop_auc

    violations: list[str] = []
    rho_emp = float("nan")
    if cfg.contraction_trials > 0:
        trials = list(zip(bases, [strm.events[p] for p in positions]))
        rho_emp = certify.empirical_contraction(trials, step_cfg, rng, probes, cfg.memory_weight)
        if np.isnan(rho_emp):
            violations.append("contractive-updates: rho_emp is nan (a contraction trial diverged)")
        elif rho_emp < 1.0:
            for row in rows:
                row.alpha_bound = certify.deviation_bound(
                    rho_emp, row.initial_state_err, len(future)
                )
                row.sigma_cert = certify.calibrate_sigma(
                    row.alpha_bound, cfg.privacy_epsilon, cfg.privacy_delta
                )
            if noop_trace is not None:
                errs = noop_trace.state_err
                for k in range(1, len(errs)):
                    bound = certify.deviation_bound(rho_emp, errs[0], k)
                    if errs[k] > bound * (1.0 + 1e-9) + 1e-15:
                        violations.append(
                            f"contractive-updates: NoOp trace exceeds bound at k={k}"
                        )
                        break
        else:
            violations.append(f"contractive-updates: rho_emp={rho_emp!r} >= 1")

    return RunResult(
        seed=seed,
        regime=scfg.regime.value,
        kappa=scfg.condition_number,
        tau=step_cfg.tau,
        deletion_mode=scfg.deletion_mode.value,
        deletion_size=scfg.deletion_size,
        t_del=t_del,
        horizon=horizon,
        methods=rows,
        rho_emp=rho_emp,
        future_hash=_hash_events(future),
        probe_hash=_hash_probes(probes),
        assumption_violations=violations,
        traces=dict(zip(method_ids, method_traces)) if keep_traces else {},
    )


# ---------------------------------------------------------------------------
# Grid running
# ---------------------------------------------------------------------------

# A grid axis names "seed", a StreamConfig or StepConfig field, or one of
# these short aliases.
GRID_AXIS_ALIASES = {"kappa": "condition_number", "t_del": "deletion_time"}


def grid_axis_field(name: str) -> tuple[str, str, type]:
    """The ExperimentConfig part ("stream" or "optimizer"), field and field type an axis sets."""
    target = GRID_AXIS_ALIASES.get(name, name)
    for part, cls in (("stream", StreamConfig), ("optimizer", StepConfig)):
        kinds = get_type_hints(cls)
        if target in kinds:
            return part, target, kinds[target]
    raise InvalidAxis(f"unknown grid axis {name!r}")


def derive_point_seed(base_seed: int, point: dict) -> int:
    """Stable per-point seed from the base seed and non-seed axis values.

    A point with no non-seed axes keeps the base seed, so a degenerate
    grid reproduces the direct single run exactly.
    """
    if "seed" in point:
        base_seed = int(point["seed"])
        _check_seeds((base_seed,))
    items = sorted((k, str(v)) for k, v in point.items() if k != "seed")
    if not items:
        return base_seed
    payload = json.dumps([base_seed, items], sort_keys=True)
    digest = hashlib.sha256(payload.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def grid_points(axes: dict[str, list]) -> list[dict]:
    """Cartesian product in canonical (alphabetical axis name) order; no axes: one empty point."""
    names = sorted(axes)
    return [dict(zip(names, combo)) for combo in itertools.product(*(axes[n] for n in names))]


def point_config(base: ExperimentConfig, point: dict) -> ExperimentConfig:
    """One grid point's config: its axes, set in one `replace` per part, and its seed.

    Only the point as a whole, not each axis on its own, must be valid.
    """
    parts: dict[str, dict] = {"stream": {}, "optimizer": {}}
    for name, value in point.items():
        if name == "seed":
            continue
        part, target, kind = grid_axis_field(name)
        if issubclass(kind, Enum):
            try:
                value = kind(value)
            except ValueError as exc:
                raise InvalidAxis(f"bad value {value!r} for grid axis {name!r}") from exc
        parts[part][target] = value
    return replace(
        base,
        stream=replace(base.stream, **parts["stream"]),
        optimizer=replace(base.optimizer, **parts["optimizer"]),
        seeds=(derive_point_seed(base.seeds[0], point),),
    )


def _grid_worker(cfg: ExperimentConfig) -> RunResult:
    """One grid point, run from its config."""
    return run_experiment(cfg, keep_traces=False)


def run_grid(
    base: ExperimentConfig, axes: dict[str, list], workers: int = 1
) -> list[RunResult]:
    """Run every point of the axis product; results follow point order.

    Each point gets its own derived seed so results are independent of
    worker count and completion order. Every point's config is built, and
    so checked, before any point runs; two axes that set one field (an
    alias and its field) are an error.
    """
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    setters: dict[str, str] = {}
    for name, values in axes.items():
        if not values:
            raise InvalidAxis(f"grid axis {name!r} has no values")
        target = "seed" if name == "seed" else grid_axis_field(name)[1]
        if target in setters:
            raise InvalidAxis(f"grid axes {setters[target]!r} and {name!r} both set {target}")
        setters[target] = name
    configs = [point_config(base, point) for point in grid_points(axes)]
    if workers <= 1 or len(configs) == 1:
        return [_grid_worker(cfg) for cfg in configs]
    with ProcessPoolExecutor(max_workers=min(workers, len(configs))) as pool:
        return list(pool.map(_grid_worker, configs))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _nanmedian(values: list[float]) -> float:
    """np.nanmedian, but nan for an empty or all-nan list, without a warning."""
    arr = np.array(values, dtype=float)
    arr = arr[~np.isnan(arr)]
    return float(np.median(arr)) if arr.size else float("nan")


def aggregate(results: list[RunResult]) -> list[dict]:
    """Per-method summary over matched configurations; row keys are summary.csv's columns."""
    if not results:
        raise EmptyResults("no results to aggregate")
    by_method = [{row.method: row for row in res.methods} for res in results]
    methods = list(dict.fromkeys(m for rows in by_method for m in rows))

    # Only finite AUCs are ranked: a diverged row is never best, and a run
    # with no finite non-oracle AUC is not comparable.
    best_counts = {m: 0 for m in methods}
    comparable = 0
    for res in results:
        ranked = [r for r in res.methods if r.method != "oracle" and np.isfinite(r.future_state_auc)]
        if not ranked:
            continue
        comparable += 1
        best = min(r.future_state_auc for r in ranked)
        for r in ranked:
            if r.future_state_auc == best:
                best_counts[r.method] += 1

    out = []
    for m in methods:
        rows = [run[m] for run in by_method if m in run]
        aucs = np.array([r.future_state_auc for r in rows])
        noop_pairs = [
            (run[m].future_state_auc, run["noop"].future_state_auc)
            for run in by_method
            if m in run and "noop" in run
        ]
        share_better = (
            sum(1 for a, b in noop_pairs if a < b) / len(noop_pairs) if noop_pairs else float("nan")
        )
        out.append(
            {
                "method": m,
                "runs": len(rows),
                "median_future_state_auc": float(np.median(aucs)),
                "mean_future_state_auc": float(np.mean(aucs)),
                "median_initial_state_err": float(np.median([r.initial_state_err for r in rows])),
                "median_final_state_err": float(np.median([r.final_state_err for r in rows])),
                "median_auc_ratio_vs_noop": _nanmedian([r.auc_ratio_vs_noop for r in rows]),
                "share_better_than_noop": share_better,
                "exact_recovery_rate": sum(r.exact_recovery for r in rows) / len(rows),
                "best_non_oracle_share": (
                    best_counts[m] / comparable if comparable and m != "oracle" else float("nan")
                ),
                "median_avg_future_loss": _nanmedian([r.avg_future_loss for r in rows]),
                "mean_replayed_events": float(np.mean([r.replayed_events for r in rows])),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def atomic_write(path: str, text: str) -> None:
    """Write ASCII text to a temp file next to path, then rename it over path.

    The temp name is unique to the process and gets the mode a plain
    open(path, "w") gives; a failed write removes it and keeps the old file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _format_cell(value) -> str:
    if isinstance(value, float):  # first: nearly every cell is one, and no bool is
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-1"
    return str(value)


def result_rows(result: RunResult) -> list[dict]:
    key = {c: getattr(result, c) for c in RUN_KEY_COLUMNS}
    return [{**key, **asdict(m)} for m in result.methods]


def _write_csv(path: str, header, rows) -> None:
    """Write the header line, then one line of `_format_cell` cells per row."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_format_cell, row)) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def write_results_csv(results: list[RunResult], path: str) -> None:
    # result_rows' keys are CSV_COLUMNS in order.
    _write_csv(path, CSV_COLUMNS, (row.values() for res in results for row in result_rows(res)))


def write_results_json(results: list[RunResult], path: str) -> None:
    docs = [
        {
            "rows": result_rows(res),
            "rho_emp": res.rho_emp,
            "future_hash": res.future_hash,
            "probe_hash": res.probe_hash,
            "assumption_violations": res.assumption_violations,
        }
        for res in results
    ]
    atomic_write(path, json.dumps(docs, indent=2, sort_keys=True, allow_nan=True) + "\n")


def write_trace_csv(trace: MetricTrace, path: str) -> None:
    # Cells are Python scalars read lazily from the arrays, one row at a time.
    errs = (trace.param_err, trace.memory_err, trace.state_err, trace.direction_err)
    floats = (map(float, column) for column in errs)
    rows = zip(range(len(trace)), *floats, map(int, trace.direct_mass), map(float, trace.loss))
    _write_csv(path, TRACE_COLUMNS, rows)


def write_summary_csv(summary: list[dict], path: str) -> None:
    # aggregate's keys are the summary's columns.
    _write_csv(path, summary[0], (row.values() for row in summary))
