"""statealign benchmark: closed-loop CLI runs, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One client runs one workload: each
`bench` CLI run starts in a fresh interpreter only after the previous one
has finished, and new runs start while the next one is expected to end
within S seconds (at least one run). The seed is passed to the program as
`--seed`. Every run's outputs are checked (see check_outputs); a failed
check makes the exit code 1.

--trace 0 reports the end-to-end metrics (medians over the runs, set-up
over SETUP_SAMPLES fresh interpreters). --trace 1 alternates an untraced
and a traced run and reports the per-layer metrics of hooks.py; the spans
go to .perfbench_runs/. The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics. README.md in this directory
explains the workloads and which metric each layer should move.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter

# Every process of the benchmark, the drift probe's included, gets one
# BLAS/OpenMP thread: OpenBLAS is often built for many threads, and two grid
# pool workers must not put more threads than cores on the machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (after the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"

SETUP_SAMPLES = 7
CALIB_ROUNDS = 1500
CALIB_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    workers: int

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [self.command, "--config", str(HERE / "workloads" / self.config)]
        if self.command == "grid":
            argv += ["--workers", str(self.workers)]
        return argv + ["--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    "exp2-methods": Workload("exp2", "exp2_methods.ini", 1),
    "grid-depth": Workload("grid", "grid_replay_depth.ini", 2),
    "logistic-drift": Workload("exp2", "logistic_drift.ini", 1),
}

ORACLE_ZERO_COLUMNS = (
    "initial_param_err",
    "initial_mem_err",
    "initial_state_err",
    "final_state_err",
    "future_state_auc",
    "future_param_auc",
    "upd_dir_auc",
)
AUC_COLUMNS = ("future_state_auc", "future_param_auc", "upd_dir_auc")
DIGEST_FILES = ("results.csv", "summary.csv")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "lane_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def lane_steps(config: Path) -> int:
    """(methods + 1 reference) x horizon x grid points, from the config."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(config, encoding="utf-8")
    methods = [m for m in parser["experiment"]["interventions"].split(",") if m.strip()]
    points = 1
    if parser.has_section("grid"):
        for raw in parser["grid"].values():
            points *= len([v for v in raw.split(",") if v.strip()])
    return (len(methods) + 1) * parser.getint("stream", "horizon") * points


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child.py process in its own process group and wait for it.

    If the benchmark is interrupted, the whole group, grid pool workers
    included, is killed and reaped before the exception propagates.
    """
    proc = subprocess.Popen(
        argv,
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, None, stderr)


def time_setup(workload: Workload, seed: int) -> float:
    argv = [sys.executable, str(HERE / "child.py"), "setup"]
    argv += [str(HERE / "workloads" / workload.config), str(seed), workload.command]
    start = perf_counter()
    run_child(argv).check_returncode()
    return perf_counter() - start


def calibrate() -> float:
    """Fixed two-loop-shaped numpy loop, no statealign code: machine drift."""
    rng = np.random.default_rng(0)
    s = rng.standard_normal((10, 25))
    y = rng.standard_normal((10, 25)) * 1e-3
    q = rng.standard_normal((25, 32))
    start = perf_counter()
    for _ in range(CALIB_ROUNDS):
        r = q.copy()
        for i in range(10):
            r -= y[i][:, None] * (s[i] @ r)[None, :]
    return perf_counter() - start


def check_outputs(out: Path) -> tuple[str, list[str]]:
    """Digest of the result files (wall_clock_s blanked) and any problems.

    Oracle rows must be exactly 0.0 and every AUC finite, unless the row
    carries a true `diverged` flag. wall_clock_s is never read.
    """
    problems: list[str] = []
    digest = hashlib.sha256()
    rows: list[dict] = []
    for name in DIGEST_FILES:
        path = out / name
        if not path.is_file():
            continue
        table = list(csv.DictReader(io.StringIO(path.read_text(encoding="ascii"))))
        for row in table:
            if "wall_clock_s" in row:
                row["wall_clock_s"] = ""
            digest.update(json.dumps(row, sort_keys=True).encode("ascii"))
        if name == "results.csv":
            rows = table
    if not rows:
        return "", ["no result rows"]
    try:
        oracle_rows = [r for r in rows if r["method"] == "oracle"]
        if not oracle_rows:
            problems.append("no oracle row")
        for row in oracle_rows:
            bad = [c for c in ORACLE_ZERO_COLUMNS if float(row[c]) != 0.0]
            if bad:
                problems.append(f"oracle row seed={row['seed']} nonzero {bad}")
        for row in rows:
            if row.get("diverged") == "true":
                continue
            bad = [c for c in AUC_COLUMNS if not math.isfinite(float(row[c]))]
            if bad:
                problems.append(f"{row['method']} seed={row['seed']} non-finite {bad}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed results.csv: {exc!r}")
    return digest.hexdigest()[:16], problems


def cli_run(workload: Workload, seed: int, work: Path, traced: bool) -> dict:
    """One `bench` run in a fresh interpreter, with its outputs checked."""
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = work / "trace"
    trace_dir.mkdir(parents=True)
    record_path = work / "record.json"
    argv = [sys.executable, str(HERE / "child.py"), "run", str(record_path)]
    if traced:
        argv += ["--trace", str(trace_dir)]
    argv += ["--"] + workload.argv(seed, work / "out")
    proc = run_child(argv)
    if proc.returncode != 0 or not record_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no record"]
        return {"problems": [f"exit {proc.returncode}: {tail[0]}"]}
    run = json.loads(record_path.read_text(encoding="ascii"))
    run["problems"] = [] if run["rc"] == 0 else [f"bench exit code {run['rc']}"]
    if run["rc"] == 0:
        run["digest"], problems = check_outputs(work / "out")
        run["problems"] += problems
    run["peak_rss_mb"] = max(run["parent_rss_mb"], run["worker_rss_mb"])
    if traced and (trace_dir / "spans.jsonl").is_file():
        run["spans"] = trace_dir / "spans.jsonl"
    return run


def layer_metrics(trace: dict, workers_merged: int) -> dict:
    """Per-layer metrics from a traced run's span tables (hooks.py).

    A metric whose hook is missing, whose observer failed, or whose pool
    workers sent no tables is None, never 0.
    """
    stats, counts = trace["stats"], trace["counts"]
    absent = set(trace["missing"]) | set(trace["broken"])
    pooled = counts.get("bench.run_grid.workers", 1) > 1
    pool_blind = pooled and workers_merged == 0
    writes = ("bench.write_results_csv", "bench.write_results_json")
    writes += ("bench.write_trace_csv", "bench.write_summary_csv")

    def ok(*keys: str) -> bool:
        return not pool_blind and not absent.intersection(keys)

    def stat(span: str, col: int, *keys: str):
        return stats.get(span, [0, 0.0, 0.0, 0])[col] if ok(*keys) else None

    def per_call(seconds, calls):
        return None if seconds is None or not calls else seconds / calls * 1e6

    def count(key: str, *keys: str):
        return counts.get(key, 0) if ok(key, *keys) else None

    out: dict[str, float | int | None] = {}
    for kind in ("probe", "grad"):
        span = f"olbfgs.two_loop.{kind}"
        out[f"{span}.calls"] = stat(span, 0, "olbfgs.two_loop")
        out[f"{span}.s"] = stat(span, 1, "olbfgs.two_loop")
        out[f"{span}.us_per_call"] = per_call(out[f"{span}.s"], out[f"{span}.calls"])
    pairs = count("olbfgs.two_loop.pairs", "olbfgs.two_loop")
    calls = (out["olbfgs.two_loop.probe.calls"] or 0) + (out["olbfgs.two_loop.grad.calls"] or 0)
    out["olbfgs.two_loop.pairs_mean"] = pairs / calls if pairs is not None and calls else None
    out["olbfgs.advance.calls"] = stat("olbfgs.advance", 0, "olbfgs.advance")
    out["olbfgs.advance.self_s"] = stat("olbfgs.advance", 2, "olbfgs.advance")
    out["olbfgs.advance.us_per_call"] = per_call(out["olbfgs.advance.self_s"], out["olbfgs.advance.calls"])
    for key in ("pairs_accepted", "pairs_rejected"):
        out[f"olbfgs.advance.{key}"] = count(f"olbfgs.advance.{key}", "olbfgs.advance")
    out["olbfgs.replay.calls"] = stat("olbfgs.replay", 0, "olbfgs.replay")
    out["olbfgs.replay.events"] = count("olbfgs.replay.events", "olbfgs.replay")
    out["olbfgs.replay.s"] = stat("olbfgs.replay", 1, "olbfgs.replay")
    out["interventions.apply.calls"] = stat("interventions.apply", 0, "interventions.apply")
    out["interventions.apply.s"] = stat("interventions.apply", 1, "interventions.apply")
    out["interventions.apply.replayed_events"] = count(
        "interventions.apply.replayed_events", "interventions.apply"
    )
    out["stream.loss_and_grad.calls"] = stat("stream.loss_and_grad", 0, "stream.loss_and_grad")
    out["stream.loss_and_grad.s"] = stat("stream.loss_and_grad", 1, "stream.loss_and_grad")
    out["stream.generate_stream.s"] = stat("stream.generate_stream", 1, "stream.generate_stream")
    out["metrics.direction_gap.calls"] = stat("metrics.direction_gap", 0, "metrics.direction_gap")
    out["metrics.direction_gap.degenerate"] = stat("metrics.direction_gap", 3, "metrics.direction_gap")
    out["metrics.fit_decay_rate.calls"] = stat("metrics.fit_decay_rate", 0, "metrics.fit_decay_rate")
    out["metrics.fit_decay_rate.failed"] = stat("metrics.fit_decay_rate", 3, "metrics.fit_decay_rate")
    out["certify.empirical_contraction.s"] = stat(
        "certify.empirical_contraction", 1, "certify.empirical_contraction"
    )
    out["certify.step.calls"] = stat("certify.step", 0, "olbfgs.step")
    out["bench.write.s"] = stat("bench.write", 1, *writes)
    out["bench.write.bytes"] = count("bench.write.bytes", *writes)
    # Bench-layer self time. In a pool the parent's run_grid span only
    # waits; the part of it covered by worker grid points is not its own.
    bench_spans = ("bench.main", "bench.run_grid", "bench.grid_point", "bench.write")
    self_s = sum(stats.get(s, [0, 0.0, 0.0, 0])[2] for s in bench_spans)
    points = sorted(trace["grid_points"])
    covered, reach = 0.0, -math.inf
    for start, end in points:
        covered += max(0.0, end - max(start, reach))
        reach = max(reach, end)
    grid_keys = ("bench.run_grid", "bench._grid_worker") if pooled else ()
    out["bench.self_s"] = self_s - covered if ok(*writes, *grid_keys) else None
    return out


def signature(trace: dict) -> dict:
    """The exact counts of a traced run, which must repeat run to run.

    bench.write.bytes is left out: results.csv holds wall_clock_s, whose
    printed length varies from run to run.
    """
    calls = {span: (row[0], row[3]) for span, row in trace["stats"].items()}
    counts = {k: v for k, v in trace["counts"].items() if k != "bench.write.bytes"}
    return {"calls": calls, "counts": counts}


def machine_record() -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": THREAD_ENV,
    }


def measure(workload: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """The closed loop; returns the run records and the timing samples."""
    setup = [] if traced else [time_setup(workload, seed) for _ in range(SETUP_SAMPLES)]
    runs: list[dict] = []
    traced_runs: list[dict] = []
    calib: list[float] = []
    iteration: list[float] = []
    loop_start = perf_counter()
    while True:
        began = perf_counter()
        calib += [calibrate() for _ in range(CALIB_SAMPLES)]
        runs.append(cli_run(workload, seed, work / "plain", traced=False))
        if traced:
            run = cli_run(workload, seed, work / "traced", traced=True)
            traced_runs.append(run)
            if "spans" in run and len(traced_runs) == 1:
                shutil.move(run["spans"], work / "spans.jsonl")
        iteration.append(perf_counter() - began)
        if perf_counter() - loop_start + median(iteration) > seconds:
            break
    return {"setup": setup, "runs": runs, "traced_runs": traced_runs, "calib": calib}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated benchmark unwinds, so run_child stops its processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "statealign" / "cli.py").is_file():
        print(f"perfbench: no statealign source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced = args.trace == 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        got = measure(workload, args.seed, args.seconds, traced, work)
        spans_path = None
        if (work / "spans.jsonl").is_file():
            spans_path = OUT_DIR / f"spans-{tag}.jsonl"
            shutil.move(work / "spans.jsonl", spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_runs = got["runs"] + got["traced_runs"]
    problems: list[str] = []
    failed = 0
    first_digest = next((r["digest"] for r in all_runs if r.get("digest")), None)
    for run in all_runs:
        if run.get("digest") and run["digest"] != first_digest:
            run["problems"].append(f"digest {run['digest']} != first run's {first_digest}")
        if run["problems"]:
            failed += 1
            problems += run["problems"]
    good = [r for r in got["runs"] if not r["problems"]]
    good_traced = [r for r in got["traced_runs"] if not r["problems"]]

    metrics: dict[str, tuple] = {}
    if not traced:
        steps = lane_steps(HERE / "workloads" / workload.config)
        values = {
            "setup_s": median(got["setup"]),
            "run_s": median([r["run_s"] for r in good]) if good else None,
            "lane_steps_per_s": median([steps / r["run_s"] for r in good]) if good else None,
            "cpu_s": median([r["cpu_s"] for r in good]) if good else None,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in good]) if good else None,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    elif good_traced:
        first = good_traced[0]
        sigs = [signature(r["trace"]) for r in good_traced]
        if any(s != sigs[0] for s in sigs[1:]):
            problems.append("traced runs gave different counts")
        layer = layer_metrics(first["trace"], first.get("workers_merged", 0))
        units = {"s": "s", "self_s": "s", "us_per_call": "us", "bytes": "B", "pairs_mean": "pairs"}
        for name, value in layer.items():
            metrics[name] = (value, units.get(name.rsplit(".", 1)[-1], "count"))
        plain_s = median([r["run_s"] for r in good]) if good else None
        traced_s = median([r["run_s"] for r in good_traced])
        pool = median([r["cpu_s"] / (workload.workers * r["run_s"]) for r in good]) if good else None
        metrics["bench.run_grid.pool_util"] = (pool, "ratio")
        metrics["trace_overhead_s"] = (traced_s - plain_s if plain_s is not None else None, "s")
        metrics["calib_s"] = (median(got["calib"]), "s")
    else:
        problems.append("no traced run succeeded")

    attempted = len(all_runs)
    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "setup_samples": got["setup"],
        "calib_samples": got["calib"],
        "runs": [
            {k: v for k, v in r.items() if k not in ("trace", "spans")} for r in all_runs
        ],
        "digest": first_digest,
        "problems": problems,
        "spans": str(spans_path) if spans_path else None,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=1), encoding="ascii")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"runs attempted {attempted} failed {failed} failed_share {failed / attempted!r}")
    print(f"rows_digest {first_digest}")
    if not traced:
        print(f"drift probe calib_s {median(got['calib'])!r} s")
    for problem in problems:
        print(f"problem {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if spans_path:
        print(f"spans {spans_path.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
