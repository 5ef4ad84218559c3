"""Outside-in tracing of statealign's public functions.

`install` replaces each hooked function with a timing wrapper in every
statealign module that holds a reference to it, so calls made through a
`from .olbfgs import two_loop` import are seen as well as calls through
the defining module. Nothing inside the package is edited.

Each wrapper keeps, per span name: calls, total seconds, self seconds
(total minus the wrapped calls made beneath it) and the number of calls
that raised. Observers add outcome counts (pairs accepted, events
replayed, bytes written). Spans are kept in memory, at most SPAN_CAP per
name and process, and written out by the caller when the run ends.

A hook whose function no longer exists is listed in `missing`; a hook
whose call cannot be classified, or an observer that fails, is listed in
`broken`. Metrics derived from either are reported as null, never as 0.

Grid pool workers started by fork inherit the wrappers. Each worker
starts from empty tables and writes them to `worker-<pid>.json` in the
dump directory when it exits; `merge_worker_dumps` folds them back in.
"""
from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing.util
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

SPAN_CAP = 200


def _two_loop_kind(args, kwargs) -> str:
    q = args[1] if len(args) > 1 else kwargs["q"]
    columns = 1 if q.ndim == 1 else q.shape[1]
    return "olbfgs.two_loop.grad" if columns == 1 else "olbfgs.two_loop.probe"


def _obs_two_loop(counts, args, kwargs, result):
    memory = args[0] if args else kwargs["memory"]
    counts["olbfgs.two_loop.pairs"] += len(memory)


def _obs_advance(counts, args, kwargs, result):
    accepted = result[1].pair_accepted
    counts["olbfgs.advance.pairs_accepted" if accepted else "olbfgs.advance.pairs_rejected"] += 1


def _obs_replay(counts, args, kwargs, result):
    history = args[1] if len(args) > 1 else kwargs["history"]
    counts["olbfgs.replay.events"] += len(history)


def _obs_apply(counts, args, kwargs, result):
    counts["interventions.apply.replayed_events"] += int(result.cost.replayed_events)


def _obs_write(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["bench.write.bytes"] += os.path.getsize(path)


def _obs_run_grid(counts, args, kwargs, result):
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    counts["bench.run_grid.workers"] = max(counts["bench.run_grid.workers"], int(workers))


# (defining module, function, span name or classifier, observer, observer
# outputs, modules to install in or None for every module holding it)
HOOKS = (
    ("olbfgs", "two_loop", _two_loop_kind, _obs_two_loop, ("olbfgs.two_loop.pairs",), None),
    (
        "olbfgs",
        "advance",
        "olbfgs.advance",
        _obs_advance,
        ("olbfgs.advance.pairs_accepted", "olbfgs.advance.pairs_rejected"),
        None,
    ),
    ("olbfgs", "replay", "olbfgs.replay", _obs_replay, ("olbfgs.replay.events",), None),
    ("olbfgs", "step", "certify.step", None, (), ("certify",)),
    (
        "interventions",
        "apply",
        "interventions.apply",
        _obs_apply,
        ("interventions.apply.replayed_events",),
        None,
    ),
    ("stream", "loss_and_grad", "stream.loss_and_grad", None, (), None),
    ("stream", "generate_stream", "stream.generate_stream", None, (), None),
    ("metrics", "direction_gap", "metrics.direction_gap", None, (), None),
    ("metrics", "fit_decay_rate", "metrics.fit_decay_rate", None, (), None),
    ("certify", "empirical_contraction", "certify.empirical_contraction", None, (), None),
    ("bench", "write_results_csv", "bench.write", _obs_write, ("bench.write.bytes",), None),
    ("bench", "write_results_json", "bench.write", _obs_write, ("bench.write.bytes",), None),
    ("bench", "write_trace_csv", "bench.write", _obs_write, ("bench.write.bytes",), None),
    ("bench", "write_summary_csv", "bench.write", _obs_write, ("bench.write.bytes",), None),
    ("bench", "run_grid", "bench.run_grid", _obs_run_grid, ("bench.run_grid.workers",), None),
    # One grid point; the job boundary inside pool workers.
    ("bench", "_grid_worker", "bench.grid_point", None, (), None),
)


class Tracer:
    """Per-process span tables; see the module docstring."""

    def __init__(self, dump_dir: str | None = None) -> None:
        self.dump_dir = dump_dir
        self.owner_pid = os.getpid()
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self.stack: list[list[float]] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s, raised]
        self.counts = Counter()
        self.spans: list[tuple] = []
        self.kept = Counter()
        self.grid_points: list[tuple[float, float]] = []
        self.next_id = 0
        self.stack.clear()

    def _after_fork(self) -> None:
        self._reset()
        if self.dump_dir is not None:
            path = os.path.join(self.dump_dir, f"worker-{self.pid}.json")
            multiprocessing.util.Finalize(None, self.dump, args=(path,), exitpriority=100)

    def wrap(self, fn, key, name, observe, outputs):
        """Timing wrapper for `fn`, the function hooked as `key`."""
        stack = self.stack
        classify = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if classify is not None:
                try:
                    span = classify(args, kwargs)
                except Exception:
                    self.broken.add(key)
                    span = f"{key}.unclassified"
            self.next_id += 1
            frame = [0.0, self.next_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            raised = 1
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                end = perf_counter()
                stack.pop()
                self._close(span, start, end, frame, parent, raised)
            if observe is not None and not self.broken.issuperset(outputs):
                try:
                    observe(self.counts, args, kwargs, result)
                except Exception:
                    self.broken.update(outputs)
            return result

        return wrapper

    def _close(self, span, start, end, frame, parent, raised) -> None:
        duration = end - start
        row = self.stats.get(span)
        if row is None:
            row = self.stats[span] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[0]
        row[3] += raised
        parent_id = None
        if parent is not None:
            parent[0] += duration
            parent_id = parent[1]
        if span == "bench.grid_point" and self.pid != self.owner_pid:
            self.grid_points.append((start, end))
        if self.kept[span] < SPAN_CAP:
            self.kept[span] += 1
            self.spans.append((self.pid, frame[1], parent_id, span, start, end))

    @contextlib.contextmanager
    def root(self, name: str):
        """Time the top-level span (the CLI call)."""
        self.next_id += 1
        frame = [0.0, self.next_id]
        self.stack.append(frame)
        start = perf_counter()
        raised = 1
        try:
            yield
            raised = 0
        finally:
            end = perf_counter()
            self.stack.pop()
            self._close(name, start, end, frame, None, raised)

    def table(self) -> dict:
        return {
            "stats": self.stats,
            "counts": dict(self.counts),
            "spans": self.spans,
            "grid_points": self.grid_points,
            "missing": sorted(self.missing),
            "broken": sorted(self.broken),
        }

    def dump(self, path: str) -> None:
        Path(path).write_text(json.dumps(self.table()), encoding="ascii")


def install(dump_dir: str | None = None) -> Tracer:
    """Wrap every hooked function in every loaded statealign module."""
    tracer = Tracer(dump_dir)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "statealign" or n.startswith("statealign.")]
    for mod_name, fn_name, name, observe, outputs, sites in HOOKS:
        defining = sys.modules.get(f"statealign.{mod_name}")
        original = getattr(defining, fn_name, None)
        if not callable(original):
            tracer.missing.add(f"{mod_name}.{fn_name}")
            continue
        wrapper = tracer.wrap(original, f"{mod_name}.{fn_name}", name, observe, outputs)
        for module in modules:
            if sites is not None and module.__name__.rsplit(".", 1)[-1] not in sites:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    multiprocessing.util.register_after_fork(tracer, Tracer._after_fork)
    return tracer


def merge_worker_dumps(tracer: Tracer, dump_dir: str) -> int:
    """Fold pool workers' tables into the parent's; returns how many."""
    merged = 0
    for path in sorted(Path(dump_dir).glob("worker-*.json")):
        doc = json.loads(path.read_text(encoding="ascii"))
        for span, (calls, total, self_s, raised) in doc["stats"].items():
            row = tracer.stats.setdefault(span, [0, 0.0, 0.0, 0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
            row[3] += raised
        for key, value in doc["counts"].items():
            if key != "bench.run_grid.workers":
                tracer.counts[key] += value
        tracer.spans.extend(tuple(s) for s in doc["spans"])
        tracer.grid_points.extend(tuple(p) for p in doc["grid_points"])
        tracer.broken.update(doc["broken"])
        merged += 1
    return merged
