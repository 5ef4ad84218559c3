"""One measured step of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py setup CONFIG SEED COMMAND
        Import statealign.cli, then load and validate CONFIG the way
        `bench COMMAND --config CONFIG --seed SEED` does. The caller times
        the whole process: this is the set-up a user pays on every run.

    python3 perfbench/child.py run RECORD [--trace DIR] -- BENCH_ARGV...
        Call statealign.cli.main(BENCH_ARGV) and write a JSON record of its
        wall time, CPU time (grid pool workers included) and peak RSS to
        RECORD. With --trace, hooks.install wraps the public functions
        first, pool workers dump their tables into DIR, and the record
        also holds the merged span tables; the spans themselves go to
        DIR/spans.jsonl.

perfbench/run.py starts this script with PYTHONPATH pointing at src/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter


def _setup(config: str, seed: int, command: str) -> None:
    import statealign.cli  # noqa: F401  (the import is what is timed)
    from statealign import bench, configio

    cfg = configio.load_config(config, base=bench.experiment2_defaults())
    replace(cfg, seeds=(seed,)).validate()
    if command == "grid":
        configio.load_grid_axes(config)


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _run(record_path: str, trace_dir: str | None, argv: list[str]) -> None:
    from statealign.cli import main

    tracer = None
    if trace_dir is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import hooks

        tracer = hooks.install(trace_dir)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    with tracer.root("bench.main") if tracer else contextlib.nullcontext():
        rc = main(argv)
    run_s = perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "rc": rc,
        "run_s": run_s,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
        # ru_maxrss is in KiB on Linux.
        "parent_rss_mb": self1.ru_maxrss / 1024.0,
        "worker_rss_mb": kids1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["workers_merged"] = hooks.merge_worker_dumps(tracer, trace_dir)
        table = tracer.table()
        spans = table.pop("spans")
        with open(Path(trace_dir) / "spans.jsonl", "w", encoding="ascii") as fh:
            for pid, span_id, parent, name, t0, t1 in spans:
                doc = {"pid": pid, "id": span_id, "parent": parent, "name": name, "start": t0, "end": t1}
                fh.write(json.dumps(doc) + "\n")
        record["trace"] = table
    Path(record_path).write_text(json.dumps(record), encoding="ascii")


def main() -> None:
    own, bench_argv = sys.argv[1:], []
    if "--" in own:
        cut = own.index("--")
        own, bench_argv = own[:cut], own[cut + 1 :]
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("config")
    setup.add_argument("seed", type=int)
    setup.add_argument("command")
    run = sub.add_parser("run")
    run.add_argument("record")
    run.add_argument("--trace", default=None)
    args = parser.parse_args(own)
    if args.mode == "setup":
        _setup(args.config, args.seed, args.command)
    else:
        _run(args.record, args.trace, bench_argv)


if __name__ == "__main__":
    main()
