"""Command-line entry point.

Subcommands:
    bench exp1        actual-versus-counterfactual decay run
    bench exp2        full intervention comparison run
    bench grid        axis-product sweep with derived per-point seeds
    bench certify     calibrate the Gaussian noise level for a deviation
    bench inspect     train to the deletion and apply one intervention

Exit codes: 0 success, 1 configuration error (a usage error included),
2 runtime failure (any error that is not a configuration error,
reported in one stderr line).
Result files are written atomically (temp file, then rename).
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench, certify, configio, metrics
from .errors import InvalidConfig, InvalidPrivacyParams, StateAlignError
from .interventions import apply as apply_intervention
from .olbfgs import LaneBank

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1); the subparsers share this class."""

    def error(self, message: str):
        raise InvalidConfig(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bench", description="Deletion benchmarks for online L-BFGS state alignment."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="key-value config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    add_run_args(sub.add_parser("exp1", help="decay run without intervention"))
    add_run_args(sub.add_parser("exp2", help="full intervention comparison"))
    grid = sub.add_parser("grid", help="axis-product sweep")
    add_run_args(grid)
    grid.add_argument("--workers", type=int, default=1)

    cert = sub.add_parser("certify", help="noise level for a deviation bound")
    cert.add_argument("--alpha", type=float, required=True)
    cert.add_argument("--eps", type=float, required=True)
    cert.add_argument("--delta", type=float, required=True)
    cert.add_argument("--beta", type=float, default=0.0)

    insp = sub.add_parser("inspect", help="train to the deletion and apply one intervention")
    insp.add_argument("--config", type=str, default=None)
    insp.add_argument("--seed", type=int, default=None)
    insp.add_argument("--intervention", type=str, default=None, help="method id to apply")
    return parser


def _load_cfg(args, defaults: bench.ExperimentConfig) -> bench.ExperimentConfig:
    cfg = defaults
    if args.config is not None:
        cfg = configio.load_config(args.config, base=cfg)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    return cfg


def _write_outputs(
    out_dir: str, fmt: str, results: list[bench.RunResult], summary: list[dict] | None = None
) -> None:
    """Write a command's files into out_dir and print each path once it is written.

    The order is results.<fmt>, each method's trace of a single run (grid
    points keep none), then a grid's summary.csv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_results = bench.write_results_json if fmt == "json" else bench.write_results_csv
    files = [(f"results.{fmt}", write_results, results)]
    for result in results:
        files += [(f"trace_{m}.csv", bench.write_trace_csv, t) for m, t in result.traces.items()]
    if summary is not None:
        files.append(("summary.csv", bench.write_summary_csv, summary))
    for name, write, obj in files:
        path = str(out / name)
        write(obj, path)
        print(path)


def _cmd_experiment(args) -> int:
    exp1 = args.command == "exp1"
    cfg = _load_cfg(args, bench.experiment1_defaults() if exp1 else bench.experiment2_defaults())
    if exp1:
        # The decay run compares the unrepaired state with the oracle only.
        cfg = replace(cfg, interventions=("noop",))
    result = bench.run_experiment(cfg, keep_traces=args.out is not None)
    if args.out:
        _write_outputs(args.out, args.format, [result])
    for row in result.methods:
        print(
            f"{row.method}: future_state_auc={row.future_state_auc!r} "
            f"exact_recovery={str(row.exact_recovery).lower()}"
        )
    if result.assumption_violations:
        print("assumption violations: " + "; ".join(result.assumption_violations))
    return EXIT_OK


def _cmd_grid(args) -> int:
    cfg = _load_cfg(args, bench.experiment2_defaults())
    axes = configio.load_grid_axes(args.config) if args.config else {}
    results = bench.run_grid(cfg, axes, workers=args.workers)
    summary = bench.aggregate(results)
    if args.out:
        _write_outputs(args.out, args.format, results, summary)
    for row in summary:
        print(
            f"{row['method']}: median_auc={row['median_future_state_auc']!r} "
            f"exact_recovery_rate={row['exact_recovery_rate']!r}"
        )
    return EXIT_OK


def _cmd_certify(args) -> int:
    # beta is the mass on which the deviation bound itself may fail; it is only reported.
    if not 0.0 <= args.beta < math.inf:
        raise InvalidPrivacyParams("beta must be finite and >= 0")
    sigma = certify.calibrate_sigma(args.alpha, args.eps, args.delta)
    if not math.isfinite(sigma):
        raise InvalidPrivacyParams(
            f"sigma must be finite, got {sigma!r} from alpha={args.alpha!r}, eps={args.eps!r}"
        )
    print(f"sigma {sigma!r}")
    print(f"alpha {args.alpha!r}")
    print(f"epsilon {args.eps!r}")
    print(f"delta {args.delta!r}")
    print(f"beta {args.beta!r}")
    print(f"exact {str(args.alpha == 0.0).lower()}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    cfg = _load_cfg(args, bench.experiment2_defaults())
    _, ctx, _ = bench.prepare_run(cfg)
    print(
        f"trained {len(ctx.full_prefix)} events: |w|={float(np.linalg.norm(ctx.actual.w))!r} "
        f"pairs={len(ctx.actual)}"
    )
    print(f"deletion set ({cfg.stream.deletion_mode.value}): {sorted(ctx.deletions.indices)}")
    if args.intervention:
        intervened = apply_intervention(args.intervention, ctx)
        probes = metrics.make_probes(cfg.stream.dimension, cfg.probe_count, cfg.seeds[0])
        oracle = apply_intervention("oracle", ctx).state
        gaps = metrics.state_gaps(LaneBank([oracle, intervened.state]), probes, cfg.memory_weight)
        e_w, e_z, e_theta = (float(e[1]) for e in gaps)
        print(
            f"{args.intervention}: param_err={e_w!r} mem_err={e_z!r} state_err={e_theta!r} "
            f"replayed={intervened.cost.replayed_events}"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        commands = {"grid": _cmd_grid, "certify": _cmd_certify, "inspect": _cmd_inspect}
        return commands.get(args.command, _cmd_experiment)(args)
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StateAlignError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        # Any other failure is a fault of the run, not of its configuration.
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
