"""Actual-versus-counterfactual decay study across memory lengths.

Runs the no-intervention comparison for several tau values on the same
stream shape, writes one trace file per (tau, seed), and prints the
per-phase decay fits. The trace files feed external plotting.

Usage:
    python scripts/run_decay_study.py --out runs/decay --seeds 0 1 2 --taus 5 10 50
"""
from __future__ import annotations

import argparse
from pathlib import Path

from statealign.bench import (
    ExperimentConfig,
    run_experiment,
    write_results_csv,
    write_trace_csv,
)
from statealign.olbfgs import StepConfig
from statealign.stream import StreamConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("runs/decay"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--taus", type=int, nargs="+", default=[5, 10, 50])
    parser.add_argument("--dimension", type=int, default=25)
    parser.add_argument("--kappa", type=float, default=10.0)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    results = []
    for tau in args.taus:
        for seed in args.seeds:
            cfg = ExperimentConfig(
                stream=StreamConfig(
                    dimension=args.dimension,
                    length=700,
                    deletion_time=300,
                    horizon=250,
                    condition_number=args.kappa,
                ),
                optimizer=StepConfig(eta=0.1, tau=tau),
                interventions=("noop",),
                seeds=(seed,),
            )
            res = run_experiment(cfg)
            results.append(res)
            row = res.method_row("noop")
            write_trace_csv(
                res.traces["noop"], str(args.out / f"trace_tau{tau}_seed{seed}.csv")
            )
            print(
                f"tau={tau} seed={seed}: initial E_theta={row.initial_state_err:.4g} "
                f"final={row.final_state_err:.4g} clearance={row.clearance_time} "
                f"rho(P1)={row.rho_p1:.4g} rho(P2)={row.rho_p2:.4g} rho(P3)={row.rho_p3:.4g}"
            )
    write_results_csv(results, str(args.out / "results.csv"))
    print(f"wrote {args.out / 'results.csv'}")


if __name__ == "__main__":
    main()
