"""Command-line entry points: run one experiment, sweep a grid, or verify.

Exit codes: 0 success, 1 check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig, SweepSpec
from .acceptance import verify_suite
from .dictionaries import InfeasibleSelectionError
from .harness import run_experiment, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpgreedy",
        description="Greedy approximation runs over complex l_p dictionaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True, help="config file (key-value text or JSON)")
    p_run.add_argument("--out", required=True, help="output directory for trace and report")

    p_sweep = sub.add_parser("sweep", help="run a Cartesian parameter sweep")
    p_sweep.add_argument("--spec", required=True, help="sweep spec (JSON)")
    p_sweep.add_argument("--out", required=True, help="output directory for the summary CSV")

    p_verify = sub.add_parser("verify", help="run the verification battery")
    p_verify.add_argument("--profile", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig.load(args.config)
            trace, reports = run_experiment(config, out_dir=args.out)
            norms = trace.residual_norms()
            print(
                f"{trace.algorithm}: {len(trace.records)} steps, "
                f"final residual {norms[-1]:.6e}, stop={trace.stop_reason}"
            )
            failed = [r for r in reports if r.applicable and not r.passed]
            for report in reports:
                status = "PASS" if report.passed else "FAIL"
                if not report.applicable:
                    status = "SKIP"
                print(f"{status}  {report.name}: worst_margin={report.worst_margin:.3e}")
            return 1 if failed else 0
        if args.command == "sweep":
            spec = SweepSpec.load(args.spec)
            rows = run_sweep(spec, out_dir=args.out)
            errors = sum(1 for row in rows if row["error"])
            print(f"{len(rows)} cells, {errors} failed; summary in {args.out}/sweep_summary.csv")
            return 1 if errors else 0
        exit_code, _ = verify_suite(seed=args.seed, profile=args.profile)
        return exit_code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, InfeasibleSelectionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
