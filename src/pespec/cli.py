"""Command line front end: a parser and one dispatch.

Every subcommand but `ntcheck` resolves one ExperimentConfig from an
optional flat config file plus flag overrides and hands it to its
harness runner in `RUNNERS`; `ntcheck` takes only its own three flags.
Each command returns a RunReport, printed the same way: result lines,
gate lines, warnings, then the files written.  The exit code is 0 when
all hard gates pass and 1 otherwise, so shell pipelines can chain on
success.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .harness import (
    MODES,
    ExperimentConfig,
    RunReport,
    _config_from_dict,
    load_config,
    number_theory_checks,
    run_consistency,
    run_estimate,
    run_linear_validation,
    run_normality,
    run_simulate,
)

RUNNERS: Dict[str, Callable[[ExperimentConfig], RunReport]] = {
    "simulate": run_simulate,
    "estimate": run_estimate,
    "consistency": run_consistency,
    "normality": run_normality,
    "linear-validate": run_linear_validation,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pespec",
        description="simulate the spectral model and validate its viscosity estimators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--replications", type=int, default=None,
                       help="Monte Carlo replication count override")
        p.add_argument("--mode", default=None, choices=MODES,
                       help="sampling backend override")

    common(sub.add_parser("simulate", help="write one trajectory file"))
    common(sub.add_parser("estimate", help="simulate once and print the estimates"))
    common(sub.add_parser("consistency", help="error sweep across truncations"))
    common(sub.add_parser("normality", help="scaled-error distribution checks"))
    common(sub.add_parser("linear-validate",
                          help="linear-model moments against closed forms"))
    nt = sub.add_parser("ntcheck", help="lattice counting checks")
    nt.add_argument("--out", type=Path, default=ExperimentConfig.output_dir,
                    help="output directory")
    nt.add_argument("--n-max", type=int, default=10000,
                    help="upper bound for the representation scan")
    nt.add_argument("--lattice-N", type=int, default=50,
                    help="ball radius for the lattice sum ratios")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides: Dict[str, str] = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["output_dir"] = str(args.out)
    if args.replications is not None:
        overrides["replications"] = str(args.replications)
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.config is not None:
        return load_config(args.config, overrides)
    return _config_from_dict(overrides)


def _print_report(report: RunReport) -> None:
    for note in report.notes:
        print(note)
    for gate in report.gates:
        status = "pass" if gate.passed else "FAIL"
        print(f"gate {gate.name}: {status} (observed={gate.observed:.6g}, "
              f"bound={gate.bound:.6g}, {'hard' if gate.hard else 'soft'})")
    for warning in report.warnings:
        print(f"warning: {warning}")
    for path in report.outputs:
        print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "ntcheck":
        report = number_theory_checks(n_max=args.n_max, N=args.lattice_N,
                                      output_dir=args.out)
    else:
        report = RUNNERS[args.command](_resolve_config(args))
    _print_report(report)
    return 0 if report.hard_ok else 1


if __name__ == "__main__":
    sys.exit(main())
