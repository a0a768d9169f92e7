"""Command line front end: a parser and one dispatch.

Every subcommand but `ntcheck` resolves one ExperimentConfig from an
optional flat config file plus flag overrides and hands it to its
harness runner in `RUNNERS`.  The studies take `--replications` and, but
for `linear-validate`, where both linear modes compute the same, `--mode`;
`simulate` and `estimate` take neither; `ntcheck` takes its own three flags.
Each command returns a RunReport, printed the same way: result lines,
gate lines, warnings, then the files written.  The exit code is 0 when
all hard gates pass and 1 otherwise, so shell pipelines can chain on
success; a flag or config value the command cannot take exits 2 with a
one-line usage error, and a run that cannot finish (a blown-up path, too
few usable replications: a RuntimeError) exits 1 with one error line and
no report.
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
    _check_config,
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

    def common(p: argparse.ArgumentParser, *study_flags: str) -> None:
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        if "replications" in study_flags:
            p.add_argument("--replications", type=int, default=None,
                           help="Monte Carlo replication count override")
        if "mode" in study_flags:
            p.add_argument("--mode", default=None, choices=MODES,
                           help="sampling backend override")

    # one path each, linear or not as the config's include_nonlinear says
    common(sub.add_parser("simulate", help="write one trajectory file"))
    common(sub.add_parser("estimate", help="simulate once and print the estimates"))
    for name, help_text in (("consistency", "error sweep across truncations"),
                            ("normality", "scaled-error distribution checks")):
        common(sub.add_parser(name, help=help_text), "replications", "mode")
    common(sub.add_parser("linear-validate",
                          help="linear-model moments against closed forms"), "replications")
    nt = sub.add_parser("ntcheck", help="lattice counting checks")
    nt.add_argument("--out", type=Path, default=ExperimentConfig.output_dir,
                    help="output directory")
    nt.add_argument("--n-max", type=int, default=10000,
                    help="upper bound for the representation scan")
    nt.add_argument("--lattice-N", type=int, default=50,
                    help="ball radius for the lattice sum ratios")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    flags = {"seed": args.seed, "output_dir": args.out,
             "replications": getattr(args, "replications", None),
             "mode": getattr(args, "mode", None)}
    overrides = {key: str(value) for key, value in flags.items() if value is not None}
    return (_config_from_dict(overrides) if args.config is None
            else load_config(args.config, overrides))


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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ntcheck":
        for flag, value in (("--n-max", args.n_max), ("--lattice-N", args.lattice_N)):
            if value < 1:
                parser.error(f"argument {flag}: must be >= 1, not {value}")
        report = number_theory_checks(n_max=args.n_max, N=args.lattice_N,
                                      output_dir=args.out)
    else:
        try:
            cfg = _resolve_config(args)
            _check_config(args.command, cfg)  # the runner's own check, before it runs
        except (OSError, UnicodeDecodeError) as exc:  # the latter is a ValueError
            reason = getattr(exc, "strerror", None) or exc
            parser.error(f"cannot read config file {args.config}: {reason}")
        except ValueError as exc:  # a malformed config is a usage error: exit 2
            parser.error(str(exc))
        try:
            report = RUNNERS[args.command](cfg)
        except RuntimeError as exc:  # BlowUpError is one
            print(f"{parser.prog}: error: {exc}", file=sys.stderr)
            return 1
    _print_report(report)
    return 0 if report.hard_ok else 1


if __name__ == "__main__":
    sys.exit(main())
