"""Run the benchmark on two commits in alternating pairs and write a BENCH file.

    python3 tools/bench_pairs.py --base <rev> --head <rev> --pairs 10 \
        --first-seed 911 --out BENCH_<n>.json

The committed files of each revision are extracted with `git archive`
into a fresh temporary directory, and `bench/run.py` runs there with
`--trace 0`, one process at a time, for every workload the head's
BENCHMARK.json lists.  Pair i runs both revisions with seed
first_seed + i, the base first on even pairs and the head first on odd
ones, so a slow drift of the host favours neither side.  The file keeps
every run's last-line metrics and, per workload and side, the median
and quartiles of each end-to-end metric, the ratio of the medians
(base over head, so above 1 means the head is faster or smaller), and
per metric, judged in the direction of its `better` entry in the head's
BENCHMARK.json, the number of pairs the head won, whether the head's
median stays within the metric's `bound` (a fraction of the base
median) of the base's, and whether the runs resolve the metric at all:
`resolved` is false when the base's interquartile range exceeds the
bound, unless every head run beats every base run.  Once the file is
written, one line per workload and metric on stderr quotes the base
median and quartiles, the head median, the head's wins and the two
verdicts.  Its machine block
names the core count, the platform, the library versions, the BLAS that
NumPy links, and the values of PYTHONDONTWRITEBYTECODE, on which
`setup_s` depends, and of GLIBC_TUNABLES and the MALLOC_* variables,
on which B's time depends with the BLAS.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def _version(package: str):
    """The installed version of `package`, or None where it is not installed."""
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


# environment variables that move the timings: without bytecode caching
# every set-up probe of a fresh checkout compiles every module again, and
# glibc's malloc settings decide whether B's work arrays fault in fresh
# pages on every call
_TIMING_ENV = ("PYTHONDONTWRITEBYTECODE", "GLIBC_TUNABLES", "MALLOC_ARENA_MAX",
               "MALLOC_MMAP_MAX_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_",
               "MALLOC_TRIM_THRESHOLD_")


def _blas() -> dict:
    """The BLAS that NumPy links: its name, its version and OpenBLAS's
    configuration string, which names the core type its kernels were
    picked for.  All null where `np.show_config(mode="dicts")` is missing
    (numpy < 1.26), and each null where the record lacks it."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


def _machine() -> dict:
    """The machine block: cores, platform, library versions, the BLAS
    (`_blas`), and the environment variables that move the timings
    (`_TIMING_ENV`, null when unset, and any other MALLOC_* variable that
    is set).  `setup_s` compares across BENCH files only when
    PYTHONDONTWRITEBYTECODE matches, and B's time only when the malloc
    settings and the BLAS kernels do: B is a chain of matrix products."""
    env = {name: os.environ.get(name) for name in _TIMING_ENV}
    env.update({k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")})
    return {"cores": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"), **_blas(), **env}


def _extract(commit: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line metrics of one benchmark run; a failed run raises a
    RuntimeError naming the run and quoting the end of its stderr."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        raise RuntimeError(f"workload {workload} with seed {seed} in {checkout} exited with "
                           f"status {done.returncode}; the last lines of its stderr:\n{tail}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs, end_to_end) -> dict:
    """Per metric of BENCHMARK.json's `end_to_end` list: spreads, head wins,
    whether the head's median is within `bound` of the base's, and whether
    the base's spread is narrow enough for that verdict to mean anything."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        base = _spread([r["base"][name] for r in runs])
        head = _spread([r["head"][name] for r in runs])
        # sign * value is lower-is-better in both directions
        worse_by = sign * (head["median"] - base["median"])
        limit = metric["bound"] * abs(base["median"])
        head_beats_all = (max(sign * r["head"][name] for r in runs)
                          < min(sign * r["base"][name] for r in runs))
        out[name] = {"base": base, "head": head,
                     "ratio_of_medians": base["median"] / head["median"],
                     "head_wins": sum(sign * r["head"][name] < sign * r["base"][name]
                                      for r in runs),
                     "within_bound": worse_by <= limit,
                     "resolved": base["q3"] - base["q1"] <= limit or head_beats_all}
    out["all_correct"] = all(r[side]["correct"] and r[side]["failed"] == 0
                             for r in runs for side in ("base", "head"))
    return out


def _summary_lines(report) -> list:
    """One line per workload and end-to-end metric of `report` (workload
    name -> {"summary": `_summary`, "runs": [...]}): the base median and
    quartiles, the head median, the head's wins and the two verdicts."""
    lines = []
    for workload, entry in report.items():
        summary, pairs = entry["summary"], len(entry["runs"])
        for name, m in summary.items():
            if name == "all_correct":
                continue
            base, head = m["base"], m["head"]
            lines.append(
                f"{workload} {name}: base {base['median']:.4g} "
                f"({base['q1']:.4g}-{base['q3']:.4g}), head {head['median']:.4g}, "
                f"head won {m['head_wins']} of {pairs}, within_bound {m['within_bound']}, "
                f"resolved {m['resolved']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--head", default="HEAD", help="revision under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=911)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", default=None,
                        help="workload name (repeatable); default every listed one")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    commits = {"base": _git("rev-parse", args.base), "head": _git("rev-parse", args.head)}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: _extract(commit, Path(tmp) / side) for side, commit in commits.items()}
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        report = {}
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = _run(trees[side], workload, seed, args.seconds)
                runs.append(run)
                print(f"{workload} seed {seed}: base job_s {run['base']['job_s']:.3f}, "
                      f"head job_s {run['head']['job_s']:.3f}", file=sys.stderr)
            report[workload] = {"summary": _summary(runs, spec["end_to_end"]), "runs": runs}

    args.out.write_text(json.dumps({
        "machine": _machine(),
        "commits": commits,
        "seconds_per_run": args.seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "pair i runs the base first when i is even, the head first when odd",
        "workloads": report,
    }, indent=2) + "\n")
    for line in _summary_lines(report):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
