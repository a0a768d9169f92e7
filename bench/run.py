"""Run one benchmark workload and print its metrics as the last line.

    python3 bench/run.py --workload estimate-default --seed 1 --seconds 25 --trace 0

Run from any directory of a checkout; the program is imported from the
checkout's `src`.  The run first sets up (imports plus the first build
of the cached tables), then repeats whole jobs of the workload until
`--seconds` have passed, checking each job's outputs.  Job j draws its
inputs from the seed sequence (seed, j), so a seed fixes every input.

With `--trace 0` the last line reports the end-to-end metrics of
BENCHMARK.json: `setup_s`, the median of five set-ups in fresh
interpreters; `job_s`, the median job wall time; and `peak_rss_mb`.
With `--trace 1` the jobs alternate untraced and traced, the last line
reports the per-layer metrics, and the spans go to
bench/out/trace-<workload>-seed<seed>.json.

BLAS runs on one thread (OPENBLAS/OMP/MKL_NUM_THREADS=1), so a run uses
one core and its figures do not depend on the core count.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
SETUP_PROBES = 5


def _prepare() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "pespec" / "__init__.py").is_file():
        raise SystemExit(f"bench: no pespec sources under {src}")
    sys.path.insert(0, str(src))


def _load_workload(name: str, sizes: str):
    import pespec
    import workloads

    if Path(pespec.__file__).resolve().parent != ROOT / "src" / "pespec":
        raise SystemExit(f"bench: pespec imported from {pespec.__file__}, not the checkout")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name](workloads.TOY if sizes == "toy" else workloads.FULL)


def _probe_setup(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--sizes", args.sizes, "--probe-setup"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _job_seed(seed: int, job: int) -> int:
    # NumPy loads only after `_prepare` has pinned the BLAS threads
    import numpy as np

    return int(np.random.SeedSequence([seed, job]).generate_state(1)[0])


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = _load_workload(args.workload, args.sizes)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.recording = True
    workload.setup()
    if tracer:
        tracer.recording = False
    setup_s = [] if tracer else [_probe_setup(args) for _ in range(SETUP_PROBES)]

    untraced, traced, traced_outputs = [], [], {}
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    job = 0
    while True:
        traced_job = tracer is not None and job % 2 == 1
        if traced_job:
            tracer.job, tracer.recording = job, True
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.run(_job_seed(args.seed, job))
        except Exception:
            failed += 1
            out = None
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.recording = False
        if out is not None:
            (traced if traced_job else untraced).append(elapsed)
            if traced_job:
                traced_outputs[job] = out
            found = workload.check(out)
            problems += found
            gates = out.data.get("gates")
            verdicts = "" if gates is None else " program gates: " + " ".join(
                f"{k}={'pass' if v else 'FAIL'}" for k, v in gates.items())
            print(f"job {job}{' traced' if traced_job else ''}: {elapsed:.4f} s, "
                  f"checks {'ok' if not found else 'FAILED'}{verdicts}")
            for p in found:
                print(f"  check failed: {p}")
        job += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or job >= 2):
            break
    if not untraced or (tracer and not traced):
        raise SystemExit("bench: no job of the workload completed")
    found = workload.check_run()
    problems += found
    print(f"run checks {'ok' if not found else 'FAILED'}")
    for p in found:
        print(f"  check failed: {p}")

    if tracer:
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer, traced_outputs, untraced, traced)
        tracer.dump(ROOT / "bench" / "out" / f"trace-{args.workload}-seed{args.seed}.json")
        listed = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "job_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        listed = spec["end_to_end"]
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in listed}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # toy sizes are for the benchmark's own tests
    parser.add_argument("--sizes", choices=("full", "toy"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare()
    if args.probe_setup:
        t0 = time.perf_counter()
        _load_workload(args.workload, args.sizes).setup()
        print(repr(time.perf_counter() - t0))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
