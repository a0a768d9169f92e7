"""The benchmark's own tests: toy-size runs and checks that bite.

Run from the repository root:

    python -m pytest -q bench/tests

Every workload runs end to end at toy size through `bench/run.py`, with
and without tracing, and every output check is shown to reject a
perturbed output.
"""
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--sizes", "toy"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_three_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "job_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_untraced(name):
    result = _result(_run(name, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name, per_sample, backend",
                         [("estimate-default", 6.0, "direct"),
                          ("nonlinear-replications", 4.0, "pseudo"),
                          ("normality-linear-exact", 0.0, None)])
def test_workload_runs_traced(name, per_sample, backend):
    result = _result(_run(name, 1))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["solver.nonlinear_B.per_sample"] == per_sample
    for other in {"direct", "pseudo"} - {backend}:
        assert metrics[f"solver.nonlinear_B.{other}.calls"] == 0
    if backend:
        assert metrics[f"solver.nonlinear_B.{backend}.calls"] > 0
    else:
        assert metrics["harness.linear_exact_estimates.strand_steps_per_s"] > 0


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = _run("estimate-default", 0, cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# ---------------------------------------------------------------------------
# each check rejects a perturbed output

@pytest.fixture(scope="module")
def estimate():
    wl = workloads.EstimateDefault(workloads.TOY)
    out = wl.run(11)
    assert wl.check(out) == []
    return wl, out


def _nudged(values, name, rel=1e-6):
    return {k: v * (1.0 + rel) if k == name else v for k, v in values.items()}


@pytest.mark.parametrize("name", ["nu_h", "nu_z", "nu_z_hat"])
def test_reconstruction_rejects_nudged_estimate(estimate, name):
    wl, out = estimate
    d = out.data
    bad = replace(out, data={**d, "estimates": _nudged(d["estimates"], name)})
    problems = wl.check(bad)
    assert len(problems) == 1 and problems[0].startswith(name + ":")


def test_round_trip_rejects_one_changed_digit(estimate):
    from pespec import solver

    wl, out = estimate
    lines = wl.text_path.read_text().splitlines()
    start = lines.index("noise-step 1") + 1
    # the last digit of the first noise value that has a nonzero one
    row = next(i for i in range(start, len(lines)) if lines[i][-1] in "123456789")
    old = lines[row][-1]
    lines[row] = lines[row][:-1] + ("1" if old != "1" else "2")
    loaded = solver.trajectory_from_text("\n".join(lines) + "\n")
    problems = checks.same_path(out.data["written"], loaded)
    assert problems == ["trajectory text round trip changed noise step 1"]


def test_round_trip_rejects_changed_state(estimate):
    wl, out = estimate
    written = out.data["written"]
    states = list(written.states)
    c = np.array(states[1].coeffs)
    c[3, 0] = np.nextafter(c[3, 0].real, np.inf) + 1j * c[3, 0].imag
    states[1] = states[1].with_coeffs(c)
    changed = replace(written, states=states)
    assert checks.same_path(written, changed) == ["trajectory text round trip changed state 1"]


def test_replications_reject_nudged_estimate():
    wl = workloads.NonlinearReplications(workloads.TOY)
    out = wl.run(12)
    assert wl.check(out) == []
    reps = list(out.data["reps"])
    traj, values = reps[1]
    reps[1] = (traj, _nudged(values, "nu_z_hat"))
    problems = wl.check(replace(out, data={**out.data, "reps": reps}))
    assert len(problems) == 1 and problems[0].startswith("replication 1: nu_z_hat:")


@pytest.fixture(scope="module")
def normality():
    wl = workloads.NormalityLinearExact(workloads.TOY)
    out = wl.run(13)
    assert wl.check(out) == []
    return wl, out


@pytest.mark.parametrize("perturb, rejected", [
    (lambda e1, e2: (e1 + 3.0 * e1.std(), e2), "mean_e1"),
    (lambda e1, e2: (e1, e2 + 3.0 * e2.std()), "mean_e2"),
    (lambda e1, e2: (e1 + 10.0 * (e1 - e1.mean()), e2), "log(cov11"),
    (lambda e1, e2: (e1, e2 + 20.0 * (e1 - e1.mean())), "cov12"),
    (lambda e1, e2: (e1, e2 + 10.0 * (e2 - e2.mean())), "log(cov22"),
])
def test_moment_checks_reject_perturbed_sample(normality, perturb, rejected):
    wl, out = normality
    e1, e2 = perturb(out.data["e1"], out.data["e2"])
    problems = wl.check(replace(out, data={**out.data, "e1": e1, "e2": e2}))
    assert any(p.startswith(rejected) for p in problems), problems


@pytest.fixture(scope="module")
def pooled():
    wl = workloads.NormalityLinearExact(workloads.TOY)
    wl.setup()
    for job in range(20):
        assert wl.check(wl.run(100 + job)) == []
    assert wl.check_run() == []
    return wl


@pytest.mark.parametrize("key, rejected", [("e1", "log(cov11"), ("e2", "log(cov22")])
def test_pooled_check_rejects_doubled_variance(pooled, key, rejected):
    m = np.concatenate([out.data[key] for out in pooled.pooled]).mean()
    wl = workloads.NormalityLinearExact(workloads.TOY)
    wl.pooled = [replace(out, data={**out.data, key: m + np.sqrt(2.0) * (out.data[key] - m)})
                 for out in pooled.pooled]
    problems = wl.check_run()
    assert any(p.startswith(f"pooled over 20 jobs: {rejected}") for p in problems), problems
