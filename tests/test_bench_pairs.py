"""tools/bench_pairs.py: reading one benchmark run, reporting a failed one,
judging each end-to-end metric against its bound, and the machine record
with its bytecode and malloc settings and its BLAS."""
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_checkout(root: Path, run_py: str) -> Path:
    """A checkout whose bench/run.py is the given script."""
    (root / "bench").mkdir()
    (root / "bench" / "run.py").write_text(run_py)
    return root


def test_reads_the_last_line(bench_pairs, tmp_path):
    checkout = fake_checkout(tmp_path, "\n".join([
        "import json",
        "print('warming up')",
        "print(json.dumps({'correct': True, 'attempted': 4, 'failed': 0,",
        "                  'metrics': {'job_s': {'value': 0.5}, 'setup_s': {'value': 0.1}}}))",
    ]))
    run = bench_pairs._run(checkout, "estimate-default", 7, 1.0)
    assert run == {"correct": True, "attempted": 4, "failed": 0, "job_s": 0.5, "setup_s": 0.1}


def test_failed_run_names_run_and_quotes_stderr(bench_pairs, tmp_path):
    checkout = fake_checkout(tmp_path, "\n".join([
        "import sys",
        "for i in range(30):",
        "    print(f'trace line {i}', file=sys.stderr)",
        "sys.exit(3)",
    ]))
    with pytest.raises(RuntimeError) as info:
        bench_pairs._run(checkout, "normality-linear-exact", 913, 1.0)
    message = str(info.value)
    for part in ("normality-linear-exact", "seed 913", str(checkout), "status 3",
                 "trace line 10", "trace line 29"):
        assert part in message
    assert "trace line 9" not in message   # only the last 20 lines


END_TO_END = [{"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "job_s", "better": "lower", "bound": 0.25},
              {"name": "rate", "better": "higher", "bound": 0.25}]


def synthetic_runs(base, head):
    """Five pairs with the given per-metric base and head values, each
    pair shifted alike so the medians are the middle pair's values."""
    runs = []
    for i, shift in enumerate([-0.02, -0.01, 0.0, 0.01, 0.02]):
        sides = {side: {"correct": True, "failed": 0,
                        **{k: v * (1.0 + shift) for k, v in values.items()}}
                 for side, values in (("base", base), ("head", head))}
        runs.append({"seed": i, **sides})
    return runs


def test_summary_judges_every_metric_in_its_direction(bench_pairs):
    runs = synthetic_runs(base={"setup_s": 0.418, "job_s": 1.0, "rate": 100.0},
                          head={"setup_s": 0.418 * 1.29, "job_s": 1.05, "rate": 70.0})
    summary = bench_pairs._summary(runs, END_TO_END)
    # 29% worse than a 25% bound is flagged; 5% worse is not
    assert summary["setup_s"]["within_bound"] is False
    assert summary["setup_s"]["head_wins"] == 0
    assert summary["job_s"]["within_bound"] is True
    assert summary["job_s"]["head_wins"] == 0
    # a higher-is-better metric 30% lower is worse, beyond its bound
    assert summary["rate"]["within_bound"] is False
    assert summary["rate"]["head_wins"] == 0
    assert summary["all_correct"]


def test_summary_counts_head_wins_in_the_metric_direction(bench_pairs):
    runs = synthetic_runs(base={"setup_s": 0.5, "job_s": 1.0, "rate": 100.0},
                          head={"setup_s": 0.4, "job_s": 1.0, "rate": 110.0})
    summary = bench_pairs._summary(runs, END_TO_END)
    assert summary["setup_s"]["head_wins"] == 5
    assert summary["rate"]["head_wins"] == 5
    assert summary["job_s"]["head_wins"] == 0   # ties are not wins
    assert all(summary[m["name"]]["within_bound"] for m in END_TO_END)


def spread_runs(base, head):
    """Pairs with the given per-pair base and head values of setup_s."""
    return [{"seed": i,
             "base": {"correct": True, "failed": 0, "setup_s": b},
             "head": {"correct": True, "failed": 0, "setup_s": h}}
            for i, (b, h) in enumerate(zip(base, head))]


SETUP_ONLY = END_TO_END[:1]


def test_wide_overlapping_base_is_unresolved(bench_pairs):
    # base quartiles 0.40-0.52 span 27% of its median, beyond the 25% bound,
    # and the head runs fall among the base's
    runs = spread_runs(base=[0.35, 0.40, 0.45, 0.52, 0.60],
                       head=[0.38, 0.44, 0.47, 0.50, 0.55])
    summary = bench_pairs._summary(runs, SETUP_ONLY)["setup_s"]
    assert summary["within_bound"] is True
    assert summary["resolved"] is False


def test_wide_base_beaten_on_every_run_is_resolved(bench_pairs):
    runs = spread_runs(base=[0.35, 0.40, 0.45, 0.52, 0.60],
                       head=[0.20, 0.22, 0.25, 0.28, 0.30])
    assert bench_pairs._summary(runs, SETUP_ONLY)["setup_s"]["resolved"] is True


def test_narrow_base_is_resolved(bench_pairs):
    runs = spread_runs(base=[0.44, 0.45, 0.45, 0.46, 0.47],
                       head=[0.50, 0.52, 0.55, 0.58, 0.60])
    summary = bench_pairs._summary(runs, SETUP_ONLY)["setup_s"]
    assert summary["resolved"] is True
    assert summary["within_bound"] is True


def test_summary_lines_quote_every_metric(bench_pairs):
    runs = [{"seed": i,
             "base": {"correct": True, "failed": 0, "setup_s": b, "job_s": 2 * b, "rate": 90.0},
             "head": {"correct": True, "failed": 0, "setup_s": h, "job_s": 2 * h, "rate": 95.0}}
            for i, (b, h) in enumerate([(0.5, 0.4), (0.7, 0.45)])]
    report = {"estimate-default": {"summary": bench_pairs._summary(runs, END_TO_END),
                                   "runs": runs}}
    lines = bench_pairs._summary_lines(report)
    assert lines == [
        "estimate-default setup_s: base 0.6 (0.55-0.65), head 0.425, head won 2 of 2, "
        "within_bound True, resolved True",
        "estimate-default job_s: base 1.2 (1.1-1.3), head 0.85, head won 2 of 2, "
        "within_bound True, resolved True",
        "estimate-default rate: base 90 (90-90), head 95, head won 2 of 2, "
        "within_bound True, resolved True",
    ]


def test_missing_package_version_is_null(bench_pairs):
    # a runtime-only environment has no SciPy; the machine record says null
    assert bench_pairs._version("numpy") == np.__version__
    assert bench_pairs._version("pespec-no-such-package") is None


@pytest.mark.parametrize("value", ["1", None])
def test_machine_records_bytecode_caching(bench_pairs, monkeypatch, value):
    # set-up probes in a fresh checkout recompile every module when Python
    # may not write bytecode, so setup_s depends on this setting
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    machine = bench_pairs._machine()
    assert machine["PYTHONDONTWRITEBYTECODE"] == value
    assert machine["numpy"] == np.__version__


def test_machine_records_malloc_settings(bench_pairs, monkeypatch):
    # glibc's malloc settings move B's page faults, and so its time
    for name in list(os.environ):
        if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES":
            monkeypatch.delenv(name)
    machine = bench_pairs._machine()
    for name in ("GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                 "MALLOC_ARENA_MAX"):
        assert machine[name] is None
    assert not [k for k, v in machine.items() if k.startswith("MALLOC_") and v is not None]
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "100000000")
    monkeypatch.setenv("MALLOC_PERTURB_", "7")
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=4000000")
    machine = bench_pairs._machine()
    assert machine["MALLOC_TRIM_THRESHOLD_"] == "100000000"
    assert machine["MALLOC_PERTURB_"] == "7"
    assert machine["GLIBC_TUNABLES"] == "glibc.malloc.mmap_threshold=4000000"
    assert machine["MALLOC_MMAP_THRESHOLD_"] is None


def test_machine_records_the_blas(bench_pairs):
    # B is a chain of matrix products, so its time depends on the BLAS
    # kernels NumPy links; OpenBLAS's configuration names the core type
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    machine = bench_pairs._machine()
    assert machine["blas"] == blas["name"]
    assert machine["blas_version"] == blas["version"]
    assert machine["blas_config"] == blas.get("openblas configuration")


def test_blas_is_null_without_dict_config(bench_pairs, monkeypatch):
    # numpy < 1.26 has no mode argument to show_config
    monkeypatch.setattr(np, "show_config", lambda: None)
    machine = bench_pairs._machine()
    assert (machine["blas"], machine["blas_version"], machine["blas_config"]) == \
        (None, None, None)
