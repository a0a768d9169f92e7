"""tools/bench_pairs.py: reading one benchmark run, and reporting a failed one."""
import importlib.util
from pathlib import Path

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
