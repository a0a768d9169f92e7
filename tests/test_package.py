"""The package's public names resolve, and every CLI command has one run path."""
import argparse
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pespec
from pespec import cli

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(pespec.__path__))


def test_package_exports_resolve():
    assert [name for name in pespec.__all__ if not hasattr(pespec, name)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"pespec.{name}")
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_every_subcommand_runs_through_the_harness():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(cli.RUNNERS) | {"ntcheck"}


SCIPY_FREE_RUNS = """
import sys, warnings
from pathlib import Path
sys.path.insert(0, {src!r})

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import numpy as np
import pespec
print("import", loaded())
out = Path({out!r})
warnings.simplefilter("ignore")
cfg = pespec.ExperimentConfig(params=pespec.ModelParams(T=0.05),
                              solver=pespec.SolverConfig(N=4, dt=1e-3),
                              replications=20, N_sweep=(4,), seed=1, output_dir=out)
pespec.run_normality(cfg)
print("normality", loaded())
pespec.run_consistency(cfg)
print("consistency", loaded())
pespec.run_linear_validation(cfg)
print("linear-validate", loaded())
pespec.confidence_interval(1.0, 2.0, 4)
print("confidence_interval", loaded())
f = pespec.random_field(4, np.random.default_rng(1))
pespec.nonlinear_B(f, f)
print("B", loaded())
params = pespec.ModelParams(T=0.01)
traj = pespec.simulate_path(params, f, pespec.SolverConfig(N=4, dt=1e-3), 2)
pespec.estimate_nu_h(traj, pespec.EstimatorConfig(variant="V2"))
print("nonlinear path", loaded())
"""


def test_no_run_loads_scipy(tmp_path):
    # the package, the linear studies, the normal quantiles and the
    # advection term run on NumPy and the stdlib alone
    src = str(Path(pespec.__file__).parents[1])
    code = SCIPY_FREE_RUNS.format(src=src, out=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip().splitlines() == [
        f"{name} []" for name in ("import", "normality", "consistency", "linear-validate",
                                  "confidence_interval", "B", "nonlinear path")]
