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


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second to import; the package needs
    # only scipy.special and scipy.fft
    src = str(Path(pespec.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import pespec; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
