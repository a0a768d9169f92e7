"""The package's public names resolve, and every CLI command has one run path."""
import argparse
import importlib
import pkgutil

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
