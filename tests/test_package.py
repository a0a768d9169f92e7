"""The package's public names: every exported name resolves."""
import importlib
import pkgutil

import pytest

import pespec

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(pespec.__path__))


def test_package_exports_resolve():
    assert [name for name in pespec.__all__ if not hasattr(pespec, name)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"pespec.{name}")
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
