"""The package's public surface: what `__all__` exports resolves, and test-only helpers stay out."""

import importlib
import pkgutil

import pytest

import barrons

MODULES = sorted(info.name for info in pkgutil.iter_modules(barrons.__path__))


def test_package_exports_resolve_once():
    assert len(barrons.__all__) == len(set(barrons.__all__))
    assert [name for name in barrons.__all__ if not hasattr(barrons, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"barrons.{module}")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(mod, name)] == []


@pytest.mark.parametrize("name", ("grid_search_oracle", "kkt_certificate", "smooth_comparator"))
def test_test_only_helpers_are_not_exported(name):
    assert not hasattr(barrons, name)
