"""The package imports each export's submodule on first access, not all of them at `import barrons`."""

import subprocess
import sys
from pathlib import Path

import pytest

import barrons

SRC = Path(barrons.__file__).resolve().parent.parent


def _loaded_after(statement: str) -> list:
    """The `barrons` modules in `sys.modules` after running `statement` in a fresh interpreter."""
    code = f"{statement}\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('barrons'))))"
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_generate_loads_only_its_own_modules():
    loaded = _loaded_after("from barrons import MarketSpec, ProblemDims, generate")
    assert loaded == ["barrons", "barrons.domain", "barrons.markets"]


def test_import_barrons_loads_no_submodule():
    assert _loaded_after("import barrons") == ["barrons"]


def test_a_submodule_resolves_as_an_attribute_on_first_access():
    loaded = _loaded_after("import barrons\nbarrons.core.barrons_step")
    assert loaded == ["barrons", "barrons.core", "barrons.domain", "barrons.solver"]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from barrons import *", namespace)
    assert [name for name in barrons.__all__ if name not in namespace] == []


def test_dir_lists_every_export():
    assert set(barrons.__all__) <= set(dir(barrons))


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'barrons'.*'no_such_name'"):
        barrons.no_such_name
