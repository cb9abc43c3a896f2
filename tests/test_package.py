"""The package's public names: bound lazily, all from the three library modules at once."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tourneydice
import tourneydice.dice
import tourneydice.factorization
import tourneydice.tournament

MODULES = ("tourneydice.dice", "tourneydice.factorization", "tourneydice.tournament")


def _fresh(code: str) -> list[str]:
    """The lines a fresh ``python -S`` writing no bytecode prints for ``code``."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(tourneydice.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"},
        check=True,
        timeout=60,
    )
    return proc.stdout.decode().splitlines()


@pytest.mark.parametrize("name", tourneydice.__all__)
def test_public_name_is_the_library_object(name):
    homes = [sys.modules[m] for m in MODULES if name in vars(sys.modules[m])]
    assert homes and all(getattr(tourneydice, name) is getattr(home, name) for home in homes)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tourneydice import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tourneydice.__all__)


def test_import_loads_no_module_until_a_public_name_is_read():
    """``import tourneydice`` loads nothing; a name outside ``__all__`` loads nothing; a public name loads all three."""
    code = (
        "import sys; import tourneydice as td; "
        "loaded = lambda: print(*sorted(m for m in sys.modules if m.startswith('tourneydice.'))); "
        "loaded(); print(hasattr(td, 'bogus'), hasattr(td, '_rows')); loaded(); td.transitive; loaded()"
    )
    before, missing, after_missing, after = _fresh(code)
    assert (before, missing, after_missing) == ("", "False False", "")
    assert set(MODULES) <= set(after.split())


@pytest.mark.parametrize("module", ["dice", "factorization", "tournament"])
def test_submodule_names_resolve_on_the_package(module):
    code = f"import sys; import tourneydice as td; print(td.{module} is sys.modules['tourneydice.{module}'])"
    assert _fresh(code) == ["True"]


def test_readme_lists_the_public_names():
    # the README sentence on the exports names each name of __all__ once, in backticks, and nothing else
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sentence,) = re.findall(r"The package exports .*?\.(?:\s|$)", readme, re.S)
    assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(tourneydice.__all__)
