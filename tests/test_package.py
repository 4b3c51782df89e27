"""The package `egb` re-exports nothing: each name is imported from its own
module, and importing one module loads only what that module needs."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import egb

SRC = str(Path(egb.__file__).resolve().parents[1])


def loaded_after(statement: str) -> list[str]:
    """The egb modules a fresh interpreter has loaded after `statement`."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'egb'))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    return proc.stdout.split()


@pytest.mark.parametrize("statement, expected", [
    ("import egb", ["egb"]),
    ("import egb.freegroup", ["egb", "egb.freegroup"]),
])
def test_import_loads_only_what_it_names(statement, expected):
    assert loaded_after(statement) == expected


def test_package_defines_only_its_version():
    """Its other attributes are the submodules the test session imported."""
    assert [name for name, value in vars(egb).items()
            if not name.startswith("__") and not isinstance(value, types.ModuleType)] == []
    assert egb.__version__ == "0.1.0"
