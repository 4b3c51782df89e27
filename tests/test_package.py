"""The package `egb` re-exports nothing: each name is imported from its own
module, and importing one module loads only what that module needs.  Every
public name of the library has a caller outside the tests."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import egb

SRC = str(Path(egb.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]


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


def attributes(text: str) -> list[tuple[str, int]]:
    """(name, line) of each attribute ``x.name`` read in a Python source."""
    return [(node.attr, node.lineno) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)]


def traced_methods() -> set[tuple[str, str, str]]:
    """The (module, class, method) names that the benchmark's tracer wraps
    by name, `bench/spans.py` `METHODS`."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return set(spans.METHODS)


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each public module-level function or class of `src/egb` is named in the
    library outside its own definition, in `bench/`, in `scripts/` or in the
    README, and each public method or property of its classes is read as an
    attribute there (or named in the README): a construction only the tests
    use belongs in `tests/conftest.py`.  The methods that the tracer wraps by
    name are the exceptions: its wrappers read them."""
    library = {path: path.read_text() for path in sorted((ROOT / "src" / "egb").glob("*.py"))}
    read = {path: attributes(text) for path, text in library.items()}
    callers = [path.read_text() for d in ("bench", "scripts") for path in (ROOT / d).glob("*.py")]
    readme = (ROOT / "README.md").read_text()
    outside = {name for text in callers for name, _ in attributes(text)}
    traced = traced_methods()
    orphans = []
    for path, text in library.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                rest = lines[:node.lineno - 1] + lines[node.end_lineno:]
                haystack = "\n".join([*rest, *callers, readme,
                                      *(t for q, t in library.items() if q != path)])
                if not re.search(rf"\b{node.name}\b", haystack):
                    orphans.append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (not isinstance(method, ast.FunctionDef) or method.name.startswith("_")
                        or (path.stem, node.name, method.name) in traced):
                    continue
                own = range(method.lineno, method.end_lineno + 1)
                reads = outside.union(name for q, names in read.items() for name, line in names
                                      if q != path or line not in own)
                if method.name not in reads and not re.search(rf"\b{method.name}\b", readme):
                    orphans.append(f"{path.stem}.{node.name}.{method.name}")
    assert orphans == []
