"""The package `egb` re-exports nothing: each name is imported from its own
module, and importing one module loads only what that module needs.  Every
public name and derived field of the library has a reader outside the tests,
and every private helper a reader in the library."""

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
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def code_spans(markdown: str) -> str:
    """The code of a Markdown source, its fenced blocks and its backtick
    spans, one a line: a name that only the prose mentions is not in it."""
    return "\n".join(re.findall(r"```.*?```|`[^`]+`", markdown, flags=re.S))


def fenced_python(markdown: str) -> str:
    """The code of the fenced python blocks of a Markdown source."""
    return "\n".join(re.findall(r"```python\n(.*?)```", markdown, flags=re.S))


def derived_fields(cls: ast.ClassDef) -> list[str]:
    """The dataclass fields of a class that are set when it is built, not
    passed in: those declared with ``init=False``."""
    return [stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.value, ast.Call)
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in stmt.value.keywords)]


def traced_methods() -> set[tuple[str, str, str]]:
    """The (module, class, method) names that the benchmark's tracer wraps
    by name, `bench/spans.py` `METHODS`."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return set(spans.METHODS)


def names_read(text: str) -> list[tuple[str, int]]:
    """(name, line) of each name ``name`` and attribute ``x.name`` read in a
    Python source."""
    return [(node.id, node.lineno) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)] + attributes(text)


def test_every_private_helper_is_read_in_the_library():
    """Each private (one leading underscore) module-level function or class
    of `src/egb`, and each private method of its classes, is read as a name
    or an attribute in `src/egb` outside its own definition: a helper only
    the tests call is not kept.  The names that the tracer wraps by name,
    `bench/spans.py` `METHODS`, are the exceptions."""
    library = {path: path.read_text() for path in sorted((ROOT / "src" / "egb").glob("*.py"))}
    read = {path: names_read(text) for path, text in library.items()}
    traced = {name for triple in traced_methods() for name in triple[1:]}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__") and name not in traced

    def unread(path, node) -> bool:
        own = range(node.lineno, node.end_lineno + 1)
        return not any(name == node.name and (q != path or line not in own)
                       for q, names in read.items() for name, line in names)

    orphans = []
    for path, text in library.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if private(node.name) and unread(path, node):
                orphans.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                orphans += [f"{path.stem}.{node.name}.{method.name}" for method in node.body
                            if isinstance(method, ast.FunctionDef) and private(method.name)
                            and unread(path, method)]
    assert orphans == []


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each public module-level function or class of `src/egb` is named in the
    library outside its own definition, in `bench/`, in `scripts/` or in the
    README's code, and each public method or property of its classes is read
    as an attribute in the library outside its own definition, in `bench/`,
    in `scripts/` or in the README's fenced python code: a construction only
    the tests use belongs in `tests/conftest.py`, and a backtick word of the
    README's prose reads nothing.  The methods that the tracer wraps by name
    are the exceptions: its wrappers read them.  Each derived
    (``init=False``) dataclass field is read as an attribute outside its
    class, in `src/egb`, `bench/` or `scripts/`: a field only the tests read
    is not stored."""
    library = {path: path.read_text() for path in sorted((ROOT / "src" / "egb").glob("*.py"))}
    read = {path: attributes(text) for path, text in library.items()}
    callers = [path.read_text() for d in ("bench", "scripts") for path in (ROOT / d).glob("*.py")]
    markdown = (ROOT / "README.md").read_text()
    readme = code_spans(markdown)
    tour = {name for name, _ in attributes(fenced_python(markdown))}
    outside = {name for text in callers for name, _ in attributes(text)}
    traced = traced_methods()

    def reads_outside(path, node) -> set[str]:
        """The attributes read outside the lines of ``node`` in ``path``."""
        own = range(node.lineno, node.end_lineno + 1)
        return outside.union(name for q, names in read.items() for name, line in names
                             if q != path or line not in own)

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
                if method.name not in tour | reads_outside(path, method):
                    orphans.append(f"{path.stem}.{node.name}.{method.name}")
            orphans += [f"{path.stem}.{node.name}.{name}" for name in derived_fields(node)
                        if name not in reads_outside(path, node)]
    assert orphans == []
