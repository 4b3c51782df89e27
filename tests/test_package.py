"""The package `egb` re-exports nothing: each name is imported from its own
module, and importing one module loads only what that module needs.  Every
public name and derived field of the library has a reader outside the tests,
every private helper a reader in the library, and every method of its
classes a caller among the commands, the README's tour and the benchmark's
workloads."""

import ast
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import egb
from egb.cli import main

from conftest import SEED

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


def names_used(text: str) -> list[tuple[str, int]]:
    """`names_read` and (name, line) of each name a ``from ... import``
    imports."""
    return names_read(text) + [(alias.name, node.lineno) for node in ast.walk(ast.parse(text))
                               if isinstance(node, ast.ImportFrom) for alias in node.names]


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
    """Each public module-level function or class of `src/egb` is read as a
    name or an attribute, or imported by ``from ... import``, in the library
    outside its own definition, in `bench/`, in `scripts/` or in the README's
    fenced python code, and each public method or property of its classes is
    read as an attribute in those same places: a construction only the tests
    use belongs in `tests/conftest.py`, and a word of a docstring or of the
    README's prose reads nothing.  The methods that the tracer wraps by name
    are the exceptions: its wrappers read them.  Each derived
    (``init=False``) dataclass field is read as an attribute outside its
    class, in `src/egb`, `bench/` or `scripts/`: a field only the tests read
    is not stored."""
    library = {path: path.read_text() for path in sorted((ROOT / "src" / "egb").glob("*.py"))}
    read = {path: attributes(text) for path, text in library.items()}
    named = {path: names_used(text) for path, text in library.items()}
    callers = [path.read_text() for d in ("bench", "scripts") for path in (ROOT / d).glob("*.py")]
    tour = fenced_python((ROOT / "README.md").read_text())
    outside = {name for text in callers for name, _ in attributes(text)}
    outside_named = {name for text in [*callers, tour] for name, _ in names_used(text)}
    tour_reads = {name for name, _ in attributes(tour)}
    traced = traced_methods()

    def outside_of(path, node, reads) -> set[str]:
        """The names of ``reads`` found outside the lines of ``node`` in ``path``."""
        own = range(node.lineno, node.end_lineno + 1)
        return {name for q, names in reads.items() for name, line in names
                if q != path or line not in own}

    orphans = []
    for path, text in library.items():
        for node in ast.parse(text).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in outside_named | outside_of(path, node, named)):
                orphans.append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (not isinstance(method, ast.FunctionDef) or method.name.startswith("_")
                        or (path.stem, node.name, method.name) in traced):
                    continue
                if method.name not in outside | tour_reads | outside_of(path, method, read):
                    orphans.append(f"{path.stem}.{node.name}.{method.name}")
            orphans += [f"{path.stem}.{node.name}.{name}" for name in derived_fields(node)
                        if name not in outside | outside_of(path, node, read)]
    assert orphans == []


# Special methods that a class has whether or not it is called: the
# constructors, and the dataclass and immutability plumbing.
UNCOUNTED = {"__init__", "__post_init__", "__repr__", "__hash__", "__setattr__", "__delattr__"}


def class_methods() -> list[tuple[type, str, str]]:
    """(class, name, "file:line") of each public or special method, property
    or method alias bound in the body of a `src/egb` class, less the
    `UNCOUNTED` names and the tracer's `METHODS`."""
    traced = traced_methods()
    found = []
    for path in sorted((ROOT / "src" / "egb").glob("*.py")):
        module = importlib.import_module(f"egb.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name)
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    names = [stmt.name]
                elif isinstance(stmt, ast.Assign):
                    names = [t.id for target in stmt.targets
                             for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
                else:
                    continue
                for name in names:
                    special = name.startswith("__") and name.endswith("__")
                    raw = cls.__dict__[name]
                    if ((name.startswith("_") and not special) or name in UNCOUNTED
                            or (path.stem, node.name, name) in traced
                            or not callable(getattr(raw, "__func__", getattr(raw, "fget", raw)))):
                        continue
                    found.append((cls, name, f"{path.relative_to(ROOT)}:{stmt.lineno}"))
    return found


def wrap_once(monkeypatch, cls, name: str, reached: set) -> None:
    """Replace cls.name by a wrapper that adds (cls, name) to ``reached`` and
    puts the original back at its first call, so that later calls run at
    full speed."""
    raw = cls.__dict__[name]
    kind = type(raw)
    fn = raw.fget if kind is property else getattr(raw, "__func__", raw)

    def first_call(*args, **kwargs):
        reached.add((cls, name))
        setattr(cls, name, raw)
        return fn(*args, **kwargs)

    wrapper = first_call if kind not in (staticmethod, classmethod, property) else kind(first_call)
    monkeypatch.setattr(cls, name, wrapper)


def test_every_method_is_reached_outside_the_tests(monkeypatch, tmp_path):
    """Every public or special method of a `src/egb` class is called by one
    of: the golden CLI corpus, each case run in-process through
    `scripts/golden.py`'s `check`; the README's fenced python; one seeded
    cycle (warm-up and operations) of each `bench/workloads.py` workload.
    A method only the tests call is not kept.  The tracer's `METHODS` and the
    `UNCOUNTED` special methods are the exceptions.  Runs in a few seconds:
        pytest tests/test_package.py -k reached"""
    for directory in ("scripts", "bench"):
        monkeypatch.syspath_prepend(str(ROOT / directory))
    golden, workloads = (importlib.import_module(name) for name in ("golden", "workloads"))
    methods = class_methods()
    reached: set = set()
    for cls, name, _ in methods:
        wrap_once(monkeypatch, cls, name, reached)

    def invoke(argv, cwd):
        monkeypatch.chdir(cwd)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    start = time.perf_counter()
    for k, case in enumerate(golden.load_cases()):
        (tmp_path / f"case{k}").mkdir()
        assert golden.check(case, invoke, tmp_path / f"case{k}") == [], case["name"]
    with redirect_stdout(io.StringIO()):
        exec(compile(fenced_python((ROOT / "README.md").read_text()), "README.md", "exec"), {})
    for workload in workloads.BUILDERS:
        plan = workloads.build(workload, SEED, 1, tmp_path / workload)
        for op in plan.warmup + plan.ops:
            op.check(op.run())
    elapsed = time.perf_counter() - start
    assert [f"{where} {cls.__module__}.{cls.__name__}.{name}"
            for cls, name, where in methods if (cls, name) not in reached] == []
    assert elapsed < 5
