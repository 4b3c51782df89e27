"""The golden CLI corpus of tests/golden/manifest.json: every case run
in-process through `egb.cli.main`, two run by `scripts/golden.py` as
subprocesses of `python -m egb.cli`, a passing case for every command, and
the corpus's own hygiene."""

import argparse
import sys
from pathlib import Path

import pytest

import egb
from egb.cli import build_parser, main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import golden  # noqa: E402

CASES = golden.load_cases()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_case(case, tmp_path, monkeypatch, capsys):
    def invoke(argv, cwd):
        monkeypatch.chdir(cwd)
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    assert golden.check(case, invoke, tmp_path) == []


def test_subprocess_runner(monkeypatch, capsys):
    """A case that passes and one that exits 1 with an `error:` line pass
    through `python -m egb.cli`; a wrong expectation fails, naming its case."""
    monkeypatch.setenv("PYTHONPATH", str(Path(egb.__file__).resolve().parents[1]))
    picked = [case for case in CASES if case["name"] in ("freegroup-si", "spread-unipotent")]
    command = [sys.executable, "-m", "egb.cli"]
    assert golden.run(command, picked) == 0
    assert capsys.readouterr().out == "2 of 2 cases passed\n"
    assert golden.run(command, [{**picked[0], "stdout": "9\n"}]) == 1
    assert capsys.readouterr().out == "FAIL freegroup-si: stdout '8\\n'\n0 of 1 cases passed\n"


def test_subprocess_runner_resolves_a_relative_pythonpath(monkeypatch, capsys):
    """``PYTHONPATH=src``, relative to the caller's working directory, still
    finds the package although each case runs in a fresh directory."""
    src = Path(egb.__file__).resolve().parents[1]
    monkeypatch.chdir(src.parent)
    monkeypatch.setenv("PYTHONPATH", src.name)
    picked = [case for case in CASES if case["name"] == "spread-unipotent"]
    assert golden.run([sys.executable, "-m", "egb.cli"], picked) == 0
    assert capsys.readouterr().out == "1 of 1 cases passed\n"


def test_every_subcommand_has_a_passing_case():
    """Every command of `build_parser()`, and every choice of a command's
    positional ``subcommand`` (those of `barcode` and `freegroup`), begins
    the argv of a case that exits 0."""
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    wanted = {(name,) for name in commands}
    wanted |= {(name, choice) for name, parser in commands.items() for action in parser._actions
               if action.dest == "subcommand" for choice in action.choices}
    passing = {tuple(case["argv"][:k]) for case in CASES if case["exit"] == 0 for k in (1, 2)}
    assert sorted(wanted - passing) == []


def test_corpus_hygiene():
    """Case names are unique, every case gives every field, and the files
    under tests/golden/ are exactly the manifest and the cases' inputs."""
    names = [case["name"] for case in CASES]
    assert len(names) == len(set(names))
    fields = {"name", "argv", "inputs", "exit", "stdout", "stderr", "files"}
    assert [case["name"] for case in CASES if set(case) != fields] == []
    inputs = {rel for case in CASES for rel in case["inputs"]}
    assert golden.files_under(golden.GOLDEN) - {"manifest.json"} == inputs
