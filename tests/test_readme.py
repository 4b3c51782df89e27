"""The README's examples run as written: the "Library quick tour" block, and
every "Command line" example that reads no input file, with the outputs its
comments state.  Its bounds table is what `scripts/bounds_table.py` prints."""

import runpy
import shlex
from pathlib import Path

import pytest

from egb.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the line ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def commands() -> list[tuple[list[str], str | None]]:
    """(argv after `egb`, the output its trailing comment states) for each
    command line, leaving out those that read a JSON input file."""
    out = []
    for line in fenced_block("Command line", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        if not argv or any(arg.endswith(".json") for arg in argv):
            continue
        assert argv[0] == "egb", line
        comment = line.rpartition("#")[2].strip() if "#" in line else None
        out.append((argv[1:], comment))
    return out


COMMANDS = commands()


def test_library_quick_tour(capsys):
    exec(compile(fenced_block("Library quick tour", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_commented_outputs_are_covered():
    assert [c for _, c in COMMANDS if c] == ["8", "true", "a^3 b^2"]


@pytest.mark.parametrize("argv, expected", COMMANDS,
                         ids=[" ".join(argv[:2]) for argv, _ in COMMANDS])
def test_command_line_example(tmp_path, monkeypatch, capsys, argv, expected):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if expected is not None:
        assert out == expected + "\n"


def test_bounds_table_is_the_scripts_output():
    section = README.split("\n## Bounds against p and λ\n", 1)[1].split("\n## ", 1)[0]
    table = runpy.run_path(str(ROOT / "scripts" / "bounds_table.py"))["table"]()
    assert f"\n{table}\n" in section
