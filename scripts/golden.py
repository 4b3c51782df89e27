"""Run the golden CLI corpus, tests/golden/manifest.json, through a command.

    python3 scripts/golden.py egb
    PYTHONPATH=src python3 scripts/golden.py python3 -m egb.cli

The manifest is a JSON list of cases.  Each case gives its "name"; its
"argv", whose paths are relative to a fresh working directory; the
"inputs", paths under tests/golden/ each copied into that directory under
its own file name; the "exit" code; "stdout" and "stderr", each exact text
or {"sha256": hex}; and "files", the sha256 of every file the command
writes, by path relative to the working directory.  A case passes when all
of these match and the command writes no other file.

Runs every case as a subprocess of COMMAND under a timeout of TIMEOUT_S
seconds, prints each failing case with the actual values, then a summary
line, and exits 1 if any case failed.  tests/test_golden.py runs the same
cases in-process through `egb.cli.main`.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
TIMEOUT_S = 60


def load_cases() -> list[dict]:
    return json.loads((GOLDEN / "manifest.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def files_under(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def mismatch(stream: str, expected, actual: str) -> str | None:
    """None if ``actual`` is the exact text, or has the sha256, ``expected``
    names; else the actual value."""
    if isinstance(expected, str):
        return None if actual == expected else f"{stream} {actual!r}"
    digest = sha256(actual.encode())
    return None if digest == expected["sha256"] else f"{stream} sha256 {digest}"


def check(case: dict, invoke, workdir: Path) -> list[str]:
    """The mismatches of one case run in ``workdir`` (empty when it passes):
    ``invoke(argv, cwd)`` runs the command and returns (exit code, stdout,
    stderr)."""
    for rel in case["inputs"]:
        shutil.copyfile(GOLDEN / rel, workdir / Path(rel).name)
    inputs = files_under(workdir)
    code, out, err = invoke(case["argv"], workdir)
    problems = [] if code == case["exit"] else [f"exit {code}"]
    problems += filter(None, (mismatch("stdout", case["stdout"], out),
                              mismatch("stderr", case["stderr"], err)))
    written = {rel: sha256((workdir / rel).read_bytes()) for rel in files_under(workdir) - inputs}
    if written != case["files"]:
        problems.append(f"files {written}")
    return problems


def subprocess_invoker(command: list[str]):
    """Runs ``command`` in a case's directory, with each relative PYTHONPATH
    entry made absolute against the caller's working directory, so that
    ``PYTHONPATH=src`` still finds the package there."""
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) if entry else entry
            for entry in env["PYTHONPATH"].split(os.pathsep))

    def invoke(argv, cwd):
        proc = subprocess.run([*command, *argv], cwd=cwd, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    return invoke


def run(command: list[str], cases: list[dict]) -> int:
    """Run ``cases`` through ``command``: 0 if every case passes, else 1."""
    invoke = subprocess_invoker(command)
    failed = 0
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                problems = check(case, invoke, Path(tmp))
            except subprocess.TimeoutExpired:
                problems = [f"timed out after {TIMEOUT_S} s"]
        if problems:
            failed += 1
            print(f"FAIL {case['name']}: " + "; ".join(problems))
    print(f"{len(cases) - failed} of {len(cases)} cases passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    command = sys.argv[1:] if argv is None else argv
    if not command:
        print("usage: golden.py COMMAND...", file=sys.stderr)
        return 2
    return run(command, load_cases())


if __name__ == "__main__":
    sys.exit(main())
