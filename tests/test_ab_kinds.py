"""`scripts/ab_kinds.py`: one cycle of a real workload from two checkouts in
one process, and stand-in checkouts whose egb packages differ, to show that
each side runs its own package and that a failed check exits 1."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = '''
from dataclasses import dataclass
from typing import Callable

from egb import answer


@dataclass
class Op:
    kind: str
    desc: str
    run: Callable
    check: Callable


@dataclass
class Plan:
    warmup: list
    ops: list

    @property
    def digest(self):
        return "stand-in"


def check(got):
    if got != 42:
        raise ValueError(f"got {got}")


def build(workload, seed, cycles, tmp):
    ops = [Op(f"kind{i % 2}", f"op {i}", answer, check) for i in range(4)]
    return Plan(ops[:1], ops)
'''


def stand_in(root: Path, name: str, answer: int) -> Path:
    """A checkout whose egb package answers ``answer`` and whose workload
    checks for 42."""
    checkout = root / name
    (checkout / "src" / "egb").mkdir(parents=True)
    (checkout / "src" / "egb" / "__init__.py").write_text(f"def answer():\n    return {answer}\n")
    (checkout / "bench").mkdir()
    (checkout / "bench" / "workloads.py").write_text(WORKLOADS)
    return checkout


def run_script(*argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_kinds.py"), *map(str, argv)],
                          capture_output=True, text=True, timeout=300)


def test_one_cycle_of_a_workload():
    """Two rounds of one cycle: each kind's ratio of least totals lies
    between its least and greatest per-round ratio."""
    proc = run_script(ROOT, ROOT, "invariants", 1, 2)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("workload invariants seed 1 ops ")
    assert lines[1].split() == ["kind", "ops", "parent_ms", "change_ms", "ratio",
                                "round_lo", "round_hi"]
    kinds = {line.split()[0]: line.split()[1:] for line in lines[2:-2]}
    assert "zp_module.p3" in kinds and "cli.spread" in kinds
    assert int(kinds["all"][0]) == sum(int(v[0]) for k, v in kinds.items() if k != "all")
    for _, _, _, ratio, lo, hi in kinds.values():
        assert float(lo) <= float(ratio) <= float(hi)
    assert lines[-2].startswith("round 0: parent p50 ")
    assert lines[-1].startswith("round 1: parent p50 ")


def test_each_side_runs_its_own_package(tmp_path):
    parent, change = stand_in(tmp_path, "parent", 42), stand_in(tmp_path, "change", 41)
    proc = run_script(parent, change, "any", "3-4", 2)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: seed 3: change kind0: ValueError: got 41\n"
    proc = run_script(change, parent, "any", 3, 2)
    assert proc.stderr == "error: seed 3: parent kind0: ValueError: got 41\n"
    proc = run_script(parent, parent, "any", "3-4", 2)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[:2] for row in rows if row[0] in ("kind0", "kind1")] \
        == [["kind0", "2"], ["kind1", "2"]] * 2
