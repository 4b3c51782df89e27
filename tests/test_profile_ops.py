"""`scripts/profile_ops.py --sort`: the cProfile table covers what the
operation timer times, each `op.run`, and none of the checks."""

import re
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import profile_ops  # noqa: E402


def marker_in_run():
    return sum(range(100))


def marker_in_check(result):
    return result


def raising_run():
    raise RuntimeError("stand-in failure")


def stand_in_plan(seed, cycles, tmp):
    Op, Plan = profile_ops.workloads.Op, profile_ops.workloads.Plan
    ops = [Op("stand_in", f"op {i}", marker_in_run, marker_in_check) for i in range(3)]
    return Plan([], ops + [Op("stand_in_raising", "raises", raising_run, marker_in_check)])


def test_sorted_table_profiles_runs_and_no_check(monkeypatch, capsys):
    monkeypatch.setattr(profile_ops.workloads, "build", lambda name, *args: stand_in_plan(*args))
    code = profile_ops.main(["orbits", "1", "1", "--sort", "tottime"])
    out, err = capsys.readouterr()
    assert code == 1  # the raising stand-in is reported as failed
    assert "FAILED stand_in_raising: raised RuntimeError: stand-in failure" in err
    assert "marker_in_run" in out
    assert "raising_run" in out  # an operation that raises is still profiled
    assert "marker_in_check" not in out


def test_profile_table_leaves_checks_out():
    plan = stand_in_plan(1, 1, None)
    table = profile_ops.profile_table(plan.ops, "cumulative")
    assert "marker_in_run" in table
    assert "marker_in_check" not in table


def test_median_line_names_the_kinds_at_the_median_ranks():
    """The median is bench/run.py's op_p50_ms statistic; an even count names
    the kinds at both middle ranks, an odd count the one at the middle."""
    timed = [(0.004, "slow"), (0.001, "fast"), (0.002, "mid_a"), (0.003, "mid_b")]
    assert profile_ops.median_line(timed) == "median op 2.500 ms (op_p50_ms) at mid_a | mid_b"
    assert profile_ops.median_line(timed[:3]) == "median op 2.000 ms (op_p50_ms) at mid_a"


def test_table_ends_with_the_median_line(monkeypatch, capsys):
    monkeypatch.setattr(profile_ops.workloads, "build", lambda name, *args: stand_in_plan(*args))
    profile_ops.main(["orbits", "1", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("all ")
    kind = "(stand_in|stand_in_raising)"
    assert re.fullmatch(rf"median op \d+\.\d{{3}} ms \(op_p50_ms\) at {kind} \| {kind}", lines[-1])
