"""`scripts/profile_ops.py --sort`: the cProfile table covers what the
operation timer times, each `op.run`, and none of the checks."""

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
