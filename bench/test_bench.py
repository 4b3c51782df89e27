"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import layer_metrics  # noqa: E402
from worker import run_ops, run_traced  # noqa: E402


@pytest.fixture
def scratch(request):
    """A directory inside the checkout, as the benchmark itself uses."""
    path = BENCH.parent / ".bench_tmp" / f"test-{os.getpid()}-{request.node.name}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


EXACT = (".calls", ".cells", ".mults", ".records", ".windows", ".pair_tests",
         ".feasibility_calls", ".letters", ".bytes", ".tuples", ".max_n", ".spans")


def test_wrong_expected_value_is_a_failure_not_a_crash(scratch):
    ops = [
        workloads.cli_op("cli.si", ["freegroup", "si", "2", "3"],
                         workloads.stdout_equals("9\n"), scratch),  # the answer is 8
        workloads.cli_op("cli.si", ["freegroup", "si", "2", "3"],
                         workloads.stdout_equals("8\n"), scratch),
        workloads.cli_op("cli.bad", ["freegroup", "si", "x", "3"],
                         workloads.stdout_equals(""), scratch),  # exits 1
        workloads.Op("raises", "", lambda: 1 / 0, lambda result: None),
    ]
    times, failures = run_ops(ops)
    assert len(times) == 4
    assert [kind for kind, _ in failures] == ["cli.si", "cli.bad", "raises"]
    assert "stdout differs" in failures[0][1]
    assert "exit code 1" in failures[1][1]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_same_inputs(name, scratch):
    digest = workloads.build(name, 7, 1, scratch / "a").digest
    assert workloads.build(name, 7, 1, scratch / "b").digest == digest
    assert workloads.build(name, 8, 1, scratch / "c").digest != digest


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_warmup_runs_every_kind(name, scratch):
    """Every operation kind of a cycle is warmed up; a bounds_report kind
    counts as warmed by any bounds_report at the same prime."""
    def family(kind):
        return re.sub(r"\.n\d+.*", "", kind)
    plan = workloads.build(name, 1, 1, scratch)
    assert {family(op.kind) for op in plan.ops} == {family(op.kind) for op in plan.warmup}


# a whole cycle, except for bounds: its two CLI calls and the 4-tuple p=3
# report, which cover the CLI bounds path, build_model and cyclotomic elimination
TRACED_OPS = {"orbits": None, "bounds": 3, "invariants": None}


@pytest.mark.parametrize("name", sorted(TRACED_OPS))
def test_traced_counters_repeat_exactly(name, scratch):
    counts = []
    for run_dir in ("a", "b"):
        plan = workloads.build(name, 3, 1, scratch / run_dir)
        times, failures, tracer = run_traced(plan.ops[:TRACED_OPS[name]])
        assert failures == []
        metrics = layer_metrics(tracer, times, times)
        counts.append({k: v for k, v in metrics.items() if k.endswith(EXACT)})
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0
    if name == "bounds":
        assert counts[0]["model.tuples"] > 0


def test_per_layer_metrics_match_benchmark_json(scratch):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    plan = workloads.build("orbits", 1, 1, scratch)
    times, _, tracer = run_traced(plan.ops[:2])
    produced = layer_metrics(tracer, times, times)
    assert {m["name"] for m in spec["per_layer"]} <= set(produced)
    # orbits leaves the persistence, equivariant and bottleneck layers idle
    assert produced["persistence.barcode_module.calls"] == 0
    assert produced["bottleneck.calls"] == 0


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10) and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
