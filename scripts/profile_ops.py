"""Time each operation kind of one benchmark workload, at reference speed.

    python3 scripts/profile_ops.py invariants 1 1
    python3 scripts/profile_ops.py invariants 1 3 --sort tottime

Builds the operations of WORKLOAD at SEED for CYCLES cycles with
bench/workloads.py, runs the warm-up, then runs every operation once in this
process.  Before each operation it times bench/worker.py's `calibrate()`
probe; the times are scaled to the reference machine by
bench/run.py's REFERENCE_PROBE_S over the median probe, as the benchmark
scales them.  Prints one line per operation kind: count, total seconds and
mean milliseconds at reference speed, costliest kind first, then the median
operation time, the statistic bench/run.py reports as op_p50_ms, with the
kind at the median rank (the two kinds at the middle ranks of an even
count), so that the kind which sets the workload's p50 shows.  With --sort KEY
(a `pstats` sort key such as cumulative or tottime) the operations run a
second time with cProfile on around each `op.run` only, as the operation
timer times them, so no check shows in the table; its 30 top rows follow.
Exits 1 if any operation fails its check.  bench/ is imported, not changed.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops  # noqa: E402


def profile_table(ops, sort: str, rows: int = 30) -> str:
    """The `pstats` table, sorted on `sort`, of every `op.run` in `ops`
    under one cProfile.  The checks are not run: the timed pass has already
    checked every result, and an operation that raises has been reported
    there."""
    profile = cProfile.Profile()
    for op in ops:
        try:
            profile.runcall(op.run)
        except Exception:  # reported as FAILED by the timed pass
            pass
    text = io.StringIO()
    pstats.Stats(profile, stream=text).sort_stats(sort).print_stats(rows)
    return text.getvalue()


def median_line(timed: list[tuple[float, str]]) -> str:
    """The median of the (seconds, kind) operation times and the kind or
    kinds at its rank or ranks."""
    ranked = sorted(timed)
    middle = ranked[(len(ranked) - 1) // 2:len(ranked) // 2 + 1]
    return (f"median op {1000 * statistics.median(t for t, _ in ranked):.3f} ms (op_p50_ms) "
            f"at {' | '.join(kind for _, kind in middle)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("seed", type=int)
    parser.add_argument("cycles", type=int)
    parser.add_argument("--sort", help="pstats sort key of a cProfile table, e.g. cumulative")
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("CYCLES must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        plan = workloads.build(args.workload, args.seed, args.cycles, Path(tmp))
        _, failures = run_ops(plan.warmup)
        probes: list[float] = []
        times, more = run_ops(plan.ops, probes=probes)
        failures += more
        speed = bench_run.REFERENCE_PROBE_S / statistics.median(probes)
        per_kind: dict[str, list[float]] = {}
        for op, t in zip(plan.ops, times):
            per_kind.setdefault(op.kind, []).append(t * speed)
        print(f"workload {args.workload} seed {args.seed} cycles {args.cycles} "
              f"ops {len(plan.ops)} input digest {plan.digest} machine speed {speed:.2f}")
        print(f"{'kind':<28} {'ops':>5} {'total_s':>9} {'mean_ms':>9}")
        for kind, ts in sorted(per_kind.items(), key=lambda kv: -sum(kv[1])):
            print(f"{kind:<28} {len(ts):>5} {sum(ts):>9.4f} {1000 * sum(ts) / len(ts):>9.3f}")
        total = sum(t * speed for t in times)
        print(f"{'all':<28} {len(times):>5} {total:>9.4f} {1000 * total / len(times):>9.3f}")
        print(median_line([(t * speed, op.kind) for op, t in zip(plan.ops, times)]))
        if args.sort:
            print(profile_table(plan.ops, args.sort))
    for kind, reason in failures:
        print(f"FAILED {kind}: {reason}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
