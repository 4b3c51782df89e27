"""One workload in a fresh process: set up, then run the operations.

Protocol on stdout, one JSON object per line: {"ready": ...} once set-up
(import, input generation, warm-up) is done, then {"result": ...} at the
end unless --setup-only is given.  The egb CLI's own output is captured
in-process and never reaches this stream.

    python3 bench/worker.py --workload NAME --seed N --cycles C [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import statistics
import time
from fractions import Fraction
from pathlib import Path

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic, which runs no
    egb code: a probe of how fast the machine runs Python right now."""
    start = time.perf_counter()
    for j in range(1, 2001):
        Fraction(j, 7) * Fraction(3, j + 1) < 1
    return time.perf_counter() - start


def run_ops(ops, tracer=None, probes: list[float] | None = None):
    """Closed loop with one client: each operation starts when the previous
    one has returned and been checked.  Returns the operation times and the
    (kind, reason) of every failure; a failure never stops the loop.  With
    `probes`, a `calibrate()` time is appended before each operation."""
    times: list[float] = []
    failures: list[tuple[str, str]] = []
    for index, op in enumerate(ops):
        error = None
        if probes is not None:
            probes.append(calibrate())
        if tracer is not None:
            tracer.op_id, tracer.active = index, True
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as e:  # an operation that raises counts as failed
            error = f"raised {type(e).__name__}: {e}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        times.append(elapsed)
        if error is None:
            try:
                op.check(result)
            except Exception as e:  # CheckFailed, or a check tripping on a malformed result
                error = f"{type(e).__name__}: {e}"
        if error is not None:
            failures.append((op.kind, error[:300]))
    return times, failures


def run_traced(ops):
    """`run_ops` with a `Tracer` installed for the duration of the loop."""
    tracer = Tracer().install()
    try:
        times, failures = run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    return times, failures, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "egb" / "__init__.py").is_file():
        print(f"error: no egb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import egb  # noqa: F401  (the import is part of set-up)
    import workloads

    # on SIGTERM, unwind through the finally below so the scratch files go
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    proto = sys.stdout
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        plan = workloads.build(args.workload, args.seed, args.cycles, tmp)
        _, warm_failures = run_ops(plan.warmup)
        if warm_failures:
            print(f"error: warm-up failed: {warm_failures}", file=sys.stderr)
            return 1
        _send(proto, {"ready": {"digest": plan.digest, "ops": len(plan.ops)}})
        _send(proto, {"probe": statistics.median(calibrate() for _ in range(9))})
        if args.setup_only:
            return 0
        result = {"digest": plan.digest, "kinds": [op.kind for op in plan.ops]}
        if args.trace:
            untraced, _ = run_ops(plan.ops)
            times, failures, tracer = run_traced(plan.ops)
            layers = layer_metrics(tracer, times, untraced)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            stem = out / f"trace-{args.workload}-seed{args.seed}"
            tracer.write(stem.with_suffix(".csv.gz"))
            stem.with_suffix(".json").write_text(json.dumps(
                {"digest": plan.digest, "layers": layers,
                 "self_s": tracer.self_times(), "calls": tracer.call_counts()},
                indent=2, sort_keys=True))
            result["layers"] = layers
        else:
            probes: list[float] = []
            times, failures = run_ops(plan.ops, probes=probes)
            result["probes"] = probes
        result.update({
            "times": times,
            "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        _send(proto, {"result": result})
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _send(stream, obj) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


if __name__ == "__main__":
    sys.exit(main())
