"""The egb benchmark.

    python3 bench/run.py --workload {orbits,bounds,invariants} --seed N --seconds S --trace {0,1}

Runs one workload as a closed loop with one client, each workload in fresh
worker processes (bench/worker.py), and prints every metric by name with its
unit; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.

A run does a fixed amount of work: `cycles(workload, seconds)` repetitions of
the workload's operation cycle, each with fresh seeded inputs, sized to take
about --seconds of operation time on the reference machine.  Two commits
therefore run identical operation sequences at the same seed.

Times are reported at reference speed.  Before every operation the worker
times `calibrate()`, a fixed Fraction loop that runs no egb code; each
operation time of a cycle is scaled by REFERENCE_PROBE_S over the median
probe of that cycle, and set-up time by the probe taken right after it.
A shared 2-core VM like the reference machine changes speed by up to 2x
within a minute, which the probe sees as much as egb does.  The raw times are printed beside the scaled
ones.  See bench/README.md for the workloads, metrics and how to rerun on
another seed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# operation seconds of one cycle at reference speed (2 cores, Python 3.11):
# operations per cycle over the median throughput_ops_s of ten seeds
CYCLE_SECONDS = {"orbits": 4.35, "bounds": 9.45, "invariants": 6.4}
SETUP_RUNS = 3  # set-up is measured in this many fresh processes; the median counts
REFERENCE_PROBE_S = 0.0134  # median calibrate() time on the reference machine
DEADLINE_S = 170.0  # the whole command ends within this many seconds


def cycles(workload: str, seconds: float) -> int:
    return max(1, int(seconds / CYCLE_SECONDS[workload] + 0.5))


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    has at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(times_ms)
    n = len(ordered)
    rank = n - 11 if n >= 11 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


class Worker:
    """One worker process, read under the run's deadline."""

    def __init__(self, args, cycle_count: int, setup_only: bool, deadline: float):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--cycles", str(cycle_count)]
        if args.trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                     env={**os.environ, "PYTHONHASHSEED": "0"})

    def remaining(self) -> float:
        return max(self.deadline - time.monotonic(), 0.0)

    def ready(self) -> dict:
        """The worker's ready line, sent when its set-up is done."""
        readable, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError("worker ended or timed out during set-up")
        return json.loads(line)["ready"]

    def finish(self) -> str:
        """Everything else the worker prints, once it has exited with code 0."""
        try:
            out, _ = self.proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker still running after {DEADLINE_S} s") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def kill(self) -> None:
        """SIGTERM, so the worker removes its scratch files; SIGKILL after 5 s."""
        self.proc.terminate()
        try:
            self.proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def measure(args) -> tuple[dict, dict, list[str]]:
    """Run the worker processes; returns (setup info, result, lines to print)."""
    deadline = time.monotonic() + DEADLINE_S
    n_cycles = cycles(args.workload, args.seconds / (2 if args.trace else 1))
    setups, scaled, digests = [], [], set()
    runs = 1 if args.trace else SETUP_RUNS
    for i in range(runs):
        worker = Worker(args, n_cycles, setup_only=i < runs - 1, deadline=deadline)
        try:
            digests.add(worker.ready()["digest"])
            setups.append(time.perf_counter() - worker.started)
            messages = [json.loads(line) for line in worker.finish().splitlines()]
        except BaseException:
            worker.kill()
            raise
        scaled.append(setups[-1] * REFERENCE_PROBE_S / messages[0]["probe"])
    if len(digests) != 1:
        raise RuntimeError(f"set-up runs generated different inputs: {sorted(digests)}")
    result = messages[-1]["result"]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
             f"cycles {n_cycles} ops {len(result['times'])} input digest {digests.pop()}"]
    setup = {"setup_s": statistics.median(scaled), "raw": statistics.median(setups),
             "setups": scaled, "cycles": n_cycles}
    return setup, result, lines


def end_to_end(setup: dict, result: dict, lines: list[str]) -> dict:
    raw = result["times"]
    n_cycles = setup["cycles"]
    per_cycle = len(raw) // n_cycles  # every cycle runs the same operation kinds
    times, rates, speeds = [], [], []
    for i in range(0, len(raw), per_cycle):
        speed = REFERENCE_PROBE_S / statistics.median(result["probes"][i:i + per_cycle])
        cycle = [t * speed for t in raw[i:i + per_cycle]]
        times += cycle
        rates.append(per_cycle / sum(cycle))
        speeds.append(speed)
    times_ms = [t * 1000 for t in times]
    throughput = statistics.median(rates)
    mix: dict[str, int] = {}
    for kind in result["kinds"]:
        mix[kind] = mix.get(kind, 0) + 1
    value, pct, beyond = tail(times_ms)
    raw_ms = [t * 1000 for t in raw]
    lines += [
        f"  throughput_ops_s {throughput:.4f} 1/s (median over {n_cycles} cycles of "
        f"{per_cycle} ops, {sum(times):.3f} s; raw {len(raw) / sum(raw):.4f} 1/s "
        f"over {sum(raw):.3f} s)",
        "    mix: " + ", ".join(f"{k} x{v}" for k, v in mix.items()),
        f"  op_p50_ms {statistics.median(times_ms):.4f} ms "
        f"(raw {statistics.median(raw_ms):.4f})",
        f"  op_tail_ms {value:.4f} ms (p{pct:.1f}, {beyond} of {len(times)} samples beyond; "
        f"raw {tail(raw_ms)[0]:.4f})",
        f"  setup_s {setup['setup_s']:.4f} s (median of "
        + ", ".join(f"{s:.3f}" for s in setup["setups"]) + f"; raw {setup['raw']:.4f})",
        f"  peak_rss_mb {result['peak_rss_mb']:.2f} MB",
        "  machine speed by cycle, reference = 1: " + " ".join(f"{s:.2f}" for s in speeds),
    ]
    return {
        "throughput_ops_s": throughput,
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": value,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLE_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # on SIGTERM, unwind through measure() so that the running worker is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        setup, result, lines = measure(args)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setup, result, lines)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        lines += [f"  {name} {m['value']} {m['unit']}" for name, m in metrics.items()]
    attempted, failed = len(result["times"]), len(result["failures"])
    lines.append(f"  fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted})")
    lines += [f"  FAILED {kind}: {reason}" for kind, reason in result["failures"]]
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
