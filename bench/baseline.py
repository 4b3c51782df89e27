"""Run the benchmark on several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 [--out FILE]

For every workload of BENCHMARK.json, at its run_seconds: one untraced run
per seed (`bench/run.py --trace 0`), the median of each end-to-end metric and
its spread (distance between the first and third quartile as a share of the
median), then one traced run at the first seed for the per-layer metrics.
Writes JSON to --out (default: print only) with the commit, Python version
and CPU count.  Rerunning with seeds no earlier run used checks a claim on
held-out inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_arg(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    print(proc.stdout.splitlines()[0], file=sys.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    report = {"commit": commit(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "seeds": args.seeds, "seconds": seconds,
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else 0.0,
                "bound": m["bound"], "values": values}
        traced = run_once(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
        for name, m in entry["end_to_end"].items():
            print(f"{workload} {name}: median {m['median']:.6g} {m['unit']} "
                  f"spread {m['spread']:.4f} (bound {m['bound']})", file=sys.stderr)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
