"""Paired benchmark runs of two checkouts, alternating which side goes first.

    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR bounds 22101-22110
    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR invariants 7

For each seed (A-B inclusive, or A alone) the script runs
`python3 bench/run.py --workload W --seed S --seconds T` in each checkout,
T the `run_seconds` of the change's BENCHMARK.json,
the parent first on odd seeds and the change first on even ones, and reads
the JSON object on the last line each run prints.  It then prints one JSON
object, the blocks a BENCH_*.json file carries for one workload:
`end_to_end` gives, for every end-to-end metric of the change's
BENCHMARK.json, the parent and change medians, their inclusive quartiles, the
number of pairs in which the change was better and the number of pairs;
`runs` gives each run's metrics by seed.  Exits 1 at the first run that
fails, is not correct or has failed operations.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from seed_sweep import seed_range


def read_result(stdout: str) -> dict:
    """{metric: value} from the last line of a bench/run.py run; ValueError
    if the run was not correct or had failed operations."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        correct, failed, metrics = result["correct"], result["failed"], result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise ValueError("no result line") from None
    if not correct or failed:
        raise ValueError(f"correct {correct}, {failed} failed of {result.get('attempted')}")
    return {name: m["value"] for name, m in metrics.items()}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise ValueError(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return read_result(proc.stdout)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """The `end_to_end` block of paired runs {seed: {"parent": {metric:
    value}, "change": {...}}} for the metrics of BENCHMARK.json's
    `end_to_end` list (each with its `name` and `better`)."""
    block = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [r["parent"][name] for r in runs.values()]
        change = [r["change"][name] for r in runs.values()]
        block[name] = {
            "parent_median": round(statistics.median(parent), 4),
            "parent_quartiles": _quartiles(parent),
            "change_median": round(statistics.median(change), 4),
            "change_quartiles": _quartiles(change),
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(runs),
        }
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("seeds", type=seed_range, help="A-B (inclusive) or A")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {}
    for seed in args.seeds:
        pair = {}
        for side in ["parent", "change"] if seed % 2 else ["change", "parent"]:
            started = time.perf_counter()
            try:
                metrics = run_once(getattr(args, side), args.workload, seed,
                                   spec["run_seconds"])
            except ValueError as e:
                print(f"error: {side} run at seed {seed}: {e}", file=sys.stderr)
                return 1
            pair[side] = {name: round(v, 4) for name, v in metrics.items()}
            print(f"seed {seed} {side}: {json.dumps(pair[side])} "
                  f"({time.perf_counter() - started:.0f} s)", file=sys.stderr, flush=True)
        runs[str(seed)] = {side: pair[side] for side in ("parent", "change")}
    print(json.dumps({"end_to_end": summarize(runs, spec["end_to_end"]), "runs": runs},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
