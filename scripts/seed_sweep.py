"""Run the tier-1 test suite once per EGB_SEED and report the failing seeds.

    python3 scripts/seed_sweep.py 0-9      # seeds 0..9 inclusive
    python3 scripts/seed_sweep.py 4        # seed 4 only

Each seed runs `python -m pytest -q --continue-on-collection-errors` from the
repository root with `src` on PYTHONPATH, one seed after another.  Prints
one line per seed with pytest's summary, then the failed seeds; exits 1 if
any seed failed.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def seed_range(text: str) -> range:
    """'A-B' gives A..B inclusive, 'A' gives A alone."""
    lo, sep, hi = text.partition("-")
    try:
        start, stop = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}; expected A-B or A")
    if start < 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}; need 0 <= A <= B")
    return range(start, stop + 1)


def run_seed(seed: int) -> tuple[bool, str]:
    """(passed, pytest's last output line) for one tier-1 run."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "EGB_SEED": str(seed),
           "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, lines[-1] if lines else f"exit code {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=seed_range, help="A-B (inclusive) or A")
    args = parser.parse_args(argv)
    failed = []
    for seed in args.seeds:
        started = time.perf_counter()
        passed, summary = run_seed(seed)
        print(f"seed {seed}: {summary} ({time.perf_counter() - started:.0f} s)", flush=True)
        if not passed:
            failed.append(seed)
    print("failed seeds: " + (" ".join(map(str, failed)) if failed else "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
