"""Per-kind operation times of two checkouts in one process, op by op.

    python3 scripts/ab_kinds.py PARENT_DIR CHANGE_DIR invariants 11-13
    python3 scripts/ab_kinds.py PARENT_DIR CHANGE_DIR invariants 21 10

Two benchmark processes on a shared machine can run at speeds 40% apart,
which hides a change of a few percent in one operation kind.  This script
copies each checkout's `src/egb` tree, as the package `egb_parent` or
`egb_change`, and its `bench/workloads.py`, with its `from egb` imports renamed,
into a temporary directory and imports both into this one process.  For each
seed (A-B inclusive, or A alone) it builds one cycle of WORKLOAD from each
side (their input digests must agree), runs both warm-ups, then ROUNDS
rounds (default 10) of the operations: the two sides alternate op by op,
which side goes first alternates by op and by round, and every result is
checked.  Prints, per seed, each kind's least per-round total on each side
and the ratio change / parent, beside the least and greatest per-round
ratio (round r's change total over its parent total), between which that
ratio always lies: their spread is the run's own noise.  Then each round's
op p50 and tail (bench/run.py's `tail`, on raw times) for both sides.
Exits 1 on a failed operation or differing digests.  Standard library
only; bench/ is read, never changed.
"""

from __future__ import annotations

import argparse
import importlib
import re
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from seed_sweep import seed_range

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import tail  # noqa: E402
from worker import run_ops  # noqa: E402

SIDES = ("parent", "change")
_EGB_IMPORT = re.compile(r"^from egb\b", re.MULTILINE)


def stage(checkouts: dict, tmp: Path) -> dict:
    """Copy each side's egb package and workloads module into ``tmp``, under
    names of their own, and import the workloads: {side: module}."""
    for side, checkout in checkouts.items():
        shutil.copytree(checkout / "src" / "egb", tmp / f"egb_{side}")
        text = (checkout / "bench" / "workloads.py").read_text()
        (tmp / f"workloads_{side}.py").write_text(_EGB_IMPORT.sub(f"from egb_{side}", text))
    sys.path.insert(0, str(tmp))
    return {side: importlib.import_module(f"workloads_{side}") for side in checkouts}


def paired_rounds(ops: dict, rounds: int) -> list[dict]:
    """Per round, {side: [op seconds]} of the op lists {side: ops}, the
    sides alternating op by op; ValueError at the first failed operation."""
    out = []
    for r in range(rounds):
        times = {side: [] for side in SIDES}
        for i, pair in enumerate(zip(*(ops[side] for side in SIDES))):
            order = SIDES if (i + r) % 2 == 0 else SIDES[::-1]
            for side in order:
                (elapsed,), failures = run_ops([pair[SIDES.index(side)]])
                if failures:
                    (kind, reason), = failures
                    raise ValueError(f"{side} {kind}: {reason}")
                times[side].append(elapsed)
        out.append(times)
    return out


def report(kinds: list[str], rounds: list[dict]) -> list[str]:
    """Each kind's least per-round total on each side, their ratio and the
    least and greatest per-round ratio, then each round's op p50 and tail in
    milliseconds."""
    lines = [f"{'kind':<28} {'ops':>4} {'parent_ms':>10} {'change_ms':>10} {'ratio':>7} "
             f"{'round_lo':>8} {'round_hi':>8}"]
    for kind in sorted(set(kinds)) + ["all"]:
        picked = [i for i, k in enumerate(kinds) if kind in (k, "all")]
        totals = [{side: sum(t[side][i] for i in picked) * 1000 for side in SIDES}
                  for t in rounds]
        least = {side: min(t[side] for t in totals) for side in SIDES}
        ratios = [t["change"] / t["parent"] for t in totals]
        lines.append(f"{kind:<28} {len(picked):>4} {least['parent']:>10.3f} "
                     f"{least['change']:>10.3f} {least['change'] / least['parent']:>7.3f} "
                     f"{min(ratios):>8.3f} {max(ratios):>8.3f}")
    for r, t in enumerate(rounds):
        ms = {side: [x * 1000 for x in t[side]] for side in SIDES}
        lines.append(f"round {r}: " + "  ".join(
            f"{side} p50 {statistics.median(ms[side]):.3f} tail {tail(ms[side])[0]:.3f}"
            for side in SIDES))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("seeds", type=seed_range, help="A-B (inclusive) or A")
    parser.add_argument("rounds", type=int, nargs="?", default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("ROUNDS must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        workloads = stage({"parent": args.parent, "change": args.change}, tmp)
        for seed in args.seeds:
            plans = {side: workloads[side].build(args.workload, seed, 1, tmp / f"in-{side}")
                     for side in SIDES}
            if plans["parent"].digest != plans["change"].digest:
                print(f"error: seed {seed}: the input digests differ", file=sys.stderr)
                return 1
            try:
                paired_rounds({side: plans[side].warmup for side in SIDES}, 1)
                rounds = paired_rounds({side: plans[side].ops for side in SIDES}, args.rounds)
            except ValueError as e:
                print(f"error: seed {seed}: {e}", file=sys.stderr)
                return 1
            print(f"workload {args.workload} seed {seed} ops {len(plans['change'].ops)} "
                  f"rounds {args.rounds} input digest {plans['change'].digest}")
            print("\n".join(report([op.kind for op in plans["change"].ops], rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
