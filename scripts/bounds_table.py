"""Tabulate the certified Hofer-distance bounds against p and lambda.

    python3 scripts/bounds_table.py

For p = 2 (the frozen fixture coefficients) and p = 3, 5 (the coefficients
of `param_search(p, 4)`) it solves the egg-beater orbits at the validation
threshold lambda and at the next two lattice lambda, runs `bounds_report`
on the valid records, and prints one Markdown table row per (p, lambda):
the valid record count, the action gap, `aut_bound` and `pow_bound`.  The
values are exact rationals rounded down to four decimals, so every entry
is still a lower bound of the exact value.  The README carries this table
verbatim.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from egb import eggbeater as eb  # noqa: E402
from egb import model as mdl  # noqa: E402

PRIMES = (2, 3, 5)
PLACES = 4


def floor_decimal(q: Fraction) -> str:
    """The nonnegative rational q rounded down to PLACES decimals."""
    n = math.floor(q * 10**PLACES)
    return f"{n // 10**PLACES}.{n % 10**PLACES:0{PLACES}d}"


def rows(p: int):
    """(lambda, valid, total, report) at the threshold and the next two lambda."""
    if p == 2:
        mu, nu = eb.FIXTURE_P2_MU, eb.FIXTURE_P2_NU
    else:
        mu, nu = eb.param_search(p, eb.FIXTURE_L)
    threshold, _ = eb.validation_threshold(p, eb.FIXTURE_L, mu, nu)
    step = eb.lambda_lattice(eb.FIXTURE_L, mu, nu, 1)[0]
    for lam in (threshold, threshold + step, threshold + 2 * step):
        records = eb.enumerate_records(eb.EggBeaterParams(p, eb.FIXTURE_L, lam, mu, nu))
        report = mdl.bounds_report(mdl.model_input_from_records(records, p), lam=lam)
        yield lam, sum(r.valid for r in records), len(records), report


def table() -> str:
    lines = ["| p | λ | valid records | gap | aut_bound | pow_bound |",
             "| --- | --- | --- | --- | --- | --- |"]
    for p in PRIMES:
        for lam, valid, total, r in rows(p):
            lines.append(f"| {p} | {lam} | {valid}/{total} | {floor_decimal(r.gap)} | "
                         f"{floor_decimal(r.aut_bound)} | {floor_decimal(r.pow_bound)} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table())
