"""Command-line surface: egg-beater tables, barcodes, spreads, bounds.

Exit codes: 0 success, 1 malformed input, 2 partial validation.  All
machine-readable output keeps rationals as exact strings; identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import eggbeater as eb
from . import freegroup as fg
from . import model as mdl
from . import serialize as ser
from .bottleneck import bottleneck
from .equivariant import (
    mu_from_barcode,
    spread_lower_bound_from_gaps,
    w_hat,
    w_spread,
)
from .persistence import Bar, Barcode, INF, barcode_of_complex, is_inf, min_gap


def _parse_frac_list(s: str) -> tuple[Fraction, ...]:
    return tuple(ser.parse_frac(part) for part in s.split(",") if part)


# The positional arguments of each barcode and freegroup subcommand.
_OPERANDS = {
    "decompose": "COMPLEX.json", "bottleneck": "BARCODE1.json BARCODE2.json",
    "mu": "MODULE.json", "reduce": "WORD", "conjugate": "WORD1 WORD2",
    "itinerary": "ITINERARY", "si": "M N",
}
# The options that only one barcode or freegroup subcommand reads.
_OPTION_OWNER = {"zeta_index": "mu", "cyclic": "reduce"}


def _check_operands(args, given: list[str]) -> None:
    names = _OPERANDS[args.subcommand]
    n = len(names.split())
    if len(given) != n:
        raise ValueError(f"{args.command} {args.subcommand} expects {n} argument"
                         f"{'s' * (n > 1)} {names}, got {len(given)}")
    for dest, owner in _OPTION_OWNER.items():
        if getattr(args, dest, None) is not None and args.subcommand != owner:
            raise ValueError(f"--{dest.replace('_', '-')} applies only to "
                             f"{args.command} {owner}")


def _k_option(k: int | None) -> int | None:
    """The --k option, None when it is left out (k is then p); a k below 1 is
    malformed.  It is checked before any input file is read."""
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    return k


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as e:
        raise ValueError(f"no such file: {path}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON in {path}: {e}") from e
    except RecursionError:
        raise ValueError(f"invalid JSON in {path}: nested too deeply") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# -- eggbeater -----------------------------------------------------------------


def _run_eggbeater_once(p, L, mu, nu, lam, out_dir: Path | None):
    params = eb.EggBeaterParams(p, L, lam, mu, nu)
    records = eb.enumerate_records(params)
    valid_count = sum(r.valid for r in records)
    gap = eb.min_action_gap(records)
    # half the minimum gap of the 4^p leading sums, read off the records' lam/2 * sum
    lead_gap = min_gap(r.leading_ratio for r in records) / lam
    header = {
        "p": p,
        "L": ser.frac_str(L),
        "lambda": ser.frac_str(lam),
        "mu": [ser.frac_str(v) for v in mu],
        "nu": [ser.frac_str(v) for v in nu],
        "windings_m": [params.winding_m(j) for j in range(p)],
        "windings_n": [params.winding_n(j) for j in range(p)],
        "valid_count": valid_count,
        "expected_count": 4 ** p,
        "min_action_gap": ser.frac_str(gap),
        "min_leading_gap_per_lambda": ser.frac_str(lead_gap),
    }
    if out_dir is None:  # the whole CSV table comes before the JSON
        json_out = io.StringIO()
        ser.write_records(records, sys.stdout, json_out, header, det_values=True)
        sys.stdout.write(json_out.getvalue() + "\n")
    else:
        stem = out_dir / f"eggbeater_lam_{lam.numerator}_{lam.denominator}"
        with open(f"{stem}.csv", "w") as csv_out, open(f"{stem}.json", "w") as json_out:
            ser.write_records(records, csv_out, json_out, header, det_values=True)
            json_out.write("\n")
    return valid_count == 4 ** p


def cmd_eggbeater(args) -> int:
    if args.fixture and (args.mu or args.nu):
        raise ValueError(f"--{'mu' if args.mu else 'nu'} applies only without --fixture")
    if args.count is not None and args.lam != "auto":
        raise ValueError("--count applies only to --lambda auto")
    p = args.p
    L = ser.parse_frac(args.L)
    if args.mu and args.nu:
        mu = _parse_frac_list(args.mu)
        nu = _parse_frac_list(args.nu)
    elif not args.mu and not args.nu:
        if p != 2:
            raise ValueError("the frozen fixture is for p=2; pass --mu/--nu")
        mu, nu = eb.FIXTURE_P2_MU, eb.FIXTURE_P2_NU
    else:
        raise ValueError("--mu and --nu must be given together")
    if len(mu) != p or len(nu) != p:
        raise ValueError(f"need {p} mu and {p} nu coefficients")

    if args.lam == "auto":
        lams = eb.lambda_lattice(L, mu, nu, 1 if args.count is None else args.count)
    else:
        lams = [ser.parse_frac(args.lam)]
    out_dir = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    all_valid = True
    for lam in lams:
        all_valid = _run_eggbeater_once(p, L, mu, nu, lam, out_dir) and all_valid
    return 0 if all_valid else 2


def cmd_eggbeater_2d(args) -> int:
    mu, nu, lam, L = (ser.parse_frac(s) for s in (args.mu, args.nu, args.lam, args.L))
    records = eb.solve_2d(mu, nu, lam, L)
    text = io.StringIO()
    if args.format == "csv":
        ser.write_records(records, csv_out=text)
    else:
        header = {"mu": ser.frac_str(mu), "nu": ser.frac_str(nu), "lambda": ser.frac_str(lam)}
        ser.write_records(records, json_out=text, header=header)
    _emit(text.getvalue(), args.out)
    return 0


# -- barcode ---------------------------------------------------------------------


def cmd_barcode(args) -> int:
    """`mu` scans each stored eigenspace barcode once, for its spread, and
    the verdict is FAIL iff the spread is positive (`full_power_verdict`)."""
    _check_operands(args, args.files)
    if args.subcommand == "decompose":
        cx = ser.complex_from_obj(_load_json(args.files[0]))
        barcode = barcode_of_complex(cx)
        _emit(ser.barcode_to_json(barcode), args.out)
        return 0
    if args.subcommand == "bottleneck":
        b, c = (ser.barcode_from_obj(_load_json(f)) for f in args.files)
        _emit(ser.dumps({"bottleneck": ser.frac_str(bottleneck(b, c))}), args.out)
        return 0
    if args.subcommand == "mu":
        module = ser.zp_module_from_obj(_load_json(args.files[0]))
        zi = 1 if args.zeta_index is None else args.zeta_index
        if not 1 <= zi <= module.p - 1:
            raise ValueError(f"zeta index must lie in 1..{module.p - 1}")
        barcodes = module.barcodes  # barcodes[k - 1] is at zeta^k
        mus = [mu_from_barcode(bc, module.p) for bc in barcodes]
        report = {
            "zeta_index": zi,
            "barcode": ser.barcode_to_obj(barcodes[zi - 1]),
            "mu_p_zeta": ser.frac_str(mus[zi - 1]),
            "mu_p": ser.frac_str(max(mus)),
            "w_hat": ser.frac_str(w_hat(module)),
            "verdict": "FAIL" if mus[zi - 1] > 0 else "PASS",
        }
        _emit(ser.dumps(report), args.out)
        return 0


# -- spread ---------------------------------------------------------------------


def cmd_spread(args) -> int:
    k = _k_option(args.k)
    eq = ser.equivariant_from_obj(_load_json(args.file))
    value = w_spread(eq, k or eq.p)
    out = {"w_spread": ser.frac_str(value)}
    if is_inf(value):
        out["note"] = "model-degenerate, use spread_lower_bound_from_gaps"
        out["spread_lower_bound_from_gaps"] = ser.frac_str(
            spread_lower_bound_from_gaps(eq.complex.generators)
        )
    _emit(ser.dumps(out), args.out)
    return 0


# -- bounds ---------------------------------------------------------------------


def cmd_bounds(args) -> int:
    if args.file and args.lam is not None:
        raise ValueError("--lambda applies only without --file")
    p = args.p
    eps = ser.parse_frac(args.epsilon_frac)
    k = _k_option(args.k) or p
    stabilize = None
    if args.stabilize:
        try:
            stabilize = [int(x) for x in args.stabilize.split(",")]
        except ValueError as e:
            raise ValueError(f"bad betti vector {args.stabilize!r}") from e
    if args.file:
        model_input = mdl.ModelInput(p, ser.tuples_from_obj(_load_json(args.file)))
        provenance = {"source": args.file}
        lam = None
    else:
        if p != 2:
            raise ValueError("the frozen fixture is for p=2; pass --file")
        L, mu, nu = eb.FIXTURE_L, eb.FIXTURE_P2_MU, eb.FIXTURE_P2_NU
        if args.lam == "auto" or not args.lam:
            lam, records = eb.validation_threshold(2, L, mu, nu)
        else:
            lam = ser.parse_frac(args.lam)
            records = eb.enumerate_records(eb.EggBeaterParams(2, L, lam, mu, nu))
            if not all(r.valid for r in records):
                raise ValueError(f"lambda {lam} does not fully validate; use auto")
        model_input = mdl.model_input_from_records(records, p)
        provenance = {
            "source": "fixture-p2",
            "L": ser.frac_str(L),
            "mu": [ser.frac_str(v) for v in mu],
            "nu": [ser.frac_str(v) for v in nu],
            "lambda": ser.frac_str(lam),
        }
    report = mdl.bounds_report(model_input, k=k, eps_frac=eps, lam=lam, stabilize=stabilize)
    _emit(ser.dumps(ser.bounds_report_to_obj(report, provenance)), args.out)
    if args.svg:
        # every tuple is one ray (action, +inf] of the model, whichever root
        rays = Barcode.of(Bar(a, INF) for a, _ in model_input.tuples)
        Path(args.svg).write_text(ser.barcode_svg(rays))
    return 0


# -- freegroup --------------------------------------------------------------------


def cmd_freegroup(args) -> int:
    _check_operands(args, args.args)
    if args.subcommand == "reduce":
        word = fg.parse_word(args.args[0])
        if args.cyclic:
            word = fg.cyclic_reduce(word)
        print(fg.format_word(word))
    elif args.subcommand == "conjugate":
        w1, w2 = (fg.parse_word(w) for w in args.args)
        print("true" if fg.conjugate_eq(w1, w2) else "false")
    elif args.subcommand == "itinerary":
        print(fg.format_word(fg.itinerary_to_word(fg.parse_itinerary(args.args[0]))))
    else:
        try:
            m, n = (int(x) for x in args.args)
        except ValueError:
            raise ValueError(
                f"freegroup si expects integers M N, got {' '.join(args.args)!r}") from None
        print(fg.self_intersection(m, n))
    return 0


# -- parser ------------------------------------------------------------------------


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egb",
        description="Exact egg-beater periodic orbits and equivariant persistence bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eb = sub.add_parser("eggbeater", help="solve the 2^{2p} sign-indexed fixed points")
    p_eb.add_argument("--p", type=int, default=2)
    p_eb.add_argument("--L", default="4")
    p_eb.add_argument("--mu", default="", help="comma-separated rationals")
    p_eb.add_argument("--nu", default="", help="comma-separated rationals")
    p_eb.add_argument("--fixture", action="store_true", help="use the frozen p=2 fixture")
    p_eb.add_argument("--lambda", dest="lam", default="auto")
    p_eb.add_argument("--count", type=int, help="lattice points for --lambda auto; default 1")
    p_eb.add_argument("--out", default="", help="output directory")
    p_eb.set_defaults(func=cmd_eggbeater)

    p_2d = sub.add_parser("eggbeater-2d", help="the four fixed points of the single block")
    p_2d.add_argument("--mu", required=True)
    p_2d.add_argument("--nu", required=True)
    p_2d.add_argument("--lambda", dest="lam", required=True)
    p_2d.add_argument("--L", default="4")
    p_2d.add_argument("--format", choices=("json", "csv"), default="json")
    p_2d.add_argument("--out", default="")
    p_2d.set_defaults(func=cmd_eggbeater_2d)

    p_bc = sub.add_parser("barcode", help="decompose | bottleneck | mu")
    p_bc.add_argument("subcommand", choices=("decompose", "bottleneck", "mu"))
    p_bc.add_argument("files", nargs="+")
    p_bc.add_argument("--zeta-index", dest="zeta_index", type=int, help="mu only; default 1")
    p_bc.add_argument("--out", default="")
    p_bc.set_defaults(func=cmd_barcode)

    p_sp = sub.add_parser("spread", help="two-window spread of an equivariant complex")
    p_sp.add_argument("file")
    p_sp.add_argument("--k", type=int, default=None, help="order checked; default p")
    p_sp.add_argument("--out", default="")
    p_sp.set_defaults(func=cmd_spread)

    p_bd = sub.add_parser("bounds", help="certified Hofer-distance lower bounds")
    p_bd.add_argument("--p", type=int, default=2)
    p_bd.add_argument("--file", default="", help="tuples JSON instead of the fixture")
    p_bd.add_argument("--lambda", dest="lam", help="fixture only; default auto")
    p_bd.add_argument("--k", type=int, default=None, help="order checked; default p")
    p_bd.add_argument("--epsilon-frac", dest="epsilon_frac", default="1/100",
                      help="witness margin eps in (0, 1/2]; c = g(1 - 2 eps)/4")
    p_bd.add_argument("--stabilize", default="", help="betti vector b0,b1,...")
    p_bd.add_argument("--svg", default="", help="write the model barcode as SVG")
    p_bd.add_argument("--out", default="")
    p_bd.set_defaults(func=cmd_bounds)

    p_fg = sub.add_parser("freegroup", help="reduce | conjugate | itinerary | si")
    p_fg.add_argument("subcommand", choices=("reduce", "conjugate", "itinerary", "si"))
    p_fg.add_argument("args", nargs="+")
    p_fg.add_argument("--cyclic", action="store_true", default=None,
                      help="reduce only: cyclically reduce")
    p_fg.set_defaults(func=cmd_freegroup)

    return parser


def main(argv=None) -> int:
    """Run one command.  Python 3.10.7 and later cap int/str conversions
    (4,300 digits by default); the cap is lifted for the run, so exact
    rationals of any length parse and print, and the caller's cap is
    restored on return."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_cap(0)
    try:
        return _run(argv)
    finally:
        set_cap(cap)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as e:
        where = f": {e.filename}" if e.filename is not None else ""
        print(f"error: {e.strerror or e}{where}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
