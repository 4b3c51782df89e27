"""The three benchmark workloads: seeded inputs, operations and their checks.

Every operation is an `Op`: a kind, a zero-argument `run` that calls egb
(the CLI in-process through `egb.cli.main`, or a public library function),
and a `check` that raises `CheckFailed` unless the result matches what the
generator planted or what a second route through the library gives.  All
egb names are looked up on their module at call time, so a tracer that
rebinds them sees every call.

Inputs come only from `random.Random(f"{workload}:{seed}:{stream}")`; the
same seed gives the same inputs, byte for byte, and `Plan.digest` hashes
their descriptions so two runs can be shown to have used the same inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from egb import cli
from egb import eggbeater as eb
from egb import equivariant as eqv
from egb import freegroup as fg
from egb import model as mdl
from egb import persistence as pers
from egb import serialize as ser
from egb.field import CyclotomicField, Matrix, QQ_FIELD, cyclo_zeta

INF = pers.INF
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
FIXTURE_STEP = Fraction(840)  # first lattice lambda of the frozen p=2 fixture


class CheckFailed(Exception):
    """An operation returned something other than the expected output."""


@dataclass
class Op:
    kind: str
    desc: str  # canonical description of the inputs, hashed into the digest
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Plan:
    warmup: list[Op]
    ops: list[Op]

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.warmup + self.ops:
            h.update(f"{op.kind}\t{op.desc}\n".encode())
        return h.hexdigest()[:16]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def dump(obj) -> str:
    """The CLI's JSON layout (indent 2, sorted keys, trailing newline)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cli_op(kind: str, argv: list[str], check_stdout: Callable[[str], None],
           tmp: Path, content: str = "") -> Op:
    """`egb <argv>` in-process; fails on a non-zero exit or a failed check.

    The description names the scratch directory `$TMP` and appends the
    content of the input files, so it does not depend on where a run lives."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
        check_stdout(out)

    desc = " ".join(argv).replace(str(tmp), "$TMP") + content
    return Op(kind, desc, run, check)


def stdout_equals(expected: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        expect(out == expected, f"stdout differs from the expected {len(expected)} bytes")
    return check


def lattice_step(mu, nu) -> Fraction:
    """lcm over the winding coefficients c of L/c, with L = 4."""
    ratios = [Fraction(4) / c for c in tuple(mu) + tuple(nu)]
    return Fraction(math.lcm(*(r.numerator for r in ratios)),
                    math.gcd(*(r.denominator for r in ratios)))


def disjoint_prime_coefficients(rng: random.Random, p: int, numerators: bool):
    """mu, nu over 2p distinct prime denominators: their squared complements
    have distinct p-adic valuations, so all 4^p coefficient sums differ.

    Without `numerators` the coefficients are 1/q for a seeded permutation of
    the first 2p primes, so lambda and the size of every exact number stay
    the same from seed to seed; with them, 2p of the first eight primes get
    random numerators."""
    if numerators:
        qs = rng.sample(PRIMES[:8], 2 * p)
        coeffs = [Fraction(rng.randint(1, q - 1), q) for q in qs]
    else:
        coeffs = [Fraction(1, q) for q in rng.sample(PRIMES[:2 * p], 2 * p)]
    return tuple(coeffs[:p]), tuple(coeffs[p:])


def frac_list(values) -> str:
    return ",".join(str(v) for v in values)


# -- orbits ---------------------------------------------------------------------


def _check_eggbeater_dir(out_dir: Path, p: int, lams) -> Callable[[str], None]:
    def check(out: str) -> None:
        expect(out == "", "eggbeater --out wrote to stdout")
        for lam in lams:
            stem = out_dir / f"eggbeater_lam_{lam.numerator}_{lam.denominator}"
            rows = stem.with_suffix(".csv").read_text().splitlines()[1:]
            expect(len(rows) == 4 ** p, f"{len(rows)} CSV records, expected {4 ** p}")
            fields = [r.split(",") for r in rows]
            expect(all(f[6] == "true" for f in fields), "a CSV record is not valid")
            expect(len({f[3] for f in fields}) == 4 ** p, "CSV actions are not distinct")
            diag = json.loads(stem.with_suffix(".json").read_text())
            expect(diag["valid_count"] == 4 ** p, "JSON valid_count")
            expect(diag["lambda"] == str(lam), "JSON lambda")
            actions = {r["action_exact"] for r in diag["records"]}
            expect(actions == {f[3] for f in fields}, "JSON and CSV actions differ")
    return check


def _eggbeater_op(rng, tmp: Path, tag: str, p: int, k: int = 1) -> Op:
    out_dir = tmp / tag
    if p == 2:
        lam = FIXTURE_STEP * k
        argv = ["eggbeater", "--fixture", "--lambda", str(lam), "--out", str(out_dir)]
        return cli_op("cli.eggbeater.p2", argv, _check_eggbeater_dir(out_dir, 2, [lam]), tmp)
    mu, nu = disjoint_prime_coefficients(rng, p, numerators=False)
    count = 2 if p == 3 else 1
    step = lattice_step(mu, nu)
    argv = ["eggbeater", "--p", str(p), "--mu", frac_list(mu), "--nu", frac_list(nu),
            "--lambda", "auto", "--count", str(count), "--out", str(out_dir)]
    lams = [step * i for i in range(1, count + 1)]
    return cli_op(f"cli.eggbeater.p{p}", argv, _check_eggbeater_dir(out_dir, p, lams), tmp)


def _threshold_ops(rng) -> list[Op]:
    """validation_threshold, then min_action_gap on the records it returned."""
    mu, nu = disjoint_prime_coefficients(rng, 2, numerators=True)
    step = lattice_step(mu, nu)
    slot: dict = {}

    def run_threshold():
        slot["records"] = None
        lam, records = eb.validation_threshold(2, Fraction(4), mu, nu)
        slot["records"] = records
        return lam, records

    def check_threshold(result):
        lam, records = result
        expect((lam / step).denominator == 1, "threshold lambda is off the lattice")
        expect(len(records) == 16 and all(r.valid for r in records), "not all records valid")
        expect(len({r.action for r in records}) == 16, "actions are not distinct")
        if lam > step:  # the lattice point below must fail to validate
            below = eb.enumerate_records(eb.EggBeaterParams(2, 4, lam - step, mu, nu))
            expect(not all(r.valid for r in below), "an earlier lattice point validates")

    def run_gap():
        if slot.get("records") is None:
            raise RuntimeError("no records from validation_threshold")
        return eb.min_action_gap(slot["records"])

    def check_gap(gap):
        actions = [r.action for r in slot["records"]]
        brute = min(abs(a - b) for i, a in enumerate(actions) for b in actions[i + 1:])
        expect(gap == brute and gap > 0, f"gap {gap} != pairwise minimum {brute}")

    desc = f"mu={frac_list(mu)} nu={frac_list(nu)}"
    return [Op("validation_threshold", desc, run_threshold, check_threshold),
            Op("min_action_gap", desc, run_gap, check_gap)]


def _words_op(rng, k: int) -> Op:
    """Orbit-class word of the fixture at lambda = 840 k, tested against a rotation."""
    lam = FIXTURE_STEP * k
    ms = [int(m * lam / 4) for m in eb.FIXTURE_P2_MU]
    ns = [int(n * lam / 4) for n in eb.FIXTURE_P2_NU]
    letters = tuple(x for m, n in zip(ms, ns) for x in (1,) * m + (2,) * n)
    r = rng.randrange(9 * len(letters) // 20, 11 * len(letters) // 20)
    rotated = fg.Word(letters[r:] + letters[:r])

    def run():
        word = fg.itinerary_to_word(fg.canonical_itinerary(ms, ns))
        return word, fg.conjugate_eq(word, rotated), [
            fg.self_intersection(m, n) for m, n in zip(ms, ns)]

    def check(result):
        word, conj, si = result
        expect(word.letters == letters, "word differs from a^m1 b^n1 a^m2 b^n2")
        expect(conj, "word is not conjugate to its rotation")
        expect(si == [m * n + (m - 1) * (n - 1) for m, n in zip(ms, ns)], "self-intersection")

    return Op("orbit_words", f"k={k} r={r}", run, check)


def build_orbits(seed: int, cycles: int, tmp: Path) -> Plan:
    w = random.Random(f"orbits:{seed}:warmup")
    warmup = [_eggbeater_op(w, tmp, f"warm{p}", p) for p in (2, 3, 5)]
    warmup += [*_threshold_ops(w), _words_op(w, 1)]
    rng = random.Random(f"orbits:{seed}:ops")
    ks = rng.sample(range(40, 40 + 2 * cycles), 2 * cycles)  # a fixed set, seeded order
    lams = rng.sample(range(1, 400), 2 * cycles)
    ops: list[Op] = []
    for c in range(cycles):
        ops += [
            _eggbeater_op(rng, tmp, f"c{c}a", 2, lams[2 * c]),
            _eggbeater_op(rng, tmp, f"c{c}b", 2, lams[2 * c + 1]),
            _eggbeater_op(rng, tmp, f"c{c}c", 3),
            _eggbeater_op(rng, tmp, f"c{c}d", 5),
            *_threshold_ops(rng),
            *_threshold_ops(rng),
            _words_op(rng, ks[2 * c]),
            _words_op(rng, ks[2 * c + 1]),
        ]
    return Plan(warmup, ops)


# -- bounds ---------------------------------------------------------------------


def planted_family(tuples) -> dict:
    """The model's eigenspace family: one bar (action, inf] per tuple, in its degree."""
    family: dict = {}
    for action, degree in tuples:
        family.setdefault(degree, []).append((pers.Bar(action, INF), 1, None))
    return {d: pers.Barcode.of(bars) for d, bars in sorted(family.items())}


def expected_report(p: int, tuples, k: int, eps: Fraction, stabilize) -> dict:
    family = planted_family(tuples)
    if stabilize:
        family = eqv.kunneth_stabilize(family, stabilize)
    acts = sorted(a for a, _ in tuples)
    gap = min(b - a for a, b in zip(acts, acts[1:])) if len(acts) > 1 else INF
    paper = Fraction(0) if gap == INF else gap * (1 - 2 * eps) / 4
    return {
        "p": p, "k": k,
        "mu_p_model": ser.frac_str(eqv.mu_p_of_family(family, p)),
        "mu_p_model_note": "zero-differential model value; actual Floer bars are finite",
        "mu_p_paper_bound": ser.frac_str(paper),
        "pow_bound": ser.frac_str(paper / p),
        "aut_bound": ser.frac_str(Fraction(0) if gap == INF else gap / k),
        "gap": ser.frac_str(gap),
    }


def _fixture_tuples():
    records = eb.enumerate_records(eb.fixture_params(FIXTURE_STEP))
    return tuple((r.action, 0) for r in records)


def _cli_bounds_op(rng, tmp: Path, tag: str, svg: bool, fixture) -> Op:
    eps = Fraction(1, rng.randint(20, 400))
    k = rng.randint(1, 4)
    argv = ["bounds", "--p", "2", "--epsilon-frac", str(eps), "--k", str(k)]
    stabilize = None
    if svg:
        stabilize = [1] + [rng.randint(0, 2) for _ in range(rng.randint(1, 2))]
        svg_path = tmp / f"{tag}.svg"
        argv += ["--stabilize", frac_list(stabilize), "--svg", str(svg_path)]
    report = expected_report(2, fixture, k, eps, stabilize)
    report["lambda"] = str(FIXTURE_STEP)
    report["provenance"] = {
        "source": "fixture-p2", "L": "4",
        "mu": [str(v) for v in eb.FIXTURE_P2_MU], "nu": [str(v) for v in eb.FIXTURE_P2_NU],
        "lambda": str(FIXTURE_STEP),
    }
    expected = dump(report)
    if not svg:
        return cli_op("cli.bounds.p2", argv, stdout_equals(expected), tmp)
    merged = pers.Barcode.empty()
    for bc in planted_family(fixture).values():
        merged = merged.union(bc)
    expected_svg = ser.barcode_svg(merged)

    def check(out: str) -> None:
        stdout_equals(expected)(out)
        expect(svg_path.read_text() == expected_svg, "SVG differs from the planted barcode")

    return cli_op("cli.bounds.p2.svg", argv, check, tmp)


def _report_op(rng, orbit_actions, p: int, n: int, mixed: bool, stab: bool) -> Op:
    acts = rng.sample(orbit_actions, n)
    degrees = [0] * n
    if mixed:
        for i in rng.sample(range(n), n // 2):
            degrees[i] = 1
    tuples = tuple(zip(acts, degrees))
    k = rng.randint(1, p + 1)
    eps = Fraction(1, rng.randint(20, 400))
    stabilize = None
    if stab:
        stabilize = [1, rng.randint(1, 2)] + ([1] if rng.random() < 0.5 else [])
    expected = expected_report(p, tuples, k, eps, stabilize)

    def run():
        model_input = mdl.ModelInput(p, tuples)
        return mdl.bounds_report(model_input, k=k, eps_frac=eps, stabilize=stabilize)

    def check(report):
        got = ser.bounds_report_to_obj(report)
        got.pop("lambda")
        expect(got == expected, f"report {got} != planted {expected}")

    kind = f"bounds_report.p{p}.n{n}" + (".mixed" if mixed else "") + (".stab" if stab else "")
    desc = f"{tuples} k={k} eps={eps} stabilize={stabilize}"
    return Op(kind, desc, run, check)


def _orbit_actions(rng, p: int, count: int) -> list[Fraction]:
    """Actions of `count` seeded sign vectors of a disjoint-prime orbit set."""
    mu, nu = disjoint_prime_coefficients(rng, p, numerators=False)
    params = eb.EggBeaterParams(p, 4, lattice_step(mu, nu), mu, nu)
    signs = rng.sample(list(eb.sign_vectors(p)), count)
    records = [eb.solve_signed(tuple(s), params) for s in signs]
    if not all(r.valid for r in records):
        raise RuntimeError(f"unvalidated orbit in the p={p} input set")
    return [r.action for r in records]


# (p, tuples, mixed degrees, stabilized) per bounds_report slot of a cycle
BOUNDS_LADDER = (
    (3, 4, False, False), (3, 8, True, True), (3, 12, False, True), (3, 16, False, False),
    (5, 4, False, True), (5, 6, True, False), (5, 8, False, False),
)


def build_bounds(seed: int, cycles: int, tmp: Path) -> Plan:
    fixture = _fixture_tuples()
    w = random.Random(f"bounds:{seed}:warmup")
    # bounds_report once per prime, at the smallest size of the ladder, with
    # mixed degrees and stabilization so that every code path of the ladder runs
    warmup = [_cli_bounds_op(w, tmp, "warm-a", False, fixture),
              _cli_bounds_op(w, tmp, "warm-b", True, fixture)]
    warmup += [_report_op(w, _orbit_actions(w, p, 8), p, 4, True, True) for p in (3, 5)]
    rng = random.Random(f"bounds:{seed}:ops")
    actions = {3: _orbit_actions(rng, 3, 64), 5: _orbit_actions(rng, 5, 64)}
    ops: list[Op] = []
    for c in range(cycles):
        ops.append(_cli_bounds_op(rng, tmp, f"c{c}a", False, fixture))
        ops.append(_cli_bounds_op(rng, tmp, f"c{c}b", True, fixture))
        ops += [_report_op(rng, actions[p], p, n, mixed, stab)
                for p, n, mixed, stab in BOUNDS_LADDER]
    return Plan(warmup, ops)


# -- invariants: Z_p modules --------------------------------------------------------


@dataclass
class Block:
    birth: Fraction
    death: Fraction | float
    cyclic: bool  # p-dimensional cyclic permutation, else a 1-dimensional scalar
    power: int  # the action is zeta^power times the permutation (or scalar)


def planted_module(p: int, blocks: list[Block]):
    """Direct sum of the blocks as a Z_p module, in the standard basis."""
    field = CyclotomicField(p)
    z, o = field.zero(), field.one()
    spectrum = sorted({b.birth for b in blocks} | {b.death for b in blocks if b.death != INF})
    m = len(spectrum)
    # block alive on constancy intervals lo..hi (interval i is (s_{i-1}, s_i])
    spans = [(spectrum.index(b.birth) + 1, spectrum.index(b.death) if b.death != INF else m)
             for b in blocks]
    size = [p if b.cyclic else 1 for b in blocks]
    alive = [[k for k, (lo, hi) in enumerate(spans) if lo <= i <= hi] for i in range(m + 1)]
    offsets = []
    for ks in alive:
        off, pos = {}, 0
        for k in ks:
            off[k] = pos
            pos += size[k]
        offsets.append((off, pos))
    transitions, action = [], []
    for i in range(m + 1):
        off, n = offsets[i]
        ent = [[z] * n for _ in range(n)]
        for k in alive[i]:
            scalar = cyclo_zeta(p, blocks[k].power)
            if blocks[k].cyclic:
                for j in range(p):
                    ent[off[k] + (j + 1) % p][off[k] + j] = scalar
            else:
                ent[off[k]][off[k]] = scalar
        action.append(ent)
        if i < m:
            nxt, n2 = offsets[i + 1]
            t = [[z] * n for _ in range(n2)]
            for k in alive[i]:
                if k in nxt:
                    for j in range(size[k]):
                        t[nxt[k] + j][off[k] + j] = o
            transitions.append(t)
    dims = [n for _, n in offsets]
    return field, spectrum, dims, transitions, action


def add_row(m: list[list], r: int, s: int, c, zero) -> None:
    """Row r += c * row s, in place (E m for E = I + c e_rs)."""
    m[r] = [x if y == zero else x + c * y for x, y in zip(m[r], m[s])]


def sub_col(m: list[list], r: int, s: int, c, zero) -> None:
    """Column s -= c * column r, in place (m E^-1 for E = I + c e_rs)."""
    for row in m:
        if row[r] != zero:
            row[s] = row[s] - c * row[r]


def conjugate(rng, field, dims, transitions, action) -> None:
    """Random change of basis on every constancy interval, in place: n
    elementary operations E = I +- e_rs, applied as E A E^-1 to the action,
    E T to the incoming and T E^-1 to the outgoing transition."""
    zero = field.zero()
    for i, n in enumerate(dims):
        if n < 2:
            continue
        for _ in range(n):
            r, s = rng.sample(range(n), 2)
            c = field.coerce(rng.choice((-1, 1)))
            add_row(action[i], r, s, c, zero)
            sub_col(action[i], r, s, c, zero)
            if i > 0:
                add_row(transitions[i - 1], r, s, c, zero)
            if i < len(transitions):
                sub_col(transitions[i], r, s, c, zero)


def planted_eigen_barcode(blocks: list[Block], zeta_index: int):
    """A cyclic block has a one-dimensional eigenspace for every p-th root;
    a scalar block only for its own."""
    return pers.Barcode.of([(pers.Bar(b.birth, b.death), 1, None) for b in blocks
                            if b.cyclic or b.power == zeta_index])


def planted_w_hat(blocks: list[Block]):
    lengths = [INF if b.death == INF else b.death - b.birth
               for b in blocks if b.cyclic or b.power != 0]
    return max(lengths) if lengths else Fraction(0)


def planted_verdict(barcode, p: int) -> str:
    bars = barcode.bars()
    births = sorted({b.birth for b in bars})
    rights = sorted({b.death for b in bars if b.finite}) + [INF]
    for x in births:
        for y in rights:
            if x < y and sum(1 for b in bars if b.birth <= x and b.death >= y) % p:
                return "FAIL"
    return "PASS"


# (p, cyclic blocks, scalar blocks) per module slot of a cycle
MODULE_SHAPES = ((2, 2, 2), (3, 2, 1), (5, 1, 2))


def _module_ops(rng, tmp: Path, tag: str, p: int, n_cyclic: int, n_scalar: int) -> list[Op]:
    n = n_cyclic + n_scalar
    ends = sorted(rng.sample(range(-40, 40), 2 * n))
    kinds = [True] * n_cyclic + [False] * n_scalar
    rng.shuffle(kinds)
    blocks = []
    for k in range(n):  # staircase: every block overlaps every other one
        death = INF if k == n - 1 and rng.random() < 0.3 else Fraction(ends[k + n], 2)
        power = rng.randrange(p) if (not kinds[k] or rng.random() < 0.4) else 0
        blocks.append(Block(Fraction(ends[k], 2), death, kinds[k], power))
    field, spectrum, dims, transitions, action = planted_module(p, blocks)
    conjugate(rng, field, dims, transitions, action)
    transitions = tuple(Matrix.from_rows(field, t) if t else Matrix.zeros(field, 0, dims[i])
                        for i, t in enumerate(transitions))
    action = tuple(Matrix.from_rows(field, a) if a else Matrix.zeros(field, 0, 0)
                   for a in action)
    base = pers.FinitePersistenceModule(field, tuple(spectrum), tuple(dims), transitions)
    obj = ser.module_to_obj(base)
    obj.update(p=p, degree=0, action=[ser.matrix_to_obj(a) for a in action])
    text = json.dumps(obj, sort_keys=True)
    path = tmp / f"{tag}.json"
    path.write_text(text)
    desc = hashlib.sha256(text.encode()).hexdigest()

    roots = range(1, p)
    mu_expected = max(eqv.mu_from_barcode(planted_eigen_barcode(blocks, j), p) for j in roots)
    w_expected = planted_w_hat(blocks)
    zi = rng.randrange(1, p)
    bc = planted_eigen_barcode(blocks, zi)
    verdict = planted_verdict(planted_eigen_barcode(blocks, 1), p)
    report = dump({
        "zeta_index": zi,
        "barcode": ser.barcode_to_obj(bc),
        "mu_p_zeta": ser.frac_str(eqv.mu_from_barcode(bc, p)),
        "mu_p": ser.frac_str(mu_expected),
        "w_hat": ser.frac_str(w_expected),
        "verdict": planted_verdict(bc, p),
    })

    def equals(expected, what):
        def check(got):
            expect(got == expected, f"{what} {got} != planted {expected}")
        return check

    slot: dict = {}

    def build():  # validates the order-p action and its commutation
        slot["module"] = None
        slot["module"] = eqv.ZpPersistenceModule(p, base, action)
        return slot["module"]

    def check_build(module):
        expect(module.base is base and module.action == action, "module was altered")

    def on_module(fn):
        def run():
            if slot.get("module") is None:
                raise RuntimeError("no module: its construction failed")
            return fn(slot["module"])
        return run

    return [
        Op(f"zp_module.p{p}", desc, build, check_build),
        Op(f"mu_p.p{p}", desc, on_module(lambda m: eqv.mu_p(m)), equals(mu_expected, "mu_p")),
        Op(f"w_hat.p{p}", desc, on_module(lambda m: eqv.w_hat(m)), equals(w_expected, "w_hat")),
        Op(f"w_hat_from_quotient.p{p}", desc, on_module(lambda m: eqv.w_hat_from_quotient(m)),
           equals(w_expected, "w_hat_from_quotient")),
        Op(f"full_power_check.p{p}", desc,
           on_module(lambda m: eqv.full_power_check(m, cyclo_zeta(p, 1))),
           equals(verdict, "verdict")),
        cli_op(f"cli.barcode_mu.p{p}", ["barcode", "mu", str(path), "--zeta-index", str(zi)],
               stdout_equals(report), tmp, desc),
    ]


# -- invariants: filtered complexes over Q ----------------------------------------


def _complex_ops(rng, tmp: Path, tag: str, pieces: int) -> list[Op]:
    """Lone generators and killing pairs with distinct births on a grid of
    step 10, mixed by a random filtration-preserving change of basis."""
    births = rng.sample(range(-60, 60), pieces)
    gens: list[tuple[Fraction, int]] = []
    edges: list[tuple[int, int, int]] = []
    bars = []
    for b in births:
        low, deg = Fraction(10 * b), rng.randint(0, 2)
        gens.append((low, deg))
        if rng.random() < 0.4:
            bars.append((pers.Bar(low, INF), 1, deg))
            continue
        high = low + 10 * rng.randint(1, 6)
        gens.append((high, deg + 1))
        edges.append((len(gens) - 2, len(gens) - 1, rng.choice((1, -1, 2))))
        bars.append((pers.Bar(low, high), 1, deg))
    n = len(gens)
    z = Fraction(0)
    d = [[z] * n for _ in range(n)]
    for i, j, v in edges:
        d[i][j] = Fraction(v)
    # E = I + c e_rs with gens r, s in one degree and r of lower action
    # sends e_s to e_s + c e_r, so it preserves the filtration
    movable = [(r, s) for s in range(n) for r in range(n)
               if gens[r][1] == gens[s][1] and gens[r][0] < gens[s][0]]
    for _ in range(2 * n if movable else 0):
        r, s = rng.choice(movable)
        c = Fraction(rng.choice((-2, -1, 1, 2)))
        add_row(d, r, s, c, z)
        sub_col(d, r, s, c, z)
    cx = pers.FilteredComplex(QQ_FIELD, tuple(gens), Matrix.from_rows(QQ_FIELD, d))
    barcode = pers.Barcode.of(bars)
    desc = json.dumps(ser.complex_to_obj(cx), sort_keys=True)

    # right barcode: every endpoint moved by at most 1; births lie 10 apart
    # and bars are longer than 2, so the identity matching is optimal
    shifted, worst = [], Fraction(0)
    for bar, _, deg in barcode.items:
        db = Fraction(rng.randint(-8, 8), 8)
        dd = Fraction(rng.randint(-8, 8), 8) if bar.finite else Fraction(0)
        worst = max(worst, abs(db), abs(dd))
        shifted.append((pers.Bar(bar.birth + db, bar.death + dd if bar.finite else INF), 1, deg))
    left, right = tmp / f"{tag}-left.json", tmp / f"{tag}-right.json"
    left.write_text(ser.barcode_to_json(barcode))
    right.write_text(ser.barcode_to_json(pers.Barcode.of(shifted)))

    a, b, c = sorted(10 * x + 5 for x in rng.sample(range(-62, 66), 3))

    def check_barcode(got):
        expect(got == barcode, "complex barcode differs from the planted pairs")

    def check_les(ok):
        expect(ok is True, "long exact sequence is not exact")

    return [
        Op("barcode_of_complex", desc, lambda: pers.barcode_of_complex(cx), check_barcode),
        cli_op("cli.barcode_bottleneck", ["barcode", "bottleneck", str(left), str(right)],
               stdout_equals(dump({"bottleneck": ser.frac_str(worst)})), tmp,
               left.read_text() + right.read_text()),
        Op("les_check", f"{desc} windows={a},{b},{c}",
           lambda: pers.les_check(cx, a, b, c), check_les),
    ]


# -- invariants: Z_2-equivariant complexes ------------------------------------------


def _spread_op(rng, tmp: Path, tag: str, blocks: int, unkilled: bool) -> Op:
    """Swapped pairs killed at a gap D, fixed lone generators and fixed
    killing pairs; the spread is the largest D.  With `unkilled` the first
    swapped pair has no killer, so the spread is +inf."""
    gens: list[tuple[Fraction, int]] = []
    bnd: dict = {}
    chain: dict = {}
    spread: Fraction | float = Fraction(0)
    actions = rng.sample(range(-80, 80), blocks)
    for k, a in enumerate(actions):
        act = Fraction(a, 2)
        i = len(gens)
        if k % 3 == 0:  # swapped pair, killed by an antisymmetric generator at a gap
            gens += [(act, 0), (act, 0)]
            chain[(i, i + 1)] = chain[(i + 1, i)] = 1
            if unkilled and k == 0:
                spread = INF
                continue
            gap = Fraction(rng.randint(1, 12), rng.choice((1, 2)))
            gens.append((act + gap, 1))
            chain[(i + 2, i + 2)] = -1
            bnd[(i, i + 2)], bnd[(i + 1, i + 2)] = 1, -1
            spread = max(spread, gap)
        elif k % 3 == 1:  # fixed lone generator
            gens.append((act, rng.randint(0, 1)))
            chain[(i, i)] = 1
        else:  # fixed killing pair
            gens += [(act, 0), (act + rng.randint(1, 5), 1)]
            chain[(i, i)] = chain[(i + 1, i + 1)] = 1
            bnd[(i, i + 1)] = rng.choice((1, -1))
    n = len(gens)

    def matrix(entries):
        return [[ser.frac_str(entries.get((i, j), 0)) for j in range(n)] for i in range(n)]

    obj = {"p": 2, "complex": {"field": "Q", "generators": [
        {"action": ser.frac_str(a), "degree": d} for a, d in gens], "boundary": matrix(bnd)},
        "chain_map": matrix(chain)}
    text = json.dumps(obj, sort_keys=True)
    path = tmp / f"{tag}.json"
    path.write_text(text)
    expected = {"w_spread": ser.frac_str(spread)}
    if spread == INF:
        expected["note"] = "model-degenerate, use spread_lower_bound_from_gaps"
        pairs = [abs(g[0] - h[0]) for i, g in enumerate(gens) for h in gens[i + 1:]
                 if abs(g[1] - h[1]) == 1]
        expected["spread_lower_bound_from_gaps"] = ser.frac_str(min(pairs) if pairs else INF)
    return cli_op("cli.spread", ["spread", str(path)], stdout_equals(dump(expected)), tmp, text)


def build_invariants(seed: int, cycles: int, tmp: Path) -> Plan:
    w = random.Random(f"invariants:{seed}:warmup")
    warmup = [op for p in (2, 3, 5) for op in _module_ops(w, tmp, f"warm-m{p}", p, 1, 1)]
    warmup += [*_complex_ops(w, tmp, "warm-c", 3), _spread_op(w, tmp, "warm-s", 3, False)]
    rng = random.Random(f"invariants:{seed}:ops")
    ops: list[Op] = []
    for c in range(cycles):
        for p, n_cyclic, n_scalar in MODULE_SHAPES:
            ops += _module_ops(rng, tmp, f"c{c}-m{p}", p, n_cyclic, n_scalar)
        for j in range(2):
            ops += _complex_ops(rng, tmp, f"c{c}-c{j}", 30)
        for j in range(4):
            ops.append(_spread_op(rng, tmp, f"c{c}-s{j}", 10, unkilled=False))
        ops.append(_spread_op(rng, tmp, f"c{c}-s4", 12, unkilled=True))
    return Plan(warmup, ops)


BUILDERS = {"orbits": build_orbits, "bounds": build_bounds, "invariants": build_invariants}


def build(workload: str, seed: int, cycles: int, tmp: Path) -> Plan:
    """The workload's warm-up and `cycles` operation cycles; input files go to `tmp`."""
    tmp.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, cycles, tmp)
