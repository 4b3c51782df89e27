"""Shared randomized fixtures and the test oracles of the library.

The seed comes from EGB_SEED (default 0) so failures reproduce exactly.
"""

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from egb.equivariant import (
    EquivariantComplex,
    ZpPersistenceModule,
    _SpreadWindow,
    cyclic_permutation_matrix,
    cyclic_tuple_module,
    zp_direct_sum,
)
from egb.eggbeater import _eps, leading_sum, sign_vectors
from egb.field import CyclotomicField, Matrix, RationalField, cyclo_zeta
from egb.freegroup import A_, B_, Word
from egb.model import ModelInput
from egb.persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    Interval,
    _extend_basis,
    _reindex,
    homology_basis,
    induced_homology_rank,
    is_inf,
    multiplicity,
    window_complex,
)
from egb.field import QQ_FIELD
from egb.serialize import frac_str


SEED = int(os.environ.get("EGB_SEED", "0"))


@pytest.fixture
def rng():
    return random.Random(SEED)


def count_calls(monkeypatch, cls, name: str) -> list:
    """Record each call of cls.name (its positional arguments) in a list."""
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def rand_frac(rng, lo=-8, hi=8, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_barcode(rng, max_bars=4, allow_infinite=True, max_mult=3) -> Barcode:
    entries = []
    for _ in range(rng.randint(0, max_bars)):
        birth = rand_frac(rng)
        if allow_infinite and rng.random() < 0.25:
            death = INF
        else:
            death = birth + Fraction(rng.randint(1, 10), rng.randint(1, 2))
        entries.append((Bar(birth, death), rng.randint(1, max_mult), None))
    return Barcode.of(entries)


def scalar_interval_module(p: int, birth, death, zeta_power: int) -> ZpPersistenceModule:
    """One generator on (birth, death] with the action zeta^k."""
    field = CyclotomicField(p)
    scalar = cyclo_zeta(p, zeta_power)
    one_by_one = Matrix.from_rows(field, [[scalar]])
    empty = Matrix.zeros(field, 0, 0)
    birth = Fraction(birth)
    if death == INF:
        base = FinitePersistenceModule(
            field, (birth,), (0, 1), (Matrix.zeros(field, 1, 0),)
        )
        return ZpPersistenceModule(p, base, (empty, one_by_one))
    death = Fraction(death)
    base = FinitePersistenceModule(
        field, (birth, death), (0, 1, 0),
        (Matrix.zeros(field, 1, 0), Matrix.zeros(field, 0, 1)),
    )
    return ZpPersistenceModule(p, base, (empty, one_by_one, empty))


def _unitriangular(rng, field, n: int) -> Matrix:
    """Random invertible matrix: product of unit lower- and upper-triangular
    matrices with small integer entries."""
    z, o = field.zero(), field.one()
    lower = [[o if i == j else z for j in range(n)] for i in range(n)]
    upper = [[o if i == j else z for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j and rng.random() < 0.5:
                lower[i][j] = field.coerce(rng.randint(-2, 2))
            if i < j and rng.random() < 0.5:
                upper[i][j] = field.coerce(rng.randint(-2, 2))
    return Matrix.from_rows(field, lower) @ Matrix.from_rows(field, upper)


def conjugate_module(rng, module: ZpPersistenceModule) -> ZpPersistenceModule:
    """Isomorphic module with dense matrices: per-interval change of basis."""
    field = module.field
    s_mats = [_unitriangular(rng, field, d) for d in module.base.dims]
    s_invs = [s.inverse() for s in s_mats]
    transitions = tuple(
        s_mats[i + 1] @ t @ s_invs[i] for i, t in enumerate(module.base.transitions)
    )
    action = tuple(s_mats[i] @ a @ s_invs[i] for i, a in enumerate(module.action))
    base = FinitePersistenceModule(
        field, module.base.spectrum, module.base.dims, transitions
    )
    return ZpPersistenceModule(module.p, base, action, degree=module.degree)


def random_zp_module(rng, p: int, max_blocks: int = 4, conjugate: bool = True,
                     allow_infinite: bool = True) -> ZpPersistenceModule:
    """Random direct sum of scalar interval blocks and (twisted) cyclic tuple
    blocks, optionally put in a random basis."""
    blocks = []
    for _ in range(rng.randint(1, max_blocks)):
        birth = rand_frac(rng, -6, 6, 3)
        if allow_infinite and rng.random() < 0.2:
            death = INF
        else:
            death = birth + Fraction(rng.randint(1, 9), rng.randint(1, 2))
        if rng.random() < 0.5:
            blocks.append(scalar_interval_module(p, birth, death, rng.randrange(p)))
        else:
            tup = cyclic_tuple_module(birth, p, death=death)
            if rng.random() < 0.4:  # twist by a scalar root: still order p
                field = tup.field
                scalar = cyclo_zeta(p, rng.randrange(1, p))
                action = tuple(
                    a.scale(scalar) if a.rows else a for a in tup.action
                )
                tup = ZpPersistenceModule(p, tup.base, action)
            blocks.append(tup)
    module = blocks[0]
    for b in blocks[1:]:
        module = zp_direct_sum(module, b)
    if conjugate:
        module = conjugate_module(rng, module)
    return module


def random_filtered_complex(rng, field=QQ_FIELD, max_pieces: int = 4,
                            mix: bool = True) -> FilteredComplex:
    """Direct sum of lone generators and killing pairs, then a random
    filtration-respecting change of basis."""
    gens: list[tuple[Fraction, int]] = []
    cols: dict[int, dict[int, object]] = {}
    for _ in range(rng.randint(1, max_pieces)):
        deg = rng.randint(0, 2)
        if rng.random() < 0.45:
            gens.append((rand_frac(rng, -6, 6, 2), deg))
        else:
            low = rand_frac(rng, -6, 6, 2)
            high = low + Fraction(rng.randint(1, 8), rng.randint(1, 2))
            i_low = len(gens)
            gens.append((low, deg))
            i_high = len(gens)
            gens.append((high, deg + 1))
            cols[i_high] = {i_low: field.coerce(rng.choice([1, -1, 2]))}
    n = len(gens)
    z = field.zero()
    ent = [[z] * n for _ in range(n)]
    for j, col in cols.items():
        for i, v in col.items():
            ent[i][j] = v
    boundary = Matrix.from_rows(field, ent) if n else Matrix.zeros(field, 0, 0)
    cx = FilteredComplex(field, tuple(gens), boundary)
    if not mix or n == 0:
        return cx
    # change of basis I + N with N strictly action-decreasing, degree-preserving
    s_ent = [[field.one() if i == j else z for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(n):
            if gens[i][1] == gens[j][1] and gens[i][0] < gens[j][0] and rng.random() < 0.4:
                s_ent[i][j] = field.coerce(rng.randint(-2, 2))
    s = Matrix.from_rows(field, s_ent)
    new_boundary = s @ cx.boundary @ s.inverse()
    return FilteredComplex(field, tuple(gens), new_boundary)


def random_equivariant_complex(rng, p: int, field=QQ_FIELD, max_blocks: int = 3) -> EquivariantComplex:
    """Random direct sum of equivariant blocks, in a random basis.

    Blocks: cyclic p-blocks (T permutes p generators), either unkilled,
    killed by a cyclic p-block one degree up through a polynomial in the
    permutation, or (at p = 2) killed by one antisymmetric generator;
    zeta^e-scalar generators (over Q(zeta_p) only) with an optional zeta^e
    killer; fixed lone generators and fixed killing pairs.  The change of
    basis is block diagonal on the (action, degree) classes, so T still
    preserves action and degree.
    """
    gens: list[tuple[Fraction, int]] = []
    bnd: dict[tuple[int, int], object] = {}
    chain: dict[tuple[int, int], object] = {}
    perm = cyclic_permutation_matrix(field, p).entries

    def add(act, deg, count):
        start = len(gens)
        gens.extend([(act, deg)] * count)
        return start

    kinds = ["cyclic", "lone", "pair"] + (["scalar"] if isinstance(field, CyclotomicField) else [])
    for _ in range(rng.randint(1, max_blocks)):
        act = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        deg = rng.randint(0, 1)
        gap = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
        kind = rng.choice(kinds)
        if kind == "cyclic":
            e = add(act, deg, p)
            for i in range(p):
                for j in range(p):
                    if perm[i][j]:
                        chain[(e + i, e + j)] = perm[i][j]
            killer = rng.choice(["none", "block"] + (["antisymmetric"] if p == 2 else []))
            if killer == "block":
                f = add(act + gap, deg + 1, p)
                for i in range(p):
                    for j in range(p):
                        if perm[i][j]:
                            chain[(f + i, f + j)] = perm[i][j]
                # boundary sum_m c_m P^m commutes with the permutation P
                coeffs = [rng.randint(-1, 2) for _ in range(p)]
                if not any(coeffs):
                    coeffs[0] = 1
                for j in range(p):
                    for m, c in enumerate(coeffs):
                        if c:
                            i = (j + m) % p
                            bnd[(e + i, f + j)] = bnd.get((e + i, f + j), 0) + c
            elif killer == "antisymmetric":
                f = add(act + gap, deg + 1, 1)
                chain[(f, f)] = -1
                bnd[(e, f)], bnd[(e + 1, f)] = 1, -1
        elif kind == "scalar":
            zeta = cyclo_zeta(p, rng.randrange(1, p))
            e = add(act, deg, 1)
            chain[(e, e)] = zeta
            if rng.random() < 0.5:
                f = add(act + gap, deg + 1, 1)
                chain[(f, f)] = zeta
                bnd[(e, f)] = rng.choice((1, -1, 2))
        elif kind == "lone":
            e = add(act, deg, 1)
            chain[(e, e)] = 1
        else:
            e = add(act, deg, 1)
            f = add(act + gap, deg + 1, 1)
            chain[(e, e)] = chain[(f, f)] = 1
            bnd[(e, f)] = rng.choice((1, -1, 2))
    n = len(gens)

    def matrix(entries):
        z = field.zero()
        return Matrix.from_rows(field, [[field.coerce(entries[(i, j)]) if (i, j) in entries else z
                                         for j in range(n)] for i in range(n)])

    # change of basis, block diagonal on the (action, degree) classes
    classes: dict[tuple[Fraction, int], list[int]] = {}
    for i, g in enumerate(gens):
        classes.setdefault(g, []).append(i)
    change: dict[tuple[int, int], object] = {}
    for members in classes.values():
        block = _unitriangular(rng, field, len(members))
        for r, i in enumerate(members):
            for c, j in enumerate(members):
                change[(i, j)] = block.entries[r][c]
    m = matrix(change)
    m_inv = m.inverse()
    cx = FilteredComplex(field, tuple(gens), m @ matrix(bnd) @ m_inv)
    return EquivariantComplex(p, cx, m @ matrix(chain) @ m_inv)


def _gaps(spectrum: list[Fraction]):
    """Open gaps between spectrum values, with representatives and endpoints
    (inf endpoints for the unbounded gaps)."""
    gaps = []
    if not spectrum:
        return [((-INF), INF, Fraction(0))]
    lo = spectrum[0]
    gaps.append((-INF, lo, lo - 1))
    for a, b in zip(spectrum, spectrum[1:]):
        gaps.append((a, b, (a + b) / 2))
    gaps.append((spectrum[-1], INF, spectrum[-1] + 1))
    return gaps


def _sub(x, y):
    """x - y with the infinite endpoints used by the gap scan."""
    if is_inf(x) and is_inf(y):
        raise ValueError("inf - inf in gap arithmetic")
    if is_inf(x):
        return INF
    if isinstance(y, float) and y == -INF:
        return INF
    if is_inf(y):
        return -INF
    return x - y


def scan_w_spread(equivariant: EquivariantComplex) -> Fraction | float:
    """Window-scan oracle for `w_spread`: rank tests over pairs of windows.

    Windows are scanned up to the gaps their endpoints lie in; for a fixed
    gap assignment (a in G_i1, b in G_j1, a+d in G_i2, b+d in G_j2) the map
    is constant and the feasible d form an interval whose supremum is
    min(sup G_i2 - inf G_i1, sup G_j2 - inf G_j1).  O(g^4) window pairs,
    each tested by a fresh rank computation.
    """
    cx = equivariant.complex
    s_mat = equivariant.chain_map - Matrix.identity(cx.field, len(cx.generators))
    if s_mat.is_zero():
        return Fraction(0)
    gaps = _gaps(cx.spectrum())
    g = len(gaps)
    windows: dict[tuple[int, int], _SpreadWindow] = {}

    def window(i: int, j: int) -> _SpreadWindow:
        if (i, j) not in windows:
            windows[(i, j)] = _SpreadWindow(cx, gaps[i][2], gaps[j][2])
        return windows[(i, j)]

    best: Fraction | float = Fraction(0)
    for i1 in range(g):
        for j1 in range(i1 + 1, g):
            src = window(i1, j1)
            if not src.keep:
                continue
            s_images = src.apply_chain_map(s_mat)
            if not any(x for images in s_images.values() for v in images for x in v):
                continue
            for i2 in range(i1, g):
                for j2 in range(j1, g):
                    if i2 >= j2:
                        continue
                    lo = max(
                        _sub(gaps[i2][0], gaps[i1][1]),
                        _sub(gaps[j2][0], gaps[j1][1]),
                        Fraction(0),
                    )
                    hi = min(_sub(gaps[i2][1], gaps[i1][0]), _sub(gaps[j2][1], gaps[j1][0]))
                    if not lo < hi:
                        continue  # no common shift d lands both endpoints
                    if not is_inf(hi) and hi <= best:
                        continue
                    if src.induced_nonzero(s_images, window(i2, j2)):
                        if is_inf(hi):
                            return INF
                        best = max(best, hi)
    return best


def gap_cuts(complex_: FilteredComplex) -> list[Fraction]:
    """One cut inside every gap of the action spectrum, the unbounded gaps included."""
    return [rep for _, _, rep in _gaps(complex_.spectrum())]


# -- module barcode oracle ---------------------------------------------------


def barcode_of_module_oracle(module: FinitePersistenceModule) -> Barcode:
    """Rank inclusion-exclusion oracle of `barcode_of_module`.

    A bar (s_{u-1}, s_v] lives on constancy intervals u..v; its multiplicity
    is r(u,v) - r(u-1,v) - r(u,v+1) + r(u-1,v+1), where r is the composite
    rank of `FinitePersistenceModule.rank_table`.
    """
    m = len(module.spectrum)
    r = module.rank_table()

    def rk(u: int, v: int) -> int:
        return r[u][v] if u >= 0 else 0

    entries = []
    for u in range(1, m + 1):  # bar born at spectrum[u-1]
        birth = module.spectrum[u - 1]
        for v in range(u, m + 1):  # bar dying at spectrum[v], or never (v == m)
            later = rk(u, v + 1) - rk(u - 1, v + 1) if v < m else 0
            mult = rk(u, v) - rk(u - 1, v) - later
            assert mult >= 0, "negative multiplicity: invalid persistence module"
            if mult > 0:
                death = module.spectrum[v] if v < m else INF
                entries.append((Bar(birth, death), mult, None))
    return Barcode.of(entries)


# -- spread oracles ----------------------------------------------------------


def births(barcode: Barcode) -> list[Fraction]:
    return sorted({bar.birth for bar, _, _ in barcode.items})


def finite_deaths(barcode: Barcode) -> list[Fraction]:
    return sorted({bar.death for bar, _, _ in barcode.items if bar.finite})


def _candidate_intervals(barcode: Barcode):
    """(interval, multiplicity) over the candidate grid births x (finite
    deaths + inf), the intervals on which mu and the full-power verdict are
    decided."""
    rights = finite_deaths(barcode) + [INF]
    for x in births(barcode):
        for y in rights:
            if x < y:
                interval = Interval(x, y)
                yield interval, multiplicity(barcode, interval)


def mu_from_barcode_oracle(barcode: Barcode, p: int) -> Fraction | float:
    """Grid oracle of `mu_from_barcode`: every candidate interval of the
    births x (deaths + inf) grid recounts its multiplicity and scans every
    bar for the least c at which an excluded bar swallows its 2c-shrink."""
    best: Fraction | float = Fraction(0)
    for interval, inside in _candidate_intervals(barcode):
        if inside % p == 0:
            continue
        x, y = interval.left, interval.right
        horizon: Fraction | float = INF
        for bar, m, _ in barcode.items:
            if bar.contains(interval):
                continue
            need_left = (bar.birth - x) / 2 if bar.birth > x else Fraction(0)
            if is_inf(y):
                if bar.finite:
                    continue  # finite bar can never contain (x+2c, inf)
                threshold = need_left
            else:
                need_right = (
                    (y - bar.death) / 2 if bar.finite and bar.death < y else Fraction(0)
                )
                threshold = max(need_left, need_right)
            horizon = min(horizon, threshold)
        budget = INF if is_inf(y) else (y - x) / 4
        value = min(budget, horizon)
        if value > best:
            best = value
    return best


def full_power_verdict_oracle(barcode: Barcode, p: int) -> str:
    """Grid oracle of `full_power_verdict`: FAIL iff some candidate-interval
    multiplicity, recounted over every bar, is not divisible by p."""
    return "FAIL" if any(m % p for _, m in _candidate_intervals(barcode)) else "PASS"


# -- window homology oracles -------------------------------------------------


def window_homology_oracle(complex_: FilteredComplex, a, b, r: int):
    """Elimination oracle of `window_homology`: the window complex, a kernel
    basis of its degree-r boundary, and the cycles that extend a basis of
    the boundaries."""
    keep, wc = window_complex(complex_, a, b)
    idx_r, cycles, d_rp1 = homology_basis(wc, r)
    if not idx_r:
        return 0, [], []
    boundaries = [d_rp1.column(j) for j in range(d_rp1.cols)]
    chosen = _extend_basis(complex_.field, boundaries, cycles, len(idx_r))
    return len(chosen), chosen, [keep[i] for i in idx_r]


def _connecting(complex_: FilteredComplex, vec: tuple, src_glob: list[int],
                dst_glob: list[int]) -> tuple:
    """Connecting map: lift, apply the full boundary, restrict to the target."""
    field = complex_.field
    look = {g: i for i, g in enumerate(dst_glob)}
    out = [field.zero()] * len(dst_glob)
    for i, g in enumerate(src_glob):
        v = vec[i]
        if not v:
            continue
        for h in range(len(complex_.generators)):
            e = complex_.boundary.entries[h][g]
            if e and h in look:
                out[look[h]] = out[look[h]] + v * e
    return tuple(out)


def les_check_oracle(complex_: FilteredComplex, a, b, c) -> bool:
    """Elimination oracle of `les_check`: a window complex per window, and
    kernels and echelons per window and degree for every induced rank."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not a < b < c:
        raise ValueError("need a < b < c")
    field = complex_.field
    windows = {w: window_complex(complex_, *w) for w in ((a, b), (a, c), (b, c))}
    cache: dict = {}

    def at(w, r):
        """(global generator indices, cycle basis, boundary matrix) in degree r."""
        if (w, r) not in cache:
            keep, wc = windows[w]
            idx_r, cycles, d_rp1 = homology_basis(wc, r)
            cache[(w, r)] = ([keep[i] for i in idx_r], cycles, d_rp1)
        return cache[(w, r)]

    def dim(w, r):
        glob, cycles, bnd = at(w, r)
        return induced_homology_rank(field, cycles, cycles, bnd, len(glob))

    if not complex_.generators:
        return True
    degs = sorted({d for _, d in complex_.generators})
    ab, ac, bc = (a, b), (a, c), (b, c)
    ok = True
    for r in range(degs[0] - 1, degs[-1] + 2):
        g_ab, z_ab, b_ab = at(ab, r)
        g_ac, z_ac, b_ac = at(ac, r)
        g_bc, z_bc, b_bc = at(bc, r)
        g_ab1, z_ab1, b_ab1 = at(ab, r - 1)
        g_ac1, z_ac1, b_ac1 = at(ac, r - 1)

        # j1: inclusion (a,b) -> (a,c); j2: projection (a,c) -> (b,c);
        # delta: (b,c) -> (a,b) in degree r-1
        img_j1 = _reindex(field, z_ab, g_ab, g_ac)
        img_j2 = _reindex(field, z_ac, g_ac, g_bc)
        img_delta = [_connecting(complex_, z, g_bc, g_ab1) for z in z_bc]
        img_j2j1 = _reindex(field, img_j1, g_ac, g_bc)
        img_dj2 = [_connecting(complex_, v, g_bc, g_ab1) for v in img_j2]
        img_j1d = _reindex(field, img_delta, g_ab1, g_ac1)

        r_j1 = induced_homology_rank(field, z_ab, img_j1, b_ac, len(g_ac))
        r_j2 = induced_homology_rank(field, z_ac, img_j2, b_bc, len(g_bc))
        r_delta = induced_homology_rank(field, z_bc, img_delta, b_ab1, len(g_ab1))

        if induced_homology_rank(field, z_ab, img_j2j1, b_bc, len(g_bc)) != 0:
            ok = False  # j2 . j1 != 0
        if induced_homology_rank(field, z_ac, img_dj2, b_ab1, len(g_ab1)) != 0:
            ok = False  # delta . j2 != 0
        if induced_homology_rank(field, z_bc, img_j1d, b_ac1, len(g_ac1)) != 0:
            ok = False  # j1 . delta != 0
        if r_j1 + r_j2 != dim(ac, r):
            ok = False  # exactness at H_r(a,c)
        if r_j2 + r_delta != dim(bc, r):
            ok = False  # exactness at H_r(b,c)
        # exactness at H_{r-1}(a,b) uses delta from degree r and j1 at r-1
        img_j1_down = _reindex(field, z_ab1, g_ab1, g_ac1)
        r_j1_down = induced_homology_rank(field, z_ab1, img_j1_down, b_ac1, len(g_ac1))
        if r_delta + r_j1_down != dim(ab, r - 1):
            ok = False
    return ok


# -- egg-beater oracles ------------------------------------------------------


def block_parabolic_factors(j: int, signs: tuple[int, ...], lam) -> tuple[Matrix, Matrix]:
    lam = Fraction(lam)
    e1 = _eps(signs, 2 * j + 1)
    e4 = _eps(signs, 2 * j + 4)
    upper = Matrix.from_rows(QQ_FIELD, [[1, -e4 * lam], [0, 1]])
    lower = Matrix.from_rows(QQ_FIELD, [[1, 0], [-e1 * lam, 1]])
    return upper, lower


def eps_bar(signs: tuple[int, ...]) -> int:
    prod = 1
    for s in signs:
        prod *= s
    return prod


def asymptotic_limit(signs: tuple[int, ...], mu, nu) -> tuple[Fraction, Fraction]:
    """Large-lambda limit (eps_1 (1 - mu_1), eps_2 (1 - nu_p)) of the base point."""
    mu = tuple(Fraction(v) for v in mu)
    nu = tuple(Fraction(v) for v in nu)
    return (_eps(signs, 1) * (1 - mu[0]), _eps(signs, 2) * (1 - nu[-1]))


def min_leading_gap(p: int, mu, nu) -> Fraction:
    """Minimum pairwise distance of the leading coefficient sums (per lam/2)."""
    sums = sorted(leading_sum(tuple(s), mu, nu) for s in sign_vectors(p))
    gaps = [b - a for a, b in zip(sums, sums[1:])]
    return min(gaps) if gaps else Fraction(0)


# -- record output oracles ---------------------------------------------------------


def _frac_or_none(x):
    return None if x is None else frac_str(x)


def record_to_obj(r) -> dict:
    """The JSON object of one egg-beater record: `frac_str` of every
    coordinate, the start point and the odd points read from the record."""
    point = r.point
    return {
        "signs": r.label(),
        "valid": r.valid,
        "rejection_reason": r.reason,
        "x0": frac_str(point[0]) if point else None,
        "y0": frac_str(point[1]) if point else None,
        "even_points": [[frac_str(x), frac_str(y)] for x, y in r.even_points],
        "odd_points": [[frac_str(x), frac_str(y)] for x, y in r.odd_points],
        "action_exact": _frac_or_none(r.action),
        "action_leading": frac_str(r.action_leading),
        "det": frac_str(r.det),
        "kink_distance": _frac_or_none(r.kink_distance),
    }


def records_to_csv(objs) -> str:
    """CSV rows of records already formatted by `record_to_obj`."""
    lines = ["signs,x0,y0,action_exact,action_leading,det,valid,rejection_reason"]
    for o in objs:
        reason = (o["rejection_reason"] or "").replace(",", ";")
        lines.append(
            f"{o['signs']},{o['x0'] or ''},{o['y0'] or ''},{o['action_exact'] or ''},"
            f"{o['action_leading']},{o['det']},{str(o['valid']).lower()},{reason}"
        )
    return "\n".join(lines) + "\n"


# -- free-group oracles --------------------------------------------------------


def rotations(word: Word) -> list[Word]:
    w = word.letters
    return [Word(w[i:] + w[:i]) for i in range(max(len(w), 1))]


def alpha_word(windings_v, windings_h) -> Word:
    """a^{m_1} b^{n_1} ... a^{m_p} b^{n_p} directly (oracle for the itinerary route)."""
    letters: list[int] = []
    for m, n in zip(windings_v, windings_h):
        letters.extend([A_] * m)
        letters.extend([B_] * n)
    return Word(tuple(letters))


# -- model oracle ----------------------------------------------------------------


def build_model(model_input: ModelInput) -> ZpPersistenceModule:
    """Dense oracle of `eigenspace_family`: the direct sum of one cyclic tuple
    module per tuple, deaths at +inf, assembled in one pass (p new generators
    appear at each action value)."""
    if not model_input.tuples:
        raise ValueError("model needs at least one tuple")
    p = model_input.p
    field = CyclotomicField(p)
    spectrum = tuple(model_input.actions())
    m = len(spectrum)
    dims = tuple(p * i for i in range(m + 1))
    z, o = field.zero(), field.one()
    transitions = []
    for i in range(m):
        # inclusion of the alive generators; the p newborn rows are zero
        ent = [[o if r == c else z for c in range(dims[i])] for r in range(dims[i])]
        ent.extend([[z] * dims[i] for _ in range(p)])
        transitions.append(Matrix.from_rows(field, ent))
    cyc = cyclic_permutation_matrix(field, p)
    action = []
    for i in range(m + 1):
        blocks = i  # tuples alive on constancy interval i
        n = p * blocks
        ent = [[z] * n for _ in range(n)]
        for b in range(blocks):
            for r in range(p):
                for c in range(p):
                    ent[b * p + r][b * p + c] = cyc.entries[r][c]
        action.append(Matrix.from_rows(field, ent) if ent else Matrix.zeros(field, 0, 0))
    base = FinitePersistenceModule(field, spectrum, dims, tuple(transitions))
    return ZpPersistenceModule(p, base, tuple(action))


# -- Q(zeta_p) oracle ------------------------------------------------------------

_FRAC_PRIMES = (2, 3, 5, 7, 11, 13)
_ZERO_COORDS = {p: (Fraction(0),) * (p - 1) for p in _FRAC_PRIMES}
_TAIL_ZEROS = {p: (Fraction(0),) * (p - 2) for p in _FRAC_PRIMES}


@dataclass(frozen=True)
class FracCyclotomicNumber:
    """Element of Q(zeta_p) as Fraction coordinates of 1, zeta, ..., zeta^{p-2}:
    the differential oracle of `egb.field.CyclotomicNumber`.

    Coordinates are always reduced rationals; equality and hashing are
    coordinate-wise, so canonical form is automatic.
    """

    p: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if self.p not in _FRAC_PRIMES:
            raise ValueError(f"p must be a prime <= 13, got {self.p}")
        if len(self.coords) != self.p - 1:
            raise ValueError(
                f"need {self.p - 1} coordinates for p={self.p}, got {len(self.coords)}"
            )
        if any(type(c) is not Fraction for c in self.coords):
            object.__setattr__(
                self, "coords", tuple(Fraction(c) for c in self.coords)
            )

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "FracCyclotomicNumber") -> None:
        if self.p != other.p:
            raise ValueError(f"mismatched cyclotomic fields: p={self.p} vs p={other.p}")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return FracCyclotomicNumber(
            self.p, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return FracCyclotomicNumber(
            self.p, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return FracCyclotomicNumber(self.p, tuple(-a for a in self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        n = self.p - 1
        # scalar fast paths (most matrix entries are rational)
        if self.is_rational():
            q = self.coords[0]
            return FracCyclotomicNumber(self.p, tuple(q * b for b in other.coords))
        if other.is_rational():
            q = other.coords[0]
            return FracCyclotomicNumber(self.p, tuple(q * a for a in self.coords))
        conv = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                conv[i + j] += a * b
        # zeta^k for k >= p-1 rewrites as -(zeta^{k-p+1})(1 + ... + zeta^{p-2})
        for k in range(2 * n - 2, n - 1, -1):
            c = conv[k]
            if c == 0:
                continue
            conv[k] = Fraction(0)
            base = k - n
            for t in range(n):
                conv[base + t] -= c
        return FracCyclotomicNumber(self.p, tuple(conv[:n]))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = frac_cyclo_one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other) -> "FracCyclotomicNumber":
        if isinstance(other, FracCyclotomicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return frac_cyclo_from_rational(self.p, Fraction(other))
        return NotImplemented

    def is_zero(self) -> bool:
        return self.coords == _ZERO_COORDS[self.p]

    def is_rational(self) -> bool:
        return self.coords[1:] == _TAIL_ZEROS[self.p]

    def rational_part(self) -> Fraction:
        return self.coords[0]

    def inverse(self) -> "FracCyclotomicNumber":
        """Multiplicative inverse, by solving the multiplication-by-self system."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return frac_cyclo_from_rational(self.p, 1 / self.coords[0])
        n = self.p - 1
        cols = []
        power = frac_cyclo_one(self.p)
        for _ in range(n):
            cols.append((self * power).coords)
            power = power * frac_cyclo_zeta(self.p)
        mat = Matrix.from_rows(
            RationalField(), [[cols[j][i] for j in range(n)] for i in range(n)]
        )
        rhs = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
        sol = mat.solve(rhs)
        if sol is None:  # impossible in a field; guards logic errors
            raise ZeroDivisionError("no inverse found")
        return FracCyclotomicNumber(self.p, tuple(sol))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        return " + ".join(parts)


def frac_cyclo_from_rational(p: int, q) -> FracCyclotomicNumber:
    coords = [Fraction(q)] + [Fraction(0)] * (p - 2)
    return FracCyclotomicNumber(p, tuple(coords))


def frac_cyclo_zero(p: int) -> FracCyclotomicNumber:
    return frac_cyclo_from_rational(p, 0)


def frac_cyclo_one(p: int) -> FracCyclotomicNumber:
    return frac_cyclo_from_rational(p, 1)


def frac_cyclo_zeta(p: int, k: int = 1) -> FracCyclotomicNumber:
    """zeta_p^k as a coordinate vector (zeta^{p-1} reduced into the basis)."""
    k %= p
    if k == 0:
        return frac_cyclo_one(p)
    if k <= p - 2:
        coords = [Fraction(0)] * (p - 1)
        coords[k] = Fraction(1)
        return FracCyclotomicNumber(p, tuple(coords))
    # k == p-1: zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
    return FracCyclotomicNumber(p, tuple([Fraction(-1)] * (p - 1)))
