"""Shared randomized fixtures and the test oracles of the library.

The seed comes from EGB_SEED (default 0) so failures reproduce exactly.
"""

import bisect
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest

from egb import equivariant
from egb.equivariant import (
    EquivariantComplex,
    ZpPersistenceModule,
    _SpreadWindow,
    cyclic_permutation_matrix,
    cyclic_tuple_module,
    mu_p,
)
from egb.bottleneck import hopcroft_karp
from egb.eggbeater import _eps, sign_vectors
from egb.field import (
    CyclotomicField, CyclotomicNumber, Field, Matrix, RationalField, cyclo_zeta, is_prime,
)
from egb.freegroup import A_, B_, Word
from egb.model import ModelInput
from egb.persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    _NormalForm,
    _check_window,
    is_inf,
)
from egb.field import QQ_FIELD
from egb.serialize import frac_str, matrix_to_obj, module_to_obj


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


def element_type(x) -> type:
    """The type a field element of value x has: a CyclotomicNumber in
    Q(zeta_p), and in Q an int exactly when x is integral, else a Fraction.
    A float of any value differs from it."""
    if isinstance(x, CyclotomicNumber):
        return CyclotomicNumber
    return int if Fraction(x).denominator == 1 else Fraction


def entry(m: Matrix, i: int, j: int):
    """The entry of m in row i and column j, read off its sparse column."""
    return m.columns[j].get(i, m.field.zero())


def power(x, n: int):
    """x^n for n >= 1 by n - 1 products: a field element has no ``**``."""
    result = x
    for _ in range(n - 1):
        result = result * x
    return result


def reciprocal(x):
    """1/x of a nonzero field element: the closed-form inverse over
    Q(zeta_p), a Fraction over Q (1 / x of two ints would be a float)."""
    return x.inverse() if isinstance(x, CyclotomicNumber) else Fraction(1) / x


def dense_matrix(field: Field, rows: int, cols: int, entries) -> Matrix:
    """The matrix of the given dense rows, of any shape: `Matrix.from_rows`
    cannot tell the width of a matrix with no rows."""
    m = Matrix.from_rows(field, entries) if rows else Matrix.zeros(field, 0, cols)
    assert (m.rows, m.cols) == (rows, cols), "dense rows of the wrong shape"
    return m


def sparse_oracle(m: Matrix) -> tuple:
    """The nonzero entries of each column of m, by a scan of its dense rows."""
    rows = m.entries
    return tuple({i: rows[i][j] for i in range(m.rows) if rows[i][j]} for j in range(m.cols))


def dense_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a @ b by the dense triple loop over the dense rows, each
    entry a sum over the nonzero a[i, k] of a row: the oracle of the product
    on sparse columns."""
    z, a_rows, b_rows = a.field.zero(), a.entries, b.entries
    out = []
    for i in range(a.rows):
        nonzero = [(k, x) for k, x in enumerate(a_rows[i]) if x]
        row = []
        for j in range(b.cols):
            acc = z
            for k, x in nonzero:
                y = b_rows[k][j]
                if not y:
                    continue
                acc = acc + x * y
            row.append(acc)
        out.append(tuple(row))
    return dense_matrix(a.field, a.rows, b.cols, out)


def shift_diagonal(a: Matrix, c) -> Matrix:
    """a - c * identity of a square matrix, with no identity built."""
    if a.rows != a.cols:
        raise ValueError("diagonal shift of non-square matrix")
    c = a.field.coerce(c)
    return dense_matrix(a.field, a.rows, a.cols, (
        row[:i] + (row[i] - c,) + row[i + 1:] for i, row in enumerate(a.entries)))


# -- the dense echelon: the oracle of the sparse column reduction --------------


def echelon_oracle(m: Matrix, aug=()):
    """Row echelon form of a dense matrix with first-nonzero pivoting.

    The rows of ``aug`` (right-hand-side columns, one row per row of m) are
    appended to the rows and reduced alongside; pivots are sought among m's
    columns only.  Returns (echelon rows, pivot column list, inverse of each
    pivot, parity of the row swaps).  It shares no code with the column
    reduction of `egb.field`, so the oracles built on it never reach the
    code they check."""
    rows = [list(row) for row in m.entries]
    for row, extra in zip(rows, aug):
        row.extend(extra)
    width = len(rows[0]) if rows else m.cols
    z, sub_mul = m.field.zero(), m.field.sub_mul
    pivots, inverses, odd, piv_r = [], [], False, 0
    for piv_c in range(m.cols):
        sel = next((r for r in range(piv_r, m.rows) if rows[r][piv_c]), None)
        if sel is None:
            continue
        if sel != piv_r:
            rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
            odd = not odd
        prow = rows[piv_r]
        fp_inv = reciprocal(prow[piv_c])
        rest = [(c, prow[c]) for c in range(piv_c + 1, width) if prow[c]]
        for row in rows[piv_r + 1:]:
            fr = row[piv_c]
            if not fr:
                continue
            factor = fr * fp_inv
            row[piv_c] = z
            for c, a in rest:
                row[c] = sub_mul(row[c], factor, a)
        pivots.append(piv_c)
        inverses.append(fp_inv)
        piv_r += 1
        if piv_r == m.rows:
            break
    return rows, pivots, inverses, odd


def _back_substitute_oracle(m: Matrix, echelon, rhs) -> list:
    """The solution of the echelon system of m with right-hand side ``rhs``
    (one value per pivot row) that sets every free variable to 0."""
    rows, pivots, inverses, _ = echelon
    z, sub_mul = m.field.zero(), m.field.sub_mul
    sol = [z] * m.cols
    for r in range(len(pivots) - 1, -1, -1):
        pc, row, acc = pivots[r], rows[r], rhs[r]
        for c in range(pc + 1, m.cols):
            if row[c] and sol[c]:
                acc = sub_mul(acc, row[c], sol[c])
        sol[pc] = acc * inverses[r]
    return sol


def rank_oracle(m: Matrix) -> int:
    return len(echelon_oracle(m)[1])


def det_oracle(m: Matrix):
    """The signed product of the echelon pivots of a square matrix."""
    rows, pivots, _, odd = echelon_oracle(m)
    if len(pivots) < m.rows:
        return m.field.zero()
    det = m.field.one()
    for r in range(m.rows):
        det = det * rows[r][r]
    return -det if odd else det


def kernel_oracle(m: Matrix) -> list[tuple]:
    """One null vector per free column fc, ascending: the back substitution
    of -(column fc), with the free variable fc then set to 1."""
    echelon = echelon_oracle(m)
    rows, pivots = echelon[0], echelon[1]
    basis = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        sol = _back_substitute_oracle(m, echelon, [-rows[r][fc] for r in range(len(pivots))])
        sol[fc] = m.field.one()
        basis.append(tuple(sol))
    return basis


def solve_matrix_oracle(m: Matrix, rhs: Matrix) -> Matrix | None:
    """m @ X = rhs by one echelon of [m | rhs] and a back substitution per
    column, free variables 0; None if a column is inconsistent."""
    coerce = m.field.coerce
    echelon = echelon_oracle(m, [[coerce(x) for x in row] for row in rhs.entries])
    rows, k, n = echelon[0], len(echelon[1]), m.cols
    if any(x for row in rows[k:] for x in row[n:]):
        return None
    cols = [_back_substitute_oracle(m, echelon, [rows[r][n + j] for r in range(k)])
            for j in range(rhs.cols)]
    return Matrix.from_columns(m.field, cols, n)


def extend_basis_oracle(field: Field, basis: list[tuple], candidates: list[tuple],
                        dim: int) -> list[tuple]:
    """The candidates that are echelon pivot columns of [basis | candidates]."""
    pivots = echelon_oracle(Matrix.from_columns(field, basis + candidates, dim))[1]
    return [candidates[c - len(basis)] for c in pivots if c >= len(basis)]


def window_complex(complex_: FilteredComplex, a, b) -> tuple[list[int], FilteredComplex]:
    """Quotient complex spanned by generators with action in (a, b).

    Returns the kept generator indices and the induced complex (the induced
    differential drops components of action below a; closure under the
    boundary holds because the boundary strictly decreases action).
    """
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("window requires a < b")
    _check_window(complex_, a, b)
    keep = [i for i, (act, _) in enumerate(complex_.generators) if a < act < b]
    gens = tuple(complex_.generators[i] for i in keep)
    return keep, FilteredComplex(complex_.field, gens, _boundary_block(complex_, keep, keep))


def _boundary_block(complex_: FilteredComplex, rows: list[int], cols: list[int]) -> Matrix:
    """The boundary restricted to the given generator rows and columns."""
    index, d = {g: k for k, g in enumerate(rows)}, complex_.boundary.columns
    return Matrix(complex_.field, len(rows), len(cols),
                  tuple({index[i]: x for i, x in d[j].items() if i in index} for j in cols))


def _reindex(field: Field, vecs: list[tuple], src_glob: list[int],
             dst_glob: list[int]) -> list[tuple]:
    """Move chains between windows: keep shared generators, drop the rest."""
    look = {g: i for i, g in enumerate(dst_glob)}
    moves = [(i, look[g]) for i, g in enumerate(src_glob) if g in look]
    z = field.zero()
    out = []
    for vec in vecs:
        moved = [z] * len(dst_glob)
        for i, j in moves:
            moved[j] = vec[i]
        out.append(tuple(moved))
    return out


def homology_basis_oracle(complex_: FilteredComplex, r: int):
    """A homology basis in degree r by the kernel of `kernel_oracle`: the
    degree-r generator indices, a cycle basis over them and the degree-(r+1)
    boundary matrix, whose columns span the boundaries."""
    idx_rm1, idx_r, idx_rp1 = ([i for i, (_, d) in enumerate(complex_.generators) if d == deg]
                               for deg in (r - 1, r, r + 1))
    cycles = kernel_oracle(_boundary_block(complex_, idx_rm1, idx_r)) if idx_r else []
    return idx_r, cycles, _boundary_block(complex_, idx_r, idx_rp1)


def induced_homology_rank_oracle(field: Field, src_cycles: list[tuple], images: list[tuple],
                                 dst_boundary: Matrix, dst_dim: int) -> int:
    """rank[images | B_dst] - rank[B_dst], by `rank_oracle`."""
    if not src_cycles or dst_dim == 0:
        return 0
    boundaries = [dst_boundary.column(j) for j in range(dst_boundary.cols)]
    return (rank_oracle(Matrix.from_columns(field, images + boundaries, dst_dim))
            - rank_oracle(Matrix.from_columns(field, boundaries, dst_dim)))


def cyclo_one(p: int) -> CyclotomicNumber:
    return cyclo_zeta(p, 0)


def primitive_roots(p: int) -> list[CyclotomicNumber]:
    """The p-1 primitive p-th roots of unity zeta^k, k = 1..p-1."""
    return [cyclo_zeta(p, k) for k in range(1, p)]


def canonical_items_oracle(items) -> tuple:
    """`Barcode`'s canonical form on Fractions: the (bar, degree) entries
    merged in a dict that hashes the bar's Fractions, then sorted by birth,
    by death (finite before +inf) and by degree (None last)."""
    merged: dict = {}
    for bar, mult, degree in items:
        merged[bar, degree] = merged.get((bar, degree), 0) + mult
    return tuple(sorted(
        ((bar, m, degree) for (bar, degree), m in merged.items()),
        key=lambda e: (e[0].birth, (1, 0) if is_inf(e[0].death) else (0, e[0].death),
                       (1, 0) if e[2] is None else (0, e[2]))))


def model_input_oracle(tuples) -> tuple | None:
    """`ModelInput`'s stored tuples on Fractions: (action, degree) sorted by
    action; None when two actions are equal, which the input refuses."""
    out = sorted(((Fraction(a), int(d)) for a, d in tuples), key=lambda t: t[0])
    return tuple(out) if len({a for a, _ in out}) == len(out) else None


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
    return ZpPersistenceModule(module.p, base, action)


def construct_full_power(
    seed: FinitePersistenceModule, root: tuple[Matrix, ...]
) -> ZpPersistenceModule:
    """Z_p module with action A = B^p from a root B commuting with the
    transitions; B^{p^2} = id is the module's own check A^p = id.  This is
    the standard fixture on which the full-power obstruction must PASS."""
    field = seed.field
    if not isinstance(field, CyclotomicField):
        raise ValueError("seed module must live over a cyclotomic field")
    p = field.p
    if len(root) != seed.num_intervals:
        raise ValueError("one root matrix per constancy interval")
    for i, b in enumerate(root):
        n = seed.dims[i]
        if (b.rows, b.cols) != (n, n):
            raise ValueError(f"root matrix {i} has wrong shape")
    for i, t in enumerate(seed.transitions):
        if not (root[i + 1] @ t - t @ root[i]).is_zero():
            raise ValueError(f"root does not commute with transition {i}")
    action = tuple(b.matpow(p) for b in root)
    return ZpPersistenceModule(p, seed, action)


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


def rips_complex(rng, points: int, field=QQ_FIELD) -> FilteredComplex:
    """Rips-style 2-skeleton of ``points`` random integer points in the
    plane: every vertex, edge and triangle, listed in a random order, with
    action 3 (largest squared edge length) + dimension, so that each face has
    a strictly smaller action, and boundary entries +-1.  30 points give
    30 + 435 + 4,060 = 4,525 generators."""
    xy = [(rng.randint(0, 1000), rng.randint(0, 1000)) for _ in range(points)]

    def length(a, b):
        return (xy[a][0] - xy[b][0]) ** 2 + (xy[a][1] - xy[b][1]) ** 2

    simplices = [(v,) for v in range(points)]
    simplices += list(combinations(range(points), 2)) + list(combinations(range(points), 3))
    return _rips_filtration(rng, simplices, length, field)[1]


def _rips_filtration(rng, simplices: list, length, field=QQ_FIELD):
    """(index, complex): the simplices, sorted vertex tuples closed under
    faces, shuffled in place, each simplex's index in that order, and their
    complex, with action 3 (largest ``length`` of an edge) + dimension and
    boundary entries +-1."""
    rng.shuffle(simplices)
    index = {s: k for k, s in enumerate(simplices)}
    one = field.one()
    gens, cols = [], []
    for s in simplices:
        gens.append((3 * max((length(a, b) for a, b in combinations(s, 2)), default=0)
                     + len(s) - 1, len(s) - 1))
        cols.append({index[s[:k] + s[k + 1:]]: one if k % 2 == 0 else -one
                     for k in range(len(s))} if len(s) > 1 else {})
    n = len(gens)
    return index, FilteredComplex(field, tuple(gens), Matrix(field, n, n, tuple(cols)))


def symmetric_rips_complex(rng, p: int, orbits: int, cone: bool = True) -> EquivariantComplex:
    """The Rips-style 2-skeleton of `rips_complex` on ``orbits`` orbits of p
    points, u = o p + i for i in Z_p, under the cyclic shift T: (o, i) ->
    (o, i + 1).  The length of an edge (o, i)(o', j) is a random integer of
    o, o' and j - i mod p alone, so T preserves it, and T sends a simplex to
    its image, signed by the parity of the permutation that sorts it.
    ``cone`` adds a T-fixed apex, whose edges to an orbit's points share
    one length, longer than every other edge, and its joins with every
    vertex, edge and triangle: then all homology dies but one H_0 ray, which
    T fixes, and the spread is finite.  Without it the 2-cycles that T moves
    are never killed.  The simplices are listed in a random order.  p = 3
    with 7 orbits gives 3,123 generators; p = 5 with 5 orbits, 5,251."""
    n = orbits * p
    shift_length: dict[tuple[int, int, int], int] = {}
    for o in range(orbits):
        for q in range(orbits):
            for k in range(p):
                if (o, q, k) not in shift_length:
                    shift_length[o, q, k] = shift_length[q, o, -k % p] = rng.randint(1, 1000)
    apex = [rng.randint(1001, 2000) for _ in range(orbits)]

    def length(u, v):  # u < v, and the apex n is the largest vertex
        return apex[u // p] if v == n else shift_length[u // p, v // p, (v - u) % p]

    def shift(u):
        return u if u == n else u - u % p + (u + 1) % p

    simplices = [s for k in (1, 2, 3) for s in combinations(range(n), k)]
    if cone:
        simplices += [(n,)] + [s + (n,) for s in simplices]
    index, cx = _rips_filtration(rng, simplices, length)
    one, t_cols = QQ_FIELD.one(), []
    for s in simplices:
        image = [shift(u) for u in s]
        odd = sum(a > b for a, b in combinations(image, 2)) % 2
        t_cols.append({index[tuple(sorted(image))]: -one if odd else one})
    return EquivariantComplex(p, cx, Matrix(QQ_FIELD, len(index), len(index), tuple(t_cols)))


def normal_form_barcode(complex_: FilteredComplex) -> Barcode:
    """Oracle of `barcode_of_complex`: the bars (act(x), kill(x)] of the
    cycles b_x of `_NormalForm`, those with lp(x) = -inf."""
    nf = _NormalForm(complex_)
    return Barcode.of([(Bar(nf.act[x], nf.kill[x]), 1, nf.deg[x])
                       for x in range(len(nf.order)) if nf.lp[x] == -INF])


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
        block = _unitriangular(rng, field, len(members)).entries
        for r, i in enumerate(members):
            for c, j in enumerate(members):
                change[(i, j)] = block[r][c]
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
    """Window-scan oracle for `w_spread`: tests over pairs of windows.

    Windows are scanned up to the gaps their endpoints lie in; for a fixed
    gap assignment (a in G_i1, b in G_j1, a+d in G_i2, b+d in G_j2) the map
    is constant and the feasible d form an interval whose supremum is
    min(sup G_i2 - inf G_i1, sup G_j2 - inf G_j1).  O(g^4) window pairs,
    each tested by `_SpreadWindow.induced_nonzero` on one normal form.
    """
    cx = equivariant.complex
    s_mat = equivariant.chain_map - Matrix.identity(cx.field, len(cx.generators))
    if s_mat.is_zero():
        return Fraction(0)
    nf = _NormalForm(cx)
    s_cols = nf.columns(s_mat.columns)
    gaps = _gaps(cx.spectrum())
    g = len(gaps)
    windows: dict[tuple[int, int], _SpreadWindow] = {}

    def window(i: int, j: int) -> _SpreadWindow:
        if (i, j) not in windows:
            windows[(i, j)] = _SpreadWindow(nf, gaps[i][2], gaps[j][2])
        return windows[(i, j)]

    best: Fraction | float = Fraction(0)
    for i1 in range(g):
        for j1 in range(i1 + 1, g):
            src = window(i1, j1)
            s_images = src.apply_chain_map(s_cols)
            if not any(image for images in s_images.values() for image in images):
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


def window_pair_nonzero_oracle(equivariant: EquivariantComplex, src, dst) -> bool:
    """Dense evaluation of (comparison to the window dst) . (T - id) on the
    homology of the window src = (a, b), dst = (a', b') with a <= a' and
    b <= b': is it nonzero in some degree?  Each window is a `window_complex`
    with a cycle basis of `homology_basis_oracle`; S = T - id preserves
    action and degree, so the images of src's cycles stay on src's
    generators, `_reindex` moves them to dst's, and their rank modulo dst's
    boundaries is `induced_homology_rank_oracle`."""
    cx = equivariant.complex
    field = cx.field
    s_cols = (equivariant.chain_map - Matrix.identity(field, len(cx.generators))).columns
    keep1, w1 = window_complex(cx, *src)
    keep2, w2 = window_complex(cx, *dst)
    for r in sorted({deg for _, deg in cx.generators}):
        idx1, cycles, _ = homology_basis_oracle(w1, r)
        idx2, _, bnd2 = homology_basis_oracle(w2, r)
        glob1, glob2 = [keep1[i] for i in idx1], [keep2[i] for i in idx2]
        look = {g: i for i, g in enumerate(glob1)}
        images = []
        for z in cycles:
            image = [field.zero()] * len(glob1)
            for v, g in zip(z, glob1):
                for h, e in s_cols[g].items():
                    image[look[h]] += e * v
            images.append(tuple(image))
        moved = _reindex(field, images, glob1, glob2)
        if induced_homology_rank_oracle(field, cycles, moved, bnd2, len(glob2)):
            return True
    return False


def spread_lower_bound_from_gaps_oracle(generators) -> Fraction | float:
    """`spread_lower_bound_from_gaps` over every pair of generators: the least
    |a - b| of the pairs whose degrees differ by 1, +inf for none."""
    gens = [(Fraction(a), int(d)) for a, d in generators]
    best: Fraction | float = INF
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if abs(gens[i][1] - gens[j][1]) == 1:
                gap = abs(gens[i][0] - gens[j][0])
                if gap < best:
                    best = gap
    return best


def gap_cuts(complex_: FilteredComplex) -> list[Fraction]:
    """One cut inside every gap of the action spectrum, the unbounded gaps included."""
    return [rep for _, _, rep in _gaps(complex_.spectrum())]


# -- bottleneck oracle -------------------------------------------------------


def feasible_slot_oracle(costs: list[list], half_b: list, half_c: list, delta) -> bool:
    """Oracle of `bottleneck._feasible` by one matching on the augmented
    graph at the value ``delta``: B-bars and one deletion slot per C-bar on
    the left, C-bars and one deletion slot per B-bar on the right, slots
    joined to every slot of the other side, a pair joined iff its cost is
    <= delta and a bar to its own slot iff its half-length is; a
    delta-matching exists iff the left side is matched.  Costs and
    half-lengths are Fractions or +inf."""
    nb, nc = len(half_b), len(half_c)
    adjacency: dict = {}
    for i, row in enumerate(costs):
        edges = [("c", j) for j, cost in enumerate(row) if cost <= delta]
        if half_b[i] <= delta:
            edges.append(("bslot", i))
        adjacency[("b", i)] = edges
    for j, h in enumerate(half_c):
        edges = [("c", j)] if h <= delta else []
        edges.extend(("bslot", i) for i in range(nb))
        adjacency[("cslot", j)] = edges
    left_order = [("b", i) for i in range(nb)] + [("cslot", j) for j in range(nc)]
    return len(hopcroft_karp(adjacency, left_order)) == nb + nc


def costs_oracle(bars_b: list[Bar], bars_c: list[Bar]):
    """The full matching graph of two lists of bars, on Fractions: the
    finite candidates {0, pair costs, half-lengths} in increasing order, the
    cost of each pair of a B-bar and a C-bar, and each bar's half-length.  A
    pair costs max(|birth diff|, |death diff|), |birth diff| for two rays,
    and +inf across finiteness; a ray's half-length is +inf."""

    def pair_cost(b1: Bar, b2: Bar):
        if b1.finite != b2.finite:
            return INF
        birth = abs(b1.birth - b2.birth)
        if not b1.finite:
            return birth
        return max(birth, abs(b1.death - b2.death))

    half_b = [x.length / 2 if x.finite else INF for x in bars_b]
    half_c = [y.length / 2 if y.finite else INF for y in bars_c]
    costs = [[pair_cost(x, y) for y in bars_c] for x in bars_b]
    candidates = {Fraction(0), *half_b, *half_c, *(cost for row in costs for cost in row)}
    return sorted(v for v in candidates if not is_inf(v)), costs, half_b, half_c


def bars_by_degree(b: Barcode, c: Barcode) -> list[tuple[list[Bar], list[Bar]]]:
    """(bars of b, bars of c) in each degree of either barcode, one bar per
    unit of multiplicity."""
    by_degree: dict = {}
    for side, barcode in enumerate((b, c)):
        for bar, d in barcode.expand():
            by_degree.setdefault(d, ([], []))[side].append(bar)
    return list(by_degree.values())


def bottleneck_oracle(b: Barcode, c: Barcode):
    """`bottleneck` by `feasible_slot_oracle` on the full graph of each
    degree, rays included: the least candidate of `costs_oracle` at which a
    delta-matching exists, +inf if none does (the ray counts differ); the
    maximum over the degrees, 0 for none."""
    distances = []
    for bars_b, bars_c in bars_by_degree(b, c):
        ordered, costs, half_b, half_c = costs_oracle(bars_b, bars_c)
        k = bisect.bisect_left(ordered, True,
                               key=lambda delta: feasible_slot_oracle(costs, half_b, half_c, delta))
        distances.append(ordered[k] if k < len(ordered) else INF)
    return max(distances, default=Fraction(0))


# -- module barcode oracle ---------------------------------------------------


def barcode_of_module_oracle(module: FinitePersistenceModule) -> Barcode:
    """Rank inclusion-exclusion oracle of `barcode_of_module`.

    A bar (s_{u-1}, s_v] lives on constancy intervals u..v; its multiplicity
    is r(u,v) - r(u-1,v) - r(u,v+1) + r(u-1,v+1), where r(u,v) is the
    `rank_oracle` of the dense composite transition from interval u to v.
    """
    m = len(module.spectrum)
    r = [[0] * (m + 1) for _ in range(m + 1)]
    for u in range(m + 1):
        acc = Matrix.identity(module.field, module.dims[u])
        r[u][u] = module.dims[u]
        for v in range(u + 1, m + 1):
            acc = module.transitions[v - 1] @ acc
            r[u][v] = rank_oracle(acc)

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


def complex_checks_oracle(field: Field, generators, boundary: Matrix, p: int | None = None,
                          chain_map: Matrix | None = None) -> str | None:
    """The message with which `FilteredComplex` (and, given p and a chain
    map, `EquivariantComplex`) refuses its input, or None if both accept it,
    by the dense checks: an n^2 scan of the entries of D and of T, D @ D,
    T^p = id by `matpow`, and T @ D - D @ T.  The oracle of the checks the
    constructors read off their sparse columns."""
    gens = tuple((Fraction(a), int(d)) for a, d in generators)
    n = len(gens)
    if (boundary.rows, boundary.cols) != (n, n):
        return "boundary must be square on the generators"
    if boundary.field != field:
        return "boundary over wrong field"
    d_rows = boundary.entries
    for j in range(n):
        for i in range(n):
            if not d_rows[i][j]:
                continue
            if gens[i][1] != gens[j][1] - 1:
                return f"boundary entry {i},{j} does not drop degree by 1"
            if gens[i][0] >= gens[j][0]:
                return f"boundary entry {i},{j} does not decrease action"
    if not (boundary @ boundary).is_zero():
        return "boundary squared is nonzero"
    if chain_map is None:
        return None
    if not is_prime(p):
        return f"p must be prime, got {p}"
    t, d = chain_map, boundary
    if (t.rows, t.cols) != (n, n):
        return "chain map must be square on the generators"
    if t.field != field:
        return "chain map over wrong field"
    if not shift_diagonal(t.matpow(p), 1).is_zero():
        return "chain map does not satisfy T^p = id"
    if not (t @ d - d @ t).is_zero():
        return "chain map does not commute with the boundary"
    t_rows = t.entries
    for j in range(n):
        for i in range(n):
            if not t_rows[i][j]:
                continue
            if gens[i][0] != gens[j][0] or gens[i][1] != gens[j][1]:
                return "chain map must preserve action and degree"
    return None


# -- direct sums, refinements and spectrum shifts ----------------------------


def interval_index(module: FinitePersistenceModule, t) -> int:
    """Index of the constancy interval containing t (left-limit convention)."""
    return bisect.bisect_left(module.spectrum, Fraction(t))


def refine_module(
    module: FinitePersistenceModule, points
) -> FinitePersistenceModule:
    """Same module on a spectrum enlarged by extra points (identity across them)."""
    new_spec = sorted(set(module.spectrum) | {Fraction(p) for p in points})
    dims = []
    transitions = []
    for i, s in enumerate(new_spec):
        u = interval_index(module, s)
        dims.append(module.dims[u])
        if s in module.spectrum:
            transitions.append(module.transitions[module.spectrum.index(s)])
        else:
            transitions.append(Matrix.identity(module.field, module.dims[u]))
    dims.append(module.dims[-1])
    return FinitePersistenceModule(
        module.field, tuple(new_spec), tuple(dims), tuple(transitions)
    )


def direct_sum(
    a: FinitePersistenceModule, b: FinitePersistenceModule
) -> FinitePersistenceModule:
    """Direct sum, on the common refinement of the two spectra."""
    if a.field != b.field:
        raise ValueError("direct sum over different fields")
    common = sorted(set(a.spectrum) | set(b.spectrum))
    ra, rb = refine_module(a, common), refine_module(b, common)
    dims = tuple(da + db for da, db in zip(ra.dims, rb.dims))
    transitions = tuple(_block_diag(ta, tb) for ta, tb in zip(ra.transitions, rb.transitions))
    return FinitePersistenceModule(a.field, tuple(common), dims, transitions)


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    """The block-diagonal matrix diag(a, b) over the field of a."""
    z = a.field.zero()
    rows = tuple(row + (z,) * b.cols for row in a.entries) + tuple(
        (z,) * a.cols + row for row in b.entries
    )
    return dense_matrix(a.field, a.rows + b.rows, a.cols + b.cols, rows)


def zp_direct_sum(a: ZpPersistenceModule, b: ZpPersistenceModule) -> ZpPersistenceModule:
    """Direct sum of Z_p modules on the common spectrum refinement."""
    if a.p != b.p:
        raise ValueError("direct sum of modules with different p")
    base = direct_sum(a.base, b.base)

    def refined_action(mod: ZpPersistenceModule) -> list[Matrix]:
        # the value at a spectrum point is the left limit; the top interval is last
        return [mod.action[interval_index(mod.base, s)] for s in base.spectrum] + [mod.action[-1]]

    action = tuple(_block_diag(x, y) for x, y in zip(refined_action(a), refined_action(b)))
    return ZpPersistenceModule(a.p, base, action)


def shift_module(module: ZpPersistenceModule, shifts) -> ZpPersistenceModule:
    """Same module with spectrum point i moved by shifts[i] (order-preserving)."""
    spectrum = module.base.spectrum
    shifts = [Fraction(s) for s in shifts]
    if len(shifts) != len(spectrum):
        raise ValueError("one shift per spectrum point")
    new_spec = tuple(s + d for s, d in zip(spectrum, shifts))
    if any(new_spec[i] >= new_spec[i + 1] for i in range(len(new_spec) - 1)):
        raise ValueError("shifts must preserve the spectrum ordering")
    base = FinitePersistenceModule(
        module.field, new_spec, module.base.dims, module.base.transitions
    )
    return ZpPersistenceModule(module.p, base, module.action)


def random_order_preserving_shifts(
    spectrum, delta, rng: random.Random, grid: int = 16
) -> list[Fraction]:
    """Per-point shifts of magnitude <= delta keeping the order strict."""
    delta = Fraction(delta)
    shifts: list[Fraction] = []
    prev = None
    for s in spectrum:
        lo = s - delta
        if prev is not None and prev >= lo:
            lo = prev
        hi = s + delta
        # sample strictly inside (lo, hi]
        k = rng.randint(1, grid)
        t = lo + (hi - lo) * Fraction(k, grid)
        shifts.append(t - s)
        prev = t
    return shifts


def perturb_and_check_lipschitz(
    module: ZpPersistenceModule,
    delta,
    shifts=None,
    rng: random.Random | None = None,
) -> bool:
    """Shift every spectrum point by at most delta (an explicit equivariant
    delta-interleaving) and check |mu_p(V) - mu_p(W)| <= delta."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if shifts is None:
        if rng is not None:
            shifts = random_order_preserving_shifts(module.base.spectrum, delta, rng)
        else:
            shifts = [delta] * len(module.base.spectrum)
    if any(abs(Fraction(s)) > delta for s in shifts):
        raise ValueError("a shift exceeds delta")
    perturbed = shift_module(module, shifts)
    a, b = mu_p(module), mu_p(perturbed)
    if is_inf(a) and is_inf(b):
        return True
    if is_inf(a) or is_inf(b):
        return False
    return abs(a - b) <= delta


# -- Z_p module oracles ----------------------------------------------------------


def zp_module_checks_oracle(p: int, base: FinitePersistenceModule, action) -> str | None:
    """The message with which `ZpPersistenceModule` refuses an action (p
    prime, base over Q(zeta_p), one matrix per interval), or None if it
    accepts it, by the dense checks: A^p = id by `matpow` and A T = T A by
    two products per transition.  The oracle of the checks the constructor
    reads off its isotypic decomposition."""
    for i, a in enumerate(action):
        if (a.rows, a.cols) != (base.dims[i], base.dims[i]):
            return f"automorphism {i} has wrong shape"
        if not shift_diagonal(a.matpow(p), 1).is_zero():
            return f"automorphism {i} does not have order dividing p"
    for i, t in enumerate(base.transitions):
        if not (action[i + 1] @ t - t @ action[i]).is_zero():
            return f"automorphism does not commute with transition {i}"
    return None


def induced_module_oracle(module: ZpPersistenceModule, prefixes: list[list],
                          bases: list[list]) -> FinitePersistenceModule:
    """The module span(bases[i]) modulo span(prefixes[i]) with the induced
    transitions, one part at a time: the images of bases[i] are solved in the
    frame prefixes[i+1] + bases[i+1] of the next interval, and their
    coordinates past the prefix are kept."""
    field, dims = module.field, module.base.dims
    transitions = []
    for i, t in enumerate(module.base.transitions):
        prefix, src, dst = prefixes[i + 1], bases[i], bases[i + 1]
        frame = Matrix.from_columns(field, prefix + dst, dims[i + 1])
        coords = solve_matrix_oracle(frame, t @ Matrix.from_columns(field, src, dims[i]))
        if coords is None:
            raise ValueError("transition does not preserve the induced subspace")
        transitions.append(dense_matrix(field, len(dst), len(src), coords.entries[len(prefix):]))
    return FinitePersistenceModule(field, module.base.spectrum,
                                   tuple(len(b) for b in bases), tuple(transitions))


def eigenspace_module_oracle(module: ZpPersistenceModule, zeta) -> FinitePersistenceModule:
    """The zeta-eigenspace module computed afresh: the kernels of A_i - zeta
    and the induced transitions."""
    kernels = [kernel_oracle(shift_diagonal(a, zeta)) for a in module.action]
    return induced_module_oracle(module, [[] for _ in kernels], kernels)


def part_modules(module: ZpPersistenceModule) -> list[FinitePersistenceModule]:
    """The modules of the parts 1..p-1 that building ``module`` sweeps for its
    barcodes, in order, recorded from `equivariant.barcode_of_module` as the
    module is built again: the library keeps their barcodes, not them."""
    with mock.patch.object(equivariant, "barcode_of_module",
                           side_effect=equivariant.barcode_of_module) as sweep:
        ZpPersistenceModule(module.p, module.base, module.action)
    return [call.args[0] for call in sweep.call_args_list]


def fix_vectors(module: ZpPersistenceModule) -> list[list[tuple]]:
    """The stored Fix basis of each interval, ``fixed[i]``, as dense vectors
    in its order: the form the dense oracles read."""
    z = module.field.zero()
    return [[tuple(v.get(r, z) for r in range(n)) for _, v in fix]
            for fix, n in zip(module.fixed, module.base.dims)]


def quotient_fix_oracle(module: ZpPersistenceModule) -> FinitePersistenceModule:
    """`quotient_fix_module` by dense products: for the matrix B of the
    stored Fix basis of each interval, F its free columns (the last nonzero
    row of each vector) and P the other rows, L_i has the basis e_c, c in
    P_i, and the transition is the rows P_(i+1) of W - B_(i+1) W[F_(i+1)],
    for W the columns P_i of T_i."""
    field = module.field

    def rows(m: Matrix, keep) -> Matrix:
        m_rows = m.entries
        return dense_matrix(field, len(keep), m.cols, [m_rows[r] for r in keep])

    frames = []
    for basis, n in zip(fix_vectors(module), module.base.dims):
        free = [max(j for j, x in enumerate(v) if x) for v in basis]
        rest = sorted(set(range(n)).difference(free))
        b_rest = dense_matrix(field, len(rest), len(basis), [[v[r] for v in basis] for r in rest])
        frames.append((free, rest, b_rest))
    maps = []
    for i, t in enumerate(module.base.transitions):
        kept, (free, rest, b_rest) = frames[i][1], frames[i + 1]
        w = dense_matrix(field, t.rows, len(kept), [[r[c] for c in kept] for r in t.entries])
        maps.append(rows(w, rest) - b_rest @ rows(w, free))
    return FinitePersistenceModule(field, module.base.spectrum,
                                   tuple(len(rest) for _, rest, _ in frames), tuple(maps))


def w_hat_scan_oracle(module: ZpPersistenceModule) -> Fraction | float:
    """w_hat by direct scan: the sup of d with theta_{s,s+d}(A_s - id) != 0,
    over the pairs of constancy intervals u <= v, from the composite
    transitions applied to A_u - id."""
    base = module.base
    m = len(base.spectrum)
    best = Fraction(0)
    for u in range(1, m + 1):  # interval 0 has dimension 0
        acc = shift_diagonal(module.action[u], 1)
        if acc.is_zero():
            continue
        # d ranges over shifts landing in interval v >= u; the sup of
        # (s + d) - s over s in (s_{u-1}, s_u], s + d in (s_{v-1}, s_v]
        # is s_v - s_{u-1} (or +inf for the unbounded top interval)
        for v in range(u, m + 1):
            if v > u:
                acc = base.transitions[v - 1] @ acc
            if acc.is_zero():
                break
            if v == m:
                return INF
            best = max(best, base.spectrum[v] - base.spectrum[u - 1])
    return best


def module_from_barcode(field: Field, barcode: Barcode) -> FinitePersistenceModule:
    """Direct sum of interval modules Q(I), one basis vector per bar unit."""
    bars = [bar for bar, _ in barcode.expand()]
    points = sorted({b.birth for b in bars} | {b.death for b in bars if b.finite})
    m = len(points)
    index = {s: i for i, s in enumerate(points)}
    # bar alive on constancy intervals (birth index)+1 .. (death index), or .. m
    spans = [(index[b.birth] + 1, index[b.death] if b.finite else m) for b in bars]
    alive = [[k for k, (lo, hi) in enumerate(spans) if lo <= i <= hi] for i in range(m + 1)]
    z, o = field.zero(), field.one()
    transitions = tuple(
        dense_matrix(field, len(after), len(before),
                     [[o if k == j else z for j in before] for k in after])
        for before, after in zip(alive, alive[1:])
    )
    return FinitePersistenceModule(
        field, tuple(points), tuple(len(a) for a in alive), transitions
    )


# -- bar containment and the 2c-shrink ------------------------------------------


def bar_contains(outer: Bar, inner: Bar) -> bool:
    """True iff the bar ``outer`` contains the bar ``inner`` as a set."""
    return outer.birth <= inner.birth and (
        not outer.finite or inner.finite and outer.death >= inner.death)


def shrink(bar: Bar, c) -> Bar:
    """(a, b] -> (a + c, b - c]; an infinite death stays fixed."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("shrink amount must be >= 0")
    if bar.finite and bar.length <= 2 * c:
        raise ValueError(f"cannot shrink {bar} by {c}: length {bar.length} <= 2c")
    return Bar(bar.birth + c, bar.death - c if bar.finite else INF)


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
                interval = Bar(x, y)
                yield interval, multiplicity_oracle(barcode, interval)


def mu_from_barcode_oracle(barcode: Barcode, p: int) -> Fraction | float:
    """Grid oracle of `mu_from_barcode`: every candidate interval of the
    births x (deaths + inf) grid recounts its multiplicity and scans every
    bar for the least c at which an excluded bar swallows its 2c-shrink."""
    best: Fraction | float = Fraction(0)
    for interval, inside in _candidate_intervals(barcode):
        if inside % p == 0:
            continue
        x, y = interval.birth, interval.death
        horizon: Fraction | float = INF
        for bar, m, _ in barcode.items:
            if bar_contains(bar, interval):
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


# -- bounds report oracles ---------------------------------------------------


def multiplicity_oracle(barcode: Barcode, query: Bar) -> int:
    """The number of bars (with multiplicities) containing the query
    interval, as a full scan: every bar is tested by `bar_contains`."""
    return sum(m for bar, m, _ in barcode.items if bar_contains(bar, query))


def eigenspace_family_oracle(model_input: ModelInput) -> dict[int, Barcode]:
    """The per-degree barcodes of every eigenspace of the model through the
    sorting constructor: each p-th root of unity is a simple eigenvalue of
    the cyclic permutation, so one ray (action, +inf] per tuple, merged and
    sorted per degree."""
    if not model_input.tuples:
        raise ValueError("model needs at least one tuple")
    return {r: Barcode.of((Bar(a, INF), 1, None) for a, d in model_input.tuples if d == r)
            for r in sorted({d for _, d in model_input.tuples})}


def kunneth_stabilize_oracle(family: dict[int, Barcode], betti: list[int]) -> dict[int, Barcode]:
    """`kunneth_stabilize` as a chain of unions of repeats, every one through
    the sorting constructor, so each target degree is merged and sorted once
    per piece."""
    if not betti or betti[0] != 1:
        raise ValueError("betti[0] must be 1 (connected factor)")
    if any(b < 0 for b in betti):
        raise ValueError("betti numbers must be nonnegative")
    out: dict[int, Barcode] = {}
    for r, barcode in family.items():
        for i, b in enumerate(betti):
            if b == 0 or barcode.is_empty():
                continue
            piece = Barcode(tuple((bar, m * b, deg) for bar, m, deg in barcode.items))
            out[r + i] = Barcode(out[r + i].items + piece.items) if r + i in out else piece
    return out


def mu_p_of_family_oracle(family: dict[int, Barcode], p: int) -> Fraction | float:
    """`mu_p_of_family` as the largest grid-oracle mu over the degrees; 0 for
    no degree at a prime p."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not family:
        return Fraction(0)
    return max(mu_from_barcode_oracle(bc, p) for bc in family.values())


def paper_mu_lower_bound_oracle(model_input: ModelInput, eps_frac: Fraction,
                                family: dict[int, Barcode]) -> Fraction:
    """`paper_mu_lower_bound` on Fractions: the witness is a `Bar` of reduced
    Fraction ends, its 2c-shrink is `shrink` (which refuses c < 0), both
    are counted by `multiplicity_oracle`, and both must end before the
    second least action, so that they lie in the first gap."""
    eps_frac = Fraction(eps_frac)
    if not 0 < eps_frac <= Fraction(1, 2):
        raise ValueError("eps_frac must lie in (0, 1/2]")
    gap = model_input.gap
    if is_inf(gap):
        return Fraction(0)
    a_min = model_input.tuples[0][0]
    witness = Bar(a_min + eps_frac * gap / 2, a_min + gap - eps_frac * gap / 2)
    c = gap * (1 - 2 * eps_frac) / 4
    shrunk = shrink(witness, 2 * c)
    m_full = sum(multiplicity_oracle(bc, witness) for bc in family.values())
    m_shrunk = sum(multiplicity_oracle(bc, shrunk) for bc in family.values())
    second = model_input.tuples[1][0]
    if not (m_full == m_shrunk == 1 and witness.death < second and shrunk.death < second):
        raise AssertionError("witness interval does not have model multiplicity 1")
    return c


# -- window homology and its oracles -----------------------------------------


def window_homology(complex_: FilteredComplex, a, b, r: int):
    """Dimension and a homology basis of the (a, b) quotient complex in degree r.

    The basis is the b_x of `_NormalForm.window_basis`, as coordinates over
    the window's degree-r generators (returned alongside, as indices into
    the original complex).
    """
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("window requires a < b")
    _check_window(complex_, a, b)
    idx = [i for i, (act, d) in enumerate(complex_.generators) if d == r and a < act < b]
    if not idx:
        return 0, [], []
    nf = _NormalForm(complex_)
    z = complex_.field.zero()
    chosen = [tuple(nf.basis[x].get(nf.pos[g], z) for g in idx)
              for x in nf.window_basis(a, b, r)]
    return len(chosen), chosen, idx


def window_homology_oracle(complex_: FilteredComplex, a, b, r: int):
    """Elimination oracle of `window_homology`: the window complex, a kernel
    basis of its degree-r boundary, and the cycles that extend a basis of
    the boundaries, all by the dense echelon."""
    keep, wc = window_complex(complex_, a, b)
    idx_r, cycles, d_rp1 = homology_basis_oracle(wc, r)
    if not idx_r:
        return 0, [], []
    boundaries = [d_rp1.column(j) for j in range(d_rp1.cols)]
    chosen = extend_basis_oracle(complex_.field, boundaries, cycles, len(idx_r))
    return len(chosen), chosen, [keep[i] for i in idx_r]


def _connecting(complex_: FilteredComplex, vec: tuple, src_glob: list[int],
                dst_glob: list[int]) -> tuple:
    """Connecting map: lift, apply the full boundary, restrict to the target."""
    field, d_rows = complex_.field, complex_.boundary.entries
    look = {g: i for i, g in enumerate(dst_glob)}
    out = [field.zero()] * len(dst_glob)
    for i, g in enumerate(src_glob):
        v = vec[i]
        if not v:
            continue
        for h in range(len(complex_.generators)):
            e = d_rows[h][g]
            if e and h in look:
                out[look[h]] = out[look[h]] + v * e
    return tuple(out)


def les_check_oracle(complex_: FilteredComplex, a, b, c) -> bool:
    """Elimination oracle of `les_check`: a window complex per window, and
    dense kernels and echelons per window and degree for every induced rank."""
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
            idx_r, cycles, d_rp1 = homology_basis_oracle(wc, r)
            cache[(w, r)] = ([keep[i] for i in idx_r], cycles, d_rp1)
        return cache[(w, r)]

    def dim(w, r):
        glob, cycles, bnd = at(w, r)
        return induced_homology_rank_oracle(field, cycles, cycles, bnd, len(glob))

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

        r_j1 = induced_homology_rank_oracle(field, z_ab, img_j1, b_ac, len(g_ac))
        r_j2 = induced_homology_rank_oracle(field, z_ac, img_j2, b_bc, len(g_bc))
        r_delta = induced_homology_rank_oracle(field, z_bc, img_delta, b_ab1, len(g_ab1))

        if induced_homology_rank_oracle(field, z_ab, img_j2j1, b_bc, len(g_bc)) != 0:
            ok = False  # j2 . j1 != 0
        if induced_homology_rank_oracle(field, z_ac, img_dj2, b_ab1, len(g_ab1)) != 0:
            ok = False  # delta . j2 != 0
        if induced_homology_rank_oracle(field, z_bc, img_j1d, b_ac1, len(g_ac1)) != 0:
            ok = False  # j1 . delta != 0
        if r_j1 + r_j2 != dim(ac, r):
            ok = False  # exactness at H_r(a,c)
        if r_j2 + r_delta != dim(bc, r):
            ok = False  # exactness at H_r(b,c)
        # exactness at H_{r-1}(a,b) uses delta from degree r and j1 at r-1
        img_j1_down = _reindex(field, z_ab1, g_ab1, g_ac1)
        r_j1_down = induced_homology_rank_oracle(field, z_ab1, img_j1_down, b_ac1, len(g_ac1))
        if r_delta + r_j1_down != dim(ab, r - 1):
            ok = False
    return ok


# -- egg-beater oracles ------------------------------------------------------
# The egg-beater map on Fractions and `Matrix`, the description the integer
# solver of `egb.eggbeater` is pinned to.


class ReductionWindowError(ValueError):
    """A lifted trajectory missed its reduction window: the point does not
    realize the prescribed winding class."""


def u0(s) -> Fraction:
    """Tent shear profile 1 - |s| on [-1, 1]."""
    s = Fraction(s)
    if not -1 <= s <= 1:
        raise ValueError(f"u0 argument {s} outside [-1, 1]")
    return 1 - abs(s)


def h0(s) -> Fraction:
    """Normalized tent Hamiltonian s - sign(s) s^2/2 (odd, h0(+-1) = +-1/2)."""
    s = Fraction(s)
    if not -1 <= s <= 1:
        raise ValueError(f"h0 argument {s} outside [-1, 1]")
    return s - s * abs(s) / 2  # sign(s) s^2 = s |s|


def phi_block(x, y, mu, nu, lam) -> tuple[Fraction, Fraction]:
    """One vertical-then-horizontal block of the lifted map on the square.

    Equals HV . r_{nu lam} . f . VH . r_{mu lam} . f on its domain; both
    reduction windows are checked, and a miss signals that the input does
    not follow the prescribed winding class.
    """
    x, y, mu, nu, lam = (Fraction(v) for v in (x, y, mu, nu, lam))
    if not (-1 < x < 1 and -1 < y < 1):
        raise ReductionWindowError(f"input ({x}, {y}) outside the open square")
    y2 = y + lam * u0(x) - mu * lam
    if not -1 < y2 < 1:
        raise ReductionWindowError(
            f"vertical reduction window missed: intermediate height {y2}"
        )
    x2 = x + lam * u0(y2) - nu * lam
    if not -1 < x2 < 1:
        raise ReductionWindowError(
            f"horizontal reduction window missed: intermediate height {x2}"
        )
    return (x2, y2)


def block_matrix(j: int, signs: tuple[int, ...], lam) -> Matrix:
    """Coefficient matrix of block j (0-based): det = 1 and it factors into
    the two parabolic shears."""
    lam = Fraction(lam)
    e1 = _eps(signs, 2 * j + 1)
    e4 = _eps(signs, 2 * j + 4)
    return Matrix.from_rows(
        QQ_FIELD,
        [[1 + e4 * e1 * lam * lam, -e4 * lam], [-e1 * lam, Fraction(1)]],
    )


def block_vector(j: int, signs: tuple[int, ...], lam, mu_j, nu_j) -> tuple[Fraction, Fraction]:
    lam, mu_j, nu_j = Fraction(lam), Fraction(mu_j), Fraction(nu_j)
    e4 = _eps(signs, 2 * j + 4)
    return (
        -e4 * (1 - mu_j) * lam * lam + (1 - nu_j) * lam,
        (1 - mu_j) * lam,
    )


def leading_sum(signs: tuple[int, ...], mu, nu) -> Fraction:
    """Coefficient of lambda/2 in the action: the signed sum of squared
    winding complements."""
    mu = tuple(Fraction(v) for v in mu)
    nu = tuple(Fraction(v) for v in nu)
    total = Fraction(0)
    for j in range(len(mu)):
        e1, e4 = _eps(signs, 2 * j + 1), _eps(signs, 2 * j + 4)
        total += e1 * (1 - mu[j]) ** 2 - e4 * (1 - nu[j]) ** 2
    return total


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


def coefficient_sums_distinct(p: int, mu, nu) -> bool:
    """Are the 4^p leading coefficient sums pairwise distinct?"""
    sums = {leading_sum(tuple(s), mu, nu) for s in sign_vectors(p)}
    return len(sums) == 4 ** p


def min_leading_gap(p: int, mu, nu) -> Fraction:
    """Minimum pairwise distance of the leading coefficient sums (per lam/2)."""
    sums = sorted(leading_sum(tuple(s), mu, nu) for s in sign_vectors(p))
    gaps = [b - a for a, b in zip(sums, sums[1:])]
    return min(gaps) if gaps else Fraction(0)


# -- the Z_p module writer ----------------------------------------------------


def zp_module_to_obj(module: ZpPersistenceModule) -> dict:
    obj = module_to_obj(module.base)
    obj["p"] = module.p
    obj["action"] = [matrix_to_obj(a) for a in module.action]
    return obj


# -- record output oracles ---------------------------------------------------------


def _frac_or_none(x):
    return None if x is None else frac_str(x)


def action_leading(r) -> Fraction:
    """A record's leading action lam/2 (leading sum), built from its pair."""
    return Fraction(*r.leading_ratio)


def record_det(r) -> Fraction:
    """A record's det(A_bar - id), built from its pair."""
    return Fraction(*r.det_ratio)


def kink_distance(r) -> Fraction | None:
    """A record's kink distance, its numerator over `den`; None when rejected."""
    return None if r.kink_numerator is None else Fraction(r.kink_numerator, r.den)


def odd_points(even) -> tuple:
    """(x_{2j+1}, y_{2j+1}) = (-y_{2j+2}, x_{2j}), indices mod 2p, from the
    p even points of an orbit: the intermediate point (x_{2j}, y_{2j+2}) of
    block j, turned by (x, y) -> (-y, x) into the square of the horizontal
    shear."""
    p = len(even)
    return tuple((-even[(j + 1) % p][1], even[j][0]) for j in range(p))


def record_to_obj(r) -> dict:
    """The JSON object of one egg-beater record: `frac_str` of every
    coordinate, the start point read from the record and the odd points
    formed from its even points."""
    point = r.point
    return {
        "signs": r.label(),
        "valid": r.valid,
        "rejection_reason": r.reason,
        "x0": frac_str(point[0]) if point else None,
        "y0": frac_str(point[1]) if point else None,
        "even_points": [[frac_str(x), frac_str(y)] for x, y in r.even_points],
        "odd_points": [[frac_str(x), frac_str(y)] for x, y in odd_points(r.even_points)],
        "action_exact": _frac_or_none(r.action),
        "action_leading": frac_str(action_leading(r)),
        "det": frac_str(record_det(r)),
        "kink_distance": _frac_or_none(kink_distance(r)),
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


def reduce_oracle(letters) -> tuple[int, ...]:
    """The freely reduced letters, by the pairwise loop over a stack: each
    letter cancels the last kept one if it is its inverse, else is kept."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce_oracle(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The cyclic reduction of reduced letters: count the inverse pairs at the
    two ends letter by letter, while 2 depth + 2 <= len, then slice once."""
    depth = 0
    while 2 * depth + 2 <= len(letters) and letters[depth] == -letters[-1 - depth]:
        depth += 1
    return letters[depth:len(letters) - depth]


def format_oracle(letters: tuple[int, ...]) -> str:
    """`a^3 b^-2 c` text of reduced letters, walked letter by letter: one
    power per run of equal letters, "1" for the empty word."""
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        name = "abc"[abs(letters[i]) - 1]
        exp = j - i if letters[i] > 0 else i - j
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def is_rotation(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Whether v is a rotation u[i:] + u[:i] of u, by the definition.  Turn v
    to start where a letter differs from the one before it (cyclically); a
    rotation of u equal to that starts at such a place of u too, so only
    those are compared.  A power of one letter has none and is compared whole."""
    if len(u) != len(v):
        return False
    j = next((j for j in range(len(v)) if v[j] != v[j - 1]), 0)
    turned = v[j:] + v[:j]
    starts = [i for i in range(len(u)) if u[i] != u[i - 1]] or [0]
    return any(u[i:] + u[:i] == turned for i in starts)


# the image of each groupoid edge after contracting q2: q1 -> a, q2 -> 1,
# q3 -> c, q4 -> c^-1 b; V segments loop with a, H segments with b
EDGE_LETTERS = {"q1": (1,), "q2": (), "q3": (3,), "q4": (-3, 2)}


def itinerary_oracle(segments) -> tuple[int, ...]:
    """The reduced letters of a loop itinerary at A, segment by segment from
    the trajectory-type table: the edge back to A when a segment starts at B,
    winding - 1 loop letters (winding for A -> A), the edge into B when it
    ends there."""
    letters: list[int] = []
    for s in segments:
        loop, into, back = (1, "q1", "q2") if s.flow == "V" else (2, "q3", "q4")
        if (s.src, s.dst) == ("A", "A"):
            letters += [loop] * s.winding
            continue
        letters += EDGE_LETTERS[back] if s.src == "B" else ()
        letters += [loop] * (s.winding - 1)
        letters += EDGE_LETTERS[into] if s.dst == "B" else ()
    return reduce_oracle(letters)


def inverse_letters(word: Word) -> tuple[int, ...]:
    """The letters of the inverse word: reversed, each inverted."""
    return tuple(-x for x in reversed(word.letters))


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
    """Dense oracle of `eigenspace_family_oracle`: the direct sum of one
    cyclic tuple module per tuple, deaths at +inf, assembled in one pass (p
    new generators appear at each action value)."""
    if not model_input.tuples:
        raise ValueError("model needs at least one tuple")
    p = model_input.p
    field = CyclotomicField(p)
    spectrum = tuple(a for a, _ in model_input.tuples)
    m = len(spectrum)
    dims = tuple(p * i for i in range(m + 1))
    z, o = field.zero(), field.one()
    transitions = []
    for i in range(m):
        # inclusion of the alive generators; the p newborn rows are zero
        ent = [[o if r == c else z for c in range(dims[i])] for r in range(dims[i])]
        ent.extend([[z] * dims[i] for _ in range(p)])
        transitions.append(Matrix.from_rows(field, ent))
    cyc = cyclic_permutation_matrix(field, p).entries
    action = []
    for i in range(m + 1):
        blocks = i  # tuples alive on constancy interval i
        n = p * blocks
        ent = [[z] * n for _ in range(n)]
        for b in range(blocks):
            for r in range(p):
                for c in range(p):
                    ent[b * p + r][b * p + c] = cyc[r][c]
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

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

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


def frac_cyclo_from_rational(p: int, q) -> FracCyclotomicNumber:
    coords = [Fraction(q)] + [Fraction(0)] * (p - 2)
    return FracCyclotomicNumber(p, tuple(coords))


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
