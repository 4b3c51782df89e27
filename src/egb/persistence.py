"""Barcodes, finite persistence modules and filtered chain complexes.

Conventions (fixed once, used everywhere):

* bars and intervals are half-open ``(birth, death]``, death may be +inf;
* a module with spectrum ``s_0 < ... < s_{m-1}`` is constant on the m+1
  intervals ``(-inf, s_0], (s_0, s_1], ..., (s_{m-1}, +inf)``, so the value
  at a spectrum point is the limit from the left;
* sublevel complexes are spanned by generators of action strictly below the
  cutoff, which makes the barcode of a filtered complex literally a
  multiset of ``(birth, death]`` bars.

Every barcode, kernel and rank here comes from the one sparse column
reduction of `egb.field`, `_reduce_columns`: of the images of a module's
basis at each transition of its elder-rule sweep, of a complex's boundary,
kept as sparse columns built once, for R = DV, and of the induced maps of
`les_check`.  Each update of a sparse column is the field's `sub_mul` x - f*a.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .field import Field, Matrix, _apply, _axpy, _reduce_columns, _reduce_with_v, _sparse_columns

INF = float("inf")


def is_inf(x) -> bool:
    return isinstance(x, float) and x == INF


def min_gap(pairs) -> Fraction | float:
    """Least distance between the values n / d of integer pairs (n, d > 0),
    given in any order and not necessarily reduced; +inf for fewer than two.

    The pairs are sorted on the integer key floor(n 2^64 / d).  Distinct keys
    order the values exactly, and 2^64 times the gap of two values differs
    from their key difference by less than 1.  So with m the least key
    difference of neighbours, the gap of that pair is below (m + 1) 2^-64,
    and no pair whose keys differ by more than m + 1 can have the least gap:
    only the neighbours within m + 1 are compared exactly, on cross
    products, and one Fraction is built, for the answer.  Tied keys (m = 0)
    leave the order open, so the pairs are re-sorted by key, then exact
    value; the same cut holds, since in exact order keys 2 or more apart
    mean a gap above 2^-64, and the least gap is below it."""
    keyed = sorted(((n << 64) // d, n, d) for n, d in pairs)
    if len(keyed) < 2:
        return INF
    steps = [b[0] - a[0] for a, b in zip(keyed, keyed[1:])]
    least = min(steps)
    if least == 0:  # the re-sort keeps the keys, so the steps too
        keyed.sort(key=lambda t: (t[0], Fraction(t[1], t[2])))
    best = None
    for step, (_, n0, d0), (_, n1, d1) in zip(steps, keyed, keyed[1:]):
        if step <= least + 1:
            gap = n1 * d0 - n0 * d1, d0 * d1
            if best is None or gap[0] * best[1] < best[0] * gap[1]:
                best = gap
    return Fraction(*best)


def _order_key(x: Fraction) -> tuple:
    """Exact sort key of a Fraction: floor(x * 2^64), which never decreases
    as x grows, then x itself for the rare tie, so sorting compares integers."""
    return ((x.numerator << 64) // x.denominator, x)


@dataclass(frozen=True)
class Bar:
    """Half-open interval (birth, death], death possibly +inf: a bar of a
    barcode, or a query interval of `multiplicity`."""

    birth: Fraction
    death: Fraction | float

    def __post_init__(self):
        if not isinstance(self.birth, Fraction):
            object.__setattr__(self, "birth", Fraction(self.birth))
        if not (isinstance(self.death, Fraction) or is_inf(self.death)):
            object.__setattr__(self, "death", Fraction(self.death))
        if not (is_inf(self.death) or self.birth < self.death):
            raise ValueError(f"empty bar ({self.birth}, {self.death}]")

    @property
    def finite(self) -> bool:
        return not is_inf(self.death)

    @property
    def length(self):
        return self.death - self.birth if self.finite else INF

    def contains(self, other: "Bar") -> bool:
        """True iff this bar contains the other (set containment)."""
        return self.birth <= other.birth and (
            not self.finite or other.finite and self.death >= other.death)

    def __str__(self):
        d = "inf" if not self.finite else str(self.death)
        return f"({self.birth}, {d}]"

    def shrink(self, c) -> "Bar":
        """(a, b] -> (a+c, b-c]; an infinite death stays fixed."""
        c = Fraction(c)
        if c < 0:
            raise ValueError("shrink amount must be >= 0")
        if self.finite and self.length <= 2 * c:
            raise ValueError(f"cannot shrink {self} by {c}: length {self.length} <= 2c")
        return Bar(self.birth + c, self.death - c if self.finite else INF)


def _degree_key(d):
    return (0, d) if d is not None else (1, 0)


def _death_key(d):
    return (1, 0) if is_inf(d) else (0, d)


@dataclass(frozen=True)
class Barcode:
    """Multiset of bars with multiplicities and an optional degree per bar.

    Canonical form: entries are (bar, multiplicity, degree) with duplicates
    merged and a fixed sort order, so equality is multiset equality.
    """

    items: tuple[tuple[Bar, int, int | None], ...]

    def __post_init__(self):
        # merged on integer pairs, exact as a Fraction is kept in lowest terms
        merged: dict = {}
        for bar, mult, degree in self.items:
            if type(mult) is not int:  # a bool, float or Fraction is refused too
                raise ValueError(f"multiplicity must be an int, got {mult!r}")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            b, d = bar.birth, bar.death
            key = (b.numerator, b.denominator,
                   None if is_inf(d) else (d.numerator, d.denominator), degree)
            entry = merged.setdefault(key, [bar, 0, degree])
            entry[1] += mult
        canon = sorted(
            map(tuple, merged.values()),
            key=lambda e: (_order_key(e[0].birth), _death_key(e[0].death), _degree_key(e[2])),
        )
        object.__setattr__(self, "items", tuple(canon))

    @classmethod
    def of(cls, entries) -> "Barcode":
        """Build from (bar, mult) or (bar, mult, degree) tuples, or plain Bars."""
        items = []
        for e in entries:
            if isinstance(e, Bar):
                items.append((e, 1, None))
            elif len(e) == 2:
                items.append((e[0], e[1], None))
            else:
                items.append((e[0], e[1], e[2]))
        return cls(tuple(items))

    @classmethod
    def empty(cls) -> "Barcode":
        return cls(())

    def expand(self) -> list[tuple[Bar, int | None]]:
        """One (bar, degree) entry per unit of multiplicity."""
        out = []
        for bar, mult, degree in self.items:
            out.extend([(bar, degree)] * mult)
        return out

    def bars(self) -> list[Bar]:
        return [bar for bar, _ in self.expand()]

    def infinite_count(self) -> int:
        return sum(m for bar, m, _ in self.items if not bar.finite)

    def union(self, other: "Barcode") -> "Barcode":
        return Barcode(self.items + other.items)

    def repeat(self, n: int) -> "Barcode":
        """n copies of every bar: the multiplicities scale and the canonical
        order stays, so nothing is merged or sorted again."""
        if type(n) is not int:  # the items skip the constructor's check
            raise ValueError(f"repeat count must be an int, got {n!r}")
        if n < 0:
            raise ValueError("negative repeat")
        if n == 0:
            return Barcode.empty()
        return _canonical((bar, m * n, deg) for bar, m, deg in self.items)

    def is_empty(self) -> bool:
        return not self.items


def _canonical(items) -> Barcode:
    """A barcode of items already merged and in canonical order, which are
    stored as given: the caller's order is the one the constructor would sort."""
    barcode = object.__new__(Barcode)
    object.__setattr__(barcode, "items", tuple(items))
    return barcode


def multiplicity(barcode: Barcode, query: Bar) -> int:
    """Number of bars (with multiplicities) containing the query interval."""
    b, d = query.birth, query.death
    if is_inf(d):
        return _multiplicity(barcode, b.numerator, None, b.denominator)
    return _multiplicity(barcode, b.numerator * d.denominator, d.numerator * b.denominator,
                         b.denominator * d.denominator)


def _multiplicity(barcode: Barcode, lo: int, hi: int | None, den: int) -> int:
    """Number of bars containing (lo/den, hi/den], hi None for +inf, on
    integers: each end is compared by cross products with den > 0, and the
    count stops at the first bar born after lo/den, since the items are
    sorted by birth."""
    total = 0
    for bar, m, _ in barcode.items:
        b = bar.birth
        if b.numerator * den > lo * b.denominator:
            break
        e = bar.death
        if is_inf(e) or hi is not None and e.numerator * den >= hi * e.denominator:
            total += m
    return total


def longest_finite_bar(barcode: Barcode) -> Fraction:
    """Maximal length over finite bars; 0 for barcodes without finite bars."""
    lengths = [bar.length for bar, _, _ in barcode.items if bar.finite]
    return max(lengths) if lengths else Fraction(0)


# -- finite persistence modules ----------------------------------------------


@dataclass(frozen=True)
class FinitePersistenceModule:
    """Pointwise finite persistence module with finite spectrum.

    ``dims[i]`` is the dimension on the i-th constancy interval and
    ``transitions[i]`` is the map across spectrum point ``spectrum[i]``,
    a ``dims[i+1] x dims[i]`` matrix.
    """

    field: Field
    spectrum: tuple[Fraction, ...]
    dims: tuple[int, ...]
    transitions: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "spectrum", tuple(Fraction(s) for s in self.spectrum))
        m = len(self.spectrum)
        if any(self.spectrum[i] >= self.spectrum[i + 1] for i in range(m - 1)):
            raise ValueError("spectrum must be strictly increasing")
        if len(self.dims) != m + 1:
            raise ValueError(f"need {m + 1} dims for {m} spectrum points")
        if self.dims and self.dims[0] != 0:
            raise ValueError("dimension before the first spectrum point must be 0")
        if len(self.transitions) != m:
            raise ValueError(f"need {m} transitions for {m} spectrum points")
        for i, t in enumerate(self.transitions):
            if t.field != self.field:
                raise ValueError("transition over wrong field")
            if (t.rows, t.cols) != (self.dims[i + 1], self.dims[i]):
                raise ValueError(
                    f"transition {i} is {t.rows}x{t.cols}, expected "
                    f"{self.dims[i + 1]}x{self.dims[i]}"
                )

    @property
    def num_intervals(self) -> int:
        return len(self.dims)

    def composite(self, u: int, v: int) -> Matrix:
        """Composite transition from constancy interval u to interval v >= u;
        kept in the library only because the benchmark tracer wraps it by name."""
        if not 0 <= u <= v <= len(self.spectrum):
            raise ValueError(f"bad interval pair ({u}, {v})")
        out = Matrix.identity(self.field, self.dims[u])
        for i in range(u, v):
            out = self.transitions[i] @ out
        return out

    def rank_table(self) -> list[list[int]]:
        """rank of the composite map interval u -> interval v, for all u <= v, by
        O(m^2) products and ranks; kept in the library only because the
        benchmark tracer wraps it by name."""
        n = self.num_intervals
        table = [[0] * n for _ in range(n)]
        for u in range(n):
            acc = Matrix.identity(self.field, self.dims[u])
            table[u][u] = self.dims[u]
            for v in range(u + 1, n):
                acc = self.transitions[v - 1] @ acc
                table[u][v] = acc.rank()
        return table


def barcode_of_module(module: FinitePersistenceModule) -> Barcode:
    """Decompose into interval modules in one left-to-right sweep under the
    elder rule (Zomorodian and Carlsson, "Computing persistent homology", 2005).

    The sweep carries a sparse basis of the current constancy interval,
    oldest birth first, such that the vectors born by any time t span the
    image of the module at t.  At spectrum point s, `_reduce_columns` reduces
    the images T b, oldest first: an image that reduces to zero (a
    combination of older images) dies as the bar (birth, s], a nonzero
    reduced image keeps its birth and stays in the basis, and the e_r at the
    rows r that no reduced image has as its lowest row are the classes born
    at s.  What survives the last transition becomes (birth, +inf].
    """
    field, live, bars = module.field, [], []  # live: (birth, basis vector)
    for s, t in zip(module.spectrum, module.transitions):
        cols = _sparse_columns(t)
        images = [_apply(field, cols, v) for _, v in live]
        owned = _reduce_columns(field, images)[0]
        bars += [Bar(b, s) for (b, _), image in zip(live, images) if not image]
        live = [(b, image) for (b, _), image in zip(live, images) if image]
        live += [(s, {r: field.one()}) for r in range(t.rows) if r not in owned]
    return Barcode.of(bars + [Bar(b, INF) for b, _ in live])


# -- filtered chain complexes --------------------------------------------------


@dataclass(frozen=True)
class FilteredComplex:
    """Finite filtered chain complex: generators with (action, degree), and a
    degree -1 boundary D that strictly decreases action, also kept as sparse
    ``columns``: i -> D[i][j] != 0 in column j, so dict equality is vector equality."""

    field: Field
    generators: tuple[tuple[Fraction, int], ...]
    boundary: Matrix
    columns: tuple[dict, ...] = dataclass_field(init=False, compare=False)

    def __post_init__(self):
        gens = tuple((Fraction(a), int(d)) for a, d in self.generators)
        object.__setattr__(self, "generators", gens)
        n = len(gens)
        if (self.boundary.rows, self.boundary.cols) != (n, n):
            raise ValueError("boundary must be square on the generators")
        if self.boundary.field != self.field:
            raise ValueError("boundary over wrong field")
        cols = _sparse_columns(self.boundary)
        for j, col in enumerate(cols):
            for i in col:
                if gens[i][1] != gens[j][1] - 1:
                    raise ValueError(f"boundary entry {i},{j} does not drop degree by 1")
                if gens[i][0] >= gens[j][0]:
                    raise ValueError(f"boundary entry {i},{j} does not decrease action")
        if any(_apply(self.field, cols, col) for col in cols):
            raise ValueError("boundary squared is nonzero")
        object.__setattr__(self, "columns", cols)

    def spectrum(self) -> list[Fraction]:
        return sorted({a for a, _ in self.generators})


def _reduce(complex_: FilteredComplex):
    """The standard column reduction R = DV in the filtration order.

    Returns ``(order, R, V, pairs)``: ``order`` lists the generators by
    (action, index); ``R[j]`` and ``V[j]`` are sparse columns (position ->
    entry, positions in ``order``) with R = DV, V upper unitriangular and
    the lowest nonzero rows of the nonzero R columns distinct; ``pairs``
    holds each (low R_j, j).  Since the boundary strictly lowers action,
    ``low R_j`` always has a smaller action than ``j``.
    """
    order = sorted(range(len(complex_.generators)), key=lambda k: (complex_.generators[k][0], k))
    pos = {g: i for i, g in enumerate(order)}
    R = [{pos[i]: v for i, v in complex_.columns[g].items()} for g in order]
    lows, V = _reduce_with_v(complex_.field, R)
    return order, R, V, list(lows.items())


class _NormalForm:
    """The Barannikov normal form of a filtered complex, read off R = DV.

    Positions are the generators in the filtration order of `_reduce`.  The
    basis is b_i = R_j and b_j = V_j for each pair (i = low R_j, j), and
    b_g = V_g for every other generator g, so the boundary is the partial
    matching D b_j = b_i.  Each b_g has g as its leading term: the basis is
    upper triangular in the filtration order, and the b_g with action below
    t span the sublevel complex C^{<t}.  ``lp[x]`` is the action of low R_x
    (-inf when R_x = 0) and ``kill[x]`` that of the j with x = low R_j (+inf
    when there is none); b_x is a cycle modulo C^{<a} iff lp(x) < a, and a
    boundary in C^{<b} iff kill(x) < b.
    """

    def __init__(self, complex_: FilteredComplex):
        order, R, V, pairs = _reduce(complex_)
        self.field = complex_.field
        self.order = order
        self.pos = {g: i for i, g in enumerate(order)}
        self.act = [complex_.generators[g][0] for g in order]
        self.deg = [complex_.generators[g][1] for g in order]
        self.basis = list(V)
        self.kill: list[Fraction | float] = [INF] * len(order)
        for i, j in pairs:
            self.basis[i] = R[j]
            self.kill[i] = self.act[j]
        self.lp = [self.act[max(col)] if col else -INF for col in R]

    def columns(self, cols) -> list[dict]:
        """Sparse columns of a square matrix on the generators, moved to positions."""
        return [{self.pos[h]: v for h, v in cols[g].items()} for g in self.order]

    def window_basis(self, lo, hi, r: int) -> list[int]:
        """The x whose b_x represent a basis of the degree-r homology of the
        window C^{<hi}/C^{<lo}: lo < act(x) < hi, lp(x) < lo and kill(x) > hi.
        The other basis vectors in the window pair up under the boundary."""
        return [x for x in range(len(self.order))
                if self.deg[x] == r and lo < self.act[x] < hi
                and self.lp[x] < lo and self.kill[x] > hi]

    def coordinates(self, chain: dict, floor: int = 0):
        """Back substitution: while the leading position of ``chain`` is at
        least ``floor``, peel off that basis vector and yield its
        (position, coefficient).  ``chain`` is consumed; what is left of it
        lies below ``floor``."""
        while chain:
            y = max(chain)
            if y < floor:
                return
            factor = chain[y] / self.basis[y][y]
            _axpy(self.field, chain, factor, self.basis[y])
            yield y, factor

    def window_class(self, chain: dict, lo, hi, target: list[int]) -> dict | None:
        """The class of a cycle of C^{<hi}/C^{<lo} as a sparse column on
        ``target`` = ``window_basis(lo, hi, r)``, index in the target ->
        nonzero coordinate; None when the chain is not a window cycle, i.e. it
        has a coordinate off the target on a b_y that is not a boundary in
        the window."""
        index = {x: k for k, x in enumerate(target)}
        out = {}
        for y, c in self.coordinates(dict(chain), bisect.bisect_right(self.act, lo)):
            if y in index:
                out[index[y]] = c
            elif not (self.lp[y] < lo and self.kill[y] < hi):
                return None
        return out


def barcode_of_complex(complex_: FilteredComplex) -> Barcode:
    """Graded barcode of sublevel homology: each cycle b_x of the normal form
    is a bar (act(x), kill(x)]."""
    nf = _NormalForm(complex_)
    return Barcode.of([(Bar(nf.act[x], nf.kill[x]), 1, nf.deg[x])
                       for x in range(len(nf.order)) if nf.lp[x] == -INF])


def _check_window(complex_: FilteredComplex, *cuts) -> None:
    spec = set(complex_.spectrum())
    for c in cuts:
        if Fraction(c) in spec:
            raise ValueError(f"window endpoint {c} collides with the action spectrum")


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
    ent = complex_.boundary.entries
    return Matrix(complex_.field, len(rows), len(cols),
                  tuple(tuple(ent[i][j] for j in cols) for i in rows))


def homology_basis(complex_: FilteredComplex, r: int):
    """Cycle representatives of a homology basis in degree r, plus the data
    needed to test membership in the boundary space.

    Returns (chain_indices, cycle_basis, boundary_matrix) where chain_indices
    are the generator indices of degree r, cycle_basis is a list of
    coordinate vectors over those indices, and boundary_matrix has the
    degree-(r+1) boundaries as columns.
    """
    idx_rm1, idx_r, idx_rp1 = (
        [i for i, (_, d) in enumerate(complex_.generators) if d == deg]
        for deg in (r - 1, r, r + 1)
    )
    cycles = _boundary_block(complex_, idx_rm1, idx_r).kernel_basis() if idx_r else []
    return idx_r, cycles, _boundary_block(complex_, idx_r, idx_rp1)


def _extend_basis(field: Field, basis: list[tuple], candidates: list[tuple],
                  dim: int) -> list[tuple]:
    """The candidates independent of ``basis`` and of the candidates before
    them: the columns past the basis that keep a low in one reduction of
    [basis | candidates], since a column keeps one exactly when it is
    independent of the columns before it."""
    columns = _sparse_columns(Matrix.from_columns(field, basis + candidates, dim))
    k = len(basis)
    return [candidates[j - k] for j in _reduce_columns(field, columns)[0].values() if j >= k]


def induced_homology_rank(
    field: Field,
    src_cycles: list[tuple],
    images: list[tuple],
    dst_boundary: Matrix,
    dst_dim: int,
) -> int:
    """Rank of an induced map on homology, without choosing homology bases.

    ``images`` are the chain-level images of a cycle basis of the source; the
    rank is rank[images | B_dst] - rank[B_dst] (well-defined because the chain
    map sends boundaries to boundaries): the number of images that keep a low
    in one column reduction of [B_dst | images].
    """
    if not src_cycles or dst_dim == 0:
        return 0
    boundaries = [dst_boundary.column(j) for j in range(dst_boundary.cols)]
    return len(_extend_basis(field, boundaries, images, dst_dim))


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


def les_check(complex_: FilteredComplex, a, b, c) -> bool:
    """Exactness of the prescribed sequence V^{(a,b)} -> V^{(a,c)} -> V^{(b,c)}
    -> V^{(a,b)}[1] in window homology.

    The maps are evaluated on the normal-form bases of
    `_NormalForm.window_basis`, and each image is written in the target basis
    by back substitution: j1 and j2 take b_x to the target window, and the
    connecting map applies the boundary D to b_x and keeps its part in
    (a, b).  An image that is not a window cycle fails the check.  The maps
    stay sparse columns: at every degree, consecutive maps must compose to
    zero under `_apply`, and the ranks `_reduce_columns` gives must add up to
    the middle dimension (im = ker at each node).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not a < b < c:
        raise ValueError("need a < b < c")
    _check_window(complex_, a, b, c)
    if not complex_.generators:
        return True
    nf = _NormalForm(complex_)
    field, d_cols = nf.field, nf.columns(complex_.columns)

    def induced(chains, lo, hi, r):
        """(sparse columns, target dimension, rank) of the map taking each
        chain to its class in the window (lo, hi) at degree r; None when a
        chain is not a window cycle."""
        target = nf.window_basis(lo, hi, r)
        cols = [nf.window_class(chain, lo, hi, target) for chain in chains]
        if None in cols:
            return None
        return cols, len(target), len(_reduce_columns(field, [dict(col) for col in cols])[0])

    # maps[r] = (j1, j2, delta) with delta from degree r to degree r - 1
    maps = {}
    for r in range(min(nf.deg) - 1, max(nf.deg) + 2):
        j1 = induced([nf.basis[x] for x in nf.window_basis(a, b, r)], a, c, r)
        j2 = induced([nf.basis[x] for x in nf.window_basis(a, c, r)], b, c, r)
        delta = induced([_apply(field, d_cols, nf.basis[x]) for x in nf.window_basis(b, c, r)],
                        a, b, r - 1)
        if None in (j1, j2, delta):
            return False
        maps[r] = j1, j2, delta

    def vanishes(g, f):
        """g after f is zero."""
        return not any(_apply(field, g[0], col) for col in f[0])

    def exact(r):
        (j1, j2, delta), j1_down = maps[r], maps[r - 1][0]
        return (vanishes(j2, j1) and vanishes(delta, j2) and vanishes(j1_down, delta)
                and j1[2] + j2[2] == j1[1]  # at H_r(a,c)
                and j2[2] + delta[2] == j2[1]  # at H_r(b,c)
                and delta[2] + j1_down[2] == delta[1])  # at H_{r-1}(a,b)

    return all(exact(r) for r in range(min(nf.deg), max(nf.deg) + 2))
