"""Barcodes, finite persistence modules and filtered chain complexes.

Conventions (fixed once, used everywhere):

* bars and intervals are half-open ``(birth, death]``, death may be +inf;
* a module with spectrum ``s_0 < ... < s_{m-1}`` is constant on the m+1
  intervals ``(-inf, s_0], (s_0, s_1], ..., (s_{m-1}, +inf)``, so the value
  at a spectrum point is the limit from the left;
* sublevel complexes are spanned by generators of action strictly below the
  cutoff, which makes the barcode of a filtered complex literally a
  multiset of ``(birth, death]`` bars.

A module's barcode comes from one left-to-right elder-rule sweep over its
transitions; everything on a complex reads the one R = DV reduction.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .field import Field, Matrix

INF = float("inf")


def is_inf(x) -> bool:
    return isinstance(x, float) and x == INF


@dataclass(frozen=True)
class Bar:
    """Half-open interval (birth, death], death possibly +inf."""

    birth: Fraction
    death: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "birth", Fraction(self.birth))
        if not is_inf(self.death):
            object.__setattr__(self, "death", Fraction(self.death))
        if not self.birth < self.death:
            raise ValueError(f"empty bar ({self.birth}, {self.death}]")

    @property
    def finite(self) -> bool:
        return not is_inf(self.death)

    @property
    def length(self):
        return self.death - self.birth if self.finite else INF

    def contains(self, other: "Interval") -> bool:
        """True iff this bar contains the interval (set containment)."""
        if self.birth > other.left:
            return False
        if is_inf(other.right):
            return not self.finite
        return not self.finite or self.death >= other.right

    def __str__(self):
        d = "inf" if not self.finite else str(self.death)
        return f"({self.birth}, {d}]"


@dataclass(frozen=True)
class Interval:
    """Half-open query interval (left, right], right possibly +inf."""

    left: Fraction
    right: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "left", Fraction(self.left))
        if not is_inf(self.right):
            object.__setattr__(self, "right", Fraction(self.right))
        if not self.left < self.right:
            raise ValueError(f"empty interval ({self.left}, {self.right}]")

    @property
    def length(self):
        return self.right - self.left if not is_inf(self.right) else INF

    def shrink(self, c) -> "Interval":
        """(a, b] -> (a+c, b-c]; an infinite right end stays fixed."""
        c = Fraction(c)
        if c < 0:
            raise ValueError("shrink amount must be >= 0")
        if is_inf(self.right):
            return Interval(self.left + c, INF)
        if self.length <= 2 * c:
            raise ValueError(f"cannot shrink {self} by {c}: length {self.length} <= 2c")
        return Interval(self.left + c, self.right - c)


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
        merged: dict = {}
        for bar, mult, degree in self.items:
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            key = (bar, degree)
            merged[key] = merged.get(key, 0) + mult
        canon = sorted(
            ((bar, m, deg) for (bar, deg), m in merged.items()),
            key=lambda e: (e[0].birth, _death_key(e[0].death), _degree_key(e[2])),
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
        if n < 0:
            raise ValueError("negative repeat")
        if n == 0:
            return Barcode.empty()
        return Barcode(tuple((bar, m * n, deg) for bar, m, deg in self.items))

    def is_empty(self) -> bool:
        return not self.items


def multiplicity(barcode: Barcode, interval: Interval) -> int:
    """Number of bars (with multiplicities) containing the interval."""
    return sum(m for bar, m, _ in barcode.items if bar.contains(interval))


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

    def interval_index(self, t) -> int:
        """Index of the constancy interval containing t (left-limit convention)."""
        return bisect.bisect_left(self.spectrum, Fraction(t))

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
        O(m^2) products and ranks: the test oracle of `barcode_of_module`, kept
        in the library because the benchmark tracer wraps it by name."""
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

    The sweep carries a basis B of the current constancy interval, oldest
    birth first, such that the vectors born by any time t span the image of
    the module at t.  At spectrum point s it echelons ``[T B | I]`` once: an
    image pivot keeps its birth, a non-pivot image (a combination of older
    images) dies as the bar (birth, s], and an identity pivot is a class born
    at s.  What survives the last transition becomes (birth, +inf].
    """
    field = module.field
    z, o = field.zero(), field.one()
    basis, births, bars = Matrix.zeros(field, 0, 0), [], []
    for s, t in zip(module.spectrum, module.transitions):
        n, k = t.rows, len(births)
        stacked = Matrix(field, n, k + n, tuple(
            row + (z,) * r + (o,) + (z,) * (n - 1 - r)
            for r, row in enumerate((t @ basis).entries)))
        pivots = stacked._echelon()[1]
        kept = set(pivots)
        bars += [Bar(births[j], s) for j in range(k) if j not in kept]
        births = [births[c] if c < k else s for c in pivots]
        basis = Matrix(field, n, len(pivots),
                       tuple(tuple(row[c] for c in pivots) for row in stacked.entries))
    return Barcode.of(bars + [Bar(b, INF) for b in births])


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
        Matrix(field, len(after), len(before),
               tuple(tuple(o if k == j else z for j in before) for k in after))
        for before, after in zip(alive, alive[1:])
    )
    return FinitePersistenceModule(
        field, tuple(points), tuple(len(a) for a in alive), transitions
    )


def refine_module(
    module: FinitePersistenceModule, points
) -> FinitePersistenceModule:
    """Same module on a spectrum enlarged by extra points (identity across them)."""
    new_spec = sorted(set(module.spectrum) | {Fraction(p) for p in points})
    dims = []
    transitions = []
    for i, s in enumerate(new_spec):
        u = module.interval_index(s)
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
    return Matrix(a.field, a.rows + b.rows, a.cols + b.cols, rows)


# -- filtered chain complexes --------------------------------------------------


@dataclass(frozen=True)
class FilteredComplex:
    """Finite filtered chain complex: generators with (action, degree), and a
    degree -1 boundary that strictly decreases action."""

    field: Field
    generators: tuple[tuple[Fraction, int], ...]
    boundary: Matrix

    def __post_init__(self):
        gens = tuple((Fraction(a), int(d)) for a, d in self.generators)
        object.__setattr__(self, "generators", gens)
        n = len(gens)
        if (self.boundary.rows, self.boundary.cols) != (n, n):
            raise ValueError("boundary must be square on the generators")
        if self.boundary.field != self.field:
            raise ValueError("boundary over wrong field")
        for j in range(n):
            for i in range(n):
                if not self.boundary.entries[i][j]:
                    continue
                if gens[i][1] != gens[j][1] - 1:
                    raise ValueError(
                        f"boundary entry {i},{j} does not drop degree by 1"
                    )
                if gens[i][0] >= gens[j][0]:
                    raise ValueError(
                        f"boundary entry {i},{j} does not decrease action"
                    )
        if not (self.boundary @ self.boundary).is_zero():
            raise ValueError("boundary squared is nonzero")

    @property
    def actions(self) -> list[Fraction]:
        return [a for a, _ in self.generators]

    def spectrum(self) -> list[Fraction]:
        return sorted({a for a, _ in self.generators})


def _axpy(target: dict, c, source: dict) -> None:
    """target += c * source on sparse columns, dropping the entries that cancel."""
    for r, v in source.items():
        nv = target[r] + c * v if r in target else c * v
        if nv:
            target[r] = nv
        else:
            target.pop(r, None)


def _apply(cols: list[dict], chain: dict) -> dict:
    """The image of a sparse chain under the matrix with sparse columns ``cols``."""
    image: dict = {}
    for g, c in chain.items():
        _axpy(image, c, cols[g])
    return image


def _reduce(complex_: FilteredComplex):
    """The standard column reduction R = DV in the filtration order.

    Returns ``(order, R, V, pairs)``: ``order`` lists the generators by
    (action, index); ``R[j]`` and ``V[j]`` are sparse columns (position ->
    entry, positions in ``order``) with R = DV, V upper unitriangular and
    the lowest nonzero rows of the nonzero R columns distinct; ``pairs``
    holds each (low R_j, j).  Since the boundary strictly lowers action,
    ``low R_j`` always has a smaller action than ``j``.
    """
    n = len(complex_.generators)
    order = sorted(range(n), key=lambda k: (complex_.generators[k][0], k))
    pos = {g: i for i, g in enumerate(order)}
    entries = complex_.boundary.entries
    R: list[dict] = []
    V: list[dict] = []
    low_owner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for j, g in enumerate(order):
        col = {pos[i]: entries[i][g] for i in range(n) if entries[i][g]}
        vcol = {j: complex_.field.one()}
        while col:
            low = max(col)
            k = low_owner.get(low)
            if k is None:
                low_owner[low] = j
                pairs.append((low, j))
                break
            factor = col[low] / R[k][low]
            _axpy(col, -factor, R[k])
            _axpy(vcol, -factor, V[k])
        R.append(col)
        V.append(vcol)
    return order, R, V, pairs


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

    def columns(self, matrix: Matrix) -> list[dict]:
        """A square matrix on the generators as sparse columns in positions."""
        ent, n = matrix.entries, matrix.rows
        return [{self.pos[h]: ent[h][g] for h in range(n) if ent[h][g]} for g in self.order]

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
            _axpy(chain, -factor, self.basis[y])
            yield y, factor

    def window_class(self, chain: dict, lo, hi, target: list[int]) -> list | None:
        """Coordinates on ``target`` = ``window_basis(lo, hi, r)`` of the
        class of a cycle of C^{<hi}/C^{<lo}; None when the chain is not a
        window cycle, i.e. it has a coordinate off the target on a b_y that
        is not a boundary in the window."""
        index = {x: k for k, x in enumerate(target)}
        out = [self.field.zero()] * len(target)
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


def _extend_basis(field: Field, basis: list[tuple], candidates: list[tuple],
                  dim: int) -> list[tuple]:
    """The candidates independent of ``basis`` and of the candidates before
    them: the pivot columns past the basis in one echelon form of
    [basis | candidates], since a column is a pivot exactly when it is
    independent of the columns before it."""
    _, pivots, _, _ = Matrix.from_columns(field, basis + candidates, dim)._echelon()
    k = len(basis)
    return [candidates[c - k] for c in pivots if c >= k]


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
    map sends boundaries to boundaries): the number of images that one echelon
    of [B_dst | images] keeps past the boundary columns.
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

    The maps are evaluated on the normal-form bases of `window_homology`, and
    each image is written in the target basis by back substitution: j1 and
    j2 take b_x to the target window, and the connecting map applies the
    boundary D to b_x and keeps its part in (a, b).  An image that is not a
    window cycle fails the check.  At every degree, consecutive maps must
    compose to zero and ranks must add up to the middle dimension (im = ker
    at each node).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not a < b < c:
        raise ValueError("need a < b < c")
    _check_window(complex_, a, b, c)
    if not complex_.generators:
        return True
    nf = _NormalForm(complex_)
    d_cols = nf.columns(complex_.boundary)

    def induced(chains, lo, hi, r):
        target = nf.window_basis(lo, hi, r)
        cols = [nf.window_class(chain, lo, hi, target) for chain in chains]
        return None if None in cols else Matrix.from_columns(nf.field, cols, len(target))

    # maps[r] = (j1, j2, delta) with delta from degree r to degree r - 1
    maps = {}
    for r in range(min(nf.deg) - 1, max(nf.deg) + 2):
        j1 = induced([nf.basis[x] for x in nf.window_basis(a, b, r)], a, c, r)
        j2 = induced([nf.basis[x] for x in nf.window_basis(a, c, r)], b, c, r)
        delta = induced([_apply(d_cols, nf.basis[x]) for x in nf.window_basis(b, c, r)],
                        a, b, r - 1)
        if None in (j1, j2, delta):
            return False
        maps[r] = j1, j2, delta

    def exact(r):
        (j1, j2, delta), j1_down = maps[r], maps[r - 1][0]
        return ((j2 @ j1).is_zero() and (delta @ j2).is_zero()
                and (j1_down @ delta).is_zero()
                and j1.rank() + j2.rank() == j1.rows  # at H_r(a,c)
                and j2.rank() + delta.rank() == j2.rows  # at H_r(b,c)
                and delta.rank() + j1_down.rank() == delta.rows)  # at H_{r-1}(a,b)

    return all(exact(r) for r in range(min(nf.deg), max(nf.deg) + 2))
