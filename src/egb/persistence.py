"""Barcodes, finite persistence modules and filtered chain complexes.

Conventions (fixed once, used everywhere):

* bars and intervals are half-open ``(birth, death]``, death may be +inf;
* a module with spectrum ``s_0 < ... < s_{m-1}`` is constant on the m+1
  intervals ``(-inf, s_0], (s_0, s_1], ..., (s_{m-1}, +inf)``, so the value
  at a spectrum point is the limit from the left;
* sublevel complexes are spanned by generators of action strictly below the
  cutoff, which makes the barcode of a filtered complex literally a
  multiset of ``(birth, death]`` bars.
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

    def total(self) -> int:
        return sum(m for _, m, _ in self.items)

    def infinite_count(self) -> int:
        return sum(m for bar, m, _ in self.items if not bar.finite)

    def degrees(self) -> list[int | None]:
        return sorted({e[2] for e in self.items}, key=_degree_key)

    def union(self, other: "Barcode") -> "Barcode":
        return Barcode(self.items + other.items)

    def repeat(self, n: int) -> "Barcode":
        if n < 0:
            raise ValueError("negative repeat")
        if n == 0:
            return Barcode.empty()
        return Barcode(tuple((bar, m * n, deg) for bar, m, deg in self.items))

    def births(self) -> list[Fraction]:
        return sorted({bar.birth for bar, _, _ in self.items})

    def finite_deaths(self) -> list[Fraction]:
        return sorted({bar.death for bar, _, _ in self.items if bar.finite})

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
        """Composite transition from constancy interval u to interval v >= u."""
        if not 0 <= u <= v <= len(self.spectrum):
            raise ValueError(f"bad interval pair ({u}, {v})")
        out = Matrix.identity(self.field, self.dims[u])
        for i in range(u, v):
            out = self.transitions[i] @ out
        return out

    def rank_table(self) -> list[list[int]]:
        """rank of the composite map interval u -> interval v, for all u <= v."""
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
    """Decompose into interval modules via rank inclusion-exclusion.

    A bar (s_{u-1}, s_v] lives on constancy intervals u..v; its multiplicity
    is r(u,v) - r(u-1,v) - r(u,v+1) + r(u-1,v+1) where r is the composite
    rank (structure theorem made effective).
    """
    m = len(module.spectrum)
    if m == 0:
        return Barcode.empty()
    r = module.rank_table()

    def rk(u: int, v: int) -> int:
        if u < 0:
            return 0
        return r[u][v]

    entries = []
    for u in range(1, m + 1):  # bar born at spectrum[u-1]
        birth = module.spectrum[u - 1]
        for v in range(u, m):  # bar dying at spectrum[v]
            mult = rk(u, v) - rk(u - 1, v) - rk(u, v + 1) + rk(u - 1, v + 1)
            if mult < 0:
                raise ValueError("negative multiplicity: invalid persistence module")
            if mult > 0:
                entries.append((Bar(birth, module.spectrum[v]), mult, None))
        mult = rk(u, m) - rk(u - 1, m)
        if mult < 0:
            raise ValueError("negative multiplicity: invalid persistence module")
        if mult > 0:
            entries.append((Bar(birth, INF), mult, None))
    return Barcode.of(entries)


def module_from_barcode(field: Field, barcode: Barcode) -> FinitePersistenceModule:
    """Direct sum of interval modules Q(I), one basis vector per bar unit."""
    bars = [bar for bar, _ in barcode.expand()]
    points = sorted(
        {b.birth for b in bars} | {b.death for b in bars if b.finite}
    )
    m = len(points)
    index = {s: i for i, s in enumerate(points)}
    # bar alive on constancy intervals (birth index)+1 .. (death index), or .. m
    spans = []
    for b in bars:
        lo = index[b.birth] + 1
        hi = index[b.death] if b.finite else m
        spans.append((lo, hi))
    dims = [sum(1 for lo, hi in spans if lo <= i <= hi) for i in range(m + 1)]
    transitions = []
    for i in range(m):
        alive_lo = [k for k, (lo, hi) in enumerate(spans) if lo <= i <= hi]
        alive_hi = [k for k, (lo, hi) in enumerate(spans) if lo <= i + 1 <= hi]
        pos_hi = {k: r for r, k in enumerate(alive_hi)}
        z, o = field.zero(), field.one()
        if not alive_hi:
            transitions.append(Matrix.zeros(field, 0, len(alive_lo)))
            continue
        ent = [[z] * len(alive_lo) for _ in range(len(alive_hi))]
        for c, k in enumerate(alive_lo):
            if k in pos_hi:
                ent[pos_hi[k]][c] = o
        transitions.append(Matrix.from_rows(field, ent))
    return FinitePersistenceModule(field, tuple(points), tuple(dims), tuple(transitions))


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
            for target, source in ((col, R[k]), (vcol, V[k])):
                for r, v in source.items():
                    nv = target[r] - factor * v if r in target else -(factor * v)
                    if not nv:
                        target.pop(r, None)
                    else:
                        target[r] = nv
        R.append(col)
        V.append(vcol)
    return order, R, V, pairs


def barcode_of_complex(complex_: FilteredComplex) -> Barcode:
    """Graded barcode of sublevel homology, by standard column reduction."""
    order, R, _, pairs = _reduce(complex_)
    gens = [complex_.generators[g] for g in order]
    killed = {i for i, _ in pairs}
    entries = [(Bar(gens[i][0], gens[j][0]), 1, gens[i][1]) for i, j in pairs]
    entries += [(Bar(g[0], INF), 1, g[1])
                for i, g in enumerate(gens) if not R[i] and i not in killed]
    return Barcode.of(entries)


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
    ent = [
        [complex_.boundary.entries[i][j] for j in keep] for i in keep
    ]
    boundary = (
        Matrix.from_rows(complex_.field, ent)
        if keep
        else Matrix.zeros(complex_.field, 0, 0)
    )
    return keep, FilteredComplex(complex_.field, gens, boundary)


def _boundary_blocks(complex_: FilteredComplex):
    """Per-degree boundary data: for each degree r, the matrix of the
    boundary from degree r chains to degree r-1 chains, with index maps."""
    degs = sorted({d for _, d in complex_.generators})
    by_deg = {d: [i for i, (_, dd) in enumerate(complex_.generators) if dd == d] for d in degs}
    return degs, by_deg


def _restricted_boundary(complex_: FilteredComplex, rows: list[int], cols: list[int]) -> Matrix:
    ent = [[complex_.boundary.entries[i][j] for j in cols] for i in rows]
    if not rows:
        return Matrix.zeros(complex_.field, 0, len(cols))
    return Matrix.from_rows(complex_.field, ent)


def homology_basis(complex_: FilteredComplex, r: int):
    """Cycle representatives of a homology basis in degree r, plus the data
    needed to test membership in the boundary space.

    Returns (chain_indices, cycle_basis, boundary_matrix) where chain_indices
    are the generator indices of degree r, cycle_basis is a list of
    coordinate vectors over those indices, and boundary_matrix has the
    degree-(r+1) boundaries as columns.
    """
    degs, by_deg = _boundary_blocks(complex_)
    idx_r = by_deg.get(r, [])
    idx_rm1 = by_deg.get(r - 1, [])
    idx_rp1 = by_deg.get(r + 1, [])
    d_r = _restricted_boundary(complex_, idx_rm1, idx_r)
    d_rp1 = _restricted_boundary(complex_, idx_r, idx_rp1)
    cycles = d_r.kernel_basis() if idx_r else []
    return idx_r, cycles, d_rp1


def window_homology(complex_: FilteredComplex, a, b, r: int):
    """Dimension and a homology basis of the (a, b) quotient complex in degree r.

    The basis vectors are coordinates over the window's degree-r generators
    (returned alongside, as indices into the original complex).
    """
    keep, wc = window_complex(complex_, a, b)
    idx_r, cycles, d_rp1 = homology_basis(wc, r)
    if not idx_r:
        return 0, [], []
    # cycles extending a basis of the boundary space represent a homology basis
    boundaries = [d_rp1.column(j) for j in range(d_rp1.cols)]
    chosen = _extend_basis(complex_.field, boundaries, cycles, len(idx_r))
    return len(chosen), chosen, [keep[i] for i in idx_r]


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


class _WindowData:
    """Homology data of one window complex, cached per degree."""

    def __init__(self, complex_: FilteredComplex, a: Fraction, b: Fraction):
        self.keep, self.wc = window_complex(complex_, a, b)
        self._cache: dict[int, tuple[list[int], list[tuple], Matrix]] = {}

    def at(self, r: int):
        """(global generator indices, cycle basis, boundary matrix) in degree r."""
        if r not in self._cache:
            idx_r, cycles, d_rp1 = homology_basis(self.wc, r)
            glob = [self.keep[i] for i in idx_r]
            self._cache[r] = (glob, cycles, d_rp1)
        return self._cache[r]

    def dim(self, r: int) -> int:
        glob, cycles, d_rp1 = self.at(r)
        return induced_homology_rank(self.wc.field, cycles, cycles, d_rp1, len(glob))


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
            if not e:
                continue
            if h in look:
                out[look[h]] = out[look[h]] + v * e
    return tuple(out)


def les_check(complex_: FilteredComplex, a, b, c) -> bool:
    """Exactness of the prescribed sequence V^{(a,b)} -> V^{(a,c)} -> V^{(b,c)}
    -> V^{(a,b)}[1] in window homology.

    At every degree, consecutive maps must compose to zero on homology and
    ranks must add up to the middle dimension (im = ker at each node).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not a < b < c:
        raise ValueError("need a < b < c")
    _check_window(complex_, a, b, c)
    field = complex_.field
    w_ab = _WindowData(complex_, a, b)
    w_ac = _WindowData(complex_, a, c)
    w_bc = _WindowData(complex_, b, c)

    if not complex_.generators:
        return True
    degs = sorted({d for _, d in complex_.generators})
    lo, hi = min(degs) - 1, max(degs) + 1

    ok = True
    for r in range(lo, hi + 1):
        g_ab, z_ab, b_ab = w_ab.at(r)
        g_ac, z_ac, b_ac = w_ac.at(r)
        g_bc, z_bc, b_bc = w_bc.at(r)
        g_ab1, z_ab1, b_ab1 = w_ab.at(r - 1)
        g_ac1, z_ac1, b_ac1 = w_ac.at(r - 1)

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
        if r_j1 + r_j2 != w_ac.dim(r):
            ok = False  # exactness at H_r(a,c)
        if r_j2 + r_delta != w_bc.dim(r):
            ok = False  # exactness at H_r(b,c)
        # exactness at H_{r-1}(a,b) uses delta from degree r and j1 at r-1
        img_j1_down = _reindex(field, z_ab1, g_ab1, g_ac1)
        r_j1_down = induced_homology_rank(field, z_ab1, img_j1_down, b_ac1, len(g_ac1))
        if r_delta + r_j1_down != w_ab.dim(r - 1):
            ok = False
    return ok
