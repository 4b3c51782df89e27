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
whose lows alone give its barcode (`_bars`, which `w_spread` reads too),
while the normal form, which serves only `les_check` and the window oracle
of `w_spread`, passes the unit columns as the ``basis`` that carries V of
R = DV, and of the induced maps of `les_check`.
It reads the sparse columns that every `Matrix` holds.  Each update of a
sparse column is the field's `sub_mul` x - f*a.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .field import Field, Matrix, _apply, _axpy, _reduce_columns

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
    return _least_gap(sorted(((n << 64) // d, n, d) for n, d in pairs))


def _least_gap(keyed: list) -> Fraction | float:
    """`min_gap` of the sorted list of tuples (floor(n 2^64 / d), n, d, ...),
    which on tied keys is re-sorted in place into exact order."""
    if len(keyed) < 2:
        return INF
    steps = [b[0] - a[0] for a, b in zip(keyed, keyed[1:])]
    least = min(steps)
    if least == 0:  # the re-sort keeps the keys, so the steps too
        keyed.sort(key=lambda t: (t[0], Fraction(t[1], t[2])))
    best = None
    for step, lo, hi in zip(steps, keyed, keyed[1:]):
        if step <= least + 1:
            gap = hi[1] * lo[2] - lo[1] * hi[2], lo[2] * hi[2]
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
        birth, death = self.birth, self.death
        if not isinstance(birth, Fraction):
            object.__setattr__(self, "birth", birth := Fraction(birth))
        if is_inf(death):
            return
        if not isinstance(death, Fraction):
            object.__setattr__(self, "death", death := Fraction(death))
        (bn, bd), (dn, dd) = birth.as_integer_ratio(), death.as_integer_ratio()
        if bn * dd >= dn * bd:
            raise ValueError(f"empty bar ({birth}, {death}]")

    @property
    def finite(self) -> bool:
        return not is_inf(self.death)

    @property
    def length(self):
        return self.death - self.birth if self.finite else INF

    def __str__(self):
        d = "inf" if not self.finite else str(self.death)
        return f"({self.birth}, {d}]"


def _degree_key(d):
    return (0, d) if d is not None else (1, 0)


def _canonical_key(item):
    """The sort key of a merged (key, entry) item of `Barcode`: birth, death
    (+inf, the key's None, after every finite one), degree (None last)."""
    (_, death, degree), (bar, _, _) = item
    return _order_key(bar.birth), (1, 0) if death is None else (0, bar.death), _degree_key(degree)


@dataclass(frozen=True)
class Barcode:
    """Multiset of bars with multiplicities and an optional degree per bar.

    Canonical form: entries are (bar, multiplicity, degree) with duplicates
    merged and a fixed sort order, so equality is multiset equality.
    """

    items: tuple[tuple[Bar, int, int | None], ...]

    def __post_init__(self):
        # merged on integer pairs, exact as a Fraction is kept in lowest terms;
        # each bar's death is tested for +inf once, for its key, which the sort reads
        merged: dict = {}
        for bar, mult, degree in self.items:
            if type(mult) is not int:  # a bool, float or Fraction is refused too
                raise ValueError(f"multiplicity must be an int, got {mult!r}")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            d = bar.death
            key = (bar.birth.as_integer_ratio(),
                   None if is_inf(d) else d.as_integer_ratio(), degree)
            entry = merged.setdefault(key, [bar, 0, degree])
            entry[1] += mult
        canon = sorted(merged.items(), key=_canonical_key)
        object.__setattr__(self, "items", tuple(tuple(entry) for _, entry in canon))

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
        """n copies of every bar: the multiplicities scale."""
        if type(n) is not int:  # named here, not as a multiplicity m * n
            raise ValueError(f"repeat count must be an int, got {n!r}")
        if n < 0:
            raise ValueError("negative repeat")
        return Barcode(tuple((bar, m * n, deg) for bar, m, deg in self.items if n))

    def is_empty(self) -> bool:
        return not self.items


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
    sorted by birth.  A death is a Fraction or the +inf float, so a float
    death is +inf."""
    total = 0
    for bar, m, _ in barcode.items:
        b = bar.birth
        if b.numerator * den > lo * b.denominator:
            break
        e = bar.death
        if type(e) is float or hi is not None and e.numerator * den >= hi * e.denominator:
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
        images = [_apply(field, t.columns, v) for _, v in live]
        owned = _reduce_columns(field, images)
        bars += [Bar(b, s) for (b, _), image in zip(live, images) if not image]
        live = [(b, image) for (b, _), image in zip(live, images) if image]
        live += [(s, {r: field.one()}) for r in range(t.rows) if r not in owned]
    return Barcode.of(bars + [Bar(b, INF) for b, _ in live])


# -- filtered chain complexes --------------------------------------------------


@dataclass(frozen=True)
class FilteredComplex:
    """Finite filtered chain complex: generators with (action, degree), and a
    degree -1 boundary D that strictly decreases action."""

    field: Field
    generators: tuple[tuple[Fraction, int], ...]
    boundary: Matrix

    def __post_init__(self):
        gens = tuple((a if type(a) is Fraction else Fraction(a), int(d))
                     for a, d in self.generators)
        object.__setattr__(self, "generators", gens)
        keys = [_order_key(a) for a, _ in gens]
        n = len(gens)
        if (self.boundary.rows, self.boundary.cols) != (n, n):
            raise ValueError("boundary must be square on the generators")
        if self.boundary.field != self.field:
            raise ValueError("boundary over wrong field")
        for j, col in enumerate(self.boundary.columns):
            for i in col:
                if gens[i][1] != gens[j][1] - 1:
                    raise ValueError(f"boundary entry {i},{j} does not drop degree by 1")
                if keys[i] >= keys[j]:
                    raise ValueError(f"boundary entry {i},{j} does not decrease action")
        if not (self.boundary @ self.boundary).is_zero():
            raise ValueError("boundary squared is nonzero")

    def spectrum(self) -> list[Fraction]:
        return sorted({a for a, _ in self.generators})


def _filtration(gens, cols):
    """``(order, pos, columns)``: the generators ``gens`` in the filtration
    order, by (action, index), each generator's position in it, and fresh
    copies of the boundary columns ``cols`` moved to positions.  Since the
    boundary strictly lowers action, each column's rows lie at earlier
    positions.  The sort compares the integer keys of `_order_key`."""
    order = sorted(range(len(gens)), key=lambda k: (_order_key(gens[k][0]), k))
    pos = {g: i for i, g in enumerate(order)}
    return order, pos, [{pos[i]: v for i, v in cols[g].items()} for g in order]


def _bars(field, gens, cols) -> list[tuple[int, int | None]]:
    """The bars of the filtered complex on the generators ``gens`` with the
    boundary columns ``cols``, read off the lows alone of the columns reduced
    in the filtration order: (g, h) for each generator g whose column
    reduces to zero, the bar (act(g), act(h)] for the h whose reduced column
    has g as its low, and h None, the ray (act(g), +inf], when there is none."""
    order, _, R = _filtration(gens, cols)
    lows = _reduce_columns(field, R)
    return [(g, order[lows[x]] if x in lows else None) for x, g in enumerate(order) if not R[x]]


class _NormalForm:
    """The Barannikov normal form of a filtered complex, read off R = DV.

    Positions are the generators in the filtration order of `_filtration`,
    and R = DV is `_reduce_columns` of its columns, V upper unitriangular and
    carried from the unit columns as its ``basis``.  The basis is b_i = R_j
    and b_j = V_j for each pair (i = low R_j, j), and b_g = V_g for every
    other generator g, so the boundary is the partial matching D b_j = b_i.
    Each b_g has g as its leading term: the basis is upper triangular in the
    filtration order, and the b_g with action below t span the sublevel
    complex C^{<t}.  ``lp[x]`` is the action of low R_x (-inf when R_x = 0)
    and ``kill[x]`` that of the j with x = low R_j (+inf when there is none);
    b_x is a cycle modulo C^{<a} iff lp(x) < a, and a boundary in C^{<b} iff
    kill(x) < b.
    """

    def __init__(self, complex_: FilteredComplex):
        order, self.pos, R = _filtration(complex_.generators, complex_.boundary.columns)
        self.field = complex_.field
        self.basis = [{j: self.field.one()} for j in range(len(R))]
        lows = _reduce_columns(self.field, R, self.basis)
        self.order = order
        self.act = [complex_.generators[g][0] for g in order]
        self.deg = [complex_.generators[g][1] for g in order]
        self.kill: list[Fraction | float] = [INF] * len(order)
        for i, j in lows.items():
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

    def window_class(self, chain: dict, lo, hi, target: list[int]) -> dict | None:
        """The class of a cycle of C^{<hi}/C^{<lo} as a sparse column on
        ``target`` = ``window_basis(lo, hi, r)``, index in the target ->
        nonzero coordinate; None when the chain is not a window cycle, i.e. it
        has a coordinate off the target on a b_y that is not a boundary in
        the window.  The coordinates come by back substitution: while the
        leading position y of the chain lies above lo, that multiple of b_y
        is peeled off, and what is left lies in C^{<lo}."""
        field, chain, floor = self.field, dict(chain), bisect.bisect_right(self.act, lo)
        index = {x: k for k, x in enumerate(target)}
        out = {}
        while chain and (y := max(chain)) >= floor:
            c = field.coerce(chain[y] * field.inverse(self.basis[y][y]))
            _axpy(field, chain, c, self.basis[y])
            if y in index:
                out[index[y]] = c
            elif not (self.lp[y] < lo and self.kill[y] < hi):
                return None
        return out


def barcode_of_complex(complex_: FilteredComplex) -> Barcode:
    """Graded barcode of sublevel homology: the bars of `_bars`, each in the
    degree of the generator born with it."""
    gens = complex_.generators
    return Barcode.of([(Bar(gens[g][0], INF if h is None else gens[h][0]), 1, gens[g][1])
                       for g, h in _bars(complex_.field, gens, complex_.boundary.columns)])


def _check_window(complex_: FilteredComplex, *cuts) -> None:
    spec = set(complex_.spectrum())
    for c in cuts:
        if Fraction(c) in spec:
            raise ValueError(f"window endpoint {c} collides with the action spectrum")


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
    field, d_cols = nf.field, nf.columns(complex_.boundary.columns)

    def induced(chains, lo, hi, r):
        """(sparse columns, target dimension, rank) of the map taking each
        chain to its class in the window (lo, hi) at degree r; None when a
        chain is not a window cycle."""
        target = nf.window_basis(lo, hi, r)
        cols = [nf.window_class(chain, lo, hi, target) for chain in chains]
        if None in cols:
            return None
        return cols, len(target), len(_reduce_columns(field, [dict(col) for col in cols]))

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
