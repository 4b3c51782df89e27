"""Persistence modules with a cyclic automorphism of prime order.

A `ZpPersistenceModule` is decomposed once, when built, into its isotypic
parts V = (+)_k V_{zeta^k} (Maschke's theorem for Z_p).  The kernel of each
A - zeta^k comes from the one sparse column reduction of `egb.field`: the
V_j of each zero column R_j of R = DV (`_null_vectors`, which
`Matrix.kernel_basis` reads too).  The order check is that the kernel
dimensions, k = 0..p-1, sum to dim V.  A kernel basis vector is 1 at its
free position and 0 at the others, so an image's coordinates in a part are
its entries there, with no elimination, and the commutation check is that
subtracting them leaves nothing.  The module stores what is read off the
parts, not the parts: the barcodes of the parts 1..p-1, which mu_p, the
full-power verdict and w_hat (the longest bar of their union) read, and the
Fix basis of part 0, off whose free positions V/Fix, the independent route
to w_hat, is read.  Also the two-window spread of an equivariant filtered
complex, the longest bar of im(T - 1): Fix = ker(T - 1) is built by the same
`_kernel`, D on Fix is read at its free positions, and the bars are the
lows-only barcodes of the complex and of Fix.  The normal form of
`persistence` serves only `les_check` and the window oracle's `_SpreadWindow`.  The complex's T^p = id
and TD = DT checks are `Matrix` products on sparse columns.  Also the
full-power obstruction and the cyclic tuple module.  The dense echelon and
products of the tests are the oracles."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import zip_longest
from operator import itemgetter

from .field import (
    CyclotomicField,
    CyclotomicNumber,
    Matrix,
    _apply,
    _axpy,
    _null_vectors,
    cyclo_zeta,
    is_prime,
)
from .persistence import (
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    _NormalForm,
    _bars,
    _multiplicity,
    is_inf,
    longest_finite_bar,
    barcode_of_module,
)

@dataclass(frozen=True)
class ZpPersistenceModule:
    """Finite persistence module over Q(zeta_p) with an order-p automorphism.

    ``action[i]`` acts on the i-th constancy interval; it has order p and
    commutes with the transition maps.  The build splits V into the
    zeta^k-eigenspaces (the parts, k = 0..p-1) and stores what is read off
    them: ``fixed[i]``, the basis of Fix(A_i) (part 0) on interval i, as the
    (free position f, sparse vector B_f) pairs of `_null_vectors` with B_f 1
    at f and 0 at the other free positions, and ``barcodes[k - 1]``, the
    barcode of part k (k = 1..p-1).  The part modules themselves are built
    only to be swept and are not kept.
    """

    p: int
    base: FinitePersistenceModule
    action: tuple[Matrix, ...]
    fixed: tuple[tuple[tuple[int, dict], ...], ...] = dataclass_field(init=False, compare=False)
    barcodes: tuple[Barcode, ...] = dataclass_field(init=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not isinstance(self.base.field, CyclotomicField) or self.base.field.p != self.p:
            raise ValueError("base module must live over Q(zeta_p)")
        if len(self.action) != self.base.num_intervals:
            raise ValueError("one automorphism matrix per constancy interval")
        field = self.field
        roots = [cyclo_zeta(self.p, k) for k in range(self.p)]
        kernels = []  # kernels[i][k]: (free position, sparse vector) of ker(A_i - zeta^k)
        for i, a in enumerate(self.action):
            n = self.base.dims[i]
            if (a.rows, a.cols) != (n, n):
                raise ValueError(f"automorphism {i} has wrong shape")
            if a.field != field:
                raise ValueError(f"automorphism {i} over wrong field")
            # x^p - 1 has p distinct roots in Q(zeta_p), so A^p = id exactly
            # when the eigenspaces of A at those roots fill the space
            rows = _pivot_order(a.columns)
            spaces = [_kernel(field, a.columns, root, rows) for root in roots]
            if sum(map(len, spaces)) != n:
                raise ValueError(f"automorphism {i} does not have order dividing p")
            kernels.append(spaces)
        # an image's coordinates in the next interval's part are its entries at the
        # free positions, and it lies there (A commutes) iff peeling them leaves nothing
        maps = [[] for _ in range(self.p)]  # maps[k]: part k's transitions; part 0 is only checked
        for i, t in enumerate(self.base.transitions):
            for k, (src, dst) in enumerate(zip(kernels[i], kernels[i + 1])):
                coords = []
                for _, b in src:
                    w = _apply(field, t.columns, b)
                    coords.append(_peel(field, w, dst))
                    if w:
                        raise ValueError(f"automorphism does not commute with transition {i}")
                if k:
                    maps[k].append(Matrix(field, len(dst), len(coords), coords))
        object.__setattr__(self, "fixed", tuple(tuple(spaces[0]) for spaces in kernels))
        object.__setattr__(self, "barcodes", tuple(barcode_of_module(FinitePersistenceModule(
            field, self.base.spectrum, tuple(len(s[k]) for s in kernels), tuple(maps[k])))
            for k in range(1, self.p)))

    @property
    def field(self) -> CyclotomicField:
        return self.base.field


@dataclass(frozen=True)
class EquivariantComplex:
    """Filtered complex with an action-preserving chain automorphism T of
    order p."""

    p: int
    complex: FilteredComplex
    chain_map: Matrix

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        n = len(self.complex.generators)
        t = self.chain_map
        if (t.rows, t.cols) != (n, n):
            raise ValueError("chain map must be square on the generators")
        if t.field != self.complex.field:
            raise ValueError("chain map over wrong field")
        if t.matpow(self.p) != Matrix.identity(t.field, n):
            raise ValueError("chain map does not satisfy T^p = id")
        d = self.complex.boundary
        if t @ d != d @ t:
            raise ValueError("chain map does not commute with the boundary")
        gens = self.complex.generators
        if any(gens[i] != gens[j] for j, col in enumerate(t.columns) for i in col):
            raise ValueError("chain map must preserve action and degree")


def _root_index(p: int, zeta: CyclotomicNumber) -> int:
    """The k in 1..p-1 with zeta = zeta_p^k: the p-th roots of unity in
    Q(zeta_p) are exactly the zeta_p^k, k = 0..p-1, and k = 0 is not primitive."""
    if zeta.p != p:
        raise ValueError("root of unity over the wrong field")
    k = next((k for k in range(p) if zeta == cyclo_zeta(p, k)), None)
    if k is None:
        raise ValueError("not a p-th root of unity")
    if k == 0:
        raise ValueError("root must be primitive (zeta != 1)")
    return k


def _pivot_order(cols) -> list[int]:
    """A new position for each row of the square matrix with sparse columns
    ``cols``: the rows by falling count of nonzero entries off the diagonal,
    ties in row order.  The column reduction pivots on a column's last row,
    so the sparsest rows become the pivots, as in Markowitz's rule (1957),
    and each step touches fewer later columns."""
    count = [0] * len(cols)
    for j, col in enumerate(cols):
        for r in col:
            count[r] += r != j
    order = sorted(range(len(cols)), key=count.__getitem__, reverse=True)
    rows = [0] * len(cols)
    for position, r in enumerate(order):
        rows[r] = position
    return rows


def _kernel(field, cols, c, rows) -> list[tuple[int, dict]]:
    """ker(A - c) for A with sparse columns ``cols``: `_null_vectors` of the
    columns of A - c, their rows moved to the positions ``rows`` (the kernel
    and the dependent columns stay the same), the (j, V_j) that
    `Matrix.kernel_basis` reads too."""
    shifted, z = [], field.zero()
    for j, col in enumerate(cols):
        d = col.get(j, z) - c
        col = {rows[r]: x for r, x in col.items() if r != j}
        if d:
            col[rows[j]] = d
        shifted.append(col)
    return _null_vectors(field, shifted)


def _peel(field, w: dict, basis) -> dict:
    """The coordinates of the sparse vector w in ``basis``, (f, B_f) pairs
    with B_f 1 at the free position f and 0 at the other free positions: a
    sparse column, index k of a basis vector -> w's nonzero entry at its
    free position.  w, in place, loses each of those multiples of B_f, which
    leaves it zero iff it lies in the span of the basis; a multiple of B_f
    leaves w unchanged at every other free position.  The module build reads
    the residual as its commutation check, and `quotient_fix_module` as the
    projection onto the kept positions."""
    coords = {}
    for k, (f, b_f) in enumerate(basis):
        if x := w.get(f):
            coords[k] = x
            _axpy(field, w, x, b_f)
    return coords


def quotient_fix_module(module: ZpPersistenceModule) -> FinitePersistenceModule:
    """The quotient L = V / Fix(A) with the induced persistence maps; Fix(A)
    is part 0, stored when the module was built as the (f, B_f) pairs
    ``fixed[i]``.  B_f is 1 at its free position f and 0 at the other
    free positions, so L_i has the basis e_c, c in the kept positions P_i
    (the others), and column c of the transition is column c of T_i less its
    entry at each f of ``fixed[i + 1]`` times that B_f, read at P_(i+1): no
    elimination."""
    field = module.field
    kept = [sorted(set(range(n)).difference(f for f, _ in fix))
            for fix, n in zip(module.fixed, module.base.dims)]
    maps = []
    for i, t in enumerate(module.base.transitions):
        index, coords = {r: k for k, r in enumerate(kept[i + 1])}, []
        for c in kept[i]:
            w = dict(t.columns[c])
            _peel(field, w, module.fixed[i + 1])  # leaves w on the kept positions
            coords.append({index[r]: x for r, x in w.items()})
        maps.append(Matrix(field, len(index), len(coords), coords))
    return FinitePersistenceModule(field, module.base.spectrum, tuple(map(len, kept)), tuple(maps))


# -- the multiplicity sensitive spread ---------------------------------------


def mu_from_barcode(barcode: Barcode, p: int) -> Fraction | float:
    """Supremum of c such that some interval I of length > 4c satisfies
    m(B, I) = m(B, I^{2c}) = l with l not divisible by p.

    The multiplicity function only changes when interval endpoints cross a
    birth (left end) or a death (right end), and enlarging I to the snapped
    interval (largest birth <= left, smallest death >= right, or +inf) keeps
    the containing set while weakly improving both the length budget and the
    distance to every excluded bar.  The supremum is therefore attained over
    the finite candidate grid births x (deaths + inf), and each candidate's
    value is a closed form read off one pass of `_spread_candidates`.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _supremum(_spread_candidates(barcode, p))


def _supremum(pairs) -> Fraction | float:
    """The largest n / d of the integer pairs (n, d), d >= 0, ranked by cross
    products, (n, d) < (n', d') iff n d' < n' d, and 0 for no positive pair:
    the first pair (n, 0), n > 0, is +inf and ends the read, else one
    Fraction is built, for the answer."""
    best = (0, 1)
    for n, d in pairs:
        if not d:
            return INF
        if n * best[1] > best[0] * d:
            best = (n, d)
    return Fraction(*best)


def _spread_candidates(barcode: Barcode, p: int):
    """The value min((y - x)/4, horizon) of each candidate interval (x, y],
    x a birth and y > x a finite death or +inf, whose multiplicity is not
    divisible by p; the horizon is the least c at which an excluded bar
    contains the 2c-shrink (x + 2c, y - 2c].  Each value is an unreduced
    pair (n, d) of integers for n / d, ranked by `_supremum`, and +inf is
    (1, 0).  Every value is positive: y > x, and the next ray birth and
    each excluded bar lie beyond x or y.

    One pass over the births in the canonical order of `barcode.items`.  The
    infinite bars (rays) enter only through the multiplicity of those born
    at or before x and the next ray birth after x, so a candidate (x, +inf]
    costs O(1) and the all-infinite barcodes of the model cost O(n).  A
    candidate (x, y], y finite, is counted by `_multiplicity` on integer
    ends, and only its horizon scans the finite bars, on Fractions.
    """
    births, rays, last = [], [], None  # the distinct births; the rays born at each
    for bar, m, _ in barcode.items:
        if last != (key := (bar.birth.numerator, bar.birth.denominator)):
            births.append(bar.birth)
            rays.append(0)
            last = key
        if not bar.finite:
            rays[-1] += m
    ranks = [g for g, r in enumerate(rays) if r]  # the ranks of the ray births
    finite = [(bar.birth, bar.death) for bar, _, _ in barcode.items if bar.finite]
    deaths = sorted({d for _, d in finite})
    below = i = 0
    for g, x in enumerate(births):
        below += rays[g]
        while i < len(ranks) and ranks[i] <= g:
            i += 1
        # the next ray birth r after x sets the horizon (r - x) / 2
        r = births[ranks[i]] if i < len(ranks) else None
        xn, xd = x.as_integer_ratio()
        if below % p:
            yield (1, 0) if r is None else (
                r.numerator * xd - xn * r.denominator, 2 * r.denominator * xd)
        for y in deaths[bisect_right(deaths, x):]:
            yn, yd = y.as_integer_ratio()
            if _multiplicity(barcode, xn * yd, yn * xd, xd * yd) % p:
                h = min((max(b - x, y - d) for b, d in finite if b > x or d < y),
                        default=INF)
                c = min((y - x) / 4, min(INF if r is None else r - x, h) / 2)
                yield c.numerator, c.denominator


def mu_p(module: ZpPersistenceModule) -> Fraction | float:
    """Maximum of mu_{p,zeta} over the p-1 primitive roots of unity."""
    return max(mu_from_barcode(bc, module.p) for bc in module.barcodes)


def mu_p_of_family(family: dict[int, Barcode], p: int) -> Fraction | float:
    """Graded spread: maximum of mu over the degrees of a barcode family,
    taken on the candidate pairs of every degree at once (0 for no degree)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _supremum(pair for bc in family.values() for pair in _spread_candidates(bc, p))


# -- the modified spread ------------------------------------------------------


def w_hat(module: ZpPersistenceModule) -> Fraction | float:
    """sup of d such that theta_{s,s+d}(A_s - id) != 0 for some s.

    A_s - id maps V_s onto the sum of the parts 1..p-1 (it is zero on Fix and
    invertible on every other eigenspace), and the transitions keep the parts
    apart, so this is the longest bar of the union of their barcodes: +inf on
    an infinite bar.  `w_hat_from_quotient` is the independent route.
    """
    if any(bc.infinite_count() for bc in module.barcodes):
        return INF
    return max(longest_finite_bar(bc) for bc in module.barcodes)


def w_hat_from_quotient(module: ZpPersistenceModule) -> Fraction | float:
    """The independent route: beta(L) for L = V/Fix(A), +inf on infinite bars."""
    quotient = quotient_fix_module(module)
    barcode = barcode_of_module(quotient)
    if barcode.infinite_count() > 0:
        return INF
    return longest_finite_bar(barcode)


# -- the two-window spread ----------------------------------------------------


def w_spread(equivariant: EquivariantComplex, k: int) -> Fraction | float:
    """sup of d with (comparison to the d-shifted window) . (T - id) != 0 on
    window homology, over all windows (a, b): the longest bar of
    N = im(T - id), +inf on a ray and 0 when N = 0.

    Over a field of characteristic 0, T of order p splits C as Fix (+) N with
    Fix = ker(T - id).  Both are filtered subcomplexes, since T preserves
    action and degree and commutes with D.  S = T - id is 0 on Fix and
    invertible on N, and its inverse there is a polynomial in T, since x - 1
    is a unit modulo Phi_p(x) (Phi_p(1) = p != 0); so S and its inverse keep
    the filtration, and S induces 0 on the window homology of Fix and an
    isomorphism on that of N.  The comparison to the d-shifted window after
    S is then nonzero for some window iff it is nonzero on some window
    homology of N, iff N has a bar longer than d.  The barcode of a direct
    sum is the union, so barcode(N) is barcode(C) less barcode(Fix).

    Fix is read as in the module build: the (f, B_f) of `_kernel` at 1, B_f
    1 at its free position f and 0 at the others.  T - id is block diagonal
    on the (action, degree) classes, so each B_f lies in the class of f.
    D B_f lies in Fix, so its coordinates are its entries at the free
    positions.  Both barcodes are the lows of `persistence._bars`, as
    lengths sorted longest first: every length of C above N's longest bar is
    one of Fix, so the first place where the two lists differ holds that
    bar.  Returns +inf when no shift kills the class
    (e.g. zero-boundary complexes with a nontrivial action, where finiteness
    needs analytic input the algebra cannot see).
    """
    # T^p = id was checked when the complex was built and p is prime, so
    # T^k = id iff p divides k or T = id (then Fix = C, and the spread is 0)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    t = equivariant.chain_map
    if k % equivariant.p and t != Matrix.identity(t.field, t.rows):
        raise ValueError(f"chain map does not satisfy T^{k} = id")
    field, gens = t.field, equivariant.complex.generators
    d_cols = equivariant.complex.boundary.columns
    fix = _kernel(field, t.columns, field.one(), _pivot_order(t.columns))
    index = {f: k for k, (f, _) in enumerate(fix)}
    fix_cols = [{index[r]: x for r, x in _apply(field, d_cols, b).items() if r in index}
                for _, b in fix]
    lengths = _lengths(field, gens, d_cols), _lengths(field, [gens[f] for f, _ in fix], fix_cols)
    return next((c for c, f in zip_longest(*lengths) if c != f), Fraction(0))


def _lengths(field, gens, cols) -> list:
    """The bar lengths of `persistence._bars` on ``gens`` and ``cols``,
    longest first, +inf for a ray."""
    return sorted((INF if h is None else gens[h][0] - gens[g][0]
                   for g, h in _bars(field, gens, cols)), reverse=True)


class _SpreadWindow:
    """The homology of one window C^{<b}/C^{<a} of an equivariant complex in
    the basis of its `persistence._NormalForm` ``nf``: per degree r, the
    classes of the b_x of ``nf.window_basis(a, b, r)``.  The window-scan
    oracle of the w_spread tests is built from it."""

    def __init__(self, nf: _NormalForm, a, b):
        self.nf, self.a, self.b = nf, a, b
        self.basis = {r: nf.window_basis(a, b, r) for r in sorted(set(nf.deg))}

    def apply_chain_map(self, s_cols) -> dict[int, list[dict]]:
        """The images S b_x of the window's basis cycles, by degree, under
        the action-preserving chain map S with sparse columns on positions."""
        nf = self.nf
        return {r: [_apply(nf.field, s_cols, nf.basis[x]) for x in xs]
                for r, xs in self.basis.items()}

    def induced_nonzero(self, s_images: dict[int, list[dict]], dst: "_SpreadWindow") -> bool:
        """Is (comparison to dst) . S nonzero on homology in some degree?  An
        image that is not a cycle of dst (dst must not lie below this window)
        raises, so it never reads as zero."""
        for r, images in s_images.items():
            for image in images:
                cls = self.nf.window_class(image, dst.a, dst.b, dst.basis[r])
                if cls is None:
                    raise ValueError(f"an image is not a cycle of the window ({dst.a}, {dst.b})")
                if cls:
                    return True
        return False


def spread_lower_bound_from_gaps(generators) -> Fraction | float:
    """D = min |a - b| over generator pairs (a, d), (b, d + 1) of adjacent
    degrees; +inf when no two degrees are adjacent (the gap bound is vacuous
    then).  One sweep of the generators sorted by action: of the actions of
    a degree met so far, the last is the nearest, so each action is compared
    with the last one met in each of the two adjacent degrees, and the later
    of a closest pair meets the other."""
    best, last = INF, {}
    for a, d in sorted(((Fraction(a), int(d)) for a, d in generators), key=itemgetter(0)):
        for e in (d - 1, d + 1):
            if e in last and (gap := a - last[e]) < best:
                best = gap
        last[d] = a
    return best


# -- full p-th powers and fixtures ---------------------------------------------


def full_power_check(module: ZpPersistenceModule, zeta: CyclotomicNumber) -> str:
    """PASS iff every candidate-interval multiplicity of B(L_zeta) is divisible
    by p; a FAIL certifies the module is not a full p-th power."""
    k = _root_index(module.p, zeta)
    return full_power_verdict(module.barcodes[k - 1], module.p)


def full_power_verdict(barcode: Barcode, p: int) -> str:
    """FAIL iff some candidate-interval multiplicity of the eigenspace
    barcode is not divisible by p: the first candidate that
    `_spread_candidates` yields decides it.  Every candidate is positive,
    so this is FAIL iff `mu_from_barcode` > 0, as `egb barcode mu` reads it."""
    return "FAIL" if next(_spread_candidates(barcode, p), None) is not None else "PASS"


def cyclic_permutation_matrix(field, n: int) -> Matrix:
    """e_j -> e_{j+1 mod n}."""
    return Matrix(field, n, n, tuple({(j + 1) % n: field.one()} for j in range(n)))


def cyclic_tuple_module(action_value, p: int, death=INF) -> ZpPersistenceModule:
    """p generators born together with the cyclic Z_p action; the eigenspace
    at any primitive root has exactly one bar (action_value, death]."""
    field, spectrum = CyclotomicField(p), (Fraction(action_value),)
    if not is_inf(death):
        spectrum += (Fraction(death),)
        if not spectrum[0] < spectrum[1]:
            raise ValueError("death must exceed the birth action")
    dims = (0, p, 0)[:len(spectrum) + 1]
    transitions = tuple(Matrix.zeros(field, n, m) for m, n in zip(dims, dims[1:]))
    action = tuple(cyclic_permutation_matrix(field, n) for n in dims)  # n = 0: the 0 x 0
    base = FinitePersistenceModule(field, spectrum, dims, transitions)
    return ZpPersistenceModule(p, base, action)


# -- stabilization ------------------------------------------------------------


def kunneth_stabilize(family: dict[int, Barcode], betti: list[int]) -> dict[int, Barcode]:
    """F'(r) = union over i of betti[i] copies of F(r - i); betti[0] must be 1
    (connected stabilizing factor)."""
    _check_betti(betti)
    items: dict[int, list] = {}
    for r, barcode in family.items():
        for i, b in enumerate(betti):
            if b and not barcode.is_empty():
                items.setdefault(r + i, []).extend(barcode.repeat(b).items)
    return {t: Barcode(tuple(its)) for t, its in items.items()}


def _check_betti(betti: list[int]) -> None:
    """Refuse a betti vector of a stabilizing factor: betti[0] = 1
    (connected), every entry a nonnegative int."""
    if not betti or betti[0] != 1:
        raise ValueError("betti[0] must be 1 (connected factor)")
    if any(type(b) is not int for b in betti):
        raise ValueError(f"betti numbers must be ints, got {betti!r}")
    if any(b < 0 for b in betti):
        raise ValueError("betti numbers must be nonnegative")
