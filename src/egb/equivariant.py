"""Persistence modules with a cyclic automorphism of prime order.

A `ZpPersistenceModule` is decomposed once, when built, into its isotypic
parts V = (+)_k V_{zeta^k} (Maschke's theorem for Z_p).  The kernel of each
A - zeta^k comes from the one sparse column reduction of `egb.field`: the
V_j of each zero column R_j of R = DV (`_null_vectors`, which
`Matrix.kernel_basis` reads too).  The order check is that the kernel
dimensions, k = 0..p-1, sum to dim V.  A kernel basis vector is 1 at its
free position and 0 at the others, so an image's coordinates in a part are
its entries there, with no elimination, and the commutation check is that
subtracting them leaves nothing.  The parts are the eigenspace modules;
mu_p, the full-power verdict and w_hat (the longest bar of the union of the
parts 1..p-1) read them; V/Fix, read off part 0's free positions, is the
independent route to w_hat.  Also the two-window spread of an equivariant
filtered complex, whose T^p = id check squares and multiplies T's sparse
columns, the full-power obstruction and the cyclic tuple module.  No
`Matrix` method eliminates, multiplies or takes a power here; the dense
echelon, products and powers of the tests are the oracles."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .field import (
    CyclotomicField,
    CyclotomicNumber,
    Matrix,
    _apply,
    _axpy,
    _null_vectors,
    _sparse_columns,
    cyclo_zeta,
    is_prime,
)
from .persistence import (
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    _NormalForm,
    _reindex,
    homology_basis,
    induced_homology_rank,
    is_inf,
    longest_finite_bar,
    barcode_of_module,
    window_complex,
)

@dataclass(frozen=True)
class ZpPersistenceModule:
    """Finite persistence module over Q(zeta_p) with an order-p automorphism.

    ``action[i]`` acts on the i-th constancy interval; it has order p and
    commutes with the transition maps.  Set when the module is built:
    ``parts[k]`` is the zeta^k-eigenspace module (k = 0..p-1), ``fixed[i]``
    the basis of Fix(A_i) that part 0 spans on interval i, and
    ``barcodes[k - 1]`` the barcode of part k (k = 1..p-1).
    """

    p: int
    base: FinitePersistenceModule
    action: tuple[Matrix, ...]
    parts: tuple[FinitePersistenceModule, ...] = dataclass_field(init=False, compare=False)
    fixed: tuple[tuple[tuple, ...], ...] = dataclass_field(init=False, compare=False)
    barcodes: tuple[Barcode, ...] = dataclass_field(init=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not isinstance(self.base.field, CyclotomicField) or self.base.field.p != self.p:
            raise ValueError("base module must live over Q(zeta_p)")
        if len(self.action) != self.base.num_intervals:
            raise ValueError("one automorphism matrix per constancy interval")
        field, z = self.field, self.field.zero()
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
            cols = _sparse_columns(a)
            rows = _pivot_order(cols)
            spaces = [_kernel(field, cols, root, rows) for root in roots]
            if sum(map(len, spaces)) != n:
                raise ValueError(f"automorphism {i} does not have order dividing p")
            kernels.append(spaces)
        # an image's coordinates in the next interval's part are its entries
        # at the free positions, and it lies in that part (the action
        # commutes) iff subtracting them leaves nothing
        maps = [[] for _ in range(self.p)]
        for i, t in enumerate(self.base.transitions):
            t_cols = _sparse_columns(t)
            for src, dst, out in zip(kernels[i], kernels[i + 1], maps):
                coords = []
                for _, b in src:
                    w = _apply(field, t_cols, b)
                    coords.append(_peel(field, w, dst))
                    if w:
                        raise ValueError(f"automorphism does not commute with transition {i}")
                out.append(_matrix_of(field, len(dst), coords))
        parts = [FinitePersistenceModule(field, self.base.spectrum, tuple(map(len, spaces)),
                                         tuple(out)) for spaces, out in zip(zip(*kernels), maps)]
        fixed = tuple(tuple(tuple(v.get(r, z) for r in range(n)) for _, v in spaces[0])
                      for spaces, n in zip(kernels, self.base.dims))
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "barcodes", tuple(barcode_of_module(m) for m in parts[1:]))

    @property
    def field(self) -> CyclotomicField:
        return self.base.field


@dataclass(frozen=True)
class EquivariantComplex:
    """Filtered complex with an action-preserving chain automorphism T of
    order p; ``columns`` holds T's sparse columns, as the complex holds D's."""

    p: int
    complex: FilteredComplex
    chain_map: Matrix
    columns: tuple[dict, ...] = dataclass_field(init=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        n = len(self.complex.generators)
        t = self.chain_map
        if (t.rows, t.cols) != (n, n):
            raise ValueError("chain map must be square on the generators")
        if t.field != self.complex.field:
            raise ValueError("chain map over wrong field")
        d, cols, field = self.complex.columns, _sparse_columns(t), t.field
        one = field.one()
        if any(col != {j: one} for j, col in enumerate(_power(field, cols, self.p))):
            raise ValueError("chain map does not satisfy T^p = id")
        if any(_apply(field, cols, d[j]) != _apply(field, d, col) for j, col in enumerate(cols)):
            raise ValueError("chain map does not commute with the boundary")
        gens = self.complex.generators
        if any(gens[i] != gens[j] for j, col in enumerate(cols) for i in col):
            raise ValueError("chain map must preserve action and degree")
        object.__setattr__(self, "columns", cols)


def _power(field, cols, n: int) -> tuple[dict, ...]:
    """The sparse columns of T^n, n >= 1, for T with sparse columns ``cols``:
    square and multiply, O(log n) compositions of sparse columns."""
    result = None
    while True:
        if n & 1:
            result = cols if result is None else tuple(_apply(field, cols, c) for c in result)
        n >>= 1
        if not n:
            return result
        cols = tuple(_apply(field, cols, c) for c in cols)


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


def _peel(field, w: dict, basis) -> list:
    """The entries of the sparse vector w at the free positions f of
    ``basis``, (f, B_f) pairs with B_f 1 at f and 0 at the other free
    positions; w, in place, loses each of those multiples of B_f, which
    leaves it zero iff it lies in the span of the basis."""
    coords = [w.get(f, field.zero()) for f, _ in basis]
    for x, (_, b_f) in zip(coords, basis):
        if x:
            _axpy(field, w, x, b_f)
    return coords


def _matrix_of(field, rows: int, columns: list[list]) -> Matrix:
    """The `Matrix` of the given columns of field elements, with no coercion."""
    return Matrix(field, rows, len(columns), tuple(tuple(col[r] for col in columns)
                                                   for r in range(rows)))


def quotient_fix_module(module: ZpPersistenceModule) -> FinitePersistenceModule:
    """The quotient L = V / Fix(A) with the induced persistence maps; Fix(A)
    is the kernel B_i of part 0, stored when the module was built.  B_i is 1
    at its free positions F_i and 0 at the other ones there, so L_i has the
    basis e_c, c in the kept positions P_i, and column c of the transition
    is column c of T_i less its entry at each f in F_(i+1) times that B_f,
    read at P_(i+1): no elimination."""
    field, z = module.field, module.field.zero()
    frames = []  # (F_i as (f, B_f) pairs, P_i) per interval
    for basis, n in zip(module.fixed, module.base.dims):
        fix = [{r: x for r, x in enumerate(v) if x is not z and x} for v in basis]
        free = [(max(v), v) for v in fix]
        frames.append((free, sorted(set(range(n)).difference(f for f, _ in free))))
    maps = []
    for i, t in enumerate(module.base.transitions):
        t_cols, (free, kept) = _sparse_columns(t), frames[i + 1]
        coords = []
        for c in frames[i][1]:
            w = dict(t_cols[c])
            _peel(field, w, free)
            coords.append([w.get(r, z) for r in kept])
        maps.append(_matrix_of(field, len(kept), coords))
    return FinitePersistenceModule(field, module.base.spectrum,
                                   tuple(len(kept) for _, kept in frames), tuple(maps))


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
    """The largest of the unreduced pairs (n, d) of `_spread_candidates`, and 0
    for none: one Fraction, or +inf for (1, 0)."""
    best = (0, 1)
    for n, d in pairs:
        if n * best[1] > best[0] * d:
            best = (n, d)
    return Fraction(*best) if best[1] else INF


def _spread_candidates(barcode: Barcode, p: int):
    """The value min((y - x)/4, horizon) of each candidate interval (x, y],
    x a birth and y > x a finite death or +inf, whose multiplicity is not
    divisible by p; the horizon is the least c at which an excluded bar
    contains the 2c-shrink (x + 2c, y - 2c].  Each value is an unreduced
    pair (n, d) of integers, d >= 0, for n / d, and +inf is (1, 0), so that
    (n, d) < (n', d') iff n d' < n' d and no Fraction is built per candidate.

    One pass over the births in the canonical order of `barcode.items`.  The
    infinite bars (rays) enter only through the multiplicity of those born
    at or before x and the next ray birth after x, so a candidate (x, +inf]
    costs O(1) and the all-infinite barcodes of the model cost O(n).  Only a
    candidate with a finite right end scans, and it scans the finite bars.
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
    finite = [(bar.birth, bar.death, m) for bar, m, _ in barcode.items if bar.finite]
    deaths = sorted({d for _, d, _ in finite})
    below = i = 0
    for g, x in enumerate(births):
        below += rays[g]
        while i < len(ranks) and ranks[i] <= g:
            i += 1
        # the next ray birth r after x sets the horizon (r - x) / 2
        r = births[ranks[i]] if i < len(ranks) else None
        if below % p:
            yield (1, 0) if r is None else (
                r.numerator * x.denominator - x.numerator * r.denominator,
                2 * r.denominator * x.denominator)
        for y in deaths[bisect_right(deaths, x):]:
            m = below + sum(k for b, d, k in finite if b <= x and d >= y)
            if m % p:
                h = min((max(b - x, y - d) for b, d, _ in finite if b > x or d < y),
                        default=INF)
                c = min((y - x) / 4, min(INF if r is None else r - x, h) / 2)
                yield c.numerator, c.denominator


def mu_p(module: ZpPersistenceModule) -> Fraction | float:
    """Maximum of mu_{p,zeta} over the p-1 primitive roots of unity."""
    return max(mu_from_barcode(bc, module.p) for bc in module.barcodes)


def mu_p_of_family(family: dict[int, Barcode], p: int) -> Fraction | float:
    """Graded spread: maximum of mu over the degrees of a barcode family,
    taken on the candidate pairs of every degree at once (0 for no degree)."""
    if not family:
        return Fraction(0)
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
    window homology, over all windows (a, b), read off one normal form.

    In the normal-form basis b_x of `persistence._NormalForm` (one R = DV
    reduction), the homology of the window C^{<b}/C^{<a} has as its basis
    the classes of the b_x with a < act(x) < b, lp(x) < a and kill(x) > b.

    * The comparison to the window (a + d, b + d) sends b_x to itself, so the
      class of a cycle sum_y c_y b_y there is its part on that window's basis.
      Hence (comparison) . S, with S = T - id, is nonzero iff S has a nonzero
      entry S(y, x) with x in the source basis and y in the target basis.
    * T preserves action, so S(y, x) != 0 forces act(y) <= act(x).  Solving
      the window inequalities for a and b, the pair (x, y) works for exactly
      the shifts 0 <= d < min(act(y) - lp(x), kill(y) - act(x)).

    So w_spread = max(0, max over nonzero S(y, x) of
    min(act(y) - lp(x), kill(y) - act(x))).  S is written in the basis by
    back substitution, exactly and without an inverse.  Returns +inf when no
    shift kills the class (e.g. zero-boundary complexes with a nontrivial
    action, where finiteness needs analytic input the algebra cannot see).
    """
    one = equivariant.complex.field.one()
    # T^p = id was checked when the complex was built and p is prime, so
    # T^k = id iff T = id or p divides k
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if all(col == {g: one} for g, col in enumerate(equivariant.columns)):
        return Fraction(0)
    if k % equivariant.p:
        raise ValueError(f"chain map does not satisfy T^{k} = id")
    nf = _NormalForm(equivariant.complex)
    t_cols = nf.columns(equivariant.columns)
    best: Fraction | float = Fraction(0)
    for x, b_x in enumerate(nf.basis):
        s_x = _apply(nf.field, t_cols, b_x)  # (T - id) b_x
        _axpy(nf.field, s_x, one, b_x)
        for y, _ in nf.coordinates(s_x):
            value = min(nf.act[y] - nf.lp[x], nf.kill[y] - nf.act[x])
            if is_inf(value):
                return INF
            best = max(best, value)
    return best


class _SpreadWindow:
    """Window homology data for one window of an equivariant complex, cached
    per degree; the window-scan oracle of the w_spread tests is built from it."""

    def __init__(self, cx: FilteredComplex, a, b):
        self.cx = cx
        self.keep, self.wc = window_complex(cx, a, b)
        self._cache: dict[int, tuple[list[int], list[tuple], Matrix]] = {}

    def at(self, r: int):
        """(global generator indices, cycle basis, boundary matrix) in degree r."""
        if r not in self._cache:
            idx_r, cycles, d_rp1 = homology_basis(self.wc, r)
            self._cache[r] = ([self.keep[i] for i in idx_r], cycles, d_rp1)
        return self._cache[r]

    def apply_chain_map(self, s_mat: Matrix) -> dict[int, list[tuple]]:
        """Images of the cycle bases under the (action-preserving) chain map,
        in window coordinates, keyed by degree."""
        field = self.cx.field
        out: dict[int, list[tuple]] = {}
        degrees = sorted({self.cx.generators[g][1] for g in self.keep})
        for r in degrees:
            glob, cycles, _ = self.at(r)
            images = []
            for z in cycles:
                image = [field.zero()] * len(glob)
                for col, g in enumerate(glob):
                    v = z[col]
                    if not v:
                        continue
                    for row, h in enumerate(glob):
                        e = s_mat.entries[h][g]
                        if e:
                            image[row] = image[row] + e * v
                images.append(tuple(image))
            out[r] = images
        return out

    def induced_nonzero(self, s_images: dict[int, list[tuple]], dst: "_SpreadWindow") -> bool:
        """Is (comparison to dst) . S nonzero on homology in some degree?"""
        field = self.cx.field
        for r, images in s_images.items():
            if not images:
                continue
            glob_src, cycles_src, _ = self.at(r)
            glob_dst, _, bnd_dst = dst.at(r)
            if not glob_dst:
                continue
            moved = _reindex(field, images, glob_src, glob_dst)
            if induced_homology_rank(field, cycles_src, moved, bnd_dst, len(glob_dst)) > 0:
                return True
        return False


def spread_lower_bound_from_gaps(generators) -> Fraction | float:
    """D = min |action difference| over generator pairs of index difference 1;
    +inf when no such pair exists (the gap bound is vacuous then)."""
    gens = [(Fraction(a), int(d)) for a, d in generators]
    best: Fraction | float = INF
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if abs(gens[i][1] - gens[j][1]) == 1:
                gap = abs(gens[i][0] - gens[j][0])
                if gap < best:
                    best = gap
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
    `_spread_candidates` yields decides it."""
    return "FAIL" if next(_spread_candidates(barcode, p), None) is not None else "PASS"


def cyclic_permutation_matrix(field, n: int) -> Matrix:
    """e_j -> e_{j+1 mod n}."""
    z, o = field.zero(), field.one()
    ent = [[z] * n for _ in range(n)]
    for j in range(n):
        ent[(j + 1) % n][j] = o
    return Matrix.from_rows(field, ent) if n else Matrix.zeros(field, 0, 0)


def cyclic_tuple_module(action_value, p: int, death=INF) -> ZpPersistenceModule:
    """p generators born together with the cyclic Z_p action; the eigenspace
    at any primitive root has exactly one bar (action_value, death]."""
    field = CyclotomicField(p)
    birth = Fraction(action_value)
    if is_inf(death):
        spectrum = (birth,)
        dims = (0, p)
        transitions = (Matrix.zeros(field, p, 0),)
        action = (Matrix.zeros(field, 0, 0), cyclic_permutation_matrix(field, p))
    else:
        death = Fraction(death)
        if not birth < death:
            raise ValueError("death must exceed the birth action")
        spectrum = (birth, death)
        dims = (0, p, 0)
        transitions = (Matrix.zeros(field, p, 0), Matrix.zeros(field, 0, p))
        action = (
            Matrix.zeros(field, 0, 0),
            cyclic_permutation_matrix(field, p),
            Matrix.zeros(field, 0, 0),
        )
    base = FinitePersistenceModule(field, spectrum, dims, transitions)
    return ZpPersistenceModule(p, base, action)


# -- stabilization ------------------------------------------------------------


def kunneth_stabilize(family: dict[int, Barcode], betti: list[int]) -> dict[int, Barcode]:
    """F'(r) = union over i of betti[i] copies of F(r - i); betti[0] must be 1
    (connected stabilizing factor)."""
    if not betti or betti[0] != 1:
        raise ValueError("betti[0] must be 1 (connected factor)")
    if any(type(b) is not int for b in betti):
        raise ValueError(f"betti numbers must be ints, got {betti!r}")
    if any(b < 0 for b in betti):
        raise ValueError("betti numbers must be nonnegative")
    pieces: dict[int, list[Barcode]] = {}
    for r, barcode in family.items():
        for i, b in enumerate(betti):
            if b == 0 or barcode.is_empty():
                continue
            pieces.setdefault(r + i, []).append(barcode.repeat(b))
    # a lone piece is canonical already; several are merged and sorted once
    return {t: ps[0] if len(ps) == 1 else Barcode(tuple(e for bc in ps for e in bc.items))
            for t, ps in pieces.items()}
