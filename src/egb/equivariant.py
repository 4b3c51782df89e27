"""Persistence modules with a cyclic automorphism of prime order.

Provides the eigenspace and fixed-quotient modules of the action, the
multiplicity-sensitive spread mu_p, the modified spread w_hat (equal to the
longest finite bar of V/Fix by the two independent computations exposed
here), the two-window spread of an equivariant filtered complex, and the
full-power obstruction with its test fixtures.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
import random

from .field import (
    CyclotomicField,
    CyclotomicNumber,
    Matrix,
    cyclo_one,
    is_prime,
    primitive_roots,
)
from .persistence import (
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    _NormalForm,
    _apply,
    _block_diag,
    _extend_basis,
    _reindex,
    direct_sum,
    homology_basis,
    induced_homology_rank,
    is_inf,
    longest_finite_bar,
    barcode_of_module,
    window_complex,
)

GradedBarcodeFamily = dict  # degree -> Barcode


@dataclass(frozen=True)
class ZpPersistenceModule:
    """Finite persistence module over Q(zeta_p) with an order-p automorphism.

    ``action[i]`` acts on the i-th constancy interval; it has order p and
    commutes with the transition maps.
    """

    p: int
    base: FinitePersistenceModule
    action: tuple[Matrix, ...]
    degree: int = 0

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not isinstance(self.base.field, CyclotomicField) or self.base.field.p != self.p:
            raise ValueError("base module must live over Q(zeta_p)")
        if len(self.action) != self.base.num_intervals:
            raise ValueError("one automorphism matrix per constancy interval")
        for i, a in enumerate(self.action):
            n = self.base.dims[i]
            if (a.rows, a.cols) != (n, n):
                raise ValueError(f"automorphism {i} has wrong shape")
            if not (a.matpow(self.p) - Matrix.identity(a.field, n)).is_zero():
                raise ValueError(f"automorphism {i} does not have order dividing p")
        for i, t in enumerate(self.base.transitions):
            if not (self.action[i + 1] @ t - t @ self.action[i]).is_zero():
                raise ValueError(f"automorphism does not commute with transition {i}")

    @property
    def field(self) -> CyclotomicField:
        return self.base.field


@dataclass(frozen=True)
class EquivariantComplex:
    """Filtered complex with an action-preserving chain automorphism of order p."""

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
        if not (t.matpow(self.p) - Matrix.identity(t.field, n)).is_zero():
            raise ValueError("chain map does not satisfy T^p = id")
        d = self.complex.boundary
        if not (t @ d - d @ t).is_zero():
            raise ValueError("chain map does not commute with the boundary")
        gens = self.complex.generators
        for j in range(n):
            for i in range(n):
                if not t.entries[i][j]:
                    continue
                if gens[i][0] != gens[j][0] or gens[i][1] != gens[j][1]:
                    raise ValueError("chain map must preserve action and degree")


def _validate_root(p: int, zeta: CyclotomicNumber, primitive: bool) -> None:
    if zeta.p != p:
        raise ValueError("root of unity over the wrong field")
    if not (zeta ** p - cyclo_one(p)).is_zero():
        raise ValueError("not a p-th root of unity")
    if primitive and (zeta - cyclo_one(p)).is_zero():
        raise ValueError("root must be primitive (zeta != 1)")


def eigenspace_module(
    module: ZpPersistenceModule, zeta: CyclotomicNumber
) -> FinitePersistenceModule:
    """Pointwise kernels of (A - zeta id), with the induced transitions."""
    _validate_root(module.p, zeta, primitive=False)
    field = module.field
    kernels = []
    for i, a in enumerate(module.action):
        n = module.base.dims[i]
        shifted = a - Matrix.identity(field, n).scale(zeta)
        kernels.append(shifted.kernel_basis())
    return _induced_module(module, [[] for _ in kernels], kernels)


def quotient_fix_module(module: ZpPersistenceModule) -> FinitePersistenceModule:
    """The quotient L = V / Fix(A) with the induced persistence maps."""
    field = module.field
    fixed = []
    complements = []
    for i, a in enumerate(module.action):
        n = module.base.dims[i]
        identity = Matrix.identity(field, n)
        w = (a - identity).kernel_basis()
        fixed.append(w)
        # standard-basis vectors extending Fix(A) to a basis (identity is symmetric)
        complements.append(_extend_basis(field, w, list(identity.entries), n))
    return _induced_module(module, fixed, complements)


def _induced_module(
    module: ZpPersistenceModule, prefixes: list[list], bases: list[list]
) -> FinitePersistenceModule:
    """The module span(bases[i]) modulo span(prefixes[i]) with the induced
    transitions: the images of bases[i] are solved in the frame
    prefixes[i+1] + bases[i+1] of the next interval, all in one elimination,
    and their coordinates past the prefix are kept."""
    field, dims = module.field, module.base.dims
    transitions = []
    for i, t in enumerate(module.base.transitions):
        prefix, src, dst = prefixes[i + 1], bases[i], bases[i + 1]
        frame = Matrix.from_columns(field, prefix + dst, dims[i + 1])
        coords = frame.solve_matrix(t @ Matrix.from_columns(field, src, dims[i]))
        if coords is None:
            raise ValueError("transition does not preserve the induced subspace")
        transitions.append(Matrix(field, len(dst), len(src), coords.entries[len(prefix):]))
    return FinitePersistenceModule(field, module.base.spectrum,
                                   tuple(len(b) for b in bases), tuple(transitions))


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
    return max(_spread_candidates(barcode, p), default=Fraction(0))


def _spread_candidates(barcode: Barcode, p: int):
    """The value min((y - x)/4, horizon) of each candidate interval (x, y],
    x a birth and y > x a finite death or +inf, whose multiplicity is not
    divisible by p; the horizon is the least c at which an excluded bar
    contains the 2c-shrink (x + 2c, y - 2c].

    One pass over the births in the canonical order of `barcode.items`.  The
    infinite bars (rays) enter only through the multiplicity of those born
    at or before x and the next ray birth after x, so a candidate (x, +inf]
    costs O(1) and the all-infinite barcodes of the model cost O(n).  Only a
    candidate with a finite right end scans, and it scans the finite bars.
    """
    rays = [(bar.birth, m) for bar, m, _ in barcode.items if not bar.finite]
    finite = [(bar.birth, bar.death, m) for bar, m, _ in barcode.items if bar.finite]
    deaths = sorted({d for _, d, _ in finite})
    below = i = 0
    for x in dict.fromkeys(bar.birth for bar, _, _ in barcode.items):
        while i < len(rays) and rays[i][0] <= x:
            below += rays[i][1]
            i += 1
        # twice the horizon the rays set: an excluded ray is born after x
        reach = rays[i][0] - x if i < len(rays) else INF
        if below % p:
            yield reach / 2
        for y in deaths[bisect_right(deaths, x):]:
            m = below + sum(k for b, d, k in finite if b <= x and d >= y)
            if m % p:
                h = min((max(b - x, y - d) for b, d, _ in finite if b > x or d < y),
                        default=INF)
                yield min((y - x) / 4, min(reach, h) / 2)


def eigenspace_barcodes(module: ZpPersistenceModule) -> list[Barcode]:
    """Barcode of the zeta^k-eigenspace for k = 1..p-1, each computed once."""
    return [barcode_of_module(eigenspace_module(module, z)) for z in primitive_roots(module.p)]


def mu_p_zeta(module: ZpPersistenceModule, zeta: CyclotomicNumber) -> Fraction | float:
    """mu_{p,zeta}: the spread of the barcode of the zeta-eigenspace."""
    _validate_root(module.p, zeta, primitive=True)
    eigen = eigenspace_module(module, zeta)
    return mu_from_barcode(barcode_of_module(eigen), module.p)


def mu_p(module: ZpPersistenceModule) -> Fraction | float:
    """Maximum of mu_{p,zeta} over the p-1 primitive roots of unity."""
    return max(mu_from_barcode(bc, module.p) for bc in eigenspace_barcodes(module))


def mu_p_of_family(family: GradedBarcodeFamily, p: int) -> Fraction | float:
    """Graded spread: maximum of mu over the degrees of a barcode family."""
    values = [mu_from_barcode(bc, p) for bc in family.values()]
    return max(values) if values else Fraction(0)


# -- the modified spread ------------------------------------------------------


def w_hat(module: ZpPersistenceModule) -> Fraction | float:
    """sup of d such that theta_{s,s+d}(A_s - id) != 0 for some s.

    Computed by direct scan over pairs of constancy intervals; the companion
    computation longest_finite_bar(quotient_fix_module(V)) must agree (with
    +inf when the quotient has an infinite bar), which tests exercise.
    """
    base = module.base
    m = len(base.spectrum)
    field = module.field
    best = Fraction(0)
    for u in range(1, m + 1):  # interval 0 has dimension 0
        n_u = base.dims[u]
        s_mat = module.action[u] - Matrix.identity(field, n_u)
        if s_mat.is_zero():
            continue
        acc = s_mat
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
            d_sup = base.spectrum[v] - base.spectrum[u - 1]
            if d_sup > best:
                best = d_sup
    return best


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
    cx = equivariant.complex
    t_mat = equivariant.chain_map
    n = len(cx.generators)
    identity = Matrix.identity(cx.field, n)
    # T^p = id was checked when the complex was built
    if k != equivariant.p and not (t_mat.matpow(k) - identity).is_zero():
        raise ValueError(f"chain map does not satisfy T^{k} = id")
    s_mat = t_mat - identity
    if s_mat.is_zero():
        return Fraction(0)
    nf = _NormalForm(cx)
    s_cols = nf.columns(s_mat)
    best: Fraction | float = Fraction(0)
    for x, b_x in enumerate(nf.basis):
        for y, _ in nf.coordinates(_apply(s_cols, b_x)):
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
    _validate_root(module.p, zeta, primitive=True)
    return full_power_verdict(barcode_of_module(eigenspace_module(module, zeta)), module.p)


def full_power_verdict(barcode: Barcode, p: int) -> str:
    """FAIL iff some candidate-interval multiplicity of the eigenspace
    barcode is not divisible by p: the first candidate that
    `_spread_candidates` yields decides it."""
    return "FAIL" if next(_spread_candidates(barcode, p), None) is not None else "PASS"


def construct_full_power(
    seed: FinitePersistenceModule, root: tuple[Matrix, ...]
) -> ZpPersistenceModule:
    """Z_p module with action A = B^p from a root B with B^{p^2} = id.

    The order p^2 and commutation are validated here; the resulting module is
    the standard fixture on which the full-power obstruction must PASS.
    """
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
        if not (b.matpow(p * p) - Matrix.identity(field, n)).is_zero():
            raise ValueError(f"root matrix {i} does not satisfy B^(p^2) = id")
    for i, t in enumerate(seed.transitions):
        if not (root[i + 1] @ t - t @ root[i]).is_zero():
            raise ValueError(f"root does not commute with transition {i}")
    action = tuple(b.matpow(p) for b in root)
    return ZpPersistenceModule(p, seed, action)


def cyclic_permutation_matrix(field, n: int) -> Matrix:
    """e_j -> e_{j+1 mod n}."""
    z, o = field.zero(), field.one()
    ent = [[z] * n for _ in range(n)]
    for j in range(n):
        ent[(j + 1) % n][j] = o
    return Matrix.from_rows(field, ent) if n else Matrix.zeros(field, 0, 0)


def cyclic_tuple_module(
    action_value, p: int, degree: int = 0, death=INF
) -> ZpPersistenceModule:
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
    return ZpPersistenceModule(p, base, action, degree=degree)


def zp_direct_sum(a: ZpPersistenceModule, b: ZpPersistenceModule) -> ZpPersistenceModule:
    """Direct sum of Z_p modules on the common spectrum refinement."""
    if a.p != b.p:
        raise ValueError("direct sum of modules with different p")
    base = direct_sum(a.base, b.base)

    def refined_action(mod: ZpPersistenceModule) -> list[Matrix]:
        # the value at a spectrum point is the left limit; the top interval is last
        return [mod.action[mod.base.interval_index(s)] for s in base.spectrum] + [mod.action[-1]]

    action = tuple(_block_diag(x, y) for x, y in zip(refined_action(a), refined_action(b)))
    return ZpPersistenceModule(a.p, base, action, degree=a.degree)


# -- stabilization and interleaving -------------------------------------------


def kunneth_stabilize(family: GradedBarcodeFamily, betti: list[int]) -> GradedBarcodeFamily:
    """F'(r) = union over i of betti[i] copies of F(r - i); betti[0] must be 1
    (connected stabilizing factor)."""
    if not betti or betti[0] != 1:
        raise ValueError("betti[0] must be 1 (connected factor)")
    if any(b < 0 for b in betti):
        raise ValueError("betti numbers must be nonnegative")
    out: GradedBarcodeFamily = {}
    for r, barcode in family.items():
        for i, b in enumerate(betti):
            if b == 0 or barcode.is_empty():
                continue
            target = r + i
            piece = barcode.repeat(b)
            out[target] = out[target].union(piece) if target in out else piece
    return out


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
    return ZpPersistenceModule(module.p, base, module.action, degree=module.degree)


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
