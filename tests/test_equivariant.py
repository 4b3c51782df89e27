import collections
import functools
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

from egb import equivariant, persistence
from egb.equivariant import (
    EquivariantComplex,
    ZpPersistenceModule,
    _SpreadWindow,
    _supremum,
    cyclic_permutation_matrix,
    cyclic_tuple_module,
    full_power_check,
    full_power_verdict,
    kunneth_stabilize,
    mu_from_barcode,
    mu_p,
    mu_p_of_family,
    quotient_fix_module,
    spread_lower_bound_from_gaps,
    w_hat,
    w_hat_from_quotient,
    w_spread,
)
from egb.field import CyclotomicField, Matrix, QQ_FIELD, _null_vectors, cyclo_zeta
from egb.persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    _NormalForm,
    barcode_of_module,
    is_inf,
)
from egb.serialize import complex_to_obj, matrix_to_obj

from conftest import (
    count_calls,
    complex_checks_oracle,
    conjugate_module,
    construct_full_power,
    cyclo_one,
    eigenspace_module_oracle,
    fix_vectors,
    full_power_verdict_oracle,
    gap_cuts,
    kernel_oracle,
    mu_from_barcode_oracle,
    multiplicity_oracle,
    part_modules,
    perturb_and_check_lipschitz,
    primitive_roots,
    quotient_fix_oracle,
    rand_barcode,
    rand_frac,
    random_equivariant_complex,
    random_zp_module,
    scalar_interval_module,
    scan_w_spread,
    shift_diagonal,
    shift_module,
    shrink,
    sparse_oracle,
    symmetric_rips_complex,
    w_hat_scan_oracle,
    window_pair_nonzero_oracle,
    zp_direct_sum,
    zp_module_checks_oracle,
)


def trivial_action_module(p, birth, death):
    return scalar_interval_module(p, birth, death, 0)


def swap_module(birth=F(0), death=INF):
    """Two generators born together, involution swapping them (p = 2)."""
    field = CyclotomicField(2)
    swap = Matrix.from_rows(field, [[0, 1], [1, 0]])
    empty = Matrix.zeros(field, 0, 0)
    if death == INF:
        base = FinitePersistenceModule(
            field, (birth,), (0, 2), (Matrix.zeros(field, 2, 0),)
        )
        return ZpPersistenceModule(2, base, (empty, swap))
    base = FinitePersistenceModule(
        field, (birth, death), (0, 2, 0),
        (Matrix.zeros(field, 2, 0), Matrix.zeros(field, 0, 2)),
    )
    return ZpPersistenceModule(2, base, (empty, swap, empty))


class TestEigenspace:
    def test_trivial_action_zeta_one(self):
        m = trivial_action_module(3, F(0), F(5))
        assert tuple(map(len, m.fixed)) == m.base.dims

    def test_trivial_action_primitive_zeta(self):
        m = trivial_action_module(3, F(0), F(5))
        assert all(d == 0 for part in part_modules(m) for d in part.dims)

    def test_swap_eigenspace(self):
        m = swap_module()
        assert [part.dims for part in part_modules(m)] == [(0, 1)]

    def test_non_root_rejected(self):
        m = swap_module()
        bad = cyclo_one(2) + cyclo_one(2)  # 2 is not a square root of unity
        with pytest.raises(ValueError, match="not a p-th root"):
            full_power_check(m, bad)

    def test_eigen_splitting_dims(self, rng):
        for p in (2, 3):
            for _ in range(12):
                m = random_zp_module(rng, p)
                parts = part_modules(m)
                for i, d in enumerate(m.base.dims):
                    assert d == len(m.fixed[i]) + sum(e.dims[i] for e in parts)


class TestQuotientFix:
    def test_identity_action_quotient_zero(self):
        m = trivial_action_module(2, F(0), F(7))
        q = quotient_fix_module(m)
        assert all(d == 0 for d in q.dims)

    def test_swap_quotient_dimension(self):
        q = quotient_fix_module(swap_module())
        assert q.dims == (0, 1)

    def test_quotient_matches_eigen_splitting(self, rng):
        """dim L = sum of dim L_zeta over zeta != 1 (projector splitting)."""
        for p in (2, 3, 5):
            for _ in range(8):
                m = random_zp_module(rng, p, max_blocks=3 if p < 5 else 2)
                q, parts = quotient_fix_module(m), part_modules(m)
                for i in range(len(q.dims)):
                    assert q.dims[i] == sum(e.dims[i] for e in parts)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_quotient_equals_the_dense_oracle(self, rng, p):
        """On random modules, and on a fixed class on (0, 4], a class of
        eigenvalue zeta on (2, 6] and a cyclic tuple on (7, 9] in a random
        basis: Fix = V on (0, 2], Fix = 0 on (4, 6]."""
        modules = [random_zp_module(rng, p, max_blocks=(4, 4, 3, 2)[(2, 3, 5, 7).index(p)])
                   for _ in range(12 if p < 7 else 4)]
        planted = conjugate_module(rng, functools.reduce(zp_direct_sum, (
            scalar_interval_module(p, 0, 4, 0), scalar_interval_module(p, 2, 6, 1),
            cyclic_tuple_module(7, p, death=9))))
        assert [(len(fix), n) for fix, n in zip(planted.fixed, planted.base.dims)] \
            == [(0, 0), (1, 1), (1, 2), (0, 1), (0, 0), (1, p), (0, 0)]
        for m in [*modules, planted]:
            assert quotient_fix_module(m) == quotient_fix_oracle(m)


# the `Matrix` eliminations, products and powers that the Z_p layer never calls
DENSE = ("kernel_basis", "__matmul__", "solve", "solve_matrix", "matpow", "from_columns")
# those that an equivariant complex never calls: its checks are products on sparse columns
ELIMINATIONS = ("kernel_basis", "solve", "solve_matrix", "from_columns")


def square_and_multiply_products(p: int) -> int:
    """The products of `Matrix.matpow(p)`, p >= 1."""
    return p.bit_length() + bin(p).count("1") - 2


class TestInducedModuleSolves:
    """Building a module takes one sparse column reduction per root and
    interval (`_null_vectors`, with V carried in the loop for the kernel), and
    no `Matrix` elimination, product or power: each part's transition is read
    off the images at the free positions of the next interval's kernel.
    The readers of the stored parts and the quotient V/Fix reduce nothing
    at all."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_no_solve_after_the_kernels(self, rng, monkeypatch, p):
        dense = {name: count_calls(monkeypatch, Matrix, name) for name in DENSE}
        reductions = count_calls(monkeypatch, equivariant, "_null_vectors")

        def counts():
            out = (len(reductions), {name: len(calls) for name, calls in dense.items() if calls})
            del reductions[:]
            for calls in dense.values():
                del calls[:]
            return out

        for _ in range(4):
            m = random_zp_module(rng, p, max_blocks=3)
            counts()
            m = ZpPersistenceModule(p, m.base, m.action)
            assert counts() == (p * len(m.base.dims), {})
            mu_p(m)
            w_hat(m)
            for k in range(1, p):
                mu_from_barcode(m.barcodes[k - 1], p)
                full_power_check(m, cyclo_zeta(p, k))
            assert counts() == (0, {})
            quotient_fix_module(m)
            w_hat_from_quotient(m)
            assert counts() == (0, {})


class TestChainMapOrder:
    """T^p = id is checked by square and multiply on T's sparse columns."""

    @staticmethod
    def chain_maps(field, p):
        cycle = [list(row) for row in cyclic_permutation_matrix(field, p).entries]
        maps = {"rotation": [[0, -1], [1, 0]], "unipotent": [[1, 1], [0, 1]],
                "double": [[2, 0], [0, 2]], "swap": [[0, 1], [1, 0]], "minus": [[-1, 0], [0, -1]],
                "identity": [[1, 0], [0, 1]], "unipotent_3": [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
                "cycle_3": cyclic_permutation_matrix(field, 3).entries, "cycle_p": cycle,
                "cycle_p_and_rotation": [row + [0, 0] for row in cycle]
                + [[0] * p + [0, -1], [0] * p + [1, 0]]}
        if isinstance(field, CyclotomicField):
            zeta = cyclo_zeta(p)
            maps["zeta"] = [[zeta, 0], [0, zeta]]
            maps["zeta_cycle"] = [[x * zeta for x in row] for row in cycle]
        return {name: Matrix.from_rows(field, rows) for name, rows in maps.items()}

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_power_check_equals_the_dense_oracle(self, monkeypatch, p):
        """Chain maps of order 1, 2, 3, 4, p and 4p, unipotent ones and 2 id
        on a complex with no boundary, at primes with several bits set."""
        cases = []
        for field in (QQ_FIELD, CyclotomicField(p)):
            for name, t in self.chain_maps(field, p).items():
                gens, boundary = ((F(0), 0),) * t.rows, Matrix.zeros(field, t.rows, t.rows)
                expected = complex_checks_oracle(field, gens, boundary, p, t)
                cases.append((name, FilteredComplex(field, gens, boundary), t, expected))
        dense = [count_calls(monkeypatch, Matrix, name) for name in ELIMINATIONS]
        products = count_calls(monkeypatch, Matrix, "__matmul__")
        for name, cx, t, expected in cases:
            del products[:]
            try:
                EquivariantComplex(p, cx, t)
                got = None
            except ValueError as e:
                got = str(e)
            assert (name, got) == (name, expected)
            # T^p, then T D and D T once it passes
            assert len(products) == square_and_multiply_products(p) + 2 * (got is None)
        assert dense == [[]] * len(ELIMINATIONS)
        assert {expected for *_, expected in cases} == {None, "chain map does not satisfy T^p = id"}

    def test_builds_no_dense_matrix(self, rng, monkeypatch):
        """No elimination: the checks take T^p by square and multiply, then
        T D and D T, and nothing else."""
        inputs = [random_equivariant_complex(rng, p, field) for p in (2, 3, 5)
                  for field in (QQ_FIELD, CyclotomicField(p)) for _ in range(3)]
        dense = [count_calls(monkeypatch, Matrix, name) for name in ELIMINATIONS]
        products = count_calls(monkeypatch, Matrix, "__matmul__")
        for eq in inputs:
            del products[:]
            built = EquivariantComplex(eq.p, eq.complex, eq.chain_map)
            assert built.chain_map.columns == sparse_oracle(eq.chain_map)
            assert len(products) == square_and_multiply_products(eq.p) + 2
        assert dense == [[]] * len(ELIMINATIONS)


class TestDecomposition:
    """The isotypic parts stored at construction, and the checks read off
    them, against the oracles that compute each afresh."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_parts_equal_the_kernel_oracle(self, rng, p):
        for _ in range(6):
            m = random_zp_module(rng, p, max_blocks=3)
            for k, part in enumerate(part_modules(m), 1):
                oracle = eigenspace_module_oracle(m, cyclo_zeta(p, k))
                assert part == oracle
                assert m.barcodes[k - 1] == barcode_of_module(oracle)
            assert fix_vectors(m) == [kernel_oracle(shift_diagonal(a, 1)) for a in m.action]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_fixed_is_the_null_vector_pairs_of_a_minus_one(self, rng, p):
        """``fixed[i]`` holds the (free position, sparse vector) pairs of
        `_null_vectors` for A_i - 1, with no zero stored: the rows moved to
        the pivot order change neither the kernel nor its free columns."""
        for _ in range(4 if p < 7 else 2):
            m = random_zp_module(rng, p, max_blocks=3 if p < 7 else 2)
            for fix, a in zip(m.fixed, m.action):
                pairs = _null_vectors(m.field, list(shift_diagonal(a, 1).columns))
                assert type(fix) is tuple and fix == tuple(pairs)
                assert all(type(f) is int and type(v) is dict and v[f] == m.field.one()
                           and all(v.values()) for f, v in fix)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_checks_equal_the_dense_oracle(self, rng, p):
        """Random modules are accepted by both; with one entry of an action
        or a transition changed, both give the same verdict and message."""
        field = CyclotomicField(p)
        refused = collections.Counter()
        for _ in range(16):
            m = random_zp_module(rng, p, max_blocks=3)
            base, action = m.base, list(m.action)
            assert zp_module_checks_oracle(p, base, action) is None
            transitions = list(base.transitions)
            targets = [[(action, i) for i, a in enumerate(action) if a.rows],
                       [(transitions, i) for i, t in enumerate(transitions) if t.rows and t.cols]]
            mats, i = rng.choice(rng.choice([t for t in targets if t]))
            ent = [list(row) for row in mats[i].entries]
            r, c = rng.randrange(len(ent)), rng.randrange(len(ent[0]))
            ent[r][c] = ent[r][c] + cyclo_zeta(p, rng.randrange(p))
            mats[i] = Matrix.from_rows(field, ent)
            base = FinitePersistenceModule(field, base.spectrum, base.dims, tuple(transitions))
            expected = zp_module_checks_oracle(p, base, action)
            try:
                ZpPersistenceModule(p, base, tuple(action))
                got = None
            except ValueError as e:
                got = str(e)
            assert got == expected
            if expected:
                refused["order" if "order" in expected else "commutation"] += 1
        assert refused["order"] and refused["commutation"]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_order_p_squared_refused(self, p):
        """A p^2-cycle permutation is diagonalizable over C but has order p^2:
        its eigenvalues in Q(zeta_p) fill only part of the space."""
        field = CyclotomicField(p)
        n = p * p
        base = FinitePersistenceModule(field, (F(0),), (0, n), (Matrix.zeros(field, n, 0),))
        action = (Matrix.zeros(field, 0, 0), cyclic_permutation_matrix(field, n))
        message = "automorphism 1 does not have order dividing p"
        assert zp_module_checks_oracle(p, base, action) == message
        with pytest.raises(ValueError, match=message):
            ZpPersistenceModule(p, base, action)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_non_diagonalizable_refused(self, p):
        """[[1, 1], [0, 1]] has the single eigenvalue 1 with a one-dimensional
        kernel, so its kernel dimensions sum to 1, not 2."""
        field = CyclotomicField(p)
        base = FinitePersistenceModule(field, (F(0),), (0, 2), (Matrix.zeros(field, 2, 0),))
        action = (Matrix.zeros(field, 0, 0), Matrix.from_rows(field, [[1, 1], [0, 1]]))
        message = "automorphism 1 does not have order dividing p"
        assert zp_module_checks_oracle(p, base, action) == message
        with pytest.raises(ValueError, match=message):
            ZpPersistenceModule(p, base, action)

    @pytest.mark.parametrize("p,blocks", [(2, 4), (3, 3), (5, 2)])
    def test_union_of_parts_is_the_quotient_barcode(self, rng, p, blocks):
        """V/Fix is isomorphic to the sum of the parts 1..p-1."""
        for _ in range(10):
            m = random_zp_module(rng, p, max_blocks=blocks)
            union = functools.reduce(Barcode.union, m.barcodes)
            assert union == barcode_of_module(quotient_fix_module(m))


class TestMuP:
    def test_single_bar(self):
        bc = Barcode.of([(Bar(0, 10), 1)])
        assert mu_from_barcode(bc, 2) == F(5, 2)

    def test_multiplicity_divisible(self):
        bc = Barcode.of([(Bar(0, 10), 2)])
        assert mu_from_barcode(bc, 2) == 0

    def test_empty(self):
        assert mu_from_barcode(Barcode.empty(), 3) == 0

    def test_single_tuple_module(self):
        m = cyclic_tuple_module(F(0), 2, death=F(10))
        assert mu_p(m) == F(5, 2)
        assert mu_from_barcode(m.barcodes[0], 2) == F(5, 2)

    def test_mu_p_zeta_requires_primitive(self):
        m = cyclic_tuple_module(F(0), 3, death=F(10))
        with pytest.raises(ValueError, match="primitive"):
            full_power_check(m, cyclo_one(3))

    def test_p2_equals_zeta_minus_one(self, rng):
        for _ in range(8):
            m = random_zp_module(rng, 2, max_blocks=3)
            assert mu_p(m) == mu_from_barcode(m.barcodes[0], 2)

    def test_rescan_oracle(self, rng):
        """mu from the closed-form candidate scan equals a denser sweep."""
        for _ in range(20):
            bc = Barcode.of(
                [
                    (Bar(rand_frac(rng, -4, 4, 2), rand_frac(rng, 5, 12, 1)), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            p = rng.choice([2, 3])
            got = mu_from_barcode(bc, p)
            # dense sweep over a fine grid of candidate intervals and c values
            best = F(0)
            points = sorted({bar.birth for bar, _, _ in bc.items}
                            | {bar.death for bar, _, _ in bc.items if bar.finite})
            grid = sorted({a + F(k, 4) for a in points for k in range(-2, 3)})
            for x in grid:
                for y in grid:
                    if not x < y:
                        continue
                    interval = Bar(x, y)
                    l = multiplicity_oracle(bc, interval)
                    if l % p == 0:
                        continue
                    c = (y - x) / 4
                    while c > best:
                        if (y - x) > 4 * c and multiplicity_oracle(bc, shrink(interval, 2 * c)) == l:
                            if c > best:
                                best = c
                            break
                        c -= F(1, 64)
            assert got >= best

    def test_scaling_doubles_bound(self):
        m1 = cyclic_tuple_module(F(0), 2, death=F(10))
        m2 = cyclic_tuple_module(F(0), 2, death=F(20))
        assert mu_p(m2) == 2 * mu_p(m1)

    def test_graded_family_max(self):
        fam = {0: Barcode.of([(Bar(0, 10), 1)]), 1: Barcode.of([(Bar(0, 4), 1)])}
        assert mu_p_of_family(fam, 2) == F(5, 2)


def rays(rng, n: int, max_mult: int = 3) -> Barcode:
    """n infinite bars at random births (repeats merge), multiplicities 1..max_mult."""
    return Barcode.of([(Bar(rand_frac(rng), INF), rng.randint(1, max_mult)) for _ in range(n)])


def spread_barcodes(rng, kind: str, count: int = 60):
    """Random barcodes of one kind: finite bars only, infinite bars only, or
    both, the mixed ones with bars in several degrees."""
    for _ in range(count):
        if kind == "finite":
            yield rand_barcode(rng, max_bars=8, allow_infinite=False)
        elif kind == "infinite":
            yield rays(rng, rng.randint(0, 8))
        else:
            bc = rand_barcode(rng, max_bars=8).union(rays(rng, rng.randint(1, 3)))
            yield Barcode.of([(bar, m, rng.choice([None, 0, 1])) for bar, m, _ in bc.items])


class TestSpreadSweep:
    """`mu_from_barcode` and `full_power_verdict` from one pass over the
    canonical order, against the candidate-grid oracles of conftest."""

    @pytest.mark.parametrize("kind", ["finite", "infinite", "mixed"])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equals_oracles(self, rng, kind, p):
        for bc in spread_barcodes(rng, kind):
            got, want = mu_from_barcode(bc, p), mu_from_barcode_oracle(bc, p)
            assert (got, type(got)) == (want, type(want)), bc
            assert full_power_verdict(bc, p) == full_power_verdict_oracle(bc, p), bc

    def test_rays_never_scan_bars(self, rng):
        """The spread and the verdict read the bars of a ray-only barcode in
        two passes, whatever the number of candidates: no candidate scans
        them again."""

        class CountedReads:
            def __init__(self, barcode):
                self.barcode, self.reads = barcode, 0

            @property
            def items(self):
                self.reads += 1
                return self.barcode.items

        for p in (2, 3, 5):
            for bc in spread_barcodes(rng, "infinite", 20):
                for read in (mu_from_barcode, full_power_verdict):
                    counted = CountedReads(bc)
                    assert read(counted, p) == read(bc, p)
                    assert counted.reads == 2

    def test_supremum_stops_at_the_first_infinite_pair(self):
        """+inf is read off the first pair (n, 0): no later pair is drawn."""
        def pairs():
            yield 3, 2
            yield 1, 0
            raise AssertionError("a pair after +inf was read")

        assert _supremum(pairs()) == INF
        assert _supremum(iter([(5, 4), (-1, 3), (10, 8)])) == F(5, 4)
        assert _supremum(iter([(-1, 3)])) == _supremum(iter([])) == 0

    def test_ray_horizon_is_half_the_next_birth(self):
        # (0, inf] alone has multiplicity 1 until the ray born at 6 enters
        bc = Barcode.of([(Bar(0, INF), 1), (Bar(6, INF), 1)])
        assert mu_from_barcode(bc, 2) == 3
        assert full_power_verdict(bc, 2) == "FAIL"
        assert full_power_verdict(bc.repeat(2), 2) == "PASS"


class TestWHat:
    def test_identity_action(self):
        m = trivial_action_module(3, F(0), F(9))
        assert w_hat(m) == 0
        assert w_hat_from_quotient(m) == 0

    def test_swap_dying_at_seven(self):
        m = swap_module(F(0), F(7))
        assert w_hat(m) == 7
        assert w_hat_from_quotient(m) == 7

    def test_infinite_quotient_bar(self):
        m = swap_module(F(0), INF)
        assert is_inf(w_hat(m))
        assert is_inf(w_hat_from_quotient(m))

    @pytest.mark.parametrize("p,blocks", [(2, 4), (3, 3), (5, 2)])
    def test_w_hat_equals_beta_randomized(self, rng, p, blocks):
        for _ in range(40):
            m = random_zp_module(rng, p, max_blocks=blocks)
            a, b, c = w_hat(m), w_hat_from_quotient(m), w_hat_scan_oracle(m)
            if is_inf(a) or is_inf(b) or is_inf(c):
                assert is_inf(a) and is_inf(b) and is_inf(c)
            else:
                assert a == b == c


class TestWSpread:
    def test_identity_chain_map(self):
        cx = FilteredComplex(
            QQ_FIELD, ((F(5), 1), (F(2), 0)),
            Matrix.from_rows(QQ_FIELD, [[0, 0], [1, 0]]),
        )
        eq = EquivariantComplex(2, cx, Matrix.identity(QQ_FIELD, 2))
        assert w_spread(eq, 2) == 0

    def test_zero_boundary_swap_is_degenerate(self):
        cx = FilteredComplex(
            QQ_FIELD, ((F(0), 0), (F(0), 0)), Matrix.zeros(QQ_FIELD, 2, 2)
        )
        swap = Matrix.from_rows(QQ_FIELD, [[0, 1], [1, 0]])
        eq = EquivariantComplex(2, cx, swap)
        assert is_inf(w_spread(eq, 2))

    def test_swapped_generators_killed_at_gap(self):
        # e1, e2 at action 0 swapped; f at action D with df = e1 - e2, Tf = -f
        d_gap = F(7)
        cx = FilteredComplex(
            QQ_FIELD,
            ((F(0), 0), (F(0), 0), (d_gap, 1)),
            Matrix.from_rows(QQ_FIELD, [[0, 0, 1], [0, 0, -1], [0, 0, 0]]),
        )
        t = Matrix.from_rows(QQ_FIELD, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
        eq = EquivariantComplex(2, cx, t)
        assert w_spread(eq, 2) == scan_w_spread(eq) == d_gap

    @staticmethod
    def swaps(pairs, killed):
        """Pairs of generators at each (action, degree) of ``pairs``, swapped
        by T; ``killed[i] = j`` makes pair j the boundary of pair i, each
        generator of one killing the same one of the other."""
        gens = tuple((F(a), d) for a, d in pairs for _ in range(2))
        n = len(gens)
        d = [[0] * n for _ in range(n)]
        for i, j in killed.items():
            d[2 * j][2 * i] = d[2 * j + 1][2 * i + 1] = 1
        t = [[1 if r == c ^ 1 else 0 for c in range(n)] for r in range(n)]
        cx = FilteredComplex(QQ_FIELD, gens, Matrix.from_rows(QQ_FIELD, d))
        return EquivariantComplex(2, cx, Matrix.from_rows(QQ_FIELD, t))

    @pytest.mark.parametrize("pairs, killed, expected", [
        # S(b, a) of the pair at 0 has lp(a) = -inf, S(f, e) of its killers
        # at 1 has kill(f) = +inf, each against a finite other end: 1
        (((0, 0), (1, 1)), {1: 0}, F(1)),
        # and a pair at 2 that nothing kills: lp = -inf and kill = +inf on
        # one entry, read after the finite ones
        (((0, 0), (1, 1), (2, 0)), {1: 0}, INF),
        (((2, 0), (0, 0), (1, 1)), {2: 1}, INF),
        (((0, 0),), {}, INF),
    ])
    def test_infinite_ends_match_window_scan(self, pairs, killed, expected):
        eq = self.swaps(pairs, killed)
        got = w_spread(eq, 2)
        assert (got, type(got)) == (expected, type(expected))
        assert scan_w_spread(eq) == expected

    def test_wrong_order_rejected(self):
        cx = FilteredComplex(QQ_FIELD, ((F(0), 0),), Matrix.zeros(QQ_FIELD, 1, 1))
        t = Matrix.from_rows(QQ_FIELD, [[-1]])
        with pytest.raises(ValueError):
            w_spread(EquivariantComplex(2, cx, t), 3)

    def test_order_checked_once(self, monkeypatch):
        # T^p = id is checked when the complex is built and p is prime, so
        # w_spread reads T^k = id off k mod p and never powers T
        cx = FilteredComplex(
            QQ_FIELD, ((F(0), 0), (F(0), 0)), Matrix.zeros(QQ_FIELD, 2, 2)
        )
        eq = EquivariantComplex(2, cx, Matrix.from_rows(QQ_FIELD, [[0, 1], [1, 0]]))
        powers = count_calls(monkeypatch, Matrix, "matpow")
        assert is_inf(w_spread(eq, 2))
        assert is_inf(w_spread(eq, 4))
        with pytest.raises(ValueError, match=r"does not satisfy T\^3 = id"):
            w_spread(eq, 3)
        with pytest.raises(ValueError):
            w_spread(eq, -2)
        assert powers == []

    def test_matches_window_scan(self, rng):
        """The longest bar of im(T - 1), read off the barcodes of C and Fix,
        equals the O(g^4) window scan on random conjugated complexes over Q
        and Q(zeta_p)."""
        kinds = set()
        for p, field in [(2, QQ_FIELD), (3, QQ_FIELD), (2, CyclotomicField(2)),
                         (3, CyclotomicField(3)), (5, CyclotomicField(5))]:
            for _ in range(24):
                eq = random_equivariant_complex(rng, p, field)
                expected = scan_w_spread(eq)
                assert w_spread(eq, p) == expected
                kinds.add("inf" if is_inf(expected) else "zero" if expected == 0 else "positive")
        assert kinds == {"inf", "zero", "positive"}

    def test_matches_window_scan_at_large_denominators(self, rng):
        """The same on the random complexes with the i-th least action a
        moved to s a + t + 1/(3^60 + i), s and t of ~100-bit denominators:
        the map is increasing, so the complexes stay valid, and the bar
        lengths compared are Fractions over large, different denominators."""
        s = F(3 ** 70 + 2, 2 ** 100 + 7)
        t = F(-(5 ** 50), 2 ** 99 + 3)
        kinds = set()
        for p, field in [(2, QQ_FIELD), (3, QQ_FIELD), (3, CyclotomicField(3))]:
            for _ in range(8):
                eq = random_equivariant_complex(rng, p, field)
                rank = {a: i for i, a in enumerate(eq.complex.spectrum())}
                gens = tuple((s * a + t + F(1, 3 ** 60 + rank[a]), d)
                             for a, d in eq.complex.generators)
                moved = EquivariantComplex(p, FilteredComplex(field, gens, eq.complex.boundary),
                                           eq.chain_map)
                got = w_spread(moved, p)
                assert got == scan_w_spread(moved)
                kinds.add("inf" if is_inf(got) else "zero" if got == 0 else "positive")
        assert kinds == {"inf", "zero", "positive"}

    def test_builds_no_normal_form(self, rng, monkeypatch):
        """w_spread reads the lows of C and Fix alone: with the normal form
        and the integer-pair supremum refused, it still gives the window
        scan's values."""
        complexes = [random_equivariant_complex(rng, p, field)
                     for p, field in [(2, QQ_FIELD), (3, CyclotomicField(3)),
                                      (5, CyclotomicField(5))] for _ in range(5)]
        complexes.append(symmetric_rips_complex(rng, 2, 2))
        expected = [scan_w_spread(eq) for eq in complexes]

        def refuse(*args):
            raise AssertionError("w_spread reached the normal-form route")

        for module, name in ((persistence, "_NormalForm"), (equivariant, "_NormalForm"),
                             (equivariant, "_supremum")):
            monkeypatch.setattr(module, name, refuse)
        assert [w_spread(eq, eq.p) for eq in complexes] == expected

    def test_relabelled_affine_symmetric_complex_at_size(self, rng):
        """A coned symmetric Rips complex of 597 generators, relabelled at
        random and with every action mapped by a -> (3/7) a + 5/3, has
        exactly 3/7 times the spread, finite and positive: a check at a size
        that no oracle reaches, in under 1 s."""
        t0 = time.monotonic()
        eq = symmetric_rips_complex(rng, 3, 4)
        gens, n = eq.complex.generators, len(eq.complex.generators)
        assert n == 597
        new = list(range(n))  # generator g becomes generator new[g]
        rng.shuffle(new)
        moved_gens = [None] * n
        for g, (a, d) in enumerate(gens):
            moved_gens[new[g]] = (F(3, 7) * a + F(5, 3), d)

        def move(m):
            cols = [None] * n
            for g, col in enumerate(m.columns):
                cols[new[g]] = {new[r]: x for r, x in col.items()}
            return Matrix(QQ_FIELD, n, n, tuple(cols))

        moved = EquivariantComplex(3, FilteredComplex(QQ_FIELD, tuple(moved_gens),
                                                      move(eq.complex.boundary)),
                                   move(eq.chain_map))
        spread = w_spread(eq, 3)
        assert 0 < spread < INF
        assert w_spread(moved, 3) == F(3, 7) * spread
        assert time.monotonic() - t0 < 1.0

    def test_spread_window_matches_the_dense_evaluation(self, rng):
        """At every window pair (a, b) <= (a', b') of `gap_cuts`, the
        oracle's `_SpreadWindow.induced_nonzero`, read off one normal form,
        equals the dense evaluation of `window_pair_nonzero_oracle`, on
        random equivariant complexes over Q, Q(zeta_3) and Q(zeta_5); at
        least 15% of the pairs are nonzero and 15% zero."""
        outcomes = collections.Counter()
        for p, field in [(2, QQ_FIELD), (3, CyclotomicField(3)), (5, CyclotomicField(5))]:
            for _ in range(8):
                eq = random_equivariant_complex(rng, p, field)
                cx = eq.complex
                nf = _NormalForm(cx)
                s_cols = nf.columns((eq.chain_map
                                     - Matrix.identity(field, len(cx.generators))).columns)
                windows = list(itertools.combinations(gap_cuts(cx), 2))
                for src in windows:
                    source = _SpreadWindow(nf, *src)
                    images = source.apply_chain_map(s_cols)
                    for dst in windows:
                        if dst[0] < src[0] or dst[1] < src[1]:
                            continue
                        got = source.induced_nonzero(images, _SpreadWindow(nf, *dst))
                        assert got == window_pair_nonzero_oracle(eq, src, dst), (src, dst)
                        outcomes[got] += 1
        total = sum(outcomes.values())
        assert min(outcomes[True], outcomes[False]) >= 0.15 * total, outcomes

    def test_ranks_unreduced_pairs_by_value(self):
        """Two swapped pairs of classes born at 0, killed at 5/2 and at
        1 + 3^-60, in both orders: the spread is the longer life, 5/2,
        although the other life has the larger numerator."""
        for kills in ((F(5, 2), 1 + F(1, 3 ** 60)), (1 + F(1, 3 ** 60), F(5, 2))):
            gens = ((F(0), 0),) * 4 + tuple((k, 1) for k in kills for _ in range(2))
            d = [[1 if j == i + 4 else 0 for j in range(8)] for i in range(8)]
            swap = [[1 if j == i ^ 1 else 0 for j in range(8)] for i in range(8)]
            cx = FilteredComplex(QQ_FIELD, gens, Matrix.from_rows(QQ_FIELD, d))
            eq = EquivariantComplex(2, cx, Matrix.from_rows(QQ_FIELD, swap))
            assert w_spread(eq, 2) == scan_w_spread(eq) == F(5, 2)

    def test_entries_across_actions(self):
        """Complexes whose longest bar is a bar of Fix and whose reduction
        mixes generators of different actions: the spread is the longest bar
        of N = im(T - 1), so the bars of Fix must be taken out of C's."""
        # w (anti-fixed) killed at 1 by K, e = x1 - x2 (fixed) killed at 4 by
        # L: N has the bar (0, 1] and Fix the bar (0, 4]
        cx = FilteredComplex(
            QQ_FIELD, ((F(0), 0), (F(0), 0), (F(1), 1), (F(4), 1)),
            Matrix.from_rows(QQ_FIELD, [[0, 0, 0, 1], [0, 0, 1, -1], [0, 0, 0, 0], [0, 0, 0, 0]]),
        )
        t = Matrix.from_rows(QQ_FIELD, [[1, 0, 0, 0], [-2, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
        eq = EquivariantComplex(2, cx, t)
        assert w_spread(eq, 2) == scan_w_spread(eq) == 1
        # a (fixed) killed at 3 by F1, u (anti-fixed) at 1 killed at 3 by the
        # anti-fixed F2 - F1, with d F2 = u + a: N has the bar (1, 3] and Fix
        # the bar (0, 3]
        cx = FilteredComplex(
            QQ_FIELD, ((F(0), 0), (F(1), 0), (F(3), 1), (F(3), 1)),
            Matrix.from_rows(QQ_FIELD, [[0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]),
        )
        t = Matrix.from_rows(QQ_FIELD, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 2], [0, 0, 0, -1]])
        eq = EquivariantComplex(2, cx, t)
        assert w_spread(eq, 2) == scan_w_spread(eq) == 2

    # (p, cyclotomic field or None for Q, random.Random seed) -> sha256 of the
    # input JSON; the `egb spread` output on each is a case of tests/golden/
    GENERATED = [
        (2, None, 1, "0b4f68caa02c47797194dd761efc115bb2141de445204fdc72e285beb63f55b9"),
        (3, None, 1, "40cbfc4cd9845c6277147caae6bb5712b4397727574043c776a59c6a427d00f5"),
        (3, 3, 9, "934347768cc6b8eee15be175c6f35ad08a47a366f1bc38c0de323bef90c59d99"),
        (5, 5, 13, "ea4db0823d9bb1b45f29c4d642ac3f86d550a8bbea246738b6d03f679df544f6"),
        (2, 2, 0, "271d02590fbf4c337dadee64892920894f3320e938422863b7b7736f1b6c0b6d"),
        (3, None, 0, "c6428cb078f6de375d36304f74f4cd4113822595bf4dff63e4bca0573c81222e"),
    ]

    @pytest.mark.parametrize("p,cyclotomic,seed,input_sha", GENERATED)
    def test_generator_pins(self, p, cyclotomic, seed, input_sha):
        field = CyclotomicField(cyclotomic) if cyclotomic else QQ_FIELD
        eq = random_equivariant_complex(random.Random(seed), p, field, max_blocks=4)
        text = json.dumps({"p": p, "complex": complex_to_obj(eq.complex),
                           "chain_map": matrix_to_obj(eq.chain_map)}, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == input_sha

    def test_action_preserving_validation(self):
        cx = FilteredComplex(
            QQ_FIELD, ((F(0), 0), (F(1), 0)), Matrix.zeros(QQ_FIELD, 2, 2)
        )
        swap = Matrix.from_rows(QQ_FIELD, [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            EquivariantComplex(2, cx, swap)


class TestSpreadLowerBound:
    def test_no_index_one_pairs(self):
        assert is_inf(spread_lower_bound_from_gaps([(F(0), 0), (F(5), 0)]))

    def test_two_degrees(self):
        assert spread_lower_bound_from_gaps([(F(0), 0), (F(5), 1)]) == 5

    def test_minimum_over_pairs(self):
        gens = [(F(0), 0), (F(5), 1), (F(7), 2), (F(11), 1)]
        assert spread_lower_bound_from_gaps(gens) == 2

    def test_ten_thousand_generators(self, rng):
        """Degrees 0 and 1 interleave at distance 1 but for one planted pair
        at 1/7, and degree 3 repeats degree 1's actions, 2 degrees apart: one
        sweep of the generators sorted by action, not 10^8 differences."""
        gens = [(F(3 * k), 0) for k in range(4000)] + [(F(3 * k + 2), 1) for k in range(4000)]
        gens += [(F(3 * k + 2), 3) for k in range(1999)] + [(F(3 * 2000) + F(1, 7), 1)]
        rng.shuffle(gens)
        t0 = time.monotonic()
        assert spread_lower_bound_from_gaps(gens) == F(1, 7)
        assert time.monotonic() - t0 < 1.0


class TestFullPower:
    @pytest.mark.parametrize("p", [2, 3])
    def test_cyclic_p_squared_fixture_passes(self, p):
        field = CyclotomicField(p)
        n = p * p
        base = FinitePersistenceModule(
            field, (F(0),), (0, n), (Matrix.zeros(field, n, 0),)
        )
        root = (Matrix.zeros(field, 0, 0), cyclic_permutation_matrix(field, n))
        m = construct_full_power(base, root)
        for zeta in primitive_roots(p):
            assert full_power_check(m, zeta) == "PASS"
        assert mu_p(m) == 0

    def test_identity_root(self):
        m = trivial_action_module(3, F(0), F(5))
        fp = construct_full_power(m.base, tuple(
            Matrix.identity(m.field, d) for d in m.base.dims
        ))
        assert full_power_check(fp, cyclo_zeta(3)) == "PASS"
        assert mu_p(fp) == 0

    def test_single_tuple_fails(self):
        m = cyclic_tuple_module(F(0), 2, death=F(10))
        assert full_power_check(m, cyclo_zeta(2)) == "FAIL"

    def test_root_over_wrong_field_rejected(self):
        with pytest.raises(ValueError, match="wrong field"):
            full_power_check(cyclic_tuple_module(F(0), 3, death=F(10)), cyclo_zeta(2))

    def test_zero_module_passes(self):
        field = CyclotomicField(2)
        base = FinitePersistenceModule(field, (), (0,), ())
        m = ZpPersistenceModule(2, base, (Matrix.zeros(field, 0, 0),))
        assert full_power_check(m, cyclo_zeta(2)) == "PASS"

    @pytest.mark.parametrize("p", [2, 3])
    def test_direct_sums_of_full_powers_pass(self, p):
        field = CyclotomicField(p)
        n = p * p
        base = FinitePersistenceModule(
            field, (F(0),), (0, n), (Matrix.zeros(field, n, 0),)
        )
        root = (Matrix.zeros(field, 0, 0), cyclic_permutation_matrix(field, n))
        m = construct_full_power(base, root)
        both = zp_direct_sum(m, m)
        assert full_power_check(both, cyclo_zeta(p)) == "PASS"
        assert mu_p(both) == 0

    def test_bad_root_rejected(self):
        field = CyclotomicField(2)
        base = FinitePersistenceModule(
            field, (F(0),), (0, 1), (Matrix.zeros(field, 1, 0),)
        )
        bad = (Matrix.zeros(field, 0, 0), Matrix.from_rows(field, [[2]]))
        with pytest.raises(ValueError):
            construct_full_power(base, bad)


class TestCyclicTuple:
    def test_p3_infinite(self):
        m = cyclic_tuple_module(F(0), 3)
        bc = m.barcodes[0]
        assert bc == Barcode.of([(Bar(0, INF), 1)])

    def test_p2_finite(self):
        m = cyclic_tuple_module(F(1), 2, death=F(4))
        bc = m.barcodes[0]
        assert bc == Barcode.of([(Bar(1, 4), 1)])

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("death", [INF, F(7, 2)])
    def test_equals_the_hand_built_module(self, p, death):
        field, birth = CyclotomicField(p), F(1, 3)
        shift = Matrix.from_rows(field, [[int(r == (c + 1) % p) for c in range(p)]
                                         for r in range(p)])
        empty = Matrix.zeros(field, 0, 0)
        if is_inf(death):
            base = FinitePersistenceModule(field, (birth,), (0, p), (Matrix.zeros(field, p, 0),))
            action = (empty, shift)
        else:
            base = FinitePersistenceModule(field, (birth, death), (0, p, 0),
                                           (Matrix.zeros(field, p, 0), Matrix.zeros(field, 0, p)))
            action = (empty, shift, empty)
        module = cyclic_tuple_module(birth, p, death)
        assert module == ZpPersistenceModule(p, base, action)
        assert module.barcodes == (Barcode.of([(Bar(birth, death), 1)]),) * (p - 1)

    @pytest.mark.parametrize("death", [F(1, 3), F(-2)])
    def test_death_not_above_the_birth_rejected(self, death):
        with pytest.raises(ValueError, match="^death must exceed the birth action$"):
            cyclic_tuple_module(F(1, 3), 3, death)

    def test_tuple_count_equals_eigen_dimension(self, rng):
        for p in (2, 3):
            n_tuples = rng.randint(1, 4)
            actions = rng.sample(range(-10, 10), n_tuples)
            mods = [cyclic_tuple_module(F(a), p) for a in actions]
            total = mods[0]
            for m in mods[1:]:
                total = zp_direct_sum(total, m)
            assert part_modules(total)[0].dims[-1] == n_tuples


class TestKunneth:
    def test_betti_one_is_identity(self, rng):
        from conftest import rand_barcode

        fam = {0: rand_barcode(rng), 2: rand_barcode(rng)}
        fam = {k: v for k, v in fam.items() if not v.is_empty()}
        assert kunneth_stabilize(fam, [1]) == fam

    def test_torus_copies(self):
        bc = Barcode.of([(Bar(0, 5), 1)])
        fam = kunneth_stabilize({0: bc}, [1, 2, 1])
        assert fam == {0: bc, 1: bc.repeat(2), 2: bc}

    def test_betti_zero_not_one_rejected(self):
        with pytest.raises(ValueError):
            kunneth_stabilize({0: Barcode.of([(Bar(0, 1), 1)])}, [2])

    @pytest.mark.parametrize("betti", [[1, F(1, 2)], [1, F(2, 1)], [1, 2.0], [1, 0.0],
                                       [True, 1], [1, True]])
    def test_non_int_betti_rejected(self, betti):
        # an empty family too: the vector is checked before any degree is read
        for fam in ({0: Barcode.of([(Bar(0, 1), 1)])}, {}):
            with pytest.raises(ValueError, match="^betti numbers must be ints, got "):
                kunneth_stabilize(fam, betti)

    def test_negative_betti_rejected(self):
        with pytest.raises(ValueError, match="^betti numbers must be nonnegative$"):
            kunneth_stabilize({0: Barcode.of([(Bar(0, 1), 1)])}, [1, -1])

    def test_pieces_of_one_target_merge(self):
        # degree 1 gets F(1) and two copies of F(0), which share the bar (0, 5]
        a, b = Barcode.of([(Bar(0, 5), 1), (Bar(2, INF), 1)]), Barcode.of([(Bar(0, 5), 3)])
        fam = kunneth_stabilize({1: b, 0: a, 4: Barcode.empty()}, [1, 2, 0, 1])
        assert list(fam) == [1, 2, 4, 0, 3]
        assert fam == {0: a, 1: Barcode.of([(Bar(0, 5), 5), (Bar(2, INF), 2)]),
                       2: Barcode.of([(Bar(0, 5), 6)]), 3: a, 4: b}

    def test_single_degree_mu_invariance(self, rng):
        from conftest import rand_barcode

        for p in (2, 3, 5):
            for _ in range(15):
                bc = rand_barcode(rng)
                if bc.is_empty():
                    continue
                fam = {rng.randint(-2, 3): bc}
                betti = [1] + [rng.randint(0, 2) for _ in range(rng.randint(0, 3))]
                assert mu_p_of_family(kunneth_stabilize(fam, betti), p) == mu_p_of_family(fam, p)

    def test_multi_degree_mu_never_increases(self, rng):
        from conftest import rand_barcode

        for _ in range(25):
            p = rng.choice([2, 3])
            fam = {r: rand_barcode(rng) for r in rng.sample(range(-2, 4), rng.randint(1, 3))}
            fam = {k: v for k, v in fam.items() if not v.is_empty()}
            if not fam:
                continue
            betti = [1] + [rng.randint(0, 2) for _ in range(rng.randint(0, 3))]
            assert mu_p_of_family(kunneth_stabilize(fam, betti), p) <= mu_p_of_family(fam, p)


class TestLipschitz:
    def test_delta_zero_equality(self, rng):
        m = random_zp_module(rng, 2)
        assert perturb_and_check_lipschitz(m, 0)

    def test_translation_preserves_mu(self):
        m = cyclic_tuple_module(F(0), 2, death=F(10))
        shifted = shift_module(m, [F(1), F(1)])
        assert mu_p(m) == mu_p(shifted)
        assert perturb_and_check_lipschitz(m, 1, shifts=[F(1), F(1)])

    @pytest.mark.parametrize("p", [2, 3])
    def test_random_shifts(self, rng, p):
        for _ in range(25):
            m = random_zp_module(rng, p, max_blocks=3)
            spectrum = m.base.spectrum
            diameter = (spectrum[-1] - spectrum[0]) if len(spectrum) > 1 else F(1)
            delta = abs(rand_frac(rng, 0, 8, 4)) * diameter / 8
            assert perturb_and_check_lipschitz(m, delta, rng=rng)


class TestInputChecks:
    """The constructors reject what the algebra forbids, on hand-built
    counterexamples: D^2 != 0, T^p != id, a T that does not commute with D,
    and a module action of the wrong order or not commuting with a
    transition."""

    def test_boundary_squared_nonzero(self):
        gens = ((F(0), 0), (F(1), 1), (F(2), 2))
        d = Matrix.from_rows(QQ_FIELD, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        with pytest.raises(ValueError, match="boundary squared is nonzero"):
            FilteredComplex(QQ_FIELD, gens, d)

    def test_chain_map_of_wrong_order(self):
        cx = FilteredComplex(QQ_FIELD, ((F(0), 0),), Matrix.zeros(QQ_FIELD, 1, 1))
        with pytest.raises(ValueError, match=r"does not satisfy T\^p = id"):
            EquivariantComplex(3, cx, Matrix.from_rows(QQ_FIELD, [[-1]]))
        assert EquivariantComplex(2, cx, Matrix.from_rows(QQ_FIELD, [[-1]])).p == 2

    def test_chain_map_not_commuting_with_boundary(self):
        d = Matrix.from_rows(QQ_FIELD, [[0, 1], [0, 0]])
        cx = FilteredComplex(QQ_FIELD, ((F(0), 0), (F(1), 1)), d)
        with pytest.raises(ValueError, match="does not commute with the boundary"):
            EquivariantComplex(2, cx, Matrix.from_rows(QQ_FIELD, [[1, 0], [0, -1]]))

    def test_action_of_wrong_order(self):
        field = CyclotomicField(3)
        base = FinitePersistenceModule(field, (F(0),), (0, 1), (Matrix.zeros(field, 1, 0),))
        with pytest.raises(ValueError, match="does not have order dividing p"):
            ZpPersistenceModule(3, base, (Matrix.zeros(field, 0, 0),
                                          Matrix.from_rows(field, [[-1]])))

    def test_action_not_commuting_with_transition(self):
        field = CyclotomicField(2)
        base = FinitePersistenceModule(field, (F(0), F(1)), (0, 2, 2), (
            Matrix.zeros(field, 2, 0), Matrix.from_rows(field, [[1, 0], [0, 0]])))
        swap = Matrix.from_rows(field, [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="does not commute with transition 1"):
            ZpPersistenceModule(2, base, (Matrix.zeros(field, 0, 0), swap, swap))
