import time
import tracemalloc
from fractions import Fraction as F
from itertools import combinations

import pytest

from egb import persistence
from egb.equivariant import quotient_fix_module
from egb.field import CyclotomicField, Matrix, QQ_FIELD, cyclo_zeta
from egb.persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    _multiplicity,
    barcode_of_complex,
    barcode_of_module,
    les_check,
    longest_finite_bar,
)

from conftest import (
    bar_contains,
    barcode_of_module_oracle,
    count_calls,
    direct_sum,
    gap_cuts,
    homology_basis_oracle,
    induced_homology_rank_oracle,
    les_check_oracle,
    module_from_barcode,
    normal_form_barcode,
    part_modules,
    rand_barcode,
    rand_frac,
    random_filtered_complex,
    random_zp_module,
    rips_complex,
    shrink,
    window_complex,
    window_homology,
    window_homology_oracle,
)


def forget_degrees(barcode: Barcode) -> Barcode:
    return Barcode(tuple((bar, m, None) for bar, m, _ in barcode.items))


def pair_complex():
    """x (deg 1, action 5), y (deg 0, action 2), dx = y."""
    return FilteredComplex(
        QQ_FIELD,
        ((F(5), 1), (F(2), 0)),
        Matrix.from_rows(QQ_FIELD, [[0, 0], [1, 0]]),
    )


def random_transition_module(rng, field) -> FinitePersistenceModule:
    """Transitions A B for random A (n x r) and B (r x m), r drawn from
    0..min(n, m); the entries are random rationals, or over Q(zeta_p) random
    combinations of 1, zeta, ..., zeta^(p-2)."""
    powers = [cyclo_zeta(field.p, k) for k in range(field.p - 1)] if field != QQ_FIELD else [F(1)]

    def rand(rows, cols):
        return Matrix.from_rows(field, [[sum((z * rand_frac(rng, -2, 2, 2) for z in powers),
                                             field.zero()) for _ in range(cols)]
                                        for _ in range(rows)])

    spectrum = sorted(rng.sample(range(-9, 9), rng.randint(1, 5)))
    dims = [0] + [rng.randint(0, 3) for _ in spectrum]
    transitions = []
    for m, n in zip(dims, dims[1:]):
        r = rng.randint(0, min(m, n))
        transitions.append(rand(n, r) @ rand(r, m) if r else Matrix.zeros(field, n, m))
    return FinitePersistenceModule(field, tuple(map(F, spectrum)), tuple(dims), tuple(transitions))


class TestIntervalOps:
    def test_multiplicity_direct(self):
        b = Barcode.of([(Bar(0, 10), 1), (Bar(2, 8), 2)])
        assert _multiplicity(b, 3, 7, 1) == 3

    def test_multiplicity_wide_interval(self):
        b = Barcode.of([(Bar(0, 10), 1), (Bar(2, 8), 2)])
        assert _multiplicity(b, -5, 20, 1) == 0

    def test_multiplicity_infinite_bar(self):
        b = Barcode.of([(Bar(0, INF), 1)])
        assert _multiplicity(b, 1, 10 ** 6, 1) == 1

    def test_multiplicity_counts_a_bar_born_at_the_query_birth(self):
        b = Barcode.of([(Bar(0, 4), 1), (Bar(3, INF), 2), (Bar(3, 9), 4), (Bar(5, INF), 8)])
        assert _multiplicity(b, 3, 9, 1) == 6
        assert _multiplicity(b, 3, None, 1) == 2
        assert _multiplicity(b, 5, 6, 1) == 14

    @pytest.mark.parametrize("mult", [2.5, F(3, 1), True, 2.0])
    def test_non_int_multiplicity_rejected(self, mult):
        with pytest.raises(ValueError, match="^multiplicity must be an int, got "):
            Barcode.of([(Bar(0, 1), mult)])
        with pytest.raises(ValueError, match="^repeat count must be an int, got "):
            Barcode.of([(Bar(0, 1), 1)]).repeat(mult)

    def test_negative_repeat_rejected(self):
        with pytest.raises(ValueError, match="^negative repeat$"):
            Barcode.of([(Bar(0, 1), 1)]).repeat(-1)

    def test_shrink(self):
        assert shrink(Bar(0, 10), 2) == Bar(2, 8)
        assert shrink(Bar(0, 10), 0) == Bar(0, 10)
        assert shrink(Bar(0, INF), 3) == Bar(3, INF)

    def test_overshrink_rejected(self):
        with pytest.raises(ValueError):
            shrink(Bar(0, 10), 5)

    def test_ray_contains_finite_bar_not_reverse(self):
        ray, finite = Bar(0, INF), Bar(1, 10 ** 6)
        assert bar_contains(ray, finite) and bar_contains(ray, ray)
        assert not bar_contains(finite, ray)
        assert not bar_contains(Bar(2, INF), finite)

    def test_empty_bar_rejected(self):
        with pytest.raises(ValueError):
            Bar(3, 3)

    def test_longest_finite_bar(self):
        assert longest_finite_bar(Barcode.empty()) == 0
        b = Barcode.of([(Bar(0, 3), 1), (Bar(1, 2), 5), (Bar(0, INF), 1)])
        assert longest_finite_bar(b) == 3

    def test_longest_finite_bar_scan_oracle(self, rng):
        for _ in range(30):
            b = rand_barcode(rng)
            expected = F(0)
            for bar, _ in b.expand():
                if bar.finite and bar.length > expected:
                    expected = bar.length
            assert longest_finite_bar(b) == expected


class TestModuleDecomposition:
    def test_zero_module(self):
        m = FinitePersistenceModule(QQ_FIELD, (), (0,), ())
        assert barcode_of_module(m) == Barcode.empty()

    def test_single_bar(self):
        m = FinitePersistenceModule(
            QQ_FIELD, (F(0), F(1)), (0, 1, 0),
            (Matrix.zeros(QQ_FIELD, 1, 0), Matrix.zeros(QQ_FIELD, 0, 1)),
        )
        assert barcode_of_module(m) == Barcode.of([(Bar(0, 1), 1)])

    def test_nested_bars_against_rank_oracle(self):
        # dims 0,1,2,1,0: one class lives (0,2], another (1,3]
        m = FinitePersistenceModule(
            QQ_FIELD, (F(0), F(1), F(2), F(3)), (0, 1, 2, 1, 0),
            (
                Matrix.zeros(QQ_FIELD, 1, 0),
                Matrix.from_rows(QQ_FIELD, [[1], [0]]),
                Matrix.from_rows(QQ_FIELD, [[0, 1]]),
                Matrix.zeros(QQ_FIELD, 0, 1),
            ),
        )
        bc = barcode_of_module(m)
        assert bc == Barcode.of([(Bar(0, 2), 1), (Bar(1, 3), 1)])
        # rank reconstruction: rank of composite = bars containing the pair
        table = m.rank_table()
        spectrum = list(m.spectrum)
        for u in range(len(m.dims)):
            for v in range(u, len(m.dims)):
                lo = spectrum[u - 1] + F(1, 2) if u > 0 else spectrum[0] - 1
                hi = spectrum[v - 1] + F(1, 2) if v > 0 else spectrum[0] - 1
                count = sum(
                    mult for bar, mult, _ in bc.items
                    if bar.birth < lo and (not bar.finite or bar.death >= hi)
                )
                assert table[u][v] == count

    def test_roundtrip_random(self, rng):
        for _ in range(40):
            bc = rand_barcode(rng)
            m = module_from_barcode(QQ_FIELD, bc)
            assert barcode_of_module(m) == forget_degrees(bc) == barcode_of_module_oracle(m)

    def test_rank_reconstruction_random(self, rng):
        """rank of the composite transition counts the bars containing the
        sample pair, for every pair of constancy intervals."""
        for _ in range(20):
            bc = rand_barcode(rng)
            m = module_from_barcode(QQ_FIELD, bc)
            if not m.spectrum:
                continue
            table = m.rank_table()
            spectrum = list(m.spectrum)
            samples = [spectrum[0] - 1]
            for i, s in enumerate(spectrum):
                nxt = spectrum[i + 1] if i + 1 < len(spectrum) else s + 2
                samples.append(s + (nxt - s) / 2)
            for u in range(len(samples)):
                for v in range(u, len(samples)):
                    count = sum(
                        mult for bar, mult, _ in bc.items
                        if bar.birth < samples[u]
                        and (not bar.finite or bar.death >= samples[v])
                    )
                    assert table[u][v] == count

    def test_direct_sum_barcodes_add(self, rng):
        for _ in range(20):
            b1, b2 = rand_barcode(rng), rand_barcode(rng)
            m = direct_sum(
                module_from_barcode(QQ_FIELD, b1), module_from_barcode(QQ_FIELD, b2)
            )
            expected = forget_degrees(b1.union(b2))
            assert barcode_of_module(m) == expected == barcode_of_module_oracle(m)

    def test_elder_rule(self):
        """Two classes born at 0 and 1 map onto one vector at 2: the younger
        one dies there, the elder lives on.  The second class is born in a
        basis that mixes it with the first, so the dying class is not a
        basis vector of either interval."""
        m = FinitePersistenceModule(
            QQ_FIELD, (F(0), F(1), F(2)), (0, 1, 2, 1),
            (
                Matrix.zeros(QQ_FIELD, 1, 0),
                Matrix.from_rows(QQ_FIELD, [[1], [1]]),
                Matrix.from_rows(QQ_FIELD, [[1, 2]]),
            ),
        )
        expected = Barcode.of([(Bar(0, INF), 1), (Bar(1, 2), 1)])
        assert barcode_of_module(m) == expected == barcode_of_module_oracle(m)

    def test_one_sparse_reduction_per_transition(self, rng, monkeypatch):
        """The sweep reduces sparse columns, once per transition, and builds
        no dense product, echelon, rank, rank table or composite."""
        modules = [random_zp_module(rng, 3).base for _ in range(5)]
        reductions = count_calls(monkeypatch, persistence, "_reduce_columns")
        dense = [count_calls(monkeypatch, cls, name) for cls, name in (
            (Matrix, "__matmul__"), (Matrix, "rank"),
            (FinitePersistenceModule, "rank_table"), (FinitePersistenceModule, "composite"))]
        for m in modules:
            reductions.clear()
            barcode_of_module(m)
            assert len(reductions) == len(m.spectrum)
        assert dense == [[]] * 4

    @pytest.mark.parametrize("field", [QQ_FIELD, CyclotomicField(3), CyclotomicField(5)], ids=str)
    def test_sweep_equals_rank_table_oracle_on_rank_deficient_maps(self, rng, field):
        """Random transitions of every rank, each kind drawn: zero,
        non-injective and non-surjective maps."""
        kinds = set()
        for _ in range(25):
            m = random_transition_module(rng, field)
            for t in m.transitions:
                if t.rows and t.cols:
                    r = t.rank()
                    kinds.update(kind for kind, hit in (
                        ("zero", r == 0), ("non-injective", r < t.cols),
                        ("non-surjective", r < t.rows)) if hit)
            assert barcode_of_module(m) == barcode_of_module_oracle(m)
        assert kinds == {"zero", "non-injective", "non-surjective"}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_sweep_equals_rank_table_oracle_cyclotomic(self, rng, p):
        """The base, every eigenspace module and the V/Fix quotient of
        conjugated (dense) random Z_p modules over Q(zeta_p)."""
        for _ in range(8):
            zm = random_zp_module(rng, p)
            modules = [zm.base, quotient_fix_module(zm)]
            modules += part_modules(zm)
            for m in modules:
                assert barcode_of_module(m) == barcode_of_module_oracle(m)

    def test_invalid_module_rejected(self):
        with pytest.raises(ValueError):
            FinitePersistenceModule(QQ_FIELD, (F(0),), (1, 1), (Matrix.identity(QQ_FIELD, 1),))
        with pytest.raises(ValueError):
            FinitePersistenceModule(QQ_FIELD, (F(1), F(0)), (0, 1, 0), ())


class TestFilteredComplex:
    def test_zero_boundary_infinite_bars(self):
        cx = FilteredComplex(
            QQ_FIELD, ((F(1), 0), (F(3), 1)), Matrix.zeros(QQ_FIELD, 2, 2)
        )
        assert barcode_of_complex(cx) == Barcode.of(
            [(Bar(1, INF), 1, 0), (Bar(3, INF), 1, 1)]
        )

    def test_killing_pair(self):
        assert barcode_of_complex(pair_complex()) == Barcode.of([(Bar(2, 5), 1, 0)])

    def test_cyclotomic_coefficients(self):
        from egb.field import CyclotomicField, cyclo_zeta

        field = CyclotomicField(3)
        z = field.zero()
        cx = FilteredComplex(
            field,
            ((F(5), 1), (F(2), 0)),
            Matrix.from_rows(field, [[z, z], [cyclo_zeta(3), z]]),
        )
        assert barcode_of_complex(cx) == Barcode.of([(Bar(2, 5), 1, 0)])

    def test_barcode_equals_the_normal_form_barcode(self, rng):
        """The bars read off the lows alone are those of the normal form, on
        random filtered and small Rips-style complexes over Q and Q(zeta_3)."""
        for field in (QQ_FIELD, CyclotomicField(3)):
            for _ in range(20):
                cx = random_filtered_complex(rng, field)
                assert barcode_of_complex(cx) == normal_form_barcode(cx)
            for points in (3, 5, 8):
                cx = rips_complex(rng, points, field)
                assert barcode_of_complex(cx) == normal_form_barcode(cx)

    def test_barcode_builds_no_normal_form(self, rng, monkeypatch):
        """A barcode reads the lows alone: no normal form, and one column
        reduction per complex that carries no V."""
        complexes = [random_filtered_complex(rng, field)
                     for field in (QQ_FIELD, CyclotomicField(3)) for _ in range(5)]
        complexes += [pair_complex(), rips_complex(rng, 6)]
        expected = [normal_form_barcode(cx) for cx in complexes]
        reduce_columns, bases = persistence._reduce_columns, []

        def lows_only(field, columns, basis=None):
            bases.append(basis)
            return reduce_columns(field, columns, basis)

        def refuse(*args):
            raise AssertionError("barcode_of_complex built a normal form")

        monkeypatch.setattr(persistence, "_reduce_columns", lows_only)
        monkeypatch.setattr(persistence, "_NormalForm", refuse)
        assert [barcode_of_complex(cx) for cx in complexes] == expected
        assert bases == [None] * len(complexes)

    def test_rips_barcode_at_size(self, rng):
        """The 30-point Rips-style complex, 4,525 generators, in under 5 s."""
        cx = rips_complex(rng, 30)
        assert len(cx.generators) == 4525
        t0 = time.monotonic()
        bc = barcode_of_complex(cx)
        assert time.monotonic() - t0 < 5
        assert bc == normal_form_barcode(cx)

    def test_rips_barcode_peak_memory(self, rng):
        """The barcode of the 30-point Rips-style complex allocates under
        9 MB at its peak: the reduction keeps no record of its steps."""
        cx = rips_complex(rng, 30)
        tracemalloc.start()
        try:
            barcode_of_complex(cx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9_000_000

    def test_boundary_square_violation_rejected(self):
        # c -> b -> a with nonzero composite
        with pytest.raises(ValueError):
            FilteredComplex(
                QQ_FIELD,
                ((F(0), 0), (F(1), 1), (F(2), 2)),
                Matrix.from_rows(QQ_FIELD, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
            )

    def test_action_increase_rejected(self):
        with pytest.raises(ValueError):
            FilteredComplex(
                QQ_FIELD,
                ((F(2), 1), (F(5), 0)),
                Matrix.from_rows(QQ_FIELD, [[0, 0], [1, 0]]),
            )

    def test_random_complex_barcode_vs_window_oracle(self, rng):
        """At every window between spectrum gaps and every degree, over Q and
        Q(zeta_3): the window homology has the dimension of the elimination
        oracle and of the bars restricted to the window, and its basis
        vectors are window cycles independent modulo the window boundaries."""
        for field in (QQ_FIELD, CyclotomicField(3)):
            for _ in range(20):
                cx = random_filtered_complex(rng, field)
                bc = barcode_of_complex(cx)
                degrees = {d for _, d in cx.generators}
                for a, b in combinations(gap_cuts(cx), 2):
                    keep, wc = window_complex(cx, a, b)
                    for r in range(min(degrees) - 1, max(degrees) + 2):
                        dim, vecs, idx = window_homology(cx, a, b, r)
                        oracle_dim, _, oracle_idx = window_homology_oracle(cx, a, b, r)
                        assert (dim, idx) == (oracle_dim, oracle_idx)
                        expected = sum(
                            m for bar, m, deg in bc.items
                            if deg == r and a <= bar.birth < b
                            and (not bar.finite or bar.death >= b)
                        ) + sum(
                            m for bar, m, deg in bc.items
                            if deg == r - 1 and bar.birth < a
                            and bar.finite and a <= bar.death < b
                        )
                        assert dim == expected
                        if not idx:
                            continue
                        local = [keep.index(g) for g in idx]
                        for vec in vecs:
                            chain = [field.zero()] * len(keep)
                            for k, v in zip(local, vec):
                                chain[k] = v
                            assert not any(wc.boundary.apply(tuple(chain)))
                        _, _, boundaries = homology_basis_oracle(wc, r)
                        assert induced_homology_rank_oracle(
                            field, vecs, vecs, boundaries, len(idx)) == dim


class TestWindowHomology:
    def test_window_containing_everything(self):
        cx = FilteredComplex(
            QQ_FIELD, ((F(1), 0), (F(3), 1)), Matrix.zeros(QQ_FIELD, 2, 2)
        )
        assert window_homology(cx, F(0), F(10), 0)[0] == 1
        assert window_homology(cx, F(0), F(10), 1)[0] == 1

    def test_window_disjoint_from_spectrum(self):
        cx = pair_complex()
        assert window_homology(cx, F(10), F(20), 0)[0] == 0
        assert window_homology(cx, F(10), F(20), 1)[0] == 0

    def test_pair_window(self):
        # (3, 6): x alive, y quotiented out
        dim, basis, idx = window_homology(pair_complex(), F(3), F(6), 1)
        assert dim == 1
        assert window_homology(pair_complex(), F(3), F(6), 0)[0] == 0

    def test_spectrum_collision_rejected(self):
        with pytest.raises(ValueError):
            window_homology(pair_complex(), F(2), F(6), 0)

    def test_les_zero_boundary(self):
        cx = FilteredComplex(
            QQ_FIELD, ((F(1), 0), (F(3), 1)), Matrix.zeros(QQ_FIELD, 2, 2)
        )
        assert les_check(cx, F(0), F(2), F(4))

    def test_les_pair(self):
        assert les_check(pair_complex(), F(1), F(3), F(6))
        assert les_check(pair_complex(), F(0), F(1), F(10))

    def test_les_random(self, rng):
        """les_check and its elimination oracle both hold at every triple of
        spectrum gaps, over Q and Q(zeta_3)."""
        for field in (QQ_FIELD, CyclotomicField(3)):
            for _ in range(15):
                cx = random_filtered_complex(rng, field)
                for a, b, c in combinations(gap_cuts(cx), 3):
                    assert les_check(cx, a, b, c) is True
                    assert les_check_oracle(cx, a, b, c) is True

    def test_les_detects_a_dropped_pair(self, rng, monkeypatch):
        """With one (low, j) pair dropped from the reduction, the normal form
        is wrong and les_check fails at some triple of spectrum gaps."""
        reduce_columns = persistence._reduce_columns

        def drop_one_pair(field, columns, basis=None):
            lows = reduce_columns(field, columns, basis)
            if basis is not None:  # the normal form's reduction
                del lows[next(iter(lows))]
            return lows

        tried = 0
        for field in (QQ_FIELD, CyclotomicField(3)):
            for _ in range(10):
                cx = random_filtered_complex(rng, field)
                if cx.boundary.is_zero():  # no pair to drop
                    continue
                tried += 1
                triples = list(combinations(gap_cuts(cx), 3))
                assert all(les_check(cx, *t) for t in triples)
                with monkeypatch.context() as m:
                    m.setattr(persistence, "_reduce_columns", drop_one_pair)
                    assert not all(les_check(cx, *t) for t in triples)
        assert tried


class TestBarcodeContainers:
    def test_union_merges_multiplicity(self):
        b = Barcode.of([(Bar(0, 1), 1)]).union(Barcode.of([(Bar(0, 1), 2)]))
        assert b == Barcode.of([(Bar(0, 1), 3)])

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            Barcode(((Bar(0, 1), 0, None),))
