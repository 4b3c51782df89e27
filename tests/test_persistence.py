from fractions import Fraction as F
from itertools import combinations

import pytest

from egb import persistence
from egb.equivariant import eigenspace_module, quotient_fix_module
from egb.field import CyclotomicField, Matrix, QQ_FIELD, primitive_roots
from egb.persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    Interval,
    barcode_of_complex,
    barcode_of_module,
    direct_sum,
    homology_basis,
    induced_homology_rank,
    les_check,
    longest_finite_bar,
    module_from_barcode,
    multiplicity,
    window_complex,
    window_homology,
)

from conftest import (
    barcode_of_module_oracle,
    count_calls,
    gap_cuts,
    les_check_oracle,
    rand_barcode,
    rand_frac,
    random_filtered_complex,
    random_zp_module,
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


class TestIntervalOps:
    def test_multiplicity_direct(self):
        b = Barcode.of([(Bar(0, 10), 1), (Bar(2, 8), 2)])
        assert multiplicity(b, Interval(3, 7)) == 3

    def test_multiplicity_wide_interval(self):
        b = Barcode.of([(Bar(0, 10), 1), (Bar(2, 8), 2)])
        assert multiplicity(b, Interval(-5, 20)) == 0

    def test_multiplicity_infinite_bar(self):
        b = Barcode.of([(Bar(0, INF), 1)])
        assert multiplicity(b, Interval(1, 10 ** 6)) == 1

    def test_shrink(self):
        assert Interval(0, 10).shrink(2) == Interval(2, 8)
        assert Interval(0, 10).shrink(0) == Interval(0, 10)
        assert Interval(0, INF).shrink(3) == Interval(3, INF)

    def test_overshrink_rejected(self):
        with pytest.raises(ValueError):
            Interval(0, 10).shrink(5)

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

    def test_one_product_and_one_elimination_per_transition(self, rng, monkeypatch):
        modules = [random_zp_module(rng, 3).base for _ in range(5)]
        tables = count_calls(monkeypatch, FinitePersistenceModule, "rank_table")
        composites = count_calls(monkeypatch, FinitePersistenceModule, "composite")
        ranks = count_calls(monkeypatch, Matrix, "rank")
        products = count_calls(monkeypatch, Matrix, "__matmul__")
        echelons = count_calls(monkeypatch, Matrix, "_echelon")
        for m in modules:
            products.clear()
            echelons.clear()
            barcode_of_module(m)
            assert len(products) == len(echelons) == len(m.spectrum)
        assert tables == composites == ranks == []

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_sweep_equals_rank_table_oracle_cyclotomic(self, rng, p):
        """The base, every eigenspace module and the V/Fix quotient of
        conjugated (dense) random Z_p modules over Q(zeta_p)."""
        for _ in range(8):
            zm = random_zp_module(rng, p)
            modules = [zm.base, quotient_fix_module(zm)]
            modules += [eigenspace_module(zm, z) for z in primitive_roots(p)]
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
                        _, _, boundaries = homology_basis(wc, r)
                        assert induced_homology_rank(field, vecs, vecs, boundaries, len(idx)) == dim


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
        """With one pair dropped from the reduction, the normal form is wrong
        and les_check fails at some triple of spectrum gaps."""
        reduce = persistence._reduce

        def drop_one_pair(complex_):
            order, R, V, pairs = reduce(complex_)
            return order, R, V, pairs[1:]

        tried = 0
        for field in (QQ_FIELD, CyclotomicField(3)):
            for _ in range(10):
                cx = random_filtered_complex(rng, field)
                if not reduce(cx)[3]:
                    continue
                tried += 1
                triples = list(combinations(gap_cuts(cx), 3))
                assert all(les_check(cx, *t) for t in triples)
                with monkeypatch.context() as m:
                    m.setattr(persistence, "_reduce", drop_one_pair)
                    assert not all(les_check(cx, *t) for t in triples)
        assert tried


class TestBarcodeContainers:
    def test_union_merges_multiplicity(self):
        b = Barcode.of([(Bar(0, 1), 1)]).union(Barcode.of([(Bar(0, 1), 2)]))
        assert b == Barcode.of([(Bar(0, 1), 3)])

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            Barcode(((Bar(0, 1), 0, None),))


class TestInducedHomologyRank:
    """One echelon of [B | images] against rank[images | B] - rank[B]."""

    @pytest.mark.parametrize("field", [QQ_FIELD, CyclotomicField(3)], ids=repr)
    def test_equals_rank_difference(self, rng, monkeypatch, field):
        echelons = count_calls(monkeypatch, Matrix, "_echelon")
        for _ in range(60):
            dim = rng.randint(1, 5)
            # boundary columns of rank at most r; images mix new vectors and boundaries
            r = rng.randint(0, dim)
            basis = [tuple(field.coerce(rand_frac(rng, -2, 2, 2)) for _ in range(dim))
                     for _ in range(r)]
            boundary_cols = [
                tuple(sum((field.coerce(rng.randint(-1, 1)) * v[i] for v in basis), field.zero())
                      for i in range(dim))
                for _ in range(rng.randint(0, 4))]
            boundary = Matrix(field, dim, len(boundary_cols), tuple(
                tuple(col[i] for col in boundary_cols) for i in range(dim)))
            images = [rng.choice(boundary_cols) if boundary_cols and rng.random() < 0.3
                      else tuple(field.coerce(rand_frac(rng, -2, 2, 2)) for _ in range(dim))
                      for _ in range(rng.randint(1, 4))]
            expected = (Matrix.from_columns(field, images + boundary_cols, dim).rank()
                        - boundary.rank())
            del echelons[:]
            assert induced_homology_rank(field, images, images, boundary, dim) == expected
            assert len(echelons) == 1
