"""Cross-module checks: higher p, independent spread oracle, orbit classes."""

from fractions import Fraction as F

from egb.eggbeater import (
    EggBeaterParams,
    enumerate_records,
    lambda_lattice,
    min_action_gap,
    solve_signed,
)
from egb.equivariant import EquivariantComplex, w_spread
from egb.field import Matrix, QQ_FIELD
from egb.freegroup import canonical_itinerary, itinerary_to_word
from egb.model import bounds_report, model_input_from_records
from egb.persistence import FilteredComplex, is_inf

from conftest import (
    alpha_word, coefficient_sums_distinct, min_leading_gap, window_pair_nonzero_oracle,
)

# six winding fractions whose squared complements have disjoint prime
# denominators, so all 4^3 coefficient sums are automatically distinct
P3_MU = (F(1, 2), F(1, 5), F(1, 11))
P3_NU = (F(1, 3), F(1, 7), F(1, 13))


class TestPrimeThree:
    def test_sixty_four_tuples(self):
        assert coefficient_sums_distinct(3, P3_MU, P3_NU)
        lam = next(iter(lambda_lattice(4, P3_MU, P3_NU, 1)))
        params = EggBeaterParams(3, 4, lam, P3_MU, P3_NU)
        records = enumerate_records(params)
        assert len(records) == 64
        assert all(r.valid for r in records)
        assert len({r.signs for r in records}) == 64
        actions = {r.action for r in records}
        assert len(actions) == 64
        gap = min_action_gap(records)
        coeff_gap = min_leading_gap(3, P3_MU, P3_NU) / 2
        assert abs(gap - coeff_gap * lam) < 20  # O(1) correction

    def test_p3_sign_index_wrapping(self):
        # eps_{2j+4} wraps differently mod 6 than mod 4; spot check one block
        lam = next(iter(lambda_lattice(4, P3_MU, P3_NU, 1)))
        params = EggBeaterParams(3, 4, lam, P3_MU, P3_NU)
        signs = (1, -1, 1, 1, -1, 1)
        rec = solve_signed(signs, params)
        assert rec.valid
        for j, (x, y) in enumerate(rec.even_points):
            assert (1 if x > 0 else -1) == signs[2 * j]
            assert (1 if y > 0 else -1) == signs[2 * j + 1]

    def test_p3_bounds_positive(self):
        lam = next(iter(lambda_lattice(4, P3_MU, P3_NU, 1)))
        records = enumerate_records(EggBeaterParams(3, 4, lam, P3_MU, P3_NU))
        model_input = model_input_from_records(records, 3)
        report = bounds_report(model_input, lam=lam)
        assert report.pow_bound > 0
        assert report.pow_bound == report.mu_p_paper_bound / 3


def _swap_block(entries, chain, action, degree, field, killer_gap=None):
    """Append a swapped pair (optionally with an antisymmetric killer)."""
    base = len(entries)
    entries.append((action, degree))
    entries.append((action, degree))
    chain[(base, base + 1)] = 1
    chain[(base + 1, base)] = 1
    if killer_gap is not None:
        k = len(entries)
        entries.append((action + killer_gap, degree + 1))
        chain[(k, k)] = -1
        return base, k
    return base, None


def _random_equivariant(rng):
    """Random p=2 equivariant complex from swap/fixed blocks."""
    entries: list[tuple[F, int]] = []
    chain: dict[tuple[int, int], int] = {}
    boundary: dict[tuple[int, int], int] = {}
    for _ in range(rng.randint(1, 3)):
        action = F(rng.randint(-4, 4), rng.choice([1, 2]))
        kind = rng.random()
        if kind < 0.3:  # fixed lone generator
            i = len(entries)
            entries.append((action, rng.randint(0, 1)))
            chain[(i, i)] = 1
        elif kind < 0.75:  # swapped pair, maybe killed
            gap = F(rng.randint(1, 6), rng.choice([1, 2])) if rng.random() < 0.7 else None
            base, killer = _swap_block(entries, chain, action, 0, QQ_FIELD, gap)
            if killer is not None:
                boundary[(base, killer)] = 1
                boundary[(base + 1, killer)] = -1
        else:  # fixed killing pair
            low = len(entries)
            entries.append((action, 0))
            chain[(low, low)] = 1
            high = len(entries)
            entries.append((action + F(rng.randint(1, 5)), 1))
            chain[(high, high)] = 1
            boundary[(low, high)] = rng.choice([1, -1])
    n = len(entries)
    z = QQ_FIELD.zero()
    b_ent = [[z] * n for _ in range(n)]
    for (i, j), v in boundary.items():
        b_ent[i][j] = F(v)
    t_ent = [[z] * n for _ in range(n)]
    for (i, j), v in chain.items():
        t_ent[i][j] = F(v)
    cx = FilteredComplex(QQ_FIELD, tuple(entries), Matrix.from_rows(QQ_FIELD, b_ent))
    return EquivariantComplex(2, cx, Matrix.from_rows(QQ_FIELD, t_ent))


def _chain_comparison_nonzero(eq, a, b, d):
    """Direct evaluation of j_d . (T - id) on the (a, b) window homology."""
    return window_pair_nonzero_oracle(eq, (a, b), (a + d, b + d))


def _window_candidates(spectrum, eta, shift):
    """Sample points for windows (a, b) tested against the shift `shift`.

    Inside every gap: near the left edge, the middle, and near the right
    edge (the supremum is approached at gap edges).  Edge samples sit at
    eta and at eta / 2 from each spectrum value: a witness for the shift
    exact - eta needs an endpoint strictly within the slack eta of a gap
    edge, so the eta / 2 offsets stay below it.  The grid also holds each
    point's translate by -shift, because the source window has to sit one
    shift below the gap edges its shifted copy approaches.
    """
    points = set()
    lo, hi = min(spectrum), max(spectrum)
    points.update({lo - 1, lo - eta, hi + eta, hi + 1})
    for a, b in zip(spectrum, spectrum[1:]):
        points.update({a + eta, (a + b) / 2, b - eta})
    points.update(s + o for s in spectrum for o in (-eta / 2, eta / 2))
    points.update([p - shift for p in points])
    return sorted(p for p in points if p not in spectrum)


class TestWSpreadOracle:
    def test_supremum_witness_and_bound(self, rng):
        """The scan's value is approached by a concrete window and never
        exceeded on a sample grid, checked by direct chain evaluation."""
        for _ in range(10):
            eq = _random_equivariant(rng)
            exact = w_spread(eq, 2)
            spectrum = eq.complex.spectrum()
            gaps = [b - a for a, b in zip(spectrum, spectrum[1:])]
            eta = min(gaps + [F(1)]) / 8
            if is_inf(exact):
                # unbounded survival: a huge shift still acts nontrivially
                big = (max(spectrum) - min(spectrum) + 10) * 3
                candidates = _window_candidates(spectrum, eta, big)
                found = any(
                    _chain_comparison_nonzero(eq, a, b, big)
                    for a in candidates for b in candidates if a < b
                )
                assert found
                continue
            if exact > 0:
                d = exact - eta
                candidates = _window_candidates(spectrum, eta, d)
                witness = any(
                    _chain_comparison_nonzero(eq, a, b, d)
                    for a in candidates
                    for b in candidates
                    if a < b and (a + d) not in spectrum and (b + d) not in spectrum
                )
                assert witness
            # no sampled window survives a shift beyond the supremum
            d_over = exact + eta
            candidates = _window_candidates(spectrum, eta, d_over)
            for a in candidates:
                for b in candidates:
                    if not a < b:
                        continue
                    if (a + d_over) in spectrum or (b + d_over) in spectrum:
                        continue
                    assert not _chain_comparison_nonzero(eq, a, b, d_over)


class TestOrbitClasses:
    def test_fixture_windings_give_alpha(self):
        from egb.eggbeater import FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, fixture_params

        lam = next(iter(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 1)))
        params = fixture_params(lam)
        ms = [params.winding_m(j) for j in range(2)]
        ns = [params.winding_n(j) for j in range(2)]
        assert all(m >= 1 for m in ms) and all(n >= 1 for n in ns)
        word = itinerary_to_word(canonical_itinerary(ms, ns))
        assert word == alpha_word(ms, ns)
        assert len(word) == sum(ms) + sum(ns)
