import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import egb
from egb.eggbeater import (
    EggBeaterParams,
    FIXTURE_L,
    FIXTURE_P2_MU,
    FIXTURE_P2_NU,
    FixedPointRecord,
    _enumerate_core,
    _farey_rationals,
    _integer_scale,
    _solve_core,
    enumerate_records,
    fixture_params,
    lambda_lattice,
    min_action_gap,
    param_search,
    sign_vectors,
    solve_2d,
    solve_signed,
    validation_threshold,
)
from egb.field import Matrix, QQ_FIELD
from egb.freegroup import canonical_itinerary, cyclic_reduce, itinerary_to_word
from egb.persistence import is_inf, min_gap
from egb.serialize import frac_str, write_records

from conftest import (
    ReductionWindowError,
    action_leading,
    asymptotic_limit,
    block_matrix,
    block_parabolic_factors,
    block_vector,
    coefficient_sums_distinct,
    entry,
    eps_bar,
    h0,
    kink_distance,
    leading_sum,
    min_leading_gap,
    odd_points,
    phi_block,
    record_det,
    records_to_csv,
    u0,
)


def rand_signs(rng, p):
    return tuple(rng.choice([1, -1]) for _ in range(2 * p))


def exposed(r: FixedPointRecord) -> tuple:
    """Every value a record exposes, the Fraction views of its points
    included: what the oracle comparisons compare, whatever denominator the
    record keeps its numerators over."""
    return (r.signs, r.valid, r.reason, r.point, r.even_points,
            r.action, action_leading(r), record_det(r), kink_distance(r))


def reference_solve(p, lam, mu, nu, signs) -> tuple:
    """`exposed` of the solver on `Matrix`: products of the block matrices,
    the O(p^2) sum of transported block vectors, `Matrix.solve` and
    `phi_block`.  The oracle the shared-prefix solver is pinned to; the start
    point the record derives, and the odd points formed from its even
    points, must be the ones the oracle computed."""
    record, point, odd = reference_orbit(p, lam, mu, nu, signs)
    assert record.point == point
    assert odd_points(record.even_points) == odd
    return exposed(record)


def reference_orbit(p, lam, mu, nu, signs):
    """(record, start point, odd points) of `reference_solve`, the points as
    the oracle computes them: the start point from `Matrix.solve`, odd point
    j as the intermediate point (x_{2j}, y') of block j's vertical half-step,
    turned by (x, y) -> (-y, x) into the horizontal square.  A rejected
    record has start point None and no odd points.  A valid record keeps the
    even points as numerators over the lcm of their denominators."""
    lam = F(lam)
    mu = tuple(F(v) for v in mu)
    nu = tuple(F(v) for v in nu)
    lead = lam / 2 * leading_sum(signs, mu, nu)
    a_blocks = [block_matrix(j, signs, lam) for j in range(p)]
    b_blocks = [block_vector(j, signs, lam, mu[j], nu[j]) for j in range(p)]
    a_bar = Matrix.identity(QQ_FIELD, 2)
    for a in a_blocks:
        a_bar = a @ a_bar
    m = a_bar - Matrix.identity(QQ_FIELD, 2)
    det = m.det()
    assert det == 2 - (entry(a_bar, 0, 0) + entry(a_bar, 1, 1))

    def reject(reason):
        return FixedPointRecord(signs, False, reason, (), 1, None, lead.as_integer_ratio(),
                                det.as_integer_ratio(), None), None, ()

    if det == 0:
        return reject("singular system: det(A_bar - id) = 0")
    v0 = b_blocks[p - 1]
    for j in range(p - 1):
        acc = b_blocks[j]
        for k in range(j + 1, p):
            acc = a_blocks[k].apply(acc)
        v0 = (v0[0] + acc[0], v0[1] + acc[1])
    x0, y0 = m.solve((-v0[0], -v0[1]))
    even = [(x0, y0)]
    try:
        for j in range(p):
            even.append(phi_block(even[-1][0], even[-1][1], mu[j], nu[j], lam))
    except ValueError as e:
        return reject(f"forward map: {e}")
    if even[-1] != (x0, y0):
        return reject("forward map does not close up on the affine solution")
    even = even[:p]
    for j, (x, y) in enumerate(even):
        if x == 0 or y == 0:
            return reject(f"even point {j} has a zero coordinate (sign undefined)")
        if not (-1 < x < 1 and -1 < y < 1):
            return reject(f"even point {j} outside the open square")
        if (1 if x > 0 else -1) != signs[2 * j]:
            return reject(f"realized sign of x_{2 * j} differs from requested")
        if (1 if y > 0 else -1) != signs[2 * j + 1]:
            return reject(f"realized sign of y_{2 * j} differs from requested")
    odd = tuple((-(y + lam * u0(x) - mu[j] * lam), x) for j, (x, y) in enumerate(even))
    for j, (x, y) in enumerate(odd):
        if not (-1 < x < 1 and -1 < y < 1):
            return reject(f"odd point {j} outside the open square")
    kink = min(min(abs(c + 1), abs(c), abs(c - 1)) for pt in even for c in pt)
    action = sum(
        lam * h0(xv) - lam * mu[j] * xv + lam * h0(xh) - lam * nu[j] * xh
        for j, ((xv, _), (xh, _)) in enumerate(zip(even, odd))
    )
    den = math.lcm(*(v.denominator for pt in even for v in pt))
    numerators = tuple(tuple(v.numerator * (den // v.denominator) for v in pt) for pt in even)
    record = FixedPointRecord(signs, True, None, numerators, den, action.as_integer_ratio(),
                              lead.as_integer_ratio(), det.as_integer_ratio(),
                              kink.numerator * (den // kink.denominator))
    assert record.even_points == tuple(even)
    return record, (x0, y0), odd


class TestProfiles:
    def test_u0_values(self):
        assert u0(0) == 1
        assert u0(1) == 0
        assert u0(-1) == 0
        assert u0(F(1, 2)) == F(1, 2)

    def test_u0_domain(self):
        with pytest.raises(ValueError):
            u0(F(3, 2))

    def test_h0_values(self):
        assert h0(1) == F(1, 2)
        assert h0(-1) == F(-1, 2)
        assert h0(0) == 0

    def test_h0_odd(self, rng):
        for _ in range(20):
            s = F(rng.randint(-8, 8), 8)
            assert h0(-s) == -h0(s)

    def test_h0_integrates_u0(self):
        # h0(s) = -1/2 + integral of u0 from -1 to s, checked at grid points
        step = F(1, 16)
        s = F(-1)
        acc = F(-1, 2)
        while s < 1:
            mid = s + step / 2
            acc += u0(mid) * step
            s += step
            assert abs(acc - h0(s)) <= step * step  # midpoint rule is exact enough


class TestPhiBlock:
    def test_2d_fixed_point(self):
        assert phi_block(F(1, 2), F(3, 4), F(1, 2), F(1, 4), 160) == (F(1, 2), F(3, 4))

    def test_window_violation_raises(self):
        with pytest.raises(ReductionWindowError):
            phi_block(F(1, 8), F(1, 8), F(1, 2), F(1, 4), 160)

    def test_outside_square_rejected(self):
        with pytest.raises(ReductionWindowError):
            phi_block(F(3, 2), F(0), F(1, 2), F(1, 4), 160)


class TestBlocks:
    def test_all_plus_matrix(self):
        lam = F(7)
        m = block_matrix(0, (1, 1, 1, 1), lam)
        assert m == Matrix.from_rows(
            QQ_FIELD, [[1 + lam * lam, -lam], [-lam, 1]]
        )

    def test_determinant_one(self, rng):
        for _ in range(20):
            p = rng.choice([2, 3])
            signs = rand_signs(rng, p)
            lam = F(rng.randint(1, 100))
            j = rng.randrange(p)
            assert block_matrix(j, signs, lam).det() == 1

    def test_parabolic_factorization(self, rng):
        for _ in range(20):
            p = rng.choice([2, 3])
            signs = rand_signs(rng, p)
            lam = F(rng.randint(1, 50), rng.randint(1, 3))
            j = rng.randrange(p)
            upper, lower = block_parabolic_factors(j, signs, lam)
            assert upper @ lower == block_matrix(j, signs, lam)

    def test_block_vector_all_plus(self):
        v = block_vector(0, (1, 1, 1, 1), 160, F(1, 2), F(1, 2))
        assert v == (F(-12720), F(80))

    def test_inverse_on_vector_identity(self, rng):
        for _ in range(20):
            p = rng.choice([2, 3])
            signs = rand_signs(rng, p)
            lam = F(rng.randint(1, 60))
            mu, nu = F(rng.randint(1, 5), 6), F(rng.randint(1, 6), 7)
            j = rng.randrange(p)
            a = block_matrix(j, signs, lam)
            b = block_vector(j, signs, lam, mu, nu)
            e1 = signs[(2 * j) % (2 * p)]
            expected = ((1 - nu) * lam, (1 - mu) * lam + e1 * (1 - nu) * lam * lam)
            assert a.inverse().apply(b) == expected

    def test_sign_flip_negates_lambda_square_term(self, rng):
        lam, mu, nu = F(20), F(1, 2), F(1, 3)
        plus = block_vector(0, (1, 1, 1, 1), lam, mu, nu)
        minus = block_vector(0, (1, 1, 1, -1), lam, mu, nu)  # eps_4 flipped
        assert plus[1] == minus[1]
        linear = (1 - nu) * lam
        assert plus[0] - linear == -(minus[0] - linear)


class TestSolver:
    def test_fixture_all_sixteen_validate(self):
        lam, records = validation_threshold(2, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU)
        assert len(records) == 16
        assert all(r.valid for r in records)
        assert len({r.signs for r in records}) == 16

    def test_signs_realized(self):
        lam, records = validation_threshold(2, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU)
        for r in records:
            for j, (x, y) in enumerate(r.even_points):
                assert (1 if x > 0 else -1) == r.signs[2 * j]
                assert (1 if y > 0 else -1) == r.signs[2 * j + 1]

    def test_forward_map_oracle_zero_residual(self):
        lam, records = validation_threshold(2, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU)
        params = fixture_params(lam)
        for r in records:
            pts = [r.point]
            for j in range(2):
                pts.append(phi_block(pts[-1][0], pts[-1][1], params.mu[j], params.nu[j], lam))
            assert pts[-1] == r.point  # exact closure, no tolerance

    def test_off_lattice_lambda_rejected(self):
        with pytest.raises(ValueError):
            fixture_params(F(100))

    def test_small_lattice_lambda_records_are_accounted_for(self):
        # existence is only asymptotic, so below-threshold rejections are
        # permitted: every record is either valid with exact closure or
        # rejected with a reason
        params = EggBeaterParams(2, 4, 16, (F(1, 2), F(1, 4)), (F(3, 4), F(1, 4)))
        records = enumerate_records(params)
        assert len(records) == 16
        for r in records:
            if not r.valid:
                assert r.reason
            else:
                pts = [r.point]
                for j in range(2):
                    pts.append(
                        phi_block(pts[-1][0], pts[-1][1], params.mu[j], params.nu[j], 16)
                    )
                assert pts[-1] == r.point

    def test_singular_system_rejection(self):
        # det(A_bar - id) vanishes at lambda = 2 for alternating signs; the
        # core solver (no lattice check) must reject with the singular reason
        rec = _solve_core(2, F(2), (F(1, 2), F(1, 5)), (F(1, 3), F(1, 7)), (1, -1, 1, -1))
        assert not rec.valid
        assert "singular" in rec.reason
        assert record_det(rec) == 0

    def test_window_miss_rejection(self):
        # at a tiny lambda the affine solution misses its reduction windows
        rejected = 0
        for signs in sign_vectors(2):
            rec = _solve_core(2, F(2), (F(1, 2), F(1, 5)), (F(1, 3), F(1, 7)), tuple(signs))
            if not rec.valid:
                assert rec.reason
                rejected += 1
        assert rejected > 0

    def test_kink_distance_positive(self):
        lam, records = validation_threshold(2, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU)
        for r in records:
            assert kink_distance(r) > 0

    def test_asymptotics_toward_limit(self):
        lams = list(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 4))
        for signs in [(1, 1, 1, 1), (1, -1, 1, -1), (-1, -1, -1, -1)]:
            sups = []
            for lam in (lams[0], lams[1], lams[3]):  # doubling pair 840, 1680... and 3360
                rec = solve_signed(signs, fixture_params(lam))
                assert rec.valid
                limit = asymptotic_limit(signs, FIXTURE_P2_MU, FIXTURE_P2_NU)
                err = max(abs(rec.point[0] - limit[0]), abs(rec.point[1] - limit[1]))
                sups.append(lam * err)
            assert sups[1] > 0
            # lambda * error stays bounded: consecutive ratios near 1
            r1 = sups[1] / sups[0]
            r2 = sups[2] / sups[1]
            assert F(2, 5) < r1 < F(5, 2)
            assert F(2, 5) < r2 < F(5, 2)

    def test_action_exact_matches_recomputation(self):
        """The segment-wise action and the leading term lam/2 * leading_sum
        of the Fraction oracle, against the record's own."""
        lam, records = validation_threshold(2, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU)
        for r in records:
            reference, _, _ = reference_orbit(2, lam, FIXTURE_P2_MU, FIXTURE_P2_NU, r.signs)
            assert reference.action == r.action
            assert lam / 2 * leading_sum(r.signs, FIXTURE_P2_MU, FIXTURE_P2_NU) == action_leading(r)

    def test_action_minus_leading_bounded_over_doubling(self):
        lams = list(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 4))
        for signs in [(1, 1, 1, 1), (-1, 1, -1, 1)]:
            diffs = []
            for lam in (lams[0], lams[1], lams[3]):
                rec = solve_signed(signs, fixture_params(lam))
                diffs.append(abs(rec.action - action_leading(rec)))
            assert diffs[2] < 2 * max(diffs[0], F(1))  # bounded, not growing with lambda

    def test_nondegeneracy_det(self):
        """det(A_bar - id) of the `Matrix` oracle, which also checks it against
        2 - trace(A_bar), is the record's nonzero det."""
        lam, records = validation_threshold(2, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU)
        for r in records:
            assert record_det(r) != 0
            reference, _, _ = reference_orbit(2, lam, FIXTURE_P2_MU, FIXTURE_P2_NU, r.signs)
            assert record_det(reference) == record_det(r)

    def test_det_leading_term(self):
        # det / lambda^{2p} -> -eps_bar over a doubling sequence
        lams = list(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 2))
        for signs in [(1, 1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1)]:
            vals = [record_det(solve_signed(signs, fixture_params(lam))) / lam ** 4 for lam in lams]
            target = -eps_bar(signs)
            assert abs(vals[1] - target) < abs(vals[0] - target) + F(1, 100)
            assert abs(vals[1] - target) < F(1, 50)

    def test_global_sign_flip_preserves_det_leading(self, rng):
        lam = next(iter(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 1)))
        for _ in range(5):
            signs = rand_signs(rng, 2)
            flipped = tuple(-s for s in signs)
            assert eps_bar(signs) == eps_bar(flipped)


class TestReferenceSolver:
    """The shared-prefix solver against `reference_solve`, record for record."""

    @pytest.mark.parametrize("p, mu, nu, count", [
        (2, FIXTURE_P2_MU, FIXTURE_P2_NU, 3),
        (2, (F(1, 2), F(1, 4)), (F(3, 4), F(1, 4)), 3),
        (3, (F(1, 2), F(1, 3), F(1, 5)), (F(1, 7), F(1, 11), F(1, 13)), 2),
        (3, (F(2, 3), F(3, 5), F(1, 7)), (F(5, 11), F(1, 2), F(8, 13)), 1),
        # numerators 8 and 16: lattice steps 6435/2 and 156009/4, so lambda is
        # not an integer and the numerators run over K = 2 and K = 4
        (2, (F(8, 9), F(8, 11)), (F(8, 13), F(8, 15)), 3),
        (2, (F(16, 17), F(16, 19)), (F(16, 21), F(16, 23)), 4),
    ])
    def test_enumerate_records_on_the_lattice(self, p, mu, nu, count):
        threshold, _ = validation_threshold(p, FIXTURE_L, mu, nu)
        lams = list(lambda_lattice(FIXTURE_L, mu, nu, count))
        assert threshold in lams  # every lattice point up to the threshold is compared
        for lam in lams:
            params = EggBeaterParams(p, FIXTURE_L, lam, mu, nu)
            expected = [reference_solve(p, lam, mu, nu, tuple(s)) for s in sign_vectors(p)]
            assert [exposed(r) for r in enumerate_records(params)] == expected

    @pytest.mark.parametrize("p, mu, nu, lams", [
        (1, (F(1, 2),), (F(1, 3),), (F(1, 2), F(1), F(2), F(3))),
        (2, (F(1, 2), F(1, 5)), (F(1, 3), F(1, 7)), (F(3, 2), F(2), F(6))),
        (2, (F(9, 10), F(1, 5)), (F(2, 5), F(4, 5)), (F(1),)),
        (2, (F(1, 10), F(1, 2)), (F(1, 2), F(9, 10)), (F(14),)),
        (3, (F(1, 2), F(1, 5), F(2, 3)), (F(1, 3), F(1, 7), F(3, 4)), (F(1), F(3, 2))),
    ])
    def test_enumeration_off_the_lattice(self, p, mu, nu, lams):
        # every lattice point tried validates all vectors, so rejections are
        # compared at small off-lattice lambda (p = 1 never rejects)
        for lam in lams:
            got = _enumerate_core(p, lam, mu, nu)
            assert [exposed(r) for r in got] == [
                reference_solve(p, lam, mu, nu, tuple(s)) for s in sign_vectors(p)]

    def test_off_lattice_cases_reach_every_reject(self):
        reasons = set()
        for mu, nu, lam in [
            ((F(1, 2), F(1, 5)), (F(1, 3), F(1, 7)), F(2)),
            ((F(9, 10), F(1, 5)), (F(2, 5), F(4, 5)), F(1)),
            ((F(1, 10), F(1, 2)), (F(1, 2), F(9, 10)), F(14)),
        ]:
            reasons |= {r.reason.split(":")[0] for r in _enumerate_core(2, lam, mu, nu) if r.reason}
        assert reasons == {
            "singular system",
            "forward map",
            "forward map does not close up on the affine solution",
            "even point 0 has a zero coordinate (sign undefined)",
            "realized sign of x_0 differs from requested",
        }

    def test_single_vectors_off_the_lattice(self, rng):
        rejected = 0
        for _ in range(150):
            p = rng.choice([1, 2, 3])
            mu = tuple(F(rng.randint(1, 9), 10) for _ in range(p))
            nu = tuple(F(rng.randint(1, 9), 10) for _ in range(p))
            lam = F(rng.randint(1, 300), rng.randint(1, 6))
            signs = rand_signs(rng, p)
            rec = _solve_core(p, lam, mu, nu, signs)
            assert exposed(rec) == reference_solve(p, lam, mu, nu, signs)
            rejected += not rec.valid
        assert rejected > 0

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            _solve_core(2, F(840), FIXTURE_P2_MU, FIXTURE_P2_NU, (1, -1, 1))
        with pytest.raises(ValueError):
            _solve_core(2, F(840), FIXTURE_P2_MU, FIXTURE_P2_NU, (1, 0, 1, 1))


def reference_obj(r: FixedPointRecord, point, odd) -> dict:
    """The JSON object of a record with `frac_str` applied to every
    coordinate, the start point and odd points taken from the oracle."""
    return {
        "signs": r.label(),
        "valid": r.valid,
        "rejection_reason": r.reason,
        "x0": frac_str(point[0]) if point else None,
        "y0": frac_str(point[1]) if point else None,
        "even_points": [[frac_str(x), frac_str(y)] for x, y in r.even_points],
        "odd_points": [[frac_str(x), frac_str(y)] for x, y in odd],
        "action_exact": frac_str(r.action) if r.action is not None else None,
        "action_leading": frac_str(action_leading(r)),
        "det": frac_str(record_det(r)),
        "kink_distance": frac_str(kink_distance(r)) if r.kink_numerator is not None else None,
    }


class TestDerivedFields:
    """A record stores integer numerators of its even points over one
    denominator: the points, the start point, the odd points and the CSV row
    and JSON text written for the record must equal what the oracle computes
    and formats from its Fractions."""

    PRIMES_MU = (F(1, 3), F(1, 7), F(1, 13), F(1, 19), F(1, 29))
    PRIMES_NU = (F(1, 2), F(1, 5), F(1, 11), F(1, 17), F(1, 23))

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_point_odd_points_and_obj_match_the_oracle(self, rng, p):
        mu, nu = self.PRIMES_MU[:p], self.PRIMES_NU[:p]
        lams = [next(iter(lambda_lattice(FIXTURE_L, mu, nu, 1))), F(1), F(3, 2), F(14)]
        seen = set()
        for lam in lams:
            k = _integer_scale(lam, mu, nu)[0]
            records = _enumerate_core(p, lam, mu, nu)
            vectors = list(sign_vectors(p))
            # a random sample, with the first valid and the first rejected record
            picks = set(rng.sample(range(len(vectors)), min(len(vectors), 24)))
            picks |= {next(i for i, r in enumerate(records) if r.valid is v)
                      for v in {r.valid for r in records}}
            for i in sorted(picks):
                rec = records[i]
                ref, point, odd = reference_orbit(p, lam, mu, nu, vectors[i])
                assert exposed(rec) == exposed(ref)
                values = (rec.action, action_leading(rec), record_det(rec), kink_distance(rec))
                if rec.valid:
                    assert all(type(v) is F for v in values)
                else:
                    assert values[0] is None and values[3] is None
                    assert type(values[1]) is F and type(values[2]) is F
                assert rec.point == point
                assert odd_points(rec.even_points) == odd
                if rec.valid:  # the denominator D = lcm(den x0, den y0) K^{2p}
                    assert rec.den == math.lcm(*(v.denominator for v in point)) * k ** (2 * p)
                else:
                    assert rec.numerators == ()
                obj = reference_obj(ref, point, odd)
                csv_text, json_text = io.StringIO(), io.StringIO()
                write_records([rec], csv_out=csv_text, json_out=json_text)
                assert csv_text.getvalue() == records_to_csv([obj])
                assert json_text.getvalue() == json.dumps(
                    {"records": [obj]}, indent=2, sort_keys=True)
                seen.add((rec.valid, k > 1))
        # p = 1 never rejects; K > 1 at the three lambda off the lattice
        assert seen == ({(True, False), (True, True)} if p == 1 else
                        {(True, False), (True, True), (False, True)})

    def test_valid_records_build_no_fraction(self, monkeypatch):
        """The solver keeps a valid record's values as integers: enumerating
        a lattice point where every record validates calls no `Fraction`."""
        mu, nu = self.PRIMES_MU[:3], self.PRIMES_NU[:3]
        lam = next(iter(lambda_lattice(FIXTURE_L, mu, nu, 1)))
        params = EggBeaterParams(3, FIXTURE_L, lam, mu, nu)

        def refuse(*args):
            raise AssertionError(f"Fraction{args} built while enumerating")

        monkeypatch.setattr("egb.eggbeater.Fraction", refuse)
        records = enumerate_records(params)
        monkeypatch.undo()
        assert len(records) == 64 and all(r.valid for r in records)


class TestGaps:
    def test_min_gap_scales_linearly(self):
        lams = list(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 2))
        gaps = []
        for lam in lams:
            records = enumerate_records(fixture_params(lam))
            assert all(r.valid for r in records)
            gaps.append(min_action_gap(records))
        slope1 = gaps[0] / lams[0]
        slope2 = gaps[1] / lams[1]
        assert abs(slope1 - slope2) <= F(1, 20) * max(slope1, slope2)
        # and the slope matches the exact minimum coefficient-sum difference
        coeff_gap = min_leading_gap(2, FIXTURE_P2_MU, FIXTURE_P2_NU) / 2
        for lam, gap in zip(lams, gaps):
            assert abs(gap - coeff_gap * lam) < 12  # O(1) correction only

    def test_fewer_than_two_records(self):
        assert is_inf(min_action_gap([]))


def hand_record(action, leading) -> FixedPointRecord:
    """A record carrying only what `min_action_gap` reads; rejected when
    `action` is None."""
    valid = action is not None
    reason = None if valid else "hand-built rejection"
    return FixedPointRecord((1, 1), valid, reason, (), 1,
                            action.as_integer_ratio() if valid else None,
                            leading.as_integer_ratio(), (1, 1), None)


def brute_gap(records):
    actions = [r.action for r in records if r.valid]
    return min(abs(a - b) for i, a in enumerate(actions) for b in actions[i + 1:])


def rand_fracs(rng, n):
    """Fractions with unrelated denominators, some of them equal."""
    out = [F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)) for _ in range(n)]
    return out + rng.sample(out, n // 4) + [F(rng.randint(-5, 5))]


class TestGapInLeadingOrder:
    """`min_action_gap` is the pairwise minimum of the valid actions, whatever
    order their leading terms are in."""

    def test_leading_order_reversed_and_shuffled(self, rng):
        for _ in range(20):
            actions = sorted(set(rand_fracs(rng, 12)))
            leading = sorted(rand_fracs(rng, len(actions)), reverse=True)
            records = [hand_record(a, lead) for a, lead in zip(actions, leading)]
            assert min_action_gap(records) == brute_gap(records)
            rng.shuffle(leading)
            records = [hand_record(a, lead) for a, lead in zip(actions, leading)]
            assert min_action_gap(records) == brute_gap(records)

    def test_equal_actions_give_gap_zero(self, rng):
        records = [hand_record(F(7, 3), F(1)), hand_record(F(-2), F(5, 7)),
                   hand_record(F(14, 6), F(-4, 9))]
        rng.shuffle(records)
        assert min_action_gap(records) == 0

    def test_rejected_records_mixed_in(self, rng):
        for _ in range(20):
            pairs = zip(rand_fracs(rng, 8), rand_fracs(rng, 8))
            records = [hand_record(a, lead) for a, lead in pairs]
            records += [hand_record(None, lead) for lead in rand_fracs(rng, 6)]
            rng.shuffle(records)
            assert min_action_gap(records) == brute_gap(records)

    def test_fewer_than_two_valid_records(self):
        rejected = [hand_record(None, F(k, 3)) for k in range(4)]
        assert is_inf(min_action_gap(rejected))
        assert is_inf(min_action_gap(rejected + [hand_record(F(1, 2), F(1))]))


def near_key(rng, key: int, frac: F) -> F:
    """(key + frac + r / d) / 2^64 for a random ~600-bit d and a small r:
    floor(a 2^64) = key when frac + r / d < 1."""
    d = rng.getrandbits(600) | (1 << 599) | 1
    return (key + frac + F(rng.randint(1, 1000), d)) / 2 ** 64


class TestGapCandidateCut:
    """`min_action_gap` sorts on the key floor(a 2^64) and compares exactly
    only the neighbours whose keys differ by at most the least key
    difference plus one; tied keys are re-sorted in exact order."""

    def check(self, rng, actions):
        records = [hand_record(a, F(i)) for i, a in enumerate(actions)]
        records += [hand_record(None, F(-1))]
        for _ in range(4):
            rng.shuffle(records)
            got = min_action_gap(records)
            assert type(got) is F
            assert got == brute_gap(records)

    @pytest.mark.parametrize("m", [1, 2, 7, 2 ** 40])
    def test_least_gap_one_key_step_past_the_least_key_difference(self, rng, m):
        """Pair A has key difference m and gap (m + 0.9) 2^-64, pair B key
        difference m + 1 and gap (m + 0.1) 2^-64: the minimum is B's."""
        base = rng.randrange(-2 ** 80, 2 ** 80)
        far = base + 3 * m + 10  # every other neighbour is > m + 1 keys apart
        pair_a = [near_key(rng, base, F(1, 20)), near_key(rng, base + m, F(19, 20))]
        pair_b = [near_key(rng, far, F(9, 10)), near_key(rng, far + m + 1, F(0))]
        spread = [near_key(rng, far + (5 + i) * (m + 5), F(1, 2)) for i in range(5)]
        assert [math.floor(a * 2 ** 64) for a in pair_a + pair_b] == [base, base + m, far,
                                                                       far + m + 1]
        assert brute_gap([hand_record(a, F(0)) for a in pair_b]) < (m + F(1, 2)) / 2 ** 64
        self.check(rng, pair_a + pair_b + spread)

    def test_tied_keys(self, rng):
        """Actions within 2^-64 of each other share a key, whatever order
        their numerators and denominators sort in."""
        for _ in range(20):
            base = rng.randrange(-2 ** 70, 2 ** 70)
            tied = [near_key(rng, base, F(rng.randint(1, 9), 10)) for _ in range(3)]
            others = [near_key(rng, base + rng.choice([-3, -1, 1, 2, 5]), F(1, 3))]
            self.check(rng, tied + others)

    def test_equal_actions(self, rng):
        for _ in range(10):
            a = near_key(rng, rng.randrange(2 ** 70), F(1, 3))
            b = near_key(rng, rng.randrange(2 ** 70), F(2, 3))
            self.check(rng, [a, a, b])
            assert min_action_gap([hand_record(x, F(0)) for x in (a, b, a)]) == 0


class TestMinGap:
    """`persistence.min_gap` on integer (numerator, denominator) pairs, in any
    order and not necessarily reduced, is the least pairwise distance of their
    values, the brute-force minimum over all pairs."""

    @staticmethod
    def pairs(rng, values):
        """Each value as a pair scaled by a random factor, shuffled."""
        out = []
        for a in values:
            c = rng.randint(1, 9)
            out.append((c * a.numerator, c * a.denominator))
        rng.shuffle(out)
        return out

    def test_matches_all_pairs(self, rng):
        for i in range(60):
            values = rand_fracs(rng, rng.randint(2, 30))
            values += [F(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30))
                       for _ in range(rng.randint(0, 3))]
            if i % 2:
                values = list(set(values))  # distinct values, so the gap is positive
            got = min_gap(self.pairs(rng, values))
            assert type(got) is F
            assert got == min(abs(b - a) for j, a in enumerate(values) for b in values[j + 1:])

    def test_equal_neighbours_give_zero(self, rng):
        pairs = [(-1, 3), (7, 3), (14, 6), (5, 1)]
        rng.shuffle(pairs)
        assert min_gap(pairs) == 0
        assert min_gap([(2, 6), (5, 1), (1, 3)]) == 0

    def test_tied_keys_with_distinct_values(self, rng):
        """Values within 2^-64 of each other share the key floor(a 2^64), so
        the least key difference is 0 and the pairs are re-sorted exactly."""
        for _ in range(20):
            base = rng.randrange(-2 ** 70, 2 ** 70)
            values = [near_key(rng, base, F(k, 10)) for k in rng.sample(range(1, 10), 4)]
            values += [near_key(rng, base + rng.choice([-3, -1, 1, 2, 5]), F(1, 3))]
            pairs = self.pairs(rng, values)
            assert len({n * 2 ** 64 // d for n, d in pairs}) < len(pairs)
            got = min_gap(pairs)
            assert type(got) is F and got > 0
            assert got == min(abs(b - a) for j, a in enumerate(values) for b in values[j + 1:])

    def test_fewer_than_two_values(self):
        assert is_inf(min_gap([]))
        assert is_inf(min_gap([(3, 7)]))
        assert is_inf(min_gap([(6, 14)]))


class TestLeadingCoefficients:
    def test_enumeration_matches_plus_minus_sums(self):
        """The 2^{2p} leading sums are exactly the +-c1 +-c2 -+c3 -+c4 grid."""
        import itertools

        mu, nu = FIXTURE_P2_MU, FIXTURE_P2_NU
        got = sorted(leading_sum(tuple(s), mu, nu) for s in sign_vectors(2))
        c = [(1 - mu[0]) ** 2, (1 - mu[1]) ** 2, (1 - nu[0]) ** 2, (1 - nu[1]) ** 2]
        expected = sorted(
            d1 * c[0] + d2 * c[1] - d3 * c[2] - d4 * c[3]
            for d1, d2, d3, d4 in itertools.product((1, -1), repeat=4)
        )
        assert got == expected


class TestParamSearch:
    def test_fixture_coefficients_distinct(self):
        assert coefficient_sums_distinct(2, FIXTURE_P2_MU, FIXTURE_P2_NU)

    def test_symmetric_choice_rejected(self):
        assert not coefficient_sums_distinct(
            2, (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2))
        )

    def test_search_terminates_and_validates(self):
        mu, nu = param_search(2, 4, max_denominator=10)
        assert coefficient_sums_distinct(2, mu, nu)
        assert len(set(zip(mu, nu))) == 2

    def test_search_is_deterministic(self):
        assert param_search(2, 4, 10) == param_search(2, 4, 10)

    @staticmethod
    def product_scan(p, max_denominator):
        """The search as a full Farey product with both repeated-value filters."""
        rats = _farey_rationals(max_denominator)
        for combo in itertools.product(rats, repeat=2 * p):
            mu, nu = combo[:p], combo[p:]
            if len(set(zip(mu, nu))) != p:
                continue
            if len({(1 - v) ** 2 for v in combo}) != 2 * p:
                continue
            if coefficient_sums_distinct(p, mu, nu):
                return mu, nu
        raise ValueError("exhausted")

    @pytest.mark.parametrize("p, max_denominator", [(2, 4), (2, 10), (3, 5)])
    def test_matches_product_scan(self, p, max_denominator):
        assert param_search(p, 4, max_denominator) == self.product_scan(p, max_denominator)

    @pytest.mark.parametrize("p, expected", [
        (5, ((F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4)),
             (F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(5, 6)))),
        (7, ((F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5), F(2, 5)),
             (F(3, 5), F(4, 5), F(5, 6), F(1, 7), F(2, 7), F(3, 7), F(6, 7)))),
    ])
    def test_pinned_results(self, p, expected):
        # p = 5 is what the permutation walk returned; p = 7 was out of its reach
        assert param_search(p, 4) == expected
        assert coefficient_sums_distinct(p, *expected)

    def test_exhausted_grid_raises(self):
        # five Farey rationals with denominator <= 4 cannot fill six distinct slots
        with pytest.raises(ValueError):
            self.product_scan(3, 4)
        with pytest.raises(ValueError, match="no admissible coefficients"):
            param_search(3, 4, max_denominator=4)


class TestLattice:
    def test_fixture_lattice(self):
        lams = list(lambda_lattice(4, FIXTURE_P2_MU, FIXTURE_P2_NU, 3))
        assert lams == [F(840), F(1680), F(2520)]

    def test_halves_lattice(self):
        # denominators 2 everywhere: multiples of 8
        assert list(lambda_lattice(4, (F(1, 2),), (F(1, 2),), 2)) == [F(8), F(16)]

    def test_count_zero(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            lambda_lattice(4, FIXTURE_P2_MU, FIXTURE_P2_NU, 0)

    def test_a_huge_count_yields_its_first_point_at_once(self):
        """The points are made as they are read.  The check runs in a fresh
        interpreter capped at 1 GiB of address space and 20 s, so a list of
        all 10^15 points fails there instead of filling the memory."""
        code = ("from egb.eggbeater import FIXTURE_P2_MU, FIXTURE_P2_NU, lambda_lattice\n"
                "print(next(iter(lambda_lattice(4, FIXTURE_P2_MU, FIXTURE_P2_NU, 10 ** 15))))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": str(Path(egb.__file__).resolve().parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "840\n", "")

    def test_windings_are_positive_integers(self):
        lam = next(iter(lambda_lattice(4, FIXTURE_P2_MU, FIXTURE_P2_NU, 1)))
        params = fixture_params(lam)
        for j in range(2):
            assert params.winding_m(j) >= 1
            assert params.winding_n(j) >= 1


class TestOrbitClass:
    """The word a^{m_1} b^{n_1} ... a^{m_p} b^{n_p} of the solver's windings,
    the free homotopy class `egb eggbeater` solves in, is cyclically reduced
    and not a proper power: distinct (mu_i, nu_i) pairs give distinct
    winding pairs, so for prime p the class is primitive."""

    @staticmethod
    def is_proper_power(letters: tuple) -> bool:
        """A cyclically reduced word w is a proper power exactly when it
        occurs in w w at an offset other than 0 and |w|."""
        n = len(letters)
        return [i for i in range(n + 1) if (letters + letters)[i:i + n] == letters] != [0, n]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_primitive(self, p):
        if p == 2:
            params = fixture_params(840)
        else:
            mu, nu = param_search(p, 4)
            lam, _ = validation_threshold(p, 4, mu, nu)
            params = EggBeaterParams(p, 4, lam, mu, nu)
        word = itinerary_to_word(canonical_itinerary(
            [params.winding_m(j) for j in range(p)], [params.winding_n(j) for j in range(p)]))
        assert cyclic_reduce(word) == word
        assert not self.is_proper_power(word.letters)

    def test_equal_pairs_are_a_power(self):
        word = itinerary_to_word(canonical_itinerary([2, 2], [3, 3]))
        assert self.is_proper_power(word.letters)


class TestParamsValidation:
    def test_small_l_rejected(self):
        with pytest.raises(ValueError):
            EggBeaterParams(2, 3, 840, FIXTURE_P2_MU, FIXTURE_P2_NU)

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError):
            EggBeaterParams(2, 4, 8, (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_non_prime_p_rejected(self):
        with pytest.raises(ValueError):
            EggBeaterParams(4, 4, 8, (F(1, 2),) * 4, (F(1, 2),) * 4)

    def test_coefficient_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EggBeaterParams(2, 4, 840, (F(3, 2), F(1, 5)), FIXTURE_P2_NU)


class TestTwoD:
    def test_four_points(self):
        records = solve_2d(F(1, 2), F(1, 4), 160)
        points = {r.point for r in records}
        assert points == {
            (F(1, 2), F(3, 4)),
            (F(1, 2), F(-3, 4)),
            (F(-1, 2), F(3, 4)),
            (F(-1, 2), F(-3, 4)),
        }
        actions = sorted(r.action for r in records)
        assert len(set(actions)) == 4
        # leading formula: (lam/2)(e1 (1-mu)^2 - e2 (1-nu)^2), lam = 160
        assert set(actions) == {F(-65), F(-25), F(25), F(65)}

    def test_all_plus_action(self):
        records = solve_2d(F(1, 2), F(1, 4), 160)
        rec = next(r for r in records if r.signs == (1, 1))
        assert rec.action == F(-5) * 160 / 32

    def test_mu_equals_nu_rejected(self):
        with pytest.raises(ValueError):
            solve_2d(F(1, 2), F(1, 2), 160)

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            solve_2d(F(1, 2), F(1, 4), 161)

    def test_forward_map_fixes_each_point(self):
        for r in solve_2d(F(1, 3), F(2, 3), 36):
            assert phi_block(r.point[0], r.point[1], F(1, 3), F(2, 3), 36) == r.point

    def test_det_nonzero_at_small_lattice_lambda(self):
        # single 2x2 block product minus id stays nonsingular from lambda = 16
        for r in solve_2d(F(1, 2), F(1, 4), 16):
            assert record_det(r) != 0

