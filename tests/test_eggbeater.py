import hashlib
import itertools
from fractions import Fraction as F

import pytest

from egb.eggbeater import (
    EggBeaterParams,
    FIXTURE_L,
    FIXTURE_P2_MU,
    FIXTURE_P2_NU,
    FixedPointRecord,
    ReductionWindowError,
    _enumerate_core,
    _farey_rationals,
    _solve_core,
    action_exact,
    action_leading,
    block_matrix,
    block_vector,
    coefficient_sums_distinct,
    enumerate_records,
    fixture_params,
    h0,
    lambda_lattice,
    leading_sum,
    min_action_gap,
    nondegeneracy,
    param_search,
    phi_block,
    sign_vectors,
    solve_2d,
    solve_signed,
    u0,
    validation_threshold,
)
from egb.cli import main
from egb.field import Matrix, QQ_FIELD
from egb.persistence import is_inf

from conftest import asymptotic_limit, block_parabolic_factors, eps_bar, min_leading_gap


def rand_signs(rng, p):
    return tuple(rng.choice([1, -1]) for _ in range(2 * p))


def reference_solve(p, lam, mu, nu, signs) -> FixedPointRecord:
    """The solver on `Matrix`: products of the block matrices, the O(p^2)
    sum of transported block vectors, `Matrix.solve` and `phi_block`.  The
    oracle the shared-prefix solver is pinned to."""
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
    assert det == 2 - (a_bar[0, 0] + a_bar[1, 1])

    def reject(reason):
        return FixedPointRecord(signs, False, reason, None, (), (), None, lead, det, None)

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
    odd = [(-even[(j + 1) % p][1], even[j][0]) for j in range(p)]
    for j, (x, y) in enumerate(odd):
        if not (-1 < x < 1 and -1 < y < 1):
            return reject(f"odd point {j} outside the open square")
    kink = min(min(abs(c + 1), abs(c), abs(c - 1)) for pt in even for c in pt)
    action = sum(
        lam * h0(xv) - lam * mu[j] * xv + lam * h0(xh) - lam * nu[j] * xh
        for j, ((xv, _), (xh, _)) in enumerate(zip(even, odd))
    )
    return FixedPointRecord(
        signs, True, None, (x0, y0), tuple(even), tuple(odd), action, lead, det, kink
    )


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
        assert rec.det == 0

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
            assert r.kink_distance > 0

    def test_asymptotics_toward_limit(self):
        lams = lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 4)
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
        lam, records = validation_threshold(2, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU)
        params = fixture_params(lam)
        for r in records:
            assert action_exact(r, params) == r.action
            assert action_leading(r.signs, params) == r.action_leading

    def test_action_minus_leading_bounded_over_doubling(self):
        lams = lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 4)
        for signs in [(1, 1, 1, 1), (-1, 1, -1, 1)]:
            diffs = []
            for lam in (lams[0], lams[1], lams[3]):
                rec = solve_signed(signs, fixture_params(lam))
                diffs.append(abs(rec.action - rec.action_leading))
            assert diffs[2] < 2 * max(diffs[0], F(1))  # bounded, not growing with lambda

    def test_nondegeneracy_det(self, rng):
        lam, records = validation_threshold(2, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU)
        for r in records:
            assert r.det != 0
            assert nondegeneracy(r.signs, lam) == r.det

    def test_det_leading_term(self):
        # det / lambda^{2p} -> -eps_bar over a doubling sequence
        lams = lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 2)
        for signs in [(1, 1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1)]:
            vals = [nondegeneracy(signs, lam) / lam ** 4 for lam in lams]
            target = -eps_bar(signs)
            assert abs(vals[1] - target) < abs(vals[0] - target) + F(1, 100)
            assert abs(vals[1] - target) < F(1, 50)

    def test_global_sign_flip_preserves_det_leading(self, rng):
        lam = lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 1)[0]
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
        lams = lambda_lattice(FIXTURE_L, mu, nu, count)
        assert threshold in lams  # every lattice point up to the threshold is compared
        for lam in lams:
            params = EggBeaterParams(p, FIXTURE_L, lam, mu, nu)
            expected = [reference_solve(p, lam, mu, nu, tuple(s)) for s in sign_vectors(p)]
            assert enumerate_records(params) == expected

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
            assert got == [reference_solve(p, lam, mu, nu, tuple(s)) for s in sign_vectors(p)]

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
            assert rec == reference_solve(p, lam, mu, nu, signs)
            rejected += not rec.valid
        assert rejected > 0

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            _solve_core(2, F(840), FIXTURE_P2_MU, FIXTURE_P2_NU, (1, -1, 1))
        with pytest.raises(ValueError):
            _solve_core(2, F(840), FIXTURE_P2_MU, FIXTURE_P2_NU, (1, 0, 1, 1))


class TestGoldenOutput:
    """sha256 of the CSV and JSON files `egb eggbeater --out` writes, pinned
    to the output of the solver on `Matrix`."""

    @pytest.mark.parametrize("argv, digests", [
        (["--fixture", "--lambda", "840"], {
            "eggbeater_lam_840_1.csv": "e803db3020f664db77ddebb0452d94d533ae04963f6fd0564a6481de5d53b911",
            "eggbeater_lam_840_1.json": "df1f806daa482436f8bface1a6769ca8c3f7ad4a4141958fcfdf838edeee9d4a",
        }),
        (["--p", "3", "--mu", "1/2,1/3,1/5", "--nu", "1/7,1/11,1/13", "--lambda", "auto",
          "--count", "2"], {
            "eggbeater_lam_120120_1.csv": "15b1d7b6d2e035f5541a8d202072df02a48a13cedb69f2c58a752904e3fba168",
            "eggbeater_lam_120120_1.json": "5b3855aff44c43f2a38737687d940ae95162d494086a7e9b68306007e8f9eea9",
            "eggbeater_lam_240240_1.csv": "9740e950febeb6ef0e14833de11440bedbd68e4fe6b01ed87daf89d9be593628",
            "eggbeater_lam_240240_1.json": "5973f2c10fc37596943931e44a40a143767b1f40bd5e96e2058e8d27718fb18d",
        }),
        (["--p", "5", "--mu", "1/3,1/7,1/13,1/19,1/29", "--nu", "1/2,1/5,1/11,1/17,1/23",
          "--lambda", "auto", "--count", "1"], {
            "eggbeater_lam_25878772920_1.csv": "7ae23573861cc03da532e9503bfe17e3af9ee853ffcac09715264bb2a324f121",
            "eggbeater_lam_25878772920_1.json": "d0c45ffb732e55a63540d5d1c307cc2f800c11854d790e7f1aedf5e5349c614b",
        }),
    ], ids=["p2-fixture", "p3-count2", "p5"])
    def test_output_bytes(self, tmp_path, capsys, argv, digests):
        assert main(["eggbeater", *argv, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""
        written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert written == digests


class TestGaps:
    def test_min_gap_scales_linearly(self):
        lams = lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 2)
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
        lams = lambda_lattice(4, FIXTURE_P2_MU, FIXTURE_P2_NU, 3)
        assert lams == [F(840), F(1680), F(2520)]

    def test_halves_lattice(self):
        # denominators 2 everywhere: multiples of 8
        assert lambda_lattice(4, (F(1, 2),), (F(1, 2),), 2) == [F(8), F(16)]

    def test_count_zero(self):
        assert lambda_lattice(4, FIXTURE_P2_MU, FIXTURE_P2_NU, 0) == []

    def test_windings_are_positive_integers(self):
        lam = lambda_lattice(4, FIXTURE_P2_MU, FIXTURE_P2_NU, 1)[0]
        params = fixture_params(lam)
        for j in range(2):
            assert params.winding_m(j) >= 1
            assert params.winding_n(j) >= 1


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
            assert r.det != 0

