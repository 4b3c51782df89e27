"""Acceptance criteria, one test per criterion, tolerances pinned inline.

Run `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import random
import time
from fractions import Fraction as F

from egb.bottleneck import bottleneck
from egb.eggbeater import (
    FIXTURE_L,
    FIXTURE_P2_MU,
    FIXTURE_P2_NU,
    enumerate_records,
    fixture_params,
    lambda_lattice,
    min_action_gap,
    solve_2d,
    solve_signed,
    validation_threshold,
)
from egb.equivariant import (
    cyclic_permutation_matrix,
    cyclic_tuple_module,
    full_power_check,
    mu_p,
    w_hat,
    w_hat_from_quotient,
)
from egb.field import CyclotomicField, Matrix, cyclo_zeta
from egb.freegroup import canonical_itinerary, conjugate_eq, itinerary_to_word, self_intersection
from egb.model import bounds_report, model_input_from_records
from egb.persistence import Bar, Barcode, INF, is_inf, multiplicity

from conftest import (
    SEED,
    alpha_word,
    asymptotic_limit,
    births,
    conjugate_module,
    construct_full_power,
    eps_bar,
    finite_deaths,
    min_leading_gap,
    perturb_and_check_lipschitz,
    phi_block,
    primitive_roots,
    rand_barcode,
    record_det,
    random_zp_module,
    shrink,
    w_hat_scan_oracle,
    zp_direct_sum,
)
from test_bottleneck import brute_force_bottleneck


def report(line: str) -> None:
    print(f"\n{line}")


def fixture_records(lam):
    return enumerate_records(fixture_params(lam))


LATTICE = list(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 4))


def test_criterion_01_eggbeater_count():
    """Exactly 2^{2p} = 16 valid records at the 3 smallest lattice lambdas
    above the empirical threshold, exact forward-map oracle, < 10 s each."""
    threshold, _ = validation_threshold(2, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU)
    lams = [lam for lam in LATTICE if lam >= threshold][:3]
    assert len(lams) == 3
    for lam in lams:
        t0 = time.monotonic()
        params = fixture_params(lam)
        records = fixture_records(lam)
        assert len(records) == 16
        assert all(r.valid for r in records)
        for r in records:
            point = r.point
            cur = point
            for j in range(2):
                cur = phi_block(cur[0], cur[1], params.mu[j], params.nu[j], lam)
            assert cur == point  # zero residual, exact rational closure
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
    report(f"CRITERION 01 PASS: 16/16 valid at lambda in {[str(l) for l in lams]}, exact closure, < 10 s per lambda")


def test_criterion_02_nondegeneracy_and_asymptotics():
    """det != 0 everywhere; det/lambda^4 within 5% of -eps_bar at the largest
    lambda; lambda * distance-to-limit bounded over a doubling sequence."""
    doubling = [LATTICE[0], LATTICE[1], LATTICE[3]]  # 840, 1680, 3360
    mu, nu = FIXTURE_P2_MU, FIXTURE_P2_NU
    for lam in doubling:
        for r in fixture_records(lam):
            assert record_det(r) != 0
    largest = doubling[-1]
    for r in fixture_records(largest):
        target = F(-eps_bar(r.signs))
        ratio = record_det(r) / largest ** 4
        assert abs(ratio - target) <= F(1, 20) * abs(target)
    from egb.eggbeater import sign_vectors

    for signs in sign_vectors(2):
        limit = asymptotic_limit(signs, mu, nu)
        scaled = []
        for lam in doubling:
            rec = solve_signed(signs, fixture_params(lam))
            assert rec.valid
            err = max(abs(rec.point[0] - limit[0]), abs(rec.point[1] - limit[1]))
            scaled.append(lam * err)
        for a, b in zip(scaled, scaled[1:]):
            assert a > 0 and b > 0
            assert F(2, 5) <= b / a <= F(5, 2)
    report("CRITERION 02 PASS: det nonzero, det/lambda^4 within 5% of -eps_bar, lambda*asymptotic residual bounded (ratios in [0.4, 2.5])")


def test_criterion_03_action_gaps():
    """min gap / lambda agrees across two lattice lambdas within 5% and
    matches the exact minimum coefficient-sum difference up to O(1)/lambda."""
    lams = LATTICE[:2]
    slopes = []
    for lam in lams:
        records = fixture_records(lam)
        assert all(r.valid for r in records)
        gap = min_action_gap(records)
        slopes.append(gap / lam)
        coeff_gap = min_leading_gap(2, FIXTURE_P2_MU, FIXTURE_P2_NU) / 2
        assert abs(gap - coeff_gap * lam) <= 12  # O(1) correction
    assert abs(slopes[0] - slopes[1]) <= F(1, 20) * max(slopes)
    report(f"CRITERION 03 PASS: gap/lambda slopes {[str(s) for s in slopes]} agree within 5% and match the coefficient gap up to O(1)/lambda")


def test_criterion_04_two_dimensional_variant():
    """mu=1/2, nu=1/4, lambda=160: exactly the four points (+-1/2, +-3/4)
    with distinct exact actions equal to the closed form, zero residual."""
    mu, nu, lam = F(1, 2), F(1, 4), F(160)
    records = solve_2d(mu, nu, lam)
    assert {r.point for r in records} == {
        (F(1, 2), F(3, 4)), (F(1, 2), F(-3, 4)),
        (F(-1, 2), F(3, 4)), (F(-1, 2), F(-3, 4)),
    }
    actions = set()
    for r in records:
        e1, e2 = r.signs
        expected = lam / 2 * (e1 * (1 - mu) ** 2 - e2 * (1 - nu) ** 2)
        assert r.action == expected
        assert phi_block(r.point[0], r.point[1], mu, nu, lam) == r.point
        actions.add(r.action)
    assert len(actions) == 4
    report("CRITERION 04 PASS: 2D variant gives (+-1/2, +-3/4) with 4 distinct exact actions and zero residual")


def test_criterion_05_w_hat_equals_beta():
    """w_hat = beta(L) exactly on >= 200 random modules per p in {2,3,5},
    and both equal the pair-scan oracle, within 60 s."""
    t0 = time.monotonic()
    counts = {}
    for p, blocks in ((2, 4), (3, 3), (5, 2)):
        rng = random.Random(SEED + p)
        n = 0
        while n < 200:
            m = random_zp_module(rng, p, max_blocks=blocks)
            a, b, c = w_hat(m), w_hat_from_quotient(m), w_hat_scan_oracle(m)
            if is_inf(a) or is_inf(b) or is_inf(c):
                assert is_inf(a) and is_inf(b) and is_inf(c)
            else:
                assert a == b == c
            n += 1
        counts[p] = n
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(f"CRITERION 05 PASS: w_hat == beta(L) == scan on {counts} random modules in {elapsed:.1f} s (< 60 s)")


def test_criterion_06_full_power_obstruction():
    """Full-power fixtures: all candidate multiplicities divisible by p and
    mu_p = 0; single-tuple modules have mu_p > 0."""
    from egb.persistence import FinitePersistenceModule as FPM

    rng = random.Random(SEED + 17)
    checked = 0
    for p in (2, 3):
        field = CyclotomicField(p)
        n = p * p
        seed_mod = FPM(field, (F(0),), (0, n), (Matrix.zeros(field, n, 0),))
        root = (Matrix.zeros(field, 0, 0), cyclic_permutation_matrix(field, n))
        fixtures = [construct_full_power(seed_mod, root)]
        fixtures.append(zp_direct_sum(fixtures[0], fixtures[0]))
        fixtures.append(conjugate_module(rng, fixtures[0]))
        ident_root = tuple(Matrix.identity(field, d) for d in seed_mod.dims)
        fixtures.append(construct_full_power(seed_mod, ident_root))
        for fixture in fixtures:
            for zeta in primitive_roots(p):
                assert full_power_check(fixture, zeta) == "PASS"
            assert mu_p(fixture) == 0
            checked += 1
    singles = 0
    for p in (2, 3, 5):
        for _ in range(5):
            birth = F(rng.randint(-10, 10), rng.randint(1, 3))
            death = birth + F(rng.randint(1, 12), rng.randint(1, 2))
            tup = cyclic_tuple_module(birth, p, death=death)
            value = mu_p(tup)
            assert value > 0
            assert full_power_check(tup, cyclo_zeta(p)) == "FAIL"
            singles += 1
    report(f"CRITERION 06 PASS: {checked} full-power fixtures obstructed (mu_p = 0), {singles} single tuples detected (mu_p > 0)")


def test_criterion_07_mu_lipschitz():
    """Shift-perturbation Lipschitz bound on 100 random (module, delta) pairs
    per p in {2, 3}."""
    for p in (2, 3):
        rng = random.Random(SEED + 100 + p)
        n = 0
        while n < 100:
            m = random_zp_module(rng, p, max_blocks=3)
            spectrum = m.base.spectrum
            diameter = spectrum[-1] - spectrum[0] if len(spectrum) > 1 else F(1)
            delta = F(rng.randint(0, 16), 16) * max(diameter, F(1))
            assert perturb_and_check_lipschitz(m, delta, rng=rng)
            n += 1
    report("CRITERION 07 PASS: |mu_p(V) - mu_p(W)| <= delta on 100 random shift pairs per p in {2, 3}")


def test_criterion_08_bottleneck_oracle():
    """bottleneck equals exhaustive matching on 500 random pairs with <= 5
    bars; infinite-ray mismatch gives +inf."""
    rng = random.Random(SEED + 8)
    n = 0
    while n < 500:
        b = rand_barcode(rng, max_bars=3, max_mult=2)
        c = rand_barcode(rng, max_bars=3, max_mult=2)
        if len(b.bars()) > 5 or len(c.bars()) > 5:
            continue
        expected = brute_force_bottleneck(b, c)
        got = bottleneck(b, c)
        if is_inf(expected):
            assert is_inf(got)
        else:
            assert got == expected
        n += 1
    assert is_inf(bottleneck(Barcode.of([(Bar(0, INF), 1)]), Barcode.empty()))
    report("CRITERION 08 PASS: bottleneck matches brute force on 500 random pairs; infinite-ray mismatch is +inf")


def _sample_in_open_interval(rng, lo: F, hi: F) -> F:
    grid = 32
    k = rng.randint(1, grid - 1)
    return lo + (hi - lo) * F(k, grid)


def _perturb_barcode(rng, barcode: Barcode, c: F) -> Barcode:
    entries = []
    for bar, mult, deg in barcode.items:
        for _ in range(mult):
            s1 = _sample_in_open_interval(rng, -c, c)
            birth = bar.birth + s1
            if bar.finite:
                lo = max(-c, birth - bar.death)  # keep the bar nonempty
                s2 = _sample_in_open_interval(rng, lo, c)
                death = bar.death + s2
            else:
                death = INF
            entries.append((Bar(birth, death), 1, deg))
    return Barcode.of(entries)


def test_criterion_09_multiplicity_stability():
    """m(C, I^c) = l on 500 randomized (B, perturbation, I, c) instances
    whenever m(B, I) = m(B, I^{2c}) = l and length(I) > 4c."""
    rng = random.Random(SEED + 9)
    instances = 0
    while instances < 500:
        b = rand_barcode(rng, max_bars=4)
        if b.is_empty():
            continue
        c = F(rng.randint(1, 12), 16)
        rights = finite_deaths(b) + [INF]
        candidates = []
        for x in births(b):
            for y in rights:
                if is_inf(y) or y - x > 4 * c:
                    candidates.append(Bar(x, y))
        rng.shuffle(candidates)
        for interval in candidates[:3]:
            l = multiplicity(b, interval)
            if multiplicity(b, shrink(interval, 2 * c)) != l:
                continue
            perturbed = _perturb_barcode(rng, b, c)
            assert multiplicity(perturbed, shrink(interval, c)) == l
            instances += 1
            if instances >= 500:
                break
    report("CRITERION 09 PASS: multiplicity stability held on 500 randomized instances")


def test_criterion_10_bounds_pipeline():
    """pow_bound = paper bound / 2 > 0, linear in lambda through the origin
    within 5%, invariant under betti (1,2,1) stabilization."""
    lams = LATTICE[:2]
    reports = []
    for lam in lams:
        records = fixture_records(lam)
        assert all(r.valid for r in records)
        model_input = model_input_from_records(records, 2)
        rep = bounds_report(model_input, lam=lam)
        assert rep.pow_bound == rep.mu_p_paper_bound / 2
        assert rep.pow_bound > 0
        stab = bounds_report(model_input, lam=lam, stabilize=[1, 2, 1])
        assert stab.pow_bound == rep.pow_bound
        assert stab.mu_p_model == rep.mu_p_model
        assert stab.aut_bound == rep.aut_bound
        reports.append(rep)
    s1 = reports[0].pow_bound / lams[0]
    s2 = reports[1].pow_bound / lams[1]
    assert abs(s1 - s2) <= F(1, 20) * max(s1, s2)
    report(f"CRITERION 10 PASS: pow bounds {[str(r.pow_bound) for r in reports]} scale linearly (slopes within 5%) and survive (1,2,1) stabilization")


def test_criterion_11_free_group_classification():
    """Canonical itinerary gives alpha; cyclic shifts are conjugate, exponent
    permutations are not; si(2,3) = 8."""
    ms, ns = [2, 3], [1, 4]
    alpha = alpha_word(ms, ns)
    assert itinerary_to_word(canonical_itinerary(ms, ns)) == alpha
    p = len(ms)
    for j in range(1, p + 1):
        shifted = alpha_word(ms[-j:] + ms[:-j], ns[-j:] + ns[:-j])
        assert conjugate_eq(alpha, shifted)
    assert not conjugate_eq(alpha, alpha_word([3, 2], [1, 4]))
    assert not conjugate_eq(alpha, alpha_word([2, 3], [4, 1]))
    assert self_intersection(2, 3) == 8
    report("CRITERION 11 PASS: itinerary -> alpha, cyclic shifts conjugate, permuted exponents not, si(2,3) = 8")
