from fractions import Fraction as F

import pytest

from egb.eggbeater import (
    FIXTURE_L,
    FIXTURE_P2_MU,
    FIXTURE_P2_NU,
    enumerate_records,
    fixture_params,
    lambda_lattice,
    min_action_gap,
    param_search,
    validation_threshold,
)
from egb.equivariant import mu_p_of_family
from egb.field import cyclo_zeta
from egb.model import (
    ModelInput,
    bounds_report,
    eigenspace_family,
    model_input_from_records,
    paper_mu_lower_bound,
)
from egb.persistence import Bar, Barcode, INF, barcode_of_module, is_inf

from conftest import births, build_model, count_calls, eigenspace_module_oracle, part_modules


def fixture_model(lam=None):
    lam = lam or next(iter(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 1)))
    records = enumerate_records(fixture_params(lam))
    assert all(r.valid for r in records)
    return model_input_from_records(records, 2), lam


class TestBuildModel:
    def test_single_tuple_barcode(self):
        model = build_model(ModelInput(3, ((F(0), 0),)))
        bc = model.barcodes[0]
        assert bc == Barcode.of([(Bar(0, INF), 1)])

    def test_sixteen_tuples(self):
        model_input, _ = fixture_model()
        model = build_model(model_input)
        bc = model.barcodes[0]
        assert len(bc.bars()) == 16
        assert bc.infinite_count() == 16
        assert births(bc) == [a for a, _ in model_input.tuples]

    def test_eigen_dimension_counts_tuples(self):
        model_input, _ = fixture_model()
        model = build_model(model_input)
        # contrapositive of divisibility: count = #tuples
        assert part_modules(model)[0].dims[-1] == 16

    def test_closed_form_family_matches_dense_oracle(self, rng):
        for p in (2, 3, 5):
            for n in range(1, 6):
                actions = rng.sample(range(-40, 40), n)
                tuples = tuple((F(a, 3), rng.randint(0, 2)) for a in actions)
                model_input = ModelInput(p, tuples)
                family = eigenspace_family(model_input)
                assert list(family) == sorted({d for _, d in tuples})
                for r, barcode in family.items():
                    model = build_model(ModelInput(p, tuple(t for t in tuples if t[1] == r)))
                    assert model.barcodes == (barcode,) * (p - 1)
                    fixed = eigenspace_module_oracle(model, cyclo_zeta(p, 0))
                    assert barcode_of_module(fixed) == barcode

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one tuple"):
            eigenspace_family(ModelInput(2, ()))

    def test_duplicate_actions_rejected(self):
        with pytest.raises(ValueError):
            ModelInput(2, ((F(0), 0), (F(0), 0)))


class TestPaperBound:
    def test_substitution_example(self):
        model_input = ModelInput(2, ((F(0), 0), (F(8), 0)))
        assert paper_mu_lower_bound(model_input, F(1, 8), family=eigenspace_family(model_input)) \
            == F(3, 2)

    def test_single_tuple_gives_zero(self):
        model_input = ModelInput(2, ((F(0), 0),))
        assert paper_mu_lower_bound(model_input, family=eigenspace_family(model_input)) == 0

    @pytest.mark.parametrize("eps", [F(0), F(1)])
    def test_eps_endpoints_rejected(self, eps):
        model_input = ModelInput(2, ((F(0), 0), (F(8), 0)))
        with pytest.raises(ValueError, match=r"^eps_frac must lie in \(0, 1/2\]$"):
            paper_mu_lower_bound(model_input, eps, family=eigenspace_family(model_input))

    def test_grows_linearly_in_lambda(self):
        lams = list(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 2))
        bounds = []
        for lam in lams:
            model_input, _ = fixture_model(lam)
            bounds.append(paper_mu_lower_bound(model_input, family=eigenspace_family(model_input)))
        slope1 = bounds[0] / lams[0]
        slope2 = bounds[1] / lams[1]
        assert bounds[0] > 0
        assert abs(slope1 - slope2) <= F(1, 20) * max(slope1, slope2)

    def test_model_mu_dominates_paper_bound(self, rng):
        for _ in range(15):
            n = rng.randint(2, 6)
            actions = rng.sample(range(-40, 40), n)
            model_input = ModelInput(2, tuple((F(a), 0) for a in actions))
            family = eigenspace_family(model_input)
            model_mu = mu_p_of_family(family, 2)
            bound = paper_mu_lower_bound(model_input, family=family)
            assert is_inf(model_mu) or model_mu >= bound


    def test_witness_multiplicity_adds_over_degrees(self):
        # the same bar in two degrees gives the witness multiplicity 2
        model_input = ModelInput(2, ((F(0), 0), (F(8), 0)))
        ray = Barcode.of([(Bar(0, INF), 1)])
        assert paper_mu_lower_bound(model_input, family={0: ray, 1: Barcode.empty()}) == F(49, 25)
        with pytest.raises(AssertionError, match="multiplicity 1"):
            paper_mu_lower_bound(model_input, family={0: ray, 1: ray})


class TestBoundsReport:
    def test_fixture_report(self):
        model_input, lam = fixture_model()
        report = bounds_report(model_input, lam=lam)
        assert report.pow_bound == report.mu_p_paper_bound / 2
        assert report.pow_bound > 0
        assert report.aut_bound == report.gap / 2
        assert not is_inf(report.mu_p_model)

    def test_linear_scaling_two_lambdas(self):
        lams = list(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 2))
        reports = []
        for lam in lams:
            model_input, _ = fixture_model(lam)
            reports.append(bounds_report(model_input, lam=lam))
        s1 = reports[0].pow_bound / lams[0]
        s2 = reports[1].pow_bound / lams[1]
        assert abs(s1 - s2) <= F(1, 20) * max(s1, s2)

    def test_stabilization_invariance(self):
        model_input, lam = fixture_model()
        plain = bounds_report(model_input, lam=lam)
        torus = bounds_report(model_input, lam=lam, stabilize=[1, 2, 1])
        assert plain.mu_p_model == torus.mu_p_model
        assert plain.pow_bound == torus.pow_bound
        assert plain.aut_bound == torus.aut_bound

    def test_stabilization_invariance_random_betti(self, rng):
        model_input, lam = fixture_model()
        for _ in range(5):
            betti = [1] + [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
            stab = bounds_report(model_input, lam=lam, stabilize=betti)
            plain = bounds_report(model_input, lam=lam)
            assert stab.mu_p_model == plain.mu_p_model

    def test_full_power_style_input_reports_zero_pow_path(self):
        # single tuple: the gap bound is vacuous, pow bound 0
        report = bounds_report(ModelInput(2, ((F(3), 0),)))
        assert report.pow_bound == 0
        assert report.mu_p_paper_bound == 0

    def test_k_one_bounds_by_the_whole_gap(self):
        model_input, lam = fixture_model()
        report = bounds_report(model_input, k=1, lam=lam)
        assert report.k == 1
        assert report.aut_bound == report.gap == model_input.gap

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_one_tuple_reports_zero_bounds(self, p):
        # fewer than two tuples: the gap is +inf and both gap bounds are vacuous
        report = bounds_report(ModelInput(p, ((F(3), 0),)), k=1)
        assert is_inf(report.gap)
        assert (report.aut_bound, report.mu_p_paper_bound) == (0, 0)

    def test_shuffled_tuples_give_the_same_input(self, rng):
        """The tuples are stored sorted by action, so the order they come in
        changes neither the input nor its report."""
        fixture, lam = fixture_model()
        inputs = [fixture]
        for p in (2, 3, 5):
            actions = rng.sample(range(-400, 400), rng.randint(1, 12))
            inputs.append(ModelInput(p, tuple((F(a, 7), rng.randint(0, 2)) for a in actions)))
        for model_input in inputs:
            tuples = list(model_input.tuples)
            assert [a for a, _ in tuples] == sorted(a for a, _ in tuples)
            rng.shuffle(tuples)
            shuffled = ModelInput(model_input.p, tuple(tuples))
            assert shuffled == model_input
            assert bounds_report(shuffled, lam=lam) == bounds_report(model_input, lam=lam)

    def test_bad_eps_rejected(self):
        model_input, _ = fixture_model()
        with pytest.raises(ValueError):
            bounds_report(model_input, eps_frac=F(3, 2))

    def test_p5_from_the_solver_records(self):
        # the 1,024 records at the validation threshold of the searched p = 5
        # coefficients: 4^5 = 4 (mod 5) simple rays give an infinite model spread
        lam, records = validation_threshold(5, 4, *param_search(5, 4))
        assert len(records) == 4 ** 5
        report = bounds_report(model_input_from_records(records, 5), lam=lam)
        assert is_inf(report.mu_p_model)
        assert report.gap == min_action_gap(records)
        assert report.mu_p_paper_bound == report.gap * F(49, 50) / 4  # the witness check passed


class TestNoFractionHashing:
    """The bounds path merges and sorts actions on integer keys: building the
    input and its report hashes no Fraction."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_model_input_and_report(self, p, monkeypatch):
        _, records = validation_threshold(p, 4, *param_search(p, 4))
        tuples = tuple((r.action, i % 3) for i, r in enumerate(records))
        hashes = count_calls(monkeypatch, F, "__hash__")
        for stabilize in (None, [1, 2, 1]):
            report = bounds_report(ModelInput(p, tuples), stabilize=stabilize)
            assert report.gap == min_action_gap(records)
        assert hashes == []


class TestWitnessEnds:
    """`paper_mu_lower_bound` checks the witness (a + eps g/2, a + g - eps g/2]
    and its 2c-shrink (a + (1 - eps) g/2, a + (1 + eps) g/2], a the least
    action and g the gap.  An extra finite bar equal to either interval
    contains it, so the check must refuse; a witness with an end moved
    outwards would escape that bar."""

    @pytest.mark.parametrize("eps", [F(1, 100), F(1, 5)])
    @pytest.mark.parametrize("shrunk", [False, True], ids=["witness", "shrunk"])
    def test_an_extra_bar_on_the_witness_is_refused(self, eps, shrunk):
        model_input = ModelInput(3, ((F(3), 0), (F(5), 1), (F(9), 0)))
        a, g = F(3), F(2)
        assert paper_mu_lower_bound(model_input, eps, family=eigenspace_family(model_input)) \
            == g * (1 - 2 * eps) / 4
        half = (1 - eps) * g / 2 if shrunk else eps * g / 2
        family = {**eigenspace_family(model_input), 2: Barcode.of([Bar(a + half, a + g - half)])}
        with pytest.raises(AssertionError, match="does not have model multiplicity 1"):
            paper_mu_lower_bound(model_input, eps, family=family)

    @pytest.mark.parametrize("eps", [F(1, 100), F(1, 5)])
    def test_a_bar_ending_inside_the_shrunk_witness_is_not_counted(self, eps):
        # (a, a + g/2] contains neither interval: it ends before the shrunk
        # end a + (1 + eps) g/2, and contains the point a + (1 - eps) g/2
        model_input = ModelInput(3, ((F(3), 0), (F(5), 1), (F(9), 0)))
        a, g = F(3), F(2)
        family = {**eigenspace_family(model_input), 2: Barcode.of([Bar(a, a + g / 2)])}
        assert paper_mu_lower_bound(model_input, eps, family=family) == g * (1 - 2 * eps) / 4

    def test_eps_above_one_half_is_a_negative_shrink(self):
        model_input = ModelInput(2, ((F(0), 0), (F(8), 0)))
        family = eigenspace_family(model_input)
        assert paper_mu_lower_bound(model_input, F(1, 2), family=family) == 0
        with pytest.raises(ValueError, match=r"^eps_frac must lie in \(0, 1/2\]$"):
            paper_mu_lower_bound(model_input, F(999999, 10 ** 6), family=family)


class TestNoResort:
    """`eigenspace_family` keeps the order `ModelInput` sorted, and the
    stabilization scales it, so a report on one degree sorts no barcode."""

    def test_report_builds_no_barcode_through_the_constructor(self, monkeypatch):
        _, records = validation_threshold(5, 4, *param_search(5, 4))
        tuples = tuple((r.action, 0) for r in records[:8])
        calls = count_calls(monkeypatch, Barcode, "__post_init__")
        for stabilize in (None, [1, 2, 1]):
            bounds_report(ModelInput(5, tuples), stabilize=stabilize)
        assert calls == []
