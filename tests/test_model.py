import random
import re
import time
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
from egb.equivariant import kunneth_stabilize, mu_p_of_family
from egb.field import cyclo_zeta
from egb import persistence
from egb.model import (
    ModelInput,
    bounds_report,
    model_input_from_records,
    paper_mu_lower_bound,
)
from egb.persistence import Bar, Barcode, INF, barcode_of_module, is_inf

from conftest import (
    births, build_model, count_calls, eigenspace_family_oracle, eigenspace_module_oracle,
    part_modules,
)


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
                family = eigenspace_family_oracle(model_input)
                assert list(family) == sorted({d for _, d in tuples})
                for r, barcode in family.items():
                    model = build_model(ModelInput(p, tuple(t for t in tuples if t[1] == r)))
                    assert model.barcodes == (barcode,) * (p - 1)
                    fixed = eigenspace_module_oracle(model, cyclo_zeta(p, 0))
                    assert barcode_of_module(fixed) == barcode

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one tuple"):
            bounds_report(ModelInput(2, ()))

    def test_duplicate_actions_rejected(self):
        with pytest.raises(ValueError):
            ModelInput(2, ((F(0), 0), (F(0), 0)))


class TestPaperBound:
    def test_substitution_example(self):
        model_input = ModelInput(2, ((F(0), 0), (F(8), 0)))
        assert paper_mu_lower_bound(model_input, F(1, 8)) == F(3, 2)

    def test_single_tuple_gives_zero(self):
        model_input = ModelInput(2, ((F(0), 0),))
        assert paper_mu_lower_bound(model_input) == 0

    @pytest.mark.parametrize("eps", [F(0), F(1)])
    def test_eps_endpoints_rejected(self, eps):
        model_input = ModelInput(2, ((F(0), 0), (F(8), 0)))
        with pytest.raises(ValueError, match=r"^eps_frac must lie in \(0, 1/2\]$"):
            paper_mu_lower_bound(model_input, eps)

    def test_grows_linearly_in_lambda(self):
        lams = list(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 2))
        bounds = []
        for lam in lams:
            model_input, _ = fixture_model(lam)
            bounds.append(paper_mu_lower_bound(model_input))
        slope1 = bounds[0] / lams[0]
        slope2 = bounds[1] / lams[1]
        assert bounds[0] > 0
        assert abs(slope1 - slope2) <= F(1, 20) * max(slope1, slope2)

    def test_model_mu_dominates_paper_bound(self, rng):
        for _ in range(15):
            n = rng.randint(2, 6)
            actions = rng.sample(range(-40, 40), n)
            model_input = ModelInput(2, tuple((F(a), 0) for a in actions))
            model_mu = mu_p_of_family(eigenspace_family_oracle(model_input), 2)
            bound = paper_mu_lower_bound(model_input)
            assert is_inf(model_mu) or model_mu >= bound

    def test_witness_multiplicity_adds_over_degrees(self):
        # at a stored gap of 17 the shrunk witness starts at 99 * 17 / 200 > 8,
        # so the ray born at 8 in degree 1 adds to the one born at 0 in degree 0
        model_input = ModelInput(2, ((F(0), 0), (F(8), 1)))
        assert paper_mu_lower_bound(model_input) == F(49, 25)
        object.__setattr__(model_input, "gap", F(17))
        with pytest.raises(AssertionError, match="multiplicity 1"):
            paper_mu_lower_bound(model_input)


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


class TestClosedForm:
    """The report's model spread against the graded route of
    `mu_p_of_family` over the stabilized `eigenspace_family_oracle`."""

    @staticmethod
    def graded(model_input, betti):
        family = kunneth_stabilize(eigenspace_family_oracle(model_input), betti)
        return family, mu_p_of_family(family, model_input.p)

    def test_the_maximum_from_a_degree_above_the_lowest(self):
        # degree 0: (1 - 0)/2 and (2 - 1)/2; degree 1: (5 - 3)/2 and (20 - 5)/2
        model_input = ModelInput(3, tuple((F(a), 0) for a in (0, 1, 2))
                                 + tuple((F(a), 1) for a in (3, 5, 20)))
        for betti in ([1], [1, 0, 4]):
            report = bounds_report(model_input, stabilize=betti)
            assert report.mu_p_model == self.graded(model_input, betti)[1] == F(15, 2)

    def test_a_zero_betti_entry_empties_a_degree(self):
        # degree 0: (4 - 0)/2; degree 2 counts 2, 3, 5, 6 at 0, 1, 4, 7:
        # (4 - 1)/2 and (7 - 4)/2; degree 4 counts 2, 4; degrees 1 and 3 empty
        model_input = ModelInput(2, ((F(0), 0), (F(4), 0), (F(1), 2), (F(7), 2)))
        family, mu = self.graded(model_input, [1, 0, 2])
        assert sorted(family) == [0, 2, 4]
        assert bounds_report(model_input, stabilize=[1, 0, 2]).mu_p_model == mu == 2

    @pytest.mark.parametrize("betti", [[], [2, 1], [0], [1, -1], [1, 2.0], [1, True], [1, 0, -3]])
    def test_bad_betti_vectors_raise_the_stabilization_errors(self, betti):
        model_input = ModelInput(3, ((F(0), 0), (F(4), 1)))
        with pytest.raises(ValueError) as stabilized:
            kunneth_stabilize(eigenspace_family_oracle(model_input), betti)
        with pytest.raises(ValueError, match=f"^{re.escape(str(stabilized.value))}$"):
            bounds_report(model_input, stabilize=betti)

    @pytest.mark.parametrize("n, finite", [(4 ** 7, False), (7 * 2340, True)],
                             ids=["16384", "16380"])
    def test_p7_at_the_solver_size(self, n, finite):
        # 16,384 tuples give a +inf spread whatever the degrees: every degree
        # total divisible by 7 needs every degree's count divisible by 7; a
        # multiple of 7 in each of the three degrees gives a finite one
        rng = random.Random(f"p7:{n}")
        actions = rng.sample(range(-10 ** 12, 10 ** 12), n)
        tuples = tuple((F(a, 10 ** 6 + i % 97), i % 3) for i, a in enumerate(actions))
        start = time.perf_counter()
        model_input = ModelInput(7, tuples)
        report = bounds_report(model_input, stabilize=[1, 2, 1])
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        mu = self.graded(model_input, [1, 2, 1])[1]
        assert (report.mu_p_model, type(report.mu_p_model)) == (mu, type(mu))
        assert is_inf(mu) != finite


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
    """`paper_mu_lower_bound` checks that the witness (a + eps g/2,
    a + g - eps g/2], a the least action and g the stored gap, and so its
    2c-shrink inside it, lie at or after a and before the second action,
    where the model's multiplicity is 1."""

    @pytest.mark.parametrize("eps", [F(1, 100), F(1, 5), F(1, 2)])
    def test_a_gap_twice_the_least_is_refused(self, eps):
        model_input = ModelInput(3, ((F(3), 0), (F(5), 1), (F(9), 0)))
        assert model_input.gap == 2
        assert paper_mu_lower_bound(model_input, eps) == 2 * (1 - 2 * eps) / 4
        object.__setattr__(model_input, "gap", F(4))
        with pytest.raises(AssertionError, match="^witness interval does not have model "
                                                 "multiplicity 1$"):
            paper_mu_lower_bound(model_input, eps)
        with pytest.raises(AssertionError, match="does not have model multiplicity 1"):
            bounds_report(model_input, eps_frac=eps)

    def test_eps_above_one_half_is_a_negative_shrink(self):
        model_input = ModelInput(2, ((F(0), 0), (F(8), 0)))
        assert paper_mu_lower_bound(model_input, F(1, 2)) == 0
        with pytest.raises(ValueError, match=r"^eps_frac must lie in \(0, 1/2\]$"):
            paper_mu_lower_bound(model_input, F(999999, 10 ** 6))


class TestNoResort:
    """The report reads the model off the actions `ModelInput` sorted: it
    sorts no barcode, as it builds no `Bar` and no `Barcode`."""

    def test_report_builds_no_barcode_through_the_constructor(self, monkeypatch):
        _, records = validation_threshold(5, 4, *param_search(5, 4))
        tuples = tuple((r.action, i % 2) for i, r in enumerate(records[:10]))
        model_input = ModelInput(5, tuples)
        calls = [count_calls(monkeypatch, cls, "__init__") for cls in (Bar, Barcode)]
        calls.append(count_calls(monkeypatch, persistence, "_canonical"))
        for stabilize in (None, [1, 2, 1], [1, 0, 5]):
            bounds_report(model_input, stabilize=stabilize)
        assert calls == [[], [], []]
        kunneth_stabilize(eigenspace_family_oracle(model_input), [1, 2, 1])
        assert all(calls)
