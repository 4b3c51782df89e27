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
from egb.equivariant import eigenspace_module, mu_p_of_family
from egb.field import cyclo_zeta, primitive_roots
from egb.model import (
    ModelInput,
    bounds_report,
    eigenspace_family,
    model_input_from_records,
    paper_mu_lower_bound,
)
from egb.persistence import Bar, Barcode, INF, barcode_of_module, is_inf

from conftest import births, build_model


def fixture_model(lam=None):
    lams = lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 1)
    lam = lam or lams[0]
    records = enumerate_records(fixture_params(lam))
    assert all(r.valid for r in records)
    return model_input_from_records(records, 2), lam


class TestBuildModel:
    def test_single_tuple_barcode(self):
        model = build_model(ModelInput(3, ((F(0), 0),)))
        bc = barcode_of_module(eigenspace_module(model, cyclo_zeta(3)))
        assert bc == Barcode.of([(Bar(0, INF), 1)])

    def test_sixteen_tuples(self):
        model_input, _ = fixture_model()
        model = build_model(model_input)
        bc = barcode_of_module(eigenspace_module(model, cyclo_zeta(2)))
        assert len(bc.bars()) == 16
        assert bc.infinite_count() == 16
        assert births(bc) == model_input.actions()

    def test_eigen_dimension_counts_tuples(self):
        model_input, _ = fixture_model()
        model = build_model(model_input)
        eigen = eigenspace_module(model, cyclo_zeta(2))
        assert eigen.dims[-1] == 16  # contrapositive of divisibility: count = #tuples

    def test_closed_form_family_matches_dense_oracle(self, rng):
        for p in (2, 3, 5):
            roots = [cyclo_zeta(p, 0)] + primitive_roots(p)
            for n in range(1, 6):
                actions = rng.sample(range(-40, 40), n)
                tuples = tuple((F(a, 3), rng.randint(0, 2)) for a in actions)
                model_input = ModelInput(p, tuples)
                family = eigenspace_family(model_input)
                assert list(family) == sorted({d for _, d in tuples})
                for r, barcode in family.items():
                    model = build_model(ModelInput(p, tuple(t for t in tuples if t[1] == r)))
                    for zeta in roots:
                        assert barcode_of_module(eigenspace_module(model, zeta)) == barcode

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one tuple"):
            eigenspace_family(ModelInput(2, ()))

    def test_duplicate_actions_rejected(self):
        with pytest.raises(ValueError):
            ModelInput(2, ((F(0), 0), (F(0), 0)))


class TestPaperBound:
    def test_substitution_example(self):
        model_input = ModelInput(2, ((F(0), 0), (F(8), 0)))
        assert paper_mu_lower_bound(model_input, F(1, 8)) == F(3, 2)

    def test_single_tuple_gives_zero(self):
        assert paper_mu_lower_bound(ModelInput(2, ((F(0), 0),))) == 0

    def test_grows_linearly_in_lambda(self):
        lams = lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 2)
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
            family = eigenspace_family(model_input)
            model_mu = mu_p_of_family(family, 2)
            bound = paper_mu_lower_bound(model_input)
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
        lams = lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 2)
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
