import math

import numpy as np
import pytest

from flash_mc import VerdictProbabilities, flash_sequence_probability
from grwsim import (
    BranchState,
    ConfigError,
    GrwParams,
    History,
    Ontology,
    Region,
    ScenarioConfig,
    ScenarioKind,
    branch_collapse_update,
    sample_collapse_center,
)
from grwsim.ensemble import first_window_inside_probability
from grwsim.oracles import grid_branch_crosscheck
from quad_oracle import one_step_posterior_oracle

BOX = Region(-10.0, 10.0)


class TestOneStepOracle:
    def test_density_integral_is_one(self):
        r = one_step_posterior_oracle((0.7, 0.3), (0.0, 10.0), 1.0)
        assert abs(r.density_integral - 1.0) < 1e-10

    def test_expected_posterior_equals_prior(self):
        # the martingale identity by quadrature; this IS the reference
        r = one_step_posterior_oracle((0.7, 0.3), (0.0, 10.0), 1.0)
        assert abs(r.expected_posterior[0] - 0.7) < 1e-8
        assert abs(r.expected_posterior[1] - 0.3) < 1e-8

    def test_three_branch_case(self):
        weights = (0.2, 0.3, 0.5)
        anchors = (-12.0, 0.0, 15.0)
        r = one_step_posterior_oracle(weights, anchors, 1.0)
        assert np.allclose(r.expected_posterior, weights, atol=1e-8)
        mean = sum(w * a for w, a in zip(weights, anchors))
        var = sum(w * (a**2 + 0.5) for w, a in zip(weights, anchors)) - mean**2
        assert r.density_mean == pytest.approx(mean, abs=1e-8)
        assert r.density_variance == pytest.approx(var, abs=1e-6)

    def test_single_branch_posterior_exact(self):
        r = one_step_posterior_oracle((1.0,), (3.0,), 2.0)
        assert r.expected_posterior[0] == pytest.approx(1.0, abs=1e-10)
        assert r.density_mean == pytest.approx(3.0, abs=1e-8)
        assert r.density_variance == pytest.approx(2.0, abs=1e-8)  # sigma^2/2

    def test_branch_cap(self):
        weights = [1.0 / 9.0] * 9
        weights[0] += 1.0 - sum(weights)
        with pytest.raises(ConfigError):
            one_step_posterior_oracle(weights, list(range(0, 90, 10)), 1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            one_step_posterior_oracle((0.5, 0.5), (0.0,), 1.0)

    def test_engine_collapse_matches_quadrature(self):
        # the engine's center draws and posterior updates, averaged over
        # seeded draws, against the quadrature moments and expected posterior
        weights = (0.2, 0.3, 0.5)
        anchors = (-12.0, 0.0, 15.0)
        r = one_step_posterior_oracle(weights, anchors, 1.0)
        state = BranchState.from_weights(("a", "b", "c"), weights, anchors)
        rng = np.random.default_rng(18)
        n = 20_000
        centers = np.array([sample_collapse_center(state, 0, 1.0, rng) for _ in range(n)])
        posteriors = np.array([branch_collapse_update(state, 0, x, 1.0).weights for x in centers])

        dev = centers - centers.mean()
        var = float(np.mean(dev**2))
        se_var = math.sqrt((np.mean(dev**4) - var**2) / n)
        assert abs(centers.mean() - r.density_mean) < 4.0 * math.sqrt(var / n)
        assert abs(var - r.density_variance) < 4.0 * se_var
        se_post = posteriors.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(posteriors.mean(axis=0) - r.expected_posterior) < 4.0 * se_post)


class TestCrosscheck:
    def test_compliant_cases_agree(self):
        assert grid_branch_crosscheck(n_cases=30, seed=13) < 1e-6

    def test_symmetric_midpoint_case(self):
        # X exactly between equal branches: both paths give (0.5, 0.5)
        state = BranchState.from_weights(("a", "b"), (0.5, 0.5), [0.0, 12.0])
        post = branch_collapse_update(state, 0, 6.0, 1.0)
        assert np.allclose(post.weights, (0.5, 0.5), atol=1e-12)


class TestFlashSequence:
    def test_degenerate_weights_always_inside(self):
        probs = flash_sequence_probability(
            (1.0, 0.0), 1.0, (0.0, 30.0), 20, BOX, n_sequences=2000, seed=5
        )
        assert probs.p_inside == 1.0
        assert probs.p_outside == 0.0

    def test_zero_flashes_undefined(self):
        probs = flash_sequence_probability(
            (0.9, 0.1), 1.0, (0.0, 30.0), 0, BOX, n_sequences=1000, seed=5
        )
        assert probs == VerdictProbabilities(0.0, 0.0, 0.0, 1.0, 0.0, 1000)

    def test_flash_cap(self):
        with pytest.raises(ConfigError):
            flash_sequence_probability((0.9, 0.1), 1.0, (0.0, 30.0), 1001, BOX)

    def test_small_run_matches_expectation(self):
        # at 30-sigma separation the first flash decides the branch, so the
        # Inside probability is within MC error of the initial weight
        n = 20_000
        probs = flash_sequence_probability(
            (0.9, 0.1), 1.0, (0.0, 30.0), 50, BOX, n_sequences=n, seed=6
        )
        assert abs(probs.p_inside - 0.9) < 4.0 * math.sqrt(0.09 / n)
        assert probs.p_inside + probs.p_outside + probs.p_partial == pytest.approx(1.0)

    def test_reproducible(self):
        a = flash_sequence_probability((0.9, 0.1), 1.0, (0.0, 30.0), 10, BOX, n_sequences=5000, seed=7)
        b = flash_sequence_probability((0.9, 0.1), 1.0, (0.0, 30.0), 10, BOX, n_sequences=5000, seed=7)
        assert a == b


class TestExactFirstWindowLaw:
    # cases where Partial verdicts take 15-36%; T = 200 fills every window
    @pytest.mark.parametrize(
        "c1_sq,anchors,k,theta_f",
        [
            (0.8, (8.8, 11.0), 5, 0.99),
            (0.6, (9.0, 11.0), 10, 0.9),
            (0.4, (9.6, 10.6), 8, 0.75),
        ],
    )
    def test_matches_flash_sequence_sampler(self, c1_sq, anchors, k, theta_f):
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            c1_sq=c1_sq,
            ontology=Ontology.GRWF,
            history=History.FRESH_PREPARATION,
            window_flashes=k,
            theta_f=theta_f,
            inside_anchor=anchors[0],
            outside_anchor=anchors[1],
            params=GrwParams(total_time=200.0),
        )
        exact = first_window_inside_probability(config)
        mc = flash_sequence_probability(
            (c1_sq, 1.0 - c1_sq), 1.0, anchors, k, BOX, theta_f=theta_f,
            n_sequences=200_000, seed=31,
        )
        assert 0.15 <= mc.p_partial <= 0.36
        assert abs(mc.p_inside - exact) < 4.0 * mc.se_inside
