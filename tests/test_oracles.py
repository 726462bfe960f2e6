import math

import numpy as np
import pytest

from grwsim import ConfigError, Region
from grwsim.cli import main
from grwsim.oracles import (
    VerdictProbabilities,
    compute_reference_values,
    find_flash_reference,
    flash_sequence_probability,
    grid_branch_crosscheck,
    load_reference_values,
    one_step_posterior_oracle,
)

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


class TestCrosscheck:
    def test_compliant_cases_agree(self):
        result = grid_branch_crosscheck(n_cases=30, seed=13)
        assert result.compliant
        assert result.n_cases == 30
        assert result.max_discrepancy < 1e-6
        assert all(s >= 10.0 for s in result.separations)

    def test_noncompliant_flagged_not_asserted(self):
        result = grid_branch_crosscheck(
            n_cases=5, seed=14, separation_range=(1.0, 2.0)
        )
        assert not result.compliant
        assert math.isfinite(result.max_discrepancy)  # reported, whatever it is

    def test_symmetric_midpoint_case(self):
        # X exactly between equal branches: both paths give (0.5, 0.5)
        from grwsim.dynamics import branch_collapse_update
        from grwsim.state import BranchState

        state = BranchState.from_weights(("a", "b"), (0.5, 0.5), [[0.0], [12.0]])
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


class TestReferenceFile:
    def test_packaged_reference_loads(self):
        data = load_reference_values()
        assert data["format"] == 1
        assert len(data["flash_sequence"]) >= 1
        assert len(data["one_step"]) >= 1
        assert data["crosscheck"]["max_discrepancy"] < 1e-6

    def test_packaged_flash_entries_precise(self):
        # the acceptance comparison needs oracle SE below 5e-4
        data = load_reference_values()
        for entry in data["flash_sequence"]:
            assert entry["se_inside"] <= 5e-4
            assert entry["n_sequences"] >= 1_000_000

    def test_packaged_one_step_entries_conserve_weights(self):
        data = load_reference_values()
        for entry in data["one_step"]:
            assert np.allclose(entry["expected_posterior"], entry["weights"], atol=1e-8)
            assert abs(entry["density_integral"] - 1.0) < 1e-10

    def test_find_flash_reference(self):
        data = load_reference_values()
        hit = find_flash_reference(
            data, (0.99, 0.01), (0.0, 30.0), 1.0, 100, BOX, 0.99
        )
        assert hit is not None
        miss = find_flash_reference(
            data, (0.42, 0.58), (0.0, 30.0), 1.0, 100, BOX, 0.99
        )
        assert miss is None

    def test_write_and_reload_roundtrip(self, tmp_path):
        path = tmp_path / "ref.json"
        assert main(["oracle", "--out", str(path), "--seed", "99", "--sequences", "4000"]) == 0
        loaded = load_reference_values(path)
        assert loaded == compute_reference_values(seed=99, n_sequences=4000)
        assert loaded["seed"] == 99

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 999}')
        with pytest.raises(ConfigError):
            load_reference_values(path)
