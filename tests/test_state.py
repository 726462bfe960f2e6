import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grwsim import (
    BranchState,
    BranchSystems,
    ConfigError,
    GridSpec,
    GridWaveFunction,
    Packet,
    Region,
    grw0_view,
    make_grid_wavefunction,
    marginal_density,
    norm_squared,
)
from grwsim.state import _logsumexp, _normalized_log_weights


class TestGridSpec:
    def test_basic_geometry(self, spec512):
        assert spec512.dx == pytest.approx(0.1)
        x = spec512.points()
        assert x.size == 512
        assert x[0] == pytest.approx(-25.6 + 0.05)  # cell centers
        assert np.allclose(np.diff(x), spec512.dx)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=1.0, x_max=0.0, points_per_axis=16),
            dict(x_min=0.0, x_max=1.0, points_per_axis=1),
            dict(x_min=1.0, x_max=1.0, points_per_axis=16),
            dict(x_min=0.0, x_max=math.nan, points_per_axis=16),
            # past the cell cap; GridSpec only validates, so nothing is allocated
            dict(x_min=0.0, x_max=1.0, points_per_axis=2**24 + 1),
            dict(x_min=-math.inf, x_max=1.0, points_per_axis=16),
            dict(x_min=0.0, x_max=math.inf, points_per_axis=16),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GridSpec(**kwargs)

    def test_points_cached_read_only(self, spec512):
        x = spec512.points()
        assert spec512.points() is x
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_specs_keep_their_own_points(self):
        specs = [GridSpec(-1.0, 1.0, 8), GridSpec(-1.0, 1.0, 16), GridSpec(-2.0, 1.0, 8),
                 GridSpec(-1.0, 3.0, 8)]
        for spec in specs:
            expected = spec.x_min + (np.arange(spec.points_per_axis) + 0.5) * spec.dx
            assert np.array_equal(spec.points(), expected)
        assert len({id(spec.points()) for spec in specs}) == len(specs)


class TestMakeGridWavefunction:
    def test_single_packet_any_coefficient_normalized(self, spec512):
        for coeff in (1.0, -3.5, 0.2 - 2.0j, 17j):
            psi = make_grid_wavefunction(spec512, [Packet(0.0, 1.0, coeff)])
            assert norm_squared(psi) == pytest.approx(1.0, abs=1e-12)

    def test_two_packet_left_half_mass(self, two_packet_state, spec512):
        # oracle: direct Riemann sum of the constructed |psi|^2, no marginal code
        x = spec512.points()
        density = np.abs(two_packet_state.amplitudes) ** 2
        left_mass = float(density[x < 0.0].sum() * spec512.dx)
        assert abs(left_mass - 0.9) < 1e-6

    def test_pair_norm(self, two_packet_state):
        assert norm_squared(two_packet_state) == pytest.approx(1.0, abs=1e-10)

    def test_empty_packet_list_rejected(self, spec512):
        with pytest.raises(ConfigError):
            make_grid_wavefunction(spec512, [])

    def test_all_zero_coefficients_rejected(self, spec512):
        with pytest.raises(ConfigError):
            make_grid_wavefunction(spec512, [Packet(0.0, 1.0, 0.0)])

    def test_subcell_width_rejected(self, spec512):
        with pytest.raises(ConfigError):
            make_grid_wavefunction(spec512, [Packet(0.0, 1.5 * spec512.dx, 1.0)])

    def test_center_outside_domain_rejected(self, spec512):
        with pytest.raises(ConfigError):
            make_grid_wavefunction(spec512, [Packet(30.0, 1.0, 1.0)])

    def test_scaling_is_quadratic(self, two_packet_state):
        doubled = GridWaveFunction(two_packet_state.spec, 2.0 * two_packet_state.amplitudes)
        assert norm_squared(doubled) == pytest.approx(4.0, abs=1e-10)


class TestMarginalDensity:
    def test_single_particle_is_density_itself(self, two_packet_state):
        marg = marginal_density(two_packet_state, 0)
        direct = np.abs(two_packet_state.amplitudes) ** 2
        assert np.allclose(marg, direct, atol=1e-14)

    def test_marginal_integrates_to_norm(self, two_packet_state, spec512):
        marg = marginal_density(two_packet_state, 0)
        assert marg.min() >= 0.0
        assert float(marg.sum() * spec512.dx) == pytest.approx(
            norm_squared(two_packet_state), abs=1e-8
        )

    def test_out_of_range_particle_rejected(self, two_packet_state):
        with pytest.raises(ConfigError):
            marginal_density(two_packet_state, 1)


class TestBranchState:
    def test_construction_echo(self):
        state = BranchState.from_weights(
            ("inside", "outside"), (0.9, 0.1), [0.0, 30.0]
        )
        assert state.labels == ("inside", "outside")
        assert state.weights.tolist() == [pytest.approx(0.9), pytest.approx(0.1)]

    def test_single_branch_degenerate(self):
        state = BranchState.from_weights(("only",), (1.0,), [2.0])
        assert state.labels == ("only",)
        assert state.weights.tolist() == [pytest.approx(1.0)]
        assert state.separation() == np.inf

    def test_weight_sum_enforced(self):
        with pytest.raises(ConfigError):
            BranchState.from_weights(("a", "b"), (0.6, 0.3), [0.0, 1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            BranchState.from_weights(("a", "b"), (1.2, -0.2), [0.0, 1.0])

    @pytest.mark.parametrize(
        "anchors",
        [
            [[0.0], [30.0]],  # one column per particle: a branch system is one particle
            [0.0],
            [0.0, 30.0, 60.0],
        ],
    )
    def test_one_anchor_per_branch(self, anchors):
        with pytest.raises(ConfigError):
            BranchState.from_weights(("a", "b"), (0.5, 0.5), anchors)

    def test_separation_min_over_pairs(self):
        state = BranchState.from_weights(("a", "b", "c"), (0.5, 0.3, 0.2), [40.0, 0.0, 43.0])
        # the closest pair is a and c, which are not neighbours in the list
        assert state.separation() == pytest.approx(3.0)

    def test_zero_weight_allowed(self):
        state = BranchState.from_weights(("a", "b"), (1.0, 0.0), [0.0, 20.0])
        assert state.weights[1] == 0.0
        assert state.log_weights[1] == -np.inf


class TestGridBranchAgreement:
    def test_two_packet_masses_match_branch_weights(self):
        # separation 20 sigma, width sigma/100: marginal branch masses must
        # equal the BranchState weights to 1e-6
        sigma = 1.0
        spec = GridSpec(-12.0, 32.0, 2**14)
        psi = make_grid_wavefunction(
            spec,
            [
                Packet(0.0, sigma / 100.0, np.sqrt(0.73)),
                Packet(20.0, sigma / 100.0, np.sqrt(0.27)),
            ],
        )
        x = spec.points()
        marg = marginal_density(psi, 0)
        left = float(marg[x < 10.0].sum() * spec.dx)
        right = float(marg[x >= 10.0].sum() * spec.dx)
        assert abs(left - 0.73) < 1e-6
        assert abs(right - 0.27) < 1e-6


class TestRegion:
    def test_contains_is_closed(self):
        box = Region(-1.0, 2.0)
        assert box.contains(-1.0) and box.contains(2.0) and box.contains(0.0)
        assert not box.contains(-1.0001) and not box.contains(2.0001)

    def test_degenerate_rejected(self):
        bounds = [(1.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)]
        for lower, upper in bounds:
            with pytest.raises(ConfigError):
                Region(lower, upper)


@given(
    raw=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=6)
)
@settings(max_examples=60, deadline=None)
def test_branch_weights_always_sum_to_one(raw):
    weights = np.asarray(raw) / np.sum(raw)
    anchors = [30.0 * i for i in range(len(raw))]
    state = BranchState.from_weights(
        tuple(f"b{i}" for i in range(len(raw))), weights, anchors
    )
    (pairs,) = grw0_view(BranchSystems([state]))
    assert abs(sum(w for _, w in pairs) - 1.0) < 1e-12


@given(
    c1=st.floats(min_value=0.05, max_value=0.95),
    width=st.floats(min_value=0.5, max_value=2.0),
    center=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=25, deadline=None)
def test_constructed_states_are_normalized(c1, width, center):
    spec = GridSpec(-25.6, 25.6, 256)
    psi = make_grid_wavefunction(
        spec,
        [
            Packet(center, width, np.sqrt(c1)),
            Packet(-center, width, 1j * np.sqrt(1.0 - c1)),
        ],
    )
    assert abs(norm_squared(psi) - 1.0) < 1e-10


# ties, -inf entries and magnitudes far apart are where the arithmetic of a
# log-sum-exp can differ; the copy must match SciPy bit for bit on them
_LOG_WEIGHTS = st.lists(
    st.one_of(
        st.floats(min_value=-1e3, max_value=50.0),
        st.sampled_from([0.0, -1.0, -745.0, -math.inf]),
    ),
    min_size=1,
    max_size=8,
)


@given(values=_LOG_WEIGHTS)
@settings(max_examples=300, deadline=None)
def test_logsumexp_matches_scipy_bitwise(values):
    from scipy.special import logsumexp

    a = np.array(values)
    assert np.float64(_logsumexp(a)).tobytes() == np.float64(logsumexp(a)).tobytes()


def test_all_zero_log_weights_rejected():
    with pytest.raises(ConfigError, match="branch weights sum to zero"):
        _normalized_log_weights(np.array([-math.inf, -math.inf]))
