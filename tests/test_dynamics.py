import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grwsim import (
    BranchState,
    Ontology,
    ConfigError,
    GridSpec,
    GrwParams,
    Hamiltonian,
    History,
    NumericsError,
    Packet,
    RngStream,
    ScenarioConfig,
    ScenarioKind,
    ZeroProbabilityCollapseError,
    apply_collapse_grid,
    branch_collapse_update,
    build_scenario,
    collapse_center_density,
    evolve_unitary,
    flashes_of,
    make_grid_wavefunction,
    marginal_density,
    norm_squared,
    run_trajectory,
    sample_collapse_center,
    sample_waiting_time,
)
import grwsim.dynamics as dynamics
from grwsim.dynamics import BranchSystems, CollapseEvent, TrajectoryRecord, _grid_summary, replay_state_at
from grwsim.ensemble import _flash_columns, _merged_chi2


def _rng(seed=0):
    return RngStream(seed).generator()


def _nearest_cells(centers, spec):
    """Index of each center's nearest cell, centers beyond the grid in its edge cells."""
    idx = np.rint((centers - spec.points()[0]) / spec.dx)
    return np.clip(idx, 0, spec.points_per_axis - 1).astype(int)


class TestProcessParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lambda_eff=math.inf),  # no run with an infinite or nan rate or horizon ends
            dict(lambda_eff=math.nan),
            dict(sigma=math.inf),
            dict(total_time=math.inf),
            dict(total_time=math.nan),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GrwParams(**kwargs)

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(ConfigError):
            Hamiltonian("free", mass)


class TestWaitingTimes:
    def test_mean_single_particle(self):
        rng = _rng(1)
        draws = np.array([sample_waiting_time(1, 1.0, rng) for _ in range(1_000_000)])
        assert abs(draws.mean() - 1.0) < 0.004  # 4 standard errors of the mean

    def test_mean_rate_additivity(self):
        rng = _rng(2)
        draws = np.array([sample_waiting_time(10, 1.0, rng) for _ in range(1_000_000)])
        assert abs(draws.mean() - 0.1) < 0.0004

    def test_deterministic_given_stream(self):
        a = [sample_waiting_time(3, 2.0, _rng(7)) for _ in range(1)]
        b = [sample_waiting_time(3, 2.0, _rng(7)) for _ in range(1)]
        assert a == b

    def test_invalid_particle_count(self):
        with pytest.raises(ConfigError):
            sample_waiting_time(0, 1.0, _rng())


class TestCollapseCenterDensity:
    def test_delta_packet_gives_half_variance_gaussian(self):
        # analytic convolution oracle: a near-delta marginal convolved with
        # g^2 is Normal(0, sigma^2/2 + width^2); at width = sigma/200 that is
        # within 1e-5 of Normal(0, 1/2) pointwise
        sigma, width = 1.0, 1.0 / 200.0
        spec = GridSpec(-20.0, 20.0, 2**14, 1)
        psi = make_grid_wavefunction(spec, [Packet((0.0,), width, 1.0)])
        density = collapse_center_density(psi, 0, sigma)
        x = spec.points()
        target = np.exp(-(x**2) / (2.0 * 0.5)) / np.sqrt(2.0 * np.pi * 0.5)
        for probe in (0.0, -0.5, 0.5, -1.0, 1.0):
            i = int(np.argmin(np.abs(x - probe)))
            assert abs(density[i] - target[i]) < 1e-4

    def test_completeness(self, two_packet_state, spec512):
        density = collapse_center_density(two_packet_state, 0, 1.0)
        assert density.min() >= 0.0
        assert abs(float(density.sum() * spec512.dx) - 1.0) < 1e-6

    def test_two_packet_halfline_masses(self, two_packet_state, spec512):
        # split-integral oracle: each half-line carries one branch's weight
        density = collapse_center_density(two_packet_state, 0, 1.0)
        x = spec512.points()
        left = float(density[x < 0.0].sum() * spec512.dx)
        assert abs(left - 0.9) < 1e-6
        assert abs((1.0 - left) - 0.1) < 1e-6


class TestApplyCollapseGrid:
    def test_symmetric_collapse_keeps_mean(self):
        spec = GridSpec(-20.0, 20.0, 2**13, 1)
        psi = make_grid_wavefunction(spec, [Packet((0.0,), 0.01, 1.0)])
        post = apply_collapse_grid(psi, 0, 0.0, 1.0)
        marg = marginal_density(post, 0)
        mean = float((marg * spec.points()).sum() * spec.dx)
        assert abs(mean) < spec.dx

    def test_norm_restored(self, two_packet_state):
        post = apply_collapse_grid(two_packet_state, 0, -10.0, 1.0)
        assert norm_squared(post) == pytest.approx(1.0, abs=1e-12)

    def test_equal_branches_collapse_kills_far_branch(self):
        # posterior factor oracle: exp(-(a_i - X)^2 / sigma^2) and renormalize
        spec = GridSpec(-12.0, 22.0, 2**14, 1)
        psi = make_grid_wavefunction(
            spec,
            [
                Packet((0.0,), 0.01, np.sqrt(0.5)),
                Packet((10.0,), 0.01, np.sqrt(0.5)),
            ],
        )
        post = apply_collapse_grid(psi, 0, 0.0, 1.0)
        marg = marginal_density(post, 0)
        x = spec.points()
        far_mass = float(marg[x > 5.0].sum() * spec.dx)
        assert far_mass < 1e-40  # exact value is ~exp(-100)

    @pytest.mark.parametrize("n,points,particle", [(1, 512, 0), (2, 64, 0), (2, 64, 1), (3, 16, 2)])
    def test_matches_two_pass_formula_bitwise(self, n, points, particle):
        # the collapse as written with a throwaway state for its norm
        spec = GridSpec(-12.0, 14.0, points, n)
        psi = make_grid_wavefunction(spec, [Packet((-3.0,) * n, 4.0, 0.8), Packet((4.0,) * n, 3.5, 0.6j)])
        for center in (-3.2, 0.0, 4.7, 15.0):
            x = spec.points()
            g = (np.pi * 1.3**2) ** (-0.25) * np.exp(-((x - center) ** 2) / (2.0 * 1.3**2))
            shape = [1] * n
            shape[particle] = -1
            new_amps = psi.amplitudes * g.reshape(shape)
            norm = math.sqrt(norm_squared(dynamics.GridWaveFunction(spec, new_amps)))
            post = apply_collapse_grid(psi, particle, center, 1.3)
            assert np.array_equal(post.amplitudes, new_amps / norm)

    def test_far_center_raises_zero_probability(self, two_packet_state):
        with pytest.raises(ZeroProbabilityCollapseError):
            apply_collapse_grid(two_packet_state, 0, 400.0, 1.0)

    def test_bad_particle_rejected(self, two_packet_state):
        with pytest.raises(ConfigError):
            apply_collapse_grid(two_packet_state, 2, 0.0, 1.0)


class TestBranchCollapseUpdate:
    def test_midpoint_center_is_symmetric(self):
        state = BranchState.from_weights(("a", "b"), (0.5, 0.5), [[0.0], [10.0]])
        post = branch_collapse_update(state, 0, 5.0, 1.0)
        assert np.allclose(post.weights, (0.5, 0.5), atol=1e-12)

    def test_posterior_formula(self):
        # direct evaluation: w1' = 0.7 / (0.7 + 0.3 exp(-100))
        state = BranchState.from_weights(("a", "b"), (0.7, 0.3), [[0.0], [10.0]])
        post = branch_collapse_update(state, 0, 0.0, 1.0)
        expected_w2 = 0.3 * math.exp(-100.0) / (0.7 + 0.3 * math.exp(-100.0))
        assert post.weights[1] == pytest.approx(expected_w2, rel=1e-9)
        assert post.weights[1] < 1e-40

    def test_cross_check_against_grid(self):
        # same collapse through both models at a center between the branches
        sigma, d, x_center = 1.0, 15.0, 6.0
        state = BranchState.from_weights(("a", "b"), (0.6, 0.4), [[0.0], [d]])
        post_branch = branch_collapse_update(state, 0, x_center, sigma).weights

        spec = GridSpec(-10.0, d + 10.0, 2**14, 1)
        psi = make_grid_wavefunction(
            spec,
            [
                Packet((0.0,), sigma / 100.0, np.sqrt(0.6)),
                Packet((d,), sigma / 100.0, np.sqrt(0.4)),
            ],
        )
        post_grid = apply_collapse_grid(psi, 0, x_center, sigma)
        marg = marginal_density(post_grid, 0)
        x = spec.points()
        left = float(marg[x < d / 2.0].sum() * spec.dx)
        assert abs(left - post_branch[0]) < 1e-6

    def test_zero_weight_is_absorbing(self):
        state = BranchState.from_weights(("a", "b"), (1.0, 0.0), [[0.0], [20.0]])
        post = branch_collapse_update(state, 0, 17.3, 1.0)
        assert post.weights[1] == 0.0

    def test_no_extinction_after_many_updates(self):
        state = BranchState.from_weights(("a", "b"), (0.7, 0.3), [[0.0], [20.0]])
        for _ in range(200):
            state = branch_collapse_update(state, 0, 0.0, 1.0)
        assert np.all(np.isfinite(state.log_weights))  # loser survives in log space

    def test_overflowing_center_raises(self):
        state = BranchState.from_weights(("a", "b"), (0.5, 0.5), [[0.0], [20.0]])
        with pytest.raises(NumericsError):
            branch_collapse_update(state, 0, 1e200, 1.0)

    def test_close_branches_warn(self):
        state = BranchState.from_weights(("a", "b"), (0.5, 0.5), [[0.0], [2.0]])
        with pytest.warns(UserWarning, match="separation"):
            branch_collapse_update(state, 0, 1.0, 1.0)


class TestSampleCollapseCenter:
    def test_single_branch_variance(self):
        state = BranchState.from_weights(("only",), (1.0,), [[0.0]])
        rng = _rng(11)
        draws = np.array(
            [sample_collapse_center(state, 0, 1.0, rng) for _ in range(1_000_000)]
        )
        assert abs(draws.var() - 0.5) < 0.01

    def test_mixture_fractions(self):
        state = BranchState.from_weights(("a", "b"), (0.9, 0.1), [[-20.0], [20.0]])
        rng = _rng(12)
        n = 100_000
        draws = np.array([sample_collapse_center(state, 0, 1.0, rng) for _ in range(n)])
        frac = float(np.mean(draws < 0.0))
        se = math.sqrt(0.9 * 0.1 / n)
        assert abs(frac - 0.9) < 4.0 * se

    def test_particle_out_of_range(self):
        state = BranchState.from_weights(("a", "b"), (0.5, 0.5), [[0.0], [20.0]])
        for particle in (-1, 1):
            with pytest.raises(ConfigError):
                sample_collapse_center(state, particle, 1.0, _rng(14))

    def test_grid_sampling_matches_density(self, two_packet_state, spec512):
        density = collapse_center_density(two_packet_state, 0, 1.0)
        probs = density * spec512.dx
        probs = probs / probs.sum()
        rng = _rng(13)
        n = 100_000
        draws = np.array(
            [sample_collapse_center(two_packet_state, 0, 1.0, rng) for _ in range(n)]
        )
        counts = np.bincount(_nearest_cells(draws, spec512), minlength=512)
        tv = 0.5 * float(np.abs(counts / n - probs).sum())
        assert tv < 0.02  # the continuous center law, read in the grid's cells

    def test_grid_centers_leave_the_cell_centers(self, two_packet_state, spec512):
        rng = _rng(15)
        draws = np.array([sample_collapse_center(two_packet_state, 0, 1.0, rng) for _ in range(100)])
        offsets = (draws - spec512.points()[0]) / spec512.dx
        assert np.all(np.abs(offsets - np.rint(offsets)) > 1e-9)

    def test_grid_sampler_law_chi_square(self):
        # 10^5 draws on criterion 7's state against the tabulated density,
        # cell by cell; a sampler whose noise is 1.3 times too wide fails
        spec = GridSpec(-25.6, 25.6, 512, 1)
        psi = make_grid_wavefunction(
            spec, [Packet((-6.0,), 1.0, math.sqrt(0.6)), Packet((6.0,), 1.5, math.sqrt(0.4))]
        )
        probs = collapse_center_density(psi, 0, 1.0) * spec.dx
        probs = probs / probs.sum()
        n = 100_000

        def p_value(draw, seed):
            rng = _rng(seed)
            draws = np.array([draw(psi, 0, 1.0, rng) for _ in range(n)])
            observed = np.bincount(_nearest_cells(draws, spec), minlength=512)
            p, bins = _merged_chi2(probs * n, observed, 10, "grid_center_chi2")
            assert bins > 100
            return p

        def too_wide(state, particle, sigma, rng):
            cdf = np.cumsum(marginal_density(state, particle))
            idx = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), cdf.size - 1)
            return float(rng.normal(state.spec.points()[idx], 1.3 * sigma / math.sqrt(2.0)))

        assert p_value(sample_collapse_center, 1007) >= 0.001
        assert p_value(too_wide, 1007) < 1e-6

    def test_deterministic(self, two_packet_state):
        a = sample_collapse_center(two_packet_state, 0, 1.0, _rng(5))
        b = sample_collapse_center(two_packet_state, 0, 1.0, _rng(5))
        assert a == b


class TestEvolveUnitary:
    def test_zero_hamiltonian_identity(self, two_packet_state):
        out = evolve_unitary(two_packet_state, 5.0, Hamiltonian("zero"))
        assert out is two_packet_state

    def test_zero_dt_identity(self, two_packet_state):
        out = evolve_unitary(two_packet_state, 0.0, Hamiltonian("free", 1.0))
        assert out is two_packet_state

    def test_free_packet_spreading(self):
        # analytic law: var(t) = w^2 + (t / (2 m w))^2 for a width-w packet
        spec = GridSpec(-40.0, 40.0, 2**11, 1)
        w, m, t = 1.0, 1.0, 2.0
        psi = make_grid_wavefunction(spec, [Packet((0.0,), w, 1.0)])
        out = evolve_unitary(psi, t, Hamiltonian("free", m))
        marg = marginal_density(out, 0)
        x = spec.points()
        mean = float((marg * x).sum() * spec.dx)
        var = float((marg * (x - mean) ** 2).sum() * spec.dx)
        expected = w**2 + (t / (2.0 * m * w)) ** 2
        assert abs(var - expected) / expected < 0.01

    def test_free_norm_preserved(self, two_packet_state):
        out = evolve_unitary(two_packet_state, 3.0, Hamiltonian("free", 1.0))
        assert abs(norm_squared(out) - 1.0) < 1e-10

    def test_negative_dt_rejected(self, two_packet_state):
        with pytest.raises(ConfigError):
            evolve_unitary(two_packet_state, -1.0, Hamiltonian("zero"))

    @pytest.mark.parametrize("n,points", [(1, 512), (2, 64), (3, 32), (1, 511)])
    def test_matches_uncached_formula_bitwise(self, n, points):
        # the free step as written before its constants were cached: fftfreq,
        # the phase in one expression, fftn and a per-axis phase product
        spec = GridSpec(-12.0, 14.0, points, n)
        packets = [Packet((-3.0,) * n, 2.0, 0.8), Packet((4.0,) * n, 2.5, 0.6j)]
        psi = make_grid_wavefunction(spec, packets)
        for dt in (1e-3, 0.37, 2.5):
            for mass in (0.5, 1.0, 5.0):
                k = 2.0 * np.pi * np.fft.fftfreq(points, d=spec.dx)
                phase_1d = np.exp(-1j * k**2 * dt / (2.0 * mass))
                amps_k = np.fft.fftn(psi.amplitudes)
                for axis in range(n):
                    shape = [1] * n
                    shape[axis] = -1
                    amps_k = amps_k * phase_1d.reshape(shape)
                expected = np.fft.ifftn(amps_k)
                out = evolve_unitary(psi, dt, Hamiltonian("free", mass))
                assert np.array_equal(out.amplitudes, expected)

    def test_cached_wave_numbers_read_only(self, spec512):
        rate = dynamics._free_rates(spec512)[0]
        with pytest.raises(ValueError):
            rate[0] = 1.0
        assert dynamics._free_rates(spec512)[0] is rate

    @pytest.mark.parametrize("points", [512, 511, 2, 3])
    def test_distinct_k_squared_gather_bitwise(self, points):
        # fftfreq puts -m at points - m, so the phase needs one exp per distinct k^2
        spec = GridSpec(-12.0, 14.0, points, 1)
        rate, index = dynamics._free_rates(spec)
        k = 2.0 * np.pi * np.fft.fftfreq(points, d=spec.dx)
        assert index.max() == points // 2
        assert np.array_equal(rate[index], -1j * k**2)
        with pytest.raises(ValueError):
            index[0] = 1
        assert dynamics._free_rates(spec)[1] is index

    def test_specs_keep_their_own_wave_numbers(self):
        specs = [GridSpec(-8.0, 8.0, 64), GridSpec(-8.0, 8.0, 128), GridSpec(-4.0, 8.0, 64),
                 GridSpec(-8.0, 8.0, 64, 2)]
        for spec in specs:
            k = 2.0 * np.pi * np.fft.fftfreq(spec.points_per_axis, d=spec.dx)
            rate, index = dynamics._free_rates(spec)
            assert np.array_equal(rate[index], -1j * k**2)
        rates = [dynamics._free_rates(spec)[0] for spec in specs]
        assert len({id(r) for r in rates}) == len(specs)


def _branch_state(c1=0.7):
    return BranchState.from_weights(("in", "out"), (c1, 1.0 - c1), [[0.0], [30.0]])


def _branch_pair(c1=0.7):
    return BranchSystems([_branch_state(c1)])


class TestRunTrajectory:
    def test_poisson_event_count(self):
        params = GrwParams(lambda_eff=1.0, sigma=1.0, total_time=10.0)
        counts = [
            run_trajectory(_branch_pair(), params, RngStream(100, i)).num_events
            for i in range(2000)
        ]
        se = math.sqrt(10.0 / 2000.0)
        assert abs(np.mean(counts) - 10.0) < 4.0 * se

    def test_deterministic_event_logs(self):
        params = GrwParams(total_time=20.0)
        rec_a = run_trajectory(_branch_pair(), params, RngStream(55, 3))
        rec_b = run_trajectory(_branch_pair(), params, RngStream(55, 3))
        assert rec_a.events == rec_b.events
        assert rec_a.status == rec_b.status == "completed"

    def test_times_strictly_increasing(self):
        params = GrwParams(total_time=50.0)
        rec = run_trajectory(_branch_pair(), params, RngStream(56, 0))
        times = [e.time for e in rec.events]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(0.0 < t <= 50.0 for t in times)

    def test_selection_matches_initial_weight(self):
        # martingale limit oracle: winner frequency equals w1(0)
        params = GrwParams(total_time=50.0)
        n = 2000
        wins = 0
        converged = 0
        for i in range(n):
            rec = run_trajectory(_branch_pair(0.7), params, RngStream(200, i))
            w = rec.final_state.systems[0].weights
            converged += max(w) > 0.99
            wins += int(np.argmax(w) == 0)
        assert converged / n >= 0.99
        se = math.sqrt(0.7 * 0.3 / n)
        assert abs(wins / n - 0.7) < 4.0 * se

    def test_close_initial_branches_warn(self):
        # 2 sigma apart: the warning names the caller of run_trajectory
        state = BranchSystems([BranchState.from_weights(("a", "b"), (0.5, 0.5), [[0.0], [2.0]])])
        with pytest.warns(UserWarning, match="separation") as caught:
            run_trajectory(state, GrwParams(total_time=1.0), RngStream(0, 0))
        assert caught[0].filename == __file__

    def test_grid_trajectory_norms(self, two_packet_state):
        params = GrwParams(total_time=5.0)
        rec = run_trajectory(two_packet_state, params, RngStream(88, 0))
        assert rec.status == "completed"
        assert abs(norm_squared(rec.final_state) - 1.0) < 1e-10

    def test_free_hamiltonian_needs_grid(self):
        params = GrwParams(hamiltonian=Hamiltonian("free", 1.0))
        with pytest.raises(ConfigError):
            run_trajectory(_branch_pair(), params, RngStream(0, 0))

    def test_marble_systems_independent(self):
        systems = BranchSystems([_branch_state(0.9) for _ in range(4)])
        params = GrwParams(total_time=30.0)
        rec = run_trajectory(systems, params, RngStream(91, 0))
        assert rec.final_state.num_particles == 4
        particles = {e.particle for e in rec.events}
        assert particles <= {0, 1, 2, 3}
        for s in rec.final_state.systems:
            assert max(s.weights) > 0.99

    def test_replay_reconstructs_final_state(self):
        params = GrwParams(total_time=20.0)
        initial = _branch_pair(0.6)
        rec = run_trajectory(initial, params, RngStream(92, 0))
        replayed = replay_state_at(initial, params, rec.events, params.total_time)
        assert np.allclose(
            replayed.systems[0].log_weights, rec.final_state.systems[0].log_weights
        )
        # the flashes carry the same (time, particle, center) triples
        from_flashes = replay_state_at(initial, params, flashes_of(rec), params.total_time)
        assert np.array_equal(from_flashes.systems[0].log_weights, replayed.systems[0].log_weights)

    def test_bare_branch_state_rejected(self):
        params = GrwParams(total_time=5.0)
        with pytest.raises(ConfigError, match="BranchSystems"):
            run_trajectory(_branch_state(), params, RngStream(0, 0))
        with pytest.raises(ConfigError, match="BranchSystems"):
            replay_state_at(_branch_state(), params, [], 1.0)

    def test_initial_state_left_unchanged(self):
        # the engine updates its private copy in place, never the caller's state
        params = GrwParams(total_time=20.0)
        initial = BranchSystems([_branch_state(0.6), _branch_state(0.3)])
        systems_before = list(initial.systems)
        log_weights_before = [s.log_weights.copy() for s in initial.systems]
        rec = run_trajectory(initial, params, RngStream(93, 0))
        assert rec.num_events > 0
        replayed = replay_state_at(initial, params, rec.events, params.total_time)
        assert rec.initial_state is initial
        assert rec.final_state is not initial
        # nor do the final and replayed states share an array with it
        for state in (rec.final_state, replayed):
            for s, s0 in zip(state.systems, initial.systems):
                assert not np.shares_memory(s.log_weights, s0.log_weights)
                assert not np.shares_memory(s.anchors, s0.anchors)
        assert all(a is b for a, b in zip(initial.systems, systems_before))
        for s, before in zip(initial.systems, log_weights_before):
            assert np.array_equal(s.log_weights, before)

    def test_mixed_particle_counts(self):
        # one 2-particle system (particles 0, 1) and one 1-particle system (2)
        pair = BranchState.from_weights(("a", "b"), (0.6, 0.4), [[0.0, 100.0], [30.0, 130.0]])
        initial = BranchSystems([pair, _branch_state(0.8)])
        assert [initial.locate(p) for p in range(3)] == [(0, 0), (0, 1), (1, 0)]
        with pytest.raises(ConfigError):
            initial.locate(3)
        params = GrwParams(total_time=20.0)
        rec = run_trajectory(initial, params, RngStream(94, 0))
        assert rec.final_state.num_particles == 3
        assert {e.particle for e in rec.events} == {0, 1, 2}
        for e in rec.events:
            assert len(e.pre_weights) == 2 and len(e.post_weights) == 2
        replayed = replay_state_at(initial, params, rec.events, params.total_time)
        for a, b in zip(replayed.systems, rec.final_state.systems):
            assert np.array_equal(a.log_weights, b.log_weights)
        no_prehistory = (np.empty(0), np.empty(0, dtype=int), np.empty(0))
        (times_0, centers_0), (times_1, centers_1) = _flash_columns(rec, no_prehistory)
        assert times_0.tolist() == [e.time for e in rec.events if e.particle < 2]
        assert centers_0.tolist() == [e.center for e in rec.events if e.particle < 2]
        assert times_1.tolist() == [e.time for e in rec.events if e.particle == 2]
        assert centers_1.tolist() == [e.center for e in rec.events if e.particle == 2]


# The first 8 (time, particle, center) triples of RngStream(2024, 7), recorded
# when every event still built its CollapseEvent in the run loop.  Exact
# equality pins the order of every random draw.
_GOLDEN_CAT = (
    46,
    [
        (1.0799154356274545, 0, 28.84313307396251),
        (1.3850797776412902, 0, 30.676531614301567),
        (1.8936724371387397, 0, 29.405296165865398),
        (2.284124988603267, 0, 30.228912731962406),
        (2.3523490866571923, 0, 28.716677590985253),
        (3.6050613490966477, 0, 30.468500864772317),
        (8.838630032256528, 0, 28.963369441026007),
        (9.647322724655293, 0, 28.968929539173278),
    ],
)
_GOLDEN_MARBLES = (
    54,
    [
        (0.35997181187581817, 0, 1.5662804753744883),
        (0.41340703999101786, 2, -0.26237182543466575),
        (0.5311783567969206, 1, 0.29312833981140024),
        (0.930665276737074, 0, -0.22976524596583295),
        (1.034334096985712, 2, 0.4685008647723171),
        (2.778856991372338, 1, -1.0366305589739933),
        (3.0484212221719265, 0, -0.5962808575782089),
        (3.434639925874141, 0, 0.1286800093111311),
    ],
)


class TestRandomStream:
    @pytest.mark.parametrize(
        "config,golden",
        [
            # criterion 4's cat: one particle, so no particle draw at all
            (
                ScenarioConfig(
                    kind=ScenarioKind.CAT, c1_sq=0.7, ontology=Ontology.GRW0,
                    params=GrwParams(total_time=50.0),
                ),
                _GOLDEN_CAT,
            ),
            (
                ScenarioConfig(
                    kind=ScenarioKind.MARBLES, c1_sq=0.9, n_marbles=3,
                    params=GrwParams(total_time=20.0),
                ),
                _GOLDEN_MARBLES,
            ),
        ],
        ids=["cat", "marbles3"],
    )
    def test_golden_triples(self, config, golden):
        rec = run_trajectory(build_scenario(config).initial_state, config.params, RngStream(2024, 7))
        count, triples = golden
        assert rec.num_events == count
        assert list(zip(rec.times, rec.particles, rec.centers))[:8] == triples



# The per-event branch code from before the plain-float kernel, verbatim:
# numpy-backed BranchState updates, the mixture sampler and the step loop.
# The kernel must reproduce it bit for bit.
def _reference_update(state, particle, center, sigma):
    inv = 1.0 / (sigma * sigma)
    new_log = [
        lw - (a - center) * (a - center) * inv
        for lw, a in zip(state.log_weights.tolist(), state.anchors[:, particle].tolist())
    ]
    peak = max(new_log)
    if not math.isfinite(peak):
        raise ZeroProbabilityCollapseError(
            "all branch posterior factors underflowed simultaneously"
        )
    total = peak + math.log(sum([math.exp(v - peak) for v in new_log]))
    return BranchState(state.labels, np.array([v - total for v in new_log]), state.anchors)


def _reference_center(state, particle, sigma, rng):
    weights = [math.exp(v) for v in state.log_weights.tolist()]
    u = rng.random() * sum(weights)
    idx = len(weights) - 1
    acc = 0.0
    for j, w in enumerate(weights):
        acc += w
        if u <= acc:
            idx = j
            break
    return float(rng.normal(state.anchors[idx, particle], sigma * (1.0 / math.sqrt(2.0))))


def _reference_weights(system):
    return tuple([math.exp(v) for v in system.log_weights.tolist()])


def _reference_run(initial_state, params, stream):
    """(times, particles, centers, final state, events) of the step loop."""
    rng = stream.generator()
    state = initial_state.copy()
    n = state.num_particles
    sigma = params.sigma
    times, particles, centers, events = [], [], [], []
    t = 0.0
    while True:
        t_next = t + float(rng.exponential(1.0 / (n * params.lambda_eff)))
        if t_next > params.total_time:
            break
        # integers(1) consumes no bits, so skipping it leaves the stream unchanged
        particle = int(rng.integers(n)) if n > 1 else 0
        sys_idx, local = state.locate(particle)
        system = state.systems[sys_idx]
        center = _reference_center(system, local, sigma, rng)
        after = _reference_update(system, local, center, sigma)
        state.systems[sys_idx] = after
        events.append(
            CollapseEvent(t_next, particle, center, _reference_weights(system), _reference_weights(after))
        )
        times.append(t_next)
        particles.append(particle)
        centers.append(center)
        t = t_next
    return times, particles, centers, state, events


def _hand_built_systems():
    # 3 branches of 2 particles (global 0, 1) and a 2-branch marble (global 2)
    pair = BranchState.from_weights(
        ("a", "b", "c"), (0.5, 0.3, 0.2), [[0.0, 100.0], [15.0, 140.0], [-20.0, 160.0]]
    )
    return BranchSystems([pair, _branch_state(0.8)]), GrwParams(lambda_eff=0.7, sigma=1.3, total_time=15.0)


def _scenario_case(config):
    return build_scenario(config).initial_state, config.params


_REFERENCE_CASES = {
    # criterion 4's cat
    "cat": lambda: _scenario_case(
        ScenarioConfig(
            kind=ScenarioKind.CAT, c1_sq=0.7, ontology=Ontology.GRW0,
            params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=50.0),
        )
    ),
    "marbles3": lambda: _scenario_case(
        ScenarioConfig(
            kind=ScenarioKind.MARBLES, c1_sq=0.9, n_marbles=3, params=GrwParams(total_time=20.0)
        )
    ),
    "three_branches_two_particles": _hand_built_systems,
}


class TestBranchKernelMatchesReference:
    @pytest.mark.parametrize("seed", [0, 7, 1004, 2024])
    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_run_and_event_log(self, case, seed):
        initial, params = _REFERENCE_CASES[case]()
        for stream in range(3):
            rec = run_trajectory(initial, params, RngStream(seed, stream))
            times, particles, centers, final, events = _reference_run(initial, params, RngStream(seed, stream))
            assert rec.num_events > 0
            assert rec.times == times
            assert rec.particles == particles
            assert rec.centers == centers
            assert all(type(x) is float for x in rec.times + rec.centers)
            assert [s.log_weights.tolist() for s in rec.final_state.systems] == [
                s.log_weights.tolist() for s in final.systems
            ]
            assert rec.events == events
            replayed = replay_state_at(initial, params, rec.events, params.total_time)
            assert [s.log_weights.tolist() for s in replayed.systems] == [
                s.log_weights.tolist() for s in final.systems
            ]

    def test_primitives(self):
        rng = _rng(31)
        state, _ = _hand_built_systems()
        pair = state.systems[0]
        for _ in range(200):
            particle = int(rng.integers(2))
            draw_seed = int(rng.integers(2**32))
            center = sample_collapse_center(pair, particle, 1.3, _rng(draw_seed))
            assert center == _reference_center(pair, particle, 1.3, _rng(draw_seed))
            post = branch_collapse_update(pair, particle, center, 1.3)
            assert post.log_weights.tolist() == _reference_update(pair, particle, center, 1.3).log_weights.tolist()
            pair = post

def _stepwise_events(initial, params, rec, summary):
    """The event log read off replay_state_at one event at a time."""
    events = []
    for k, (t, particle, center) in enumerate(zip(rec.times, rec.particles, rec.centers)):
        log = [CollapseEvent(*c, (), ()) for c in zip(rec.times, rec.particles, rec.centers)]
        before = replay_state_at(initial, params, log[:k], t)
        after = replay_state_at(initial, params, log[: k + 1], t)
        events.append(
            CollapseEvent(t, particle, center, summary(before, particle), summary(after, particle))
        )
    return events


class TestEventLog:
    def test_branch_log_matches_stepwise_replay(self):
        initial = BranchSystems([_branch_state(0.6), _branch_state(0.3), _branch_state(0.8)])
        params = GrwParams(total_time=10.0)
        rec = run_trajectory(initial, params, RngStream(95, 0))
        assert rec.num_events > 10

        def weights(state, particle):
            return tuple(state.systems[state.locate(particle)[0]].weights.tolist())

        assert rec.events == _stepwise_events(initial, params, rec, weights)

    def test_grid_log_matches_stepwise_replay(self, two_packet_state):
        params = GrwParams(total_time=4.0, hamiltonian=Hamiltonian("free", 5.0))
        rec = run_trajectory(two_packet_state, params, RngStream(96, 0))
        assert rec.num_events > 0
        assert rec.events == _stepwise_events(two_packet_state, params, rec, _grid_summary)


def _posterior_oracle(record):
    """(post_log_weights, events) of a branch record, rebuilt by replaying its
    columns through _posterior one collapse at a time."""
    systems = record.initial_state
    log_w = [s.log_weights.tolist() for s in systems.systems]
    inv_var = 1.0 / (record.params.sigma * record.params.sigma)
    posts, events = [], []
    for t, particle, center in zip(record.times, record.particles, record.centers):
        system, local = systems.locate(particle)
        anchors = systems.systems[system].anchors[:, local].tolist()
        pre = log_w[system]
        log_w[system] = dynamics._posterior(pre, anchors, center, inv_var)
        posts.append(log_w[system])
        events.append(
            CollapseEvent(
                t, particle, center,
                tuple([math.exp(v) for v in pre]), tuple([math.exp(v) for v in log_w[system]]),
            )
        )
    return posts, events


def _bits(events):
    # float.hex tells -0.0 from 0.0, which == does not
    return [
        (e.time.hex(), e.particle, e.center.hex(),
         [w.hex() for w in e.pre_weights], [w.hex() for w in e.post_weights])
        for e in events
    ]


_ORACLE_CASES = {
    "cat": ScenarioConfig(
        kind=ScenarioKind.CAT, c1_sq=0.7, ontology=Ontology.GRW0, params=GrwParams(total_time=50.0)
    ),
    "tail": ScenarioConfig(kind=ScenarioKind.TAIL, c1_sq=0.999, params=GrwParams(total_time=20.0)),
    "marbles5_collapsed_past": ScenarioConfig(
        kind=ScenarioKind.MARBLES, c1_sq=0.9, n_marbles=5, ontology=Ontology.GRWF,
        history=History.COLLAPSED_PAST, params=GrwParams(total_time=20.0),
    ),
}


class TestKeptWeights:
    """A branch run keeps the weights it computed; events reads them, no replay."""

    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_events_match_sequential_posterior(self, case):
        config = _ORACLE_CASES[case]
        for stream in range(3):
            scenario = build_scenario(config, RngStream(8, 2**48 + stream).generator())
            rec = run_trajectory(scenario.initial_state, config.params, RngStream(8, stream))
            assert rec.num_events > 0
            posts, events = _posterior_oracle(rec)
            assert [[v.hex() for v in lw] for lw in rec.post_log_weights] == [
                [v.hex() for v in lw] for lw in posts
            ]
            assert _bits(rec.events) == _bits(events)

    def test_events_do_not_call_posterior(self, monkeypatch):
        config = _ORACLE_CASES["marbles5_collapsed_past"]
        rec = run_trajectory(build_scenario(config).initial_state, config.params, RngStream(8, 0))
        expected = rec.events

        def no_posterior(*args):
            raise AssertionError("events replayed a collapse")

        monkeypatch.setattr(dynamics, "_posterior", no_posterior)
        assert rec.events == expected

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_aborted_run_keeps_k_rows(self, monkeypatch, k):
        config = _ORACLE_CASES["marbles5_collapsed_past"]
        initial = build_scenario(config).initial_state
        posterior = dynamics._posterior
        calls = []

        def failing_posterior(*args):
            calls.append(None)
            if len(calls) > k:
                raise ZeroProbabilityCollapseError("synthetic underflow")
            return posterior(*args)

        monkeypatch.setattr(dynamics, "_posterior", failing_posterior)
        rec = run_trajectory(initial, config.params, RngStream(8, 0))
        monkeypatch.undo()
        assert rec.status == "aborted"
        assert f"event {k} at" in rec.diagnostic
        assert rec.num_events == len(rec.post_log_weights) == k
        posts, events = _posterior_oracle(rec)
        assert rec.post_log_weights == posts
        assert _bits(rec.events) == _bits(events)

    @pytest.mark.parametrize("rows", [0, 2])
    def test_mismatched_weight_column_raises(self, rows):
        config = _ORACLE_CASES["marbles5_collapsed_past"]
        rec = run_trajectory(build_scenario(config).initial_state, config.params, RngStream(8, 1))
        assert rec.num_events > 3
        hand_built = TrajectoryRecord(
            params=rec.params, times=rec.times, particles=rec.particles, centers=rec.centers,
            post_log_weights=rec.post_log_weights[:rows],
            initial_state=rec.initial_state, final_state=rec.final_state,
        )
        with pytest.raises(ConfigError, match=f"{rows} post-collapse weight rows for {rec.num_events}"):
            hand_built.events

    @pytest.mark.parametrize("particle", [-1, 5])
    def test_particle_out_of_range_raises(self, particle):
        config = _ORACLE_CASES["marbles5_collapsed_past"]
        rec = run_trajectory(build_scenario(config).initial_state, config.params, RngStream(8, 1))
        rec.particles[-1] = particle
        with pytest.raises(ConfigError, match="particle index out of range for N=5"):
            rec.events

    def test_grid_record_keeps_no_weights(self, two_packet_state):
        rec = run_trajectory(two_packet_state, GrwParams(total_time=4.0), RngStream(96, 0))
        assert rec.num_events > 0
        assert rec.post_log_weights == []
        assert len(rec.events) == rec.num_events


def _reference_grid_run(initial, params, stream):
    """One grid trajectory as the scalar loop ran it before chunks, written
    out in plain numpy: (times, particles, centers, final amplitudes, diagnostic)."""
    rng = stream.generator()
    spec, sigma = initial.spec, params.sigma
    n, x = spec.num_particles, spec.points()
    amps = initial.amplitudes.copy()
    times, particles, centers = [], [], []
    t = 0.0
    while True:
        t_next = t + float(rng.exponential(1.0 / (n * params.lambda_eff)))
        dt = min(t_next, params.total_time) - t
        if dt > 0 and params.hamiltonian.kind == "free":
            k = 2.0 * np.pi * np.fft.fftfreq(spec.points_per_axis, d=spec.dx)
            phase_1d = np.exp(-1j * k**2 * dt / (2.0 * params.hamiltonian.mass))
            amps_k = np.fft.fftn(amps)
            for axis in range(n):
                shape = [1] * n
                shape[axis] = -1
                amps_k = amps_k * phase_1d.reshape(shape)
            amps = np.fft.ifftn(amps_k)
        if t_next > params.total_time:
            return times, particles, centers, amps, None
        particle = int(rng.integers(n)) if n > 1 else 0
        density = np.abs(amps) ** 2
        others = tuple(ax for ax in range(n) if ax != particle)
        marg = density.sum(axis=others) * spec.dx ** len(others) if others else density
        cdf = np.cumsum(marg)
        idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
        center = float(rng.normal(x[min(idx, cdf.size - 1)], sigma * (1.0 / math.sqrt(2.0))))
        g = (np.pi * sigma**2) ** (-0.25) * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))
        shape = [1] * n
        shape[particle] = -1
        new_amps = amps * g.reshape(shape)
        norm = math.sqrt(float(np.sum(np.abs(new_amps) ** 2) * spec.dx**n))
        if norm <= dynamics.UNDERFLOW_FLOOR:
            message = f"collapse at X={center} has norm {norm:.3e} (zero-probability collapse)"
            return times, particles, centers, amps, f"event {len(times)} at t={t_next:.6g}: {message}"
        amps = new_amps / norm
        times.append(t_next)
        particles.append(particle)
        centers.append(center)
        t = t_next


class _Rigged:
    """A generator whose first zero_waits waiting times are 0, and whose normal
    draw number far_normal (0-based) lands 10^4 away: a zero-probability collapse."""

    def __init__(self, rng, zero_waits, far_normal):
        self._rng, self._zero_waits, self._far_normal = rng, zero_waits, far_normal

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def exponential(self, scale):
        wait = self._rng.exponential(scale)
        self._zero_waits -= 1
        return 0.0 if self._zero_waits >= 0 else wait

    def normal(self, loc, scale):
        x = self._rng.normal(loc, scale)
        self._far_normal -= 1
        return x + 1e4 if self._far_normal == -1 else x


class _RiggedStream:
    def __init__(self, stream, zero_waits=0, far_normal=-1):
        self.stream, self.zero_waits, self.far_normal = stream, zero_waits, far_normal

    def generator(self):
        return _Rigged(self.stream.generator(), self.zero_waits, self.far_normal)


def _grid_case(n, hamiltonian):
    if n == 1:
        spec = GridSpec(-12.0, 14.0, 256, 1)
        packets = [Packet((-3.0,), 1.0, 0.8), Packet((4.0,), 1.5, 0.6j)]
    else:
        spec = GridSpec(-12.0, 14.0, 32, 2)
        packets = [Packet((-3.0, 4.0), 2.0, 0.8), Packet((4.0, -2.0), 2.5, 0.6j)]
    return make_grid_wavefunction(spec, packets), GrwParams(total_time=3.0, hamiltonian=hamiltonian)


def _same_record(rec, times, particles, centers, final, diagnostic):
    return (
        rec.times == times
        and rec.particles == particles
        and rec.centers == centers
        and rec.status == ("completed" if diagnostic is None else "aborted")
        and rec.diagnostic == diagnostic
        and np.array_equal(rec.final_state.amplitudes, final)
    )


class TestGridChunk:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("hamiltonian", [Hamiltonian("zero"), Hamiltonian("free", 2.0)],
                             ids=["zero", "free"])
    def test_rows_match_lone_runs(self, n, hamiltonian):
        initial, params = _grid_case(n, hamiltonian)
        rows = dynamics.grid_chunk_rows(initial.spec)
        assert rows == (32 if n == 1 else 8)
        streams = [RngStream(61, i) for i in range(rows)]
        chunk = dynamics.run_grid_chunk(initial, params, streams)
        assert len({rec.num_events for rec in chunk}) > 1  # rows leave at different steps
        if n == 2:
            assert {p for rec in chunk for p in rec.particles} == {0, 1}
        for rec, stream in zip(chunk, streams):
            lone = run_trajectory(initial, params, stream)
            assert _same_record(rec, lone.times, lone.particles, lone.centers,
                                lone.final_state.amplitudes, lone.diagnostic)
            assert _same_record(rec, *_reference_grid_run(initial, params, stream))
            assert rec.initial_state is initial
            assert all(type(v) is float for v in rec.times + rec.centers)
        assert not any(np.shares_memory(a.final_state.amplitudes, b.final_state.amplitudes)
                       for a, b in zip(chunk, chunk[1:]))

    def _check_against_lone_runs(self, initial, params, streams):
        chunk = dynamics.run_grid_chunk(initial, params, streams)
        for rec, stream in zip(chunk, streams):
            reference = _reference_grid_run(initial, params, stream)
            assert _same_record(rec, *reference)
            assert _same_record(dynamics.run_grid_chunk(initial, params, [stream])[0], *reference)
        return chunk

    @pytest.mark.parametrize("k", [0, 2])
    def test_zero_probability_collapse_aborts_its_row_only(self, k):
        initial, params = _grid_case(1, Hamiltonian("free", 2.0))
        streams = [RngStream(62, i) for i in range(5)]
        streams[2] = _RiggedStream(streams[2], far_normal=k)
        chunk = self._check_against_lone_runs(initial, params, streams)
        assert [rec.status for rec in chunk] == ["completed"] * 2 + ["aborted"] + ["completed"] * 2
        aborted = chunk[2]
        assert aborted.num_events == k
        assert aborted.diagnostic.startswith(f"event {k} at t=")
        assert "zero-probability collapse" in aborted.diagnostic

    def test_zero_step_skips_the_free_step(self, monkeypatch):
        # rows 1 and 3 wait 0 for their first two events, so those steps
        # evolve only the other rows; each row still equals its lone run
        initial, params = _grid_case(1, Hamiltonian("free", 2.0))
        streams = [RngStream(64, i) for i in range(4)]
        for i in (1, 3):
            streams[i] = _RiggedStream(streams[i], zero_waits=2)
        evolved_rows = []
        free_step = dynamics._free_step

        def counting(amps, dts, spec, mass):
            evolved_rows.append(len(dts))
            return free_step(amps, dts, spec, mass)

        monkeypatch.setattr(dynamics, "_free_step", counting)
        chunk = self._check_against_lone_runs(initial, params, streams)
        assert chunk[1].times[:2] == [0.0, 0.0] and chunk[3].times[:2] == [0.0, 0.0]
        assert evolved_rows[:2] == [2, 2]

    @pytest.mark.parametrize("n", [1, 2])
    def test_replay_reproduces_final_state_bitwise(self, n):
        initial, params = _grid_case(n, Hamiltonian("free", 2.0))
        chunk = dynamics.run_grid_chunk(initial, params, [RngStream(63, i) for i in range(4)])
        assert max(rec.num_events for rec in chunk) > 0
        for rec in chunk:
            replayed = replay_state_at(initial, params, flashes_of(rec), params.total_time)
            assert np.array_equal(replayed.amplitudes, rec.final_state.amplitudes)


class TestOneStepMartingale:
    def _expected_posterior_by_quadrature(self, weights, anchors, sigma):
        # independent trapezoid quadrature over a fine X grid
        lo = min(anchors) - 15.0 * sigma
        hi = max(anchors) + 15.0 * sigma
        x = np.linspace(lo, hi, 60_001)
        w = np.asarray(weights)
        a = np.asarray(anchors)
        g2 = np.exp(-((x[:, None] - a[None, :]) ** 2) / sigma**2) / math.sqrt(
            math.pi * sigma**2
        )
        density = g2 @ w
        post = (w[None, :] * np.exp(-((a[None, :] - x[:, None]) ** 2) / sigma**2))
        post = post / post.sum(axis=1, keepdims=True)
        return np.trapezoid(density[:, None] * post, x, axis=0)

    @pytest.mark.parametrize(
        "weights,anchors",
        [
            ((0.7, 0.3), (0.0, 10.0)),
            ((0.25, 0.75), (-15.0, 5.0)),
            ((0.2, 0.5, 0.3), (-20.0, 0.0, 20.0)),
        ],
    )
    def test_expected_posterior_equals_prior(self, weights, anchors):
        expected = self._expected_posterior_by_quadrature(weights, anchors, 1.0)
        assert np.allclose(expected, weights, atol=1e-8)


@given(
    w1=st.floats(min_value=0.01, max_value=0.99),
    x_center=st.floats(min_value=-10.0, max_value=30.0),
)
@settings(max_examples=50, deadline=None)
def test_branch_update_preserves_normalization(w1, x_center):
    state = BranchState.from_weights(("a", "b"), (w1, 1.0 - w1), [[0.0], [20.0]])
    post = branch_collapse_update(state, 0, x_center, 1.0)
    assert abs(post.weights.sum() - 1.0) < 1e-12
    assert np.all(np.isfinite(post.log_weights))
