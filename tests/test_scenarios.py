import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grwsim import (
    BranchState,
    ConfigError,
    GridWaveFunction,
    GrwParams,
    History,
    Ontology,
    NumericsError,
    Region,
    RngStream,
    ScenarioConfig,
    ScenarioKind,
    Verdict,
    build_scenario,
    classify_grwf,
    classify_grwm,
    matter_density,
    norm_squared,
    run_trajectory,
)
from grwsim.dynamics import BranchSystems, TrajectoryRecord
from grwsim.ensemble import (
    census_all_inside_test,
    census_chi2_test,
    census_mean_test,
    martingale_test,
    reduce_trajectory,
    resurrection_rate_test,
    scenario_plan,
)
from grwsim.ontology import MatterDensityField, flash_fraction_in_region, mass_fraction_in_region
from grwsim.scenarios import (
    Scenario,
    branch_box_fraction,
    density_grid,
    seed_prehistory,
    verdict_from_fraction,
)


class TestScenarioConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c1_sq=0.0),
            dict(c1_sq=1.0),
            dict(theta_m=0.0),
            dict(theta_f=0.5),
            dict(theta_f=1.2),
            dict(kind=ScenarioKind.CAT, n_marbles=3),
            dict(kind=ScenarioKind.MARBLES, n_marbles=0),
            dict(kind=ScenarioKind.MARBLES, n_marbles=2, backend="grid"),
            dict(backend="quantum"),
            dict(window=-1.0),
            dict(density_times=(-1.0,)),  # before the start
            dict(density_times=(0.0, 10.5)),  # past the default 10-unit horizon
            dict(window=math.nan),  # would reach numpy's Poisson draw
            dict(window=math.inf),
            dict(packet_width=math.nan),  # would fill the grid with nan amplitudes
            dict(packet_width=-0.5),
            dict(params=GrwParams(lambda_eff=1e9)),  # 10^10 expected collapses
            dict(density_times=(2.0, 2.0)),  # both would write density-t2.csv
            dict(density_times=(1.0000001, 1.0000002)),  # both spell 1 under :g
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    def test_prehistory_box_too_narrow_rejected(self):
        # [-0.001, 0.001] holds about 0.1% of the in-box flash law Normal(0, 1/2):
        # with a 10-unit window, default_rng(3) used to draw each of 5
        # prehistory centers outside it 100 times and put it at exactly 0.0
        narrow = dict(kind=ScenarioKind.TAIL, ontology=Ontology.GRWF, box=Region(-0.001, 0.001), window=10.0)
        with pytest.raises(ConfigError, match="collapsed-past prehistory of 10 expected flashes"):
            ScenarioConfig(history=History.COLLAPSED_PAST, **narrow)
        ScenarioConfig(history=History.FRESH_PREPARATION, **narrow)  # no prehistory to draw
        ScenarioConfig(history=History.COLLAPSED_PAST, **{**narrow, "box": Region(-1.0, 1.0)})

    def test_default_anchors(self):
        config = ScenarioConfig(box=Region(-10.0, 10.0))
        a_in, a_out = config.anchor_positions()
        assert a_in == 0.0
        assert a_out == pytest.approx(30.0)  # box.upper + 20 sigma

    def test_anchor_sanity_enforced(self):
        # nan and inf are never inside the box, so the box test alone lets them through
        for anchor in (dict(inside_anchor=50.0), dict(outside_anchor=math.nan), dict(outside_anchor=math.inf)):
            with pytest.raises(ConfigError):
                ScenarioConfig(**anchor).anchor_positions()

    def test_window_default(self):
        config = ScenarioConfig(kind=ScenarioKind.MARBLES, n_marbles=4)
        assert config.window_length() == pytest.approx(100.0 / 4.0)


class TestBuildScenario:
    def test_cat_weights(self):
        # a cat is one branch system
        scenario = build_scenario(ScenarioConfig(kind=ScenarioKind.CAT, c1_sq=0.5))
        assert isinstance(scenario.initial_state, BranchSystems)
        (state,) = scenario.initial_state.systems
        assert np.allclose(state.weights, (0.5, 0.5))
        assert state.labels == ("dead", "alive")

    def test_marbles_independent_states(self):
        config = ScenarioConfig(kind=ScenarioKind.MARBLES, c1_sq=0.9, n_marbles=5)
        scenario = build_scenario(config)
        assert isinstance(scenario.initial_state, BranchSystems)
        assert len(scenario.initial_state.systems) == 5
        for s in scenario.initial_state.systems:
            assert np.allclose(s.weights, (0.9, 0.1))
            assert s.labels == ("inside", "outside")

    def test_collapsed_past_prehistory_inside_box(self):
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            n_marbles=3,
            history=History.COLLAPSED_PAST,
            ontology=Ontology.GRWF,
        )
        scenario = build_scenario(config)
        times, particles, centers = scenario.prehistory
        assert len(times) > 0
        assert np.all(times < 0.0) and np.all(np.diff(times) >= 0.0)
        assert set(particles.tolist()) <= {0, 1, 2}
        for x in centers:
            assert config.box.contains(x)

    def test_prehistory_that_never_reaches_the_box_raises(self):
        # a generator whose every center misses the box: the rejection loop
        # used to put the center at the inside anchor after 100 draws, silently
        class Missing:
            def poisson(self, lam):
                return 1

            def uniform(self, low, high, size):
                return np.full(size, -1.0)

            def normal(self, loc, scale):
                return loc + 1e3

        config = ScenarioConfig(ontology=Ontology.GRWF, history=History.COLLAPSED_PAST)
        with pytest.raises(NumericsError, match="no prehistory center fell in the box in 100 draws"):
            seed_prehistory(config, Missing())

    def test_fresh_preparation_no_prehistory(self):
        scenario = build_scenario(ScenarioConfig(history=History.FRESH_PREPARATION))
        assert [len(column) for column in scenario.prehistory] == [0, 0, 0]

    def test_grid_backend_builds_wavefunction(self):
        config = ScenarioConfig(kind=ScenarioKind.CAT, backend="grid", grid_points=1024)
        scenario = build_scenario(config)
        assert isinstance(scenario.initial_state, GridWaveFunction)
        assert scenario.initial_state.num_particles == 1
        assert abs(norm_squared(scenario.initial_state) - 1.0) < 1e-10

    def test_plan_contents(self):
        cat = scenario_plan(ScenarioConfig(kind=ScenarioKind.CAT, ontology=Ontology.GRW0))
        assert martingale_test in cat and census_mean_test not in cat
        marbles = scenario_plan(
            ScenarioConfig(kind=ScenarioKind.MARBLES, n_marbles=2, ontology=Ontology.GRWM)
        )
        assert census_all_inside_test in marbles
        tail = scenario_plan(ScenarioConfig(kind=ScenarioKind.TAIL, c1_sq=0.99))
        assert resurrection_rate_test in tail
        # Binomial(1, p): the all-inside frequency and the chi-square restate the mean
        one = scenario_plan(
            ScenarioConfig(kind=ScenarioKind.MARBLES, n_marbles=1, ontology=Ontology.GRWF)
        )
        assert census_mean_test in one
        assert census_all_inside_test not in one and census_chi2_test not in one


class TestVerdictRule:
    @pytest.mark.parametrize(
        "fraction,theta,expected",
        [
            (0.9, 0.5, Verdict.INSIDE),
            (0.5, 0.5, Verdict.PARTIAL),  # exact half is never a definite verdict
            (0.02, 0.5, Verdict.OUTSIDE),
            (1.0, 0.99, Verdict.INSIDE),
            (0.99, 0.99, Verdict.INSIDE),
            (0.5, 0.99, Verdict.PARTIAL),
            (0.005, 0.99, Verdict.OUTSIDE),
            (float("nan"), 0.5, Verdict.UNDEFINED),
        ],
    )
    def test_threshold_rule(self, fraction, theta, expected):
        assert verdict_from_fraction(fraction, theta) == expected


class TestClassifyGrwm:
    def _field(self, fraction):
        grid = np.linspace(-0.5, 19.5, 21)
        values = np.zeros(21)
        values[0] = fraction
        values[20] = 1.0 - fraction
        return MatterDensityField(grid=grid, values=values, dx=1.0)

    def test_majority_inside(self):
        # a 10% tail outside still reads as Inside under the majority rule
        field = self._field(0.9)
        assert classify_grwm(field, Region(-1.0, 1.0), theta_m=0.5) == Verdict.INSIDE
        assert mass_fraction_in_region(field, Region(-1.0, 1.0)) == pytest.approx(0.9)

    def test_exact_half_partial(self):
        assert classify_grwm(self._field(0.5), Region(-1.0, 1.0), theta_m=0.5) == Verdict.PARTIAL

    def test_complement_outside(self):
        assert classify_grwm(self._field(0.02), Region(-1.0, 1.0), theta_m=0.5) == Verdict.OUTSIDE

    def test_zero_mass_undefined(self):
        field = MatterDensityField(grid=np.linspace(0, 1, 3), values=np.zeros(3), dx=0.5)
        assert classify_grwm(field, Region(0.0, 1.0), theta_m=0.5) == Verdict.UNDEFINED


class TestClassifyGrwf:
    def test_all_inside(self):
        centers = np.zeros(100)
        assert classify_grwf(centers, Region(-1.0, 1.0), theta_f=0.99) == Verdict.INSIDE

    def test_half_half_partial(self):
        centers = np.array([0.0 if i % 2 else 9.0 for i in range(1, 101)])
        assert classify_grwf(centers, Region(-1.0, 1.0), theta_f=0.99) == Verdict.PARTIAL
        assert flash_fraction_in_region(centers, Region(-1.0, 1.0))[0] == pytest.approx(0.5)

    def test_no_flashes_undefined(self):
        assert classify_grwf([], Region(-1.0, 1.0), theta_f=0.99) == Verdict.UNDEFINED
        assert math.isnan(flash_fraction_in_region([], Region(-1.0, 1.0))[0])


class TestBranchBoxFraction:
    def test_matches_rasterized_density(self):
        state = BranchState.from_weights(("in", "out"), (0.73, 0.27), [[0.0], [30.0]])
        config = ScenarioConfig(kind=ScenarioKind.MARBLES, c1_sq=0.73)
        box = Region(-10.0, 10.0)
        direct = branch_box_fraction(state, box)
        field = matter_density(BranchSystems([state]), grid=density_grid(config))
        assert direct == pytest.approx(mass_fraction_in_region(field, box), abs=1e-12)

    def test_multi_particle_average(self):
        # one anchor in, one out within the same branch: half the branch mass counts
        state = BranchState.from_weights(("mixed",), (1.0,), [[0.0, 30.0]])
        assert branch_box_fraction(state, Region(-10.0, 10.0)) == pytest.approx(0.5)


def _fabricated_record(w_path, times=None):
    """A one-system branch record that starts at w_path[0] and ends at w_path[-1].

    One flash at the in-anchor per step; reduce_trajectory reads only the
    flashes and the final state.
    """
    state0 = BranchState.from_weights(("in", "out"), (w_path[0], 1 - w_path[0]), [[0.0], [30.0]])
    times = times or [float(i + 1) for i in range(len(w_path) - 1)]
    final = BranchState.from_weights(
        ("in", "out"), (w_path[-1], 1 - w_path[-1]), [[0.0], [30.0]]
    )
    return TrajectoryRecord(
        params=GrwParams(total_time=times[-1] + 1 if times else 1.0),
        times=list(times),
        particles=[0] * len(times),
        centers=[0.0] * len(times),
        initial_state=BranchSystems([state0]),
        final_state=BranchSystems([final]),
    )


def _reduce(record, config):
    no_prehistory = (np.empty(0), np.empty(0, dtype=int), np.empty(0))
    return reduce_trajectory(record, Scenario(config, record.initial_state, no_prehistory), 0)


class TestDetectResurrection:
    """Verdict flips as reduce_trajectory reads them: start against horizon."""

    _config = ScenarioConfig(kind=ScenarioKind.TAIL, c1_sq=0.999)

    def test_monotone_trajectory_no_transitions(self):
        stats = _reduce(_fabricated_record([0.7, 0.9, 0.999, 0.9999]), self._config)
        assert (stats.initial_verdict, stats.final_verdict) == ("inside", "inside")
        assert stats.flipped is False

    def test_single_flip_detected(self):
        stats = _reduce(_fabricated_record([0.999, 0.999, 0.001]), self._config)
        assert (stats.initial_verdict, stats.final_verdict) == ("inside", "outside")
        assert stats.flipped is True

    def test_partial_samples_skipped(self):
        # an exact half is Partial: no definite fact at the horizon, so no flip
        stats = _reduce(_fabricated_record([0.999, 0.5]), self._config)
        assert stats.final_verdict == "partial"
        assert stats.flipped is None

    def test_grwf_classifier_on_fabricated_record(self):
        config = ScenarioConfig(
            kind=ScenarioKind.TAIL, c1_sq=0.999, ontology=Ontology.GRWF, window=10.0
        )
        # single flash at the in-anchor at t=1: no flashes before it, Inside after
        stats = _reduce(_fabricated_record([0.999, 0.999]), config)
        assert stats.initial_verdict == "undefined"
        assert stats.final_verdict == "inside"
        assert stats.first_window_verdict == "inside"
        assert stats.flipped is None


def _marble_record(final_w1, flashes=(), total_time=20.0):
    """A fabricated marble record whose systems end with the given w1 weights.

    flashes are (time, particle, center) triples in time order.
    """
    def systems(ws):
        return BranchSystems(
            [BranchState.from_weights(("in", "out"), (w, 1.0 - w), [[0.0], [30.0]]) for w in ws]
        )

    times, particles, centers = (list(c) for c in zip(*flashes)) if flashes else ([], [], [])
    return TrajectoryRecord(
        params=GrwParams(total_time=total_time),
        times=times,
        particles=particles,
        centers=centers,
        initial_state=systems([0.9] * len(final_w1)),
        final_state=systems(final_w1),
    )


class TestMarbleCensus:
    @staticmethod
    def _config(n, **kwargs):
        return ScenarioConfig(kind=ScenarioKind.MARBLES, c1_sq=0.9, n_marbles=n, **kwargs)

    def test_all_inside(self):
        stats = _reduce(_marble_record([1.0] * 5), self._config(5))
        assert stats.census == (5, 0, 0, 0)

    def test_mixed_census(self):
        stats = _reduce(_marble_record([0.999, 0.001, 0.999]), self._config(3))
        assert stats.census == (2, 1, 0, 0)

    def test_flash_windows_per_system(self):
        # interleaved flashes, window of 3: particle 0 always in the box,
        # particle 1 always out, particle 2 mixed, particle 3 never flashes.
        # A window pooled over particles would read (in, out, in) at the end.
        positions = {0: [0.0] * 4, 1: [30.0] * 4, 2: [30.0, 0.0, 30.0, 0.0]}
        flashes = sorted(
            (float(3 * j + p + 1), p, positions[p][j]) for j in range(4) for p in range(3)
        )
        record = _marble_record([0.5] * 4, flashes, total_time=13.0)
        config = self._config(4, ontology=Ontology.GRWF, window_flashes=3)
        stats = _reduce(record, config)
        assert stats.census == (1, 1, 1, 1)  # (inside, outside, partial, undefined)
        assert stats.initial_verdict == "undefined"  # fresh preparation: no flashes yet
        assert stats.first_window_verdict == "inside"  # particle 0's first 3 flashes
        # the time window (8, 13] gives each particle the same verdict
        stats = _reduce(record, self._config(4, ontology=Ontology.GRWF, window=5.0))
        assert stats.census == (1, 1, 1, 1)

    def test_census_binomial_mean(self):
        # the long-run census: Inside-count mean over seeds near n * c1_sq,
        # within the binomial-width bound 4 * sqrt(n p q)
        n, c1 = 100, 0.9
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES, c1_sq=c1, n_marbles=n, params=GrwParams(total_time=20.0)
        )
        scenario = build_scenario(config)
        means = []
        for seed in range(30):
            rec = run_trajectory(scenario.initial_state, config.params, RngStream(7000, seed))
            means.append(reduce_trajectory(rec, scenario, seed).census[0])
        assert abs(np.mean(means) - 90.0) <= 4.0 * math.sqrt(n * c1 * (1 - c1))


@given(fraction=st.floats(min_value=0.0, max_value=1.0), theta=st.floats(min_value=0.501, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_verdict_consistency_with_thresholds(fraction, theta):
    v = verdict_from_fraction(fraction, theta)
    if v == Verdict.INSIDE:
        assert fraction >= theta
    elif v == Verdict.OUTSIDE:
        assert fraction <= 1.0 - theta
    else:
        assert 1.0 - theta < fraction < theta


@given(c1=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=30, deadline=None)
def test_scenario_weights_echo_config(c1):
    scenario = build_scenario(ScenarioConfig(kind=ScenarioKind.CAT, c1_sq=c1))
    assert scenario.initial_state.systems[0].weights[0] == pytest.approx(c1, abs=1e-12)
