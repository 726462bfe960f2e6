import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grwsim import (
    BranchState,
    GridSpec,
    GrwParams,
    NumericsError,
    Packet,
    Region,
    RngStream,
    ScenarioConfig,
    flash_fraction_in_region,
    flashes_of,
    grw0_view,
    make_grid_wavefunction,
    marginal_density,
    mass_fraction_in_region,
    matter_density,
    run_trajectory,
)
from grwsim.dynamics import BranchSystems
from grwsim.ontology import default_window


def _grid(lo=-40.0, hi=50.0, n=2048):
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step


def _marble_state(c1=0.9, a_out=30.0):
    return BranchState.from_weights(("in", "out"), (c1, 1.0 - c1), [0.0, a_out])


def _marble(c1=0.9, a_out=30.0):
    return BranchSystems([_marble_state(c1, a_out)])


class TestFlashes:
    def test_empty_trajectory(self):
        rec = run_trajectory(_marble(), GrwParams(total_time=1e-9), RngStream(0, 0))
        assert rec.num_events == 0
        assert flashes_of(rec) == []
        assert rec.events == []

    def test_bijection_with_events(self):
        rec = run_trajectory(_marble(), GrwParams(total_time=30.0), RngStream(3, 1))
        fl = flashes_of(rec)
        assert len(fl) == rec.num_events
        for f, e in zip(fl, rec.events):
            assert f.time == e.time and f.center == e.center and f.particle == e.particle

    def test_poisson_concentration(self):
        # Poisson(100) concentrates: |count - 100| <= 40 in at least 95 of 100 seeds
        params = GrwParams(total_time=100.0)
        hits = 0
        for i in range(100):
            count = run_trajectory(_marble(), params, RngStream(400, i)).num_events
            hits += abs(count - 100) <= 40
        assert hits >= 95


class TestMatterDensity:
    def test_single_particle_equals_marginal(self):
        spec = GridSpec(-25.6, 25.6, 512)
        psi = make_grid_wavefunction(spec, [Packet(0.0, 1.0, 1.0)])
        field = matter_density(psi)
        assert np.allclose(field.values, marginal_density(psi, 0), atol=1e-14)
        assert field.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_branch_rasterization_masses(self):
        # rasterization-sum oracle: weight lands in the anchor's cell
        field = matter_density(_marble(0.9), grid=_grid())
        near_in = Region(-1.0, 1.0)
        near_out = Region(29.0, 31.0)
        assert abs(mass_fraction_in_region(field, near_in) - 0.9) < 1e-9
        assert abs(mass_fraction_in_region(field, near_out) - 0.1) < 1e-9
        assert field.values.min() >= 0.0

    def test_equal_masses_default(self):
        # each of the two particles carries half of the unit total mass
        systems = BranchSystems([_marble_state(0.9), _marble_state(0.6, a_out=40.0)])
        field = matter_density(systems, grid=_grid())
        assert mass_fraction_in_region(field, Region(29.0, 31.0)) == pytest.approx(0.5 * 0.1)
        assert mass_fraction_in_region(field, Region(39.0, 41.0)) == pytest.approx(0.5 * 0.4)
        assert field.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_uncovered_grid_rejected(self):
        narrow = _grid(lo=-5.0, hi=5.0, n=128)  # misses the out-anchor at 30
        with pytest.raises(NumericsError):
            matter_density(_marble(), grid=narrow)


class TestMassFraction:
    def test_full_grid_fraction_is_one(self):
        field = matter_density(_marble(), grid=_grid())
        assert mass_fraction_in_region(field, Region(-40.0, 50.0)) == pytest.approx(1.0)

    def test_tail_fact_branch_model(self):
        # the matter-density reading of the marble state: exactly |c2|^2 outside
        c2 = 0.1
        field = matter_density(_marble(1.0 - c2), grid=_grid())
        box = Region(-10.0, 10.0)
        outside = 1.0 - mass_fraction_in_region(field, box)
        assert abs(outside - c2) < 1e-9

    def test_measure_zero_region(self):
        grid = _grid()
        field = matter_density(_marble(), grid=grid)
        # a sliver between cell centers holds no cells, hence no mass
        sliver = Region(grid[3] + 1e-6, grid[4] - 1e-6)
        assert mass_fraction_in_region(field, sliver) == 0.0


class TestFlashFraction:
    def test_all_inside(self):
        frac, count = flash_fraction_in_region(np.zeros(7), Region(-1.0, 1.0))
        assert (frac, count) == (1.0, 7)

    def test_counting(self):
        frac, count = flash_fraction_in_region(np.array([0.0, 0.5, 9.0, 0.1]), Region(-1.0, 1.0))
        assert count == 4
        assert frac == pytest.approx(0.75)

    def test_empty_window_undefined(self):
        times, centers = np.array([5.0]), np.array([0.0])
        for config in (ScenarioConfig(window=1.0), ScenarioConfig(window_flashes=3)):
            window = config.flash_window(times, 1.0)
            frac, count = flash_fraction_in_region(centers[window], Region(-1.0, 1.0))
            assert count == 0 and math.isnan(frac)

    def test_window_is_half_open(self):
        # (t - window, t]: the flash at t - window is out, the flash at t is in
        assert ScenarioConfig(window=1.0).flash_window(np.array([1.0, 2.0]), 2.0) == slice(1, 2)
        times = np.arange(1.0, 6.0)
        by_count = ScenarioConfig(window_flashes=3)
        assert by_count.flash_window(times, 4.0) == slice(1, 4)  # the flash at t counts
        assert by_count.flash_window(times, 2.5) == slice(0, 2)  # fewer than 3 so far

    def test_particle_filter(self):
        # callers pass one particle's flashes, filtered beforehand
        particles, centers = np.array([0, 1, 1]), np.zeros(3)
        _, count = flash_fraction_in_region(centers[particles == 1], Region(-1.0, 1.0))
        assert count == 2

    def test_engine_window_fraction_matches_oracle(self):
        # frequency of >99%-inside windows vs the exact first-window law: at
        # 30-sigma anchors the first flash settles the branch, so p* = 0.99
        params = GrwParams(total_time=200.0)
        box = Region(-10.0, 10.0)
        n = 1000
        inside_windows = 0
        for i in range(n):
            rec = run_trajectory(_marble(0.99), params, RngStream(4000, i))
            frac, count = flash_fraction_in_region(rec.centers[:100], box)
            assert count == 100
            inside_windows += frac >= 0.99
        p_star = 0.99
        se = math.sqrt(p_star * (1.0 - p_star) / n)
        assert abs(inside_windows / n - p_star) < 4.0 * se


class TestGrw0View:
    def test_matches_branch_weights(self):
        state = _marble(0.8)
        marble = state.systems[0]
        assert grw0_view(state) == [list(zip(marble.labels, marble.weights.tolist()))]

    def test_systems_view(self):
        systems = BranchSystems([_marble_state(0.8), _marble_state(0.8)])
        view = grw0_view(systems)
        assert len(view) == 2
        assert view[0] == [("in", pytest.approx(0.8)), ("out", pytest.approx(0.2))]


def test_default_window_expected_flashes():
    assert default_window(1, 1.0) == pytest.approx(100.0)
    assert default_window(5, 2.0) == pytest.approx(10.0)


@given(
    n_flashes=st.integers(min_value=0, max_value=40),
    t=st.floats(min_value=0.0, max_value=12.0),
    width=st.floats(min_value=0.1, max_value=5.0),
    widen=st.floats(min_value=0.0, max_value=5.0),
    k=st.integers(min_value=1, max_value=20),
    more=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_window_monotonicity(n_flashes, t, width, widen, k, more):
    rng = np.random.default_rng(n_flashes * 1000 + 17)
    times = np.sort(rng.uniform(0.0, 10.0, size=n_flashes))
    small = _indices(ScenarioConfig(window=width).flash_window(times, t))
    large = _indices(ScenarioConfig(window=width + widen).flash_window(times, t))
    assert set(small) <= set(large)
    # a count window holds the last k flashes up to t, or all of them if fewer
    seen = np.flatnonzero(times <= t).tolist()
    last_k = _indices(ScenarioConfig(window_flashes=k).flash_window(times, t))
    assert last_k == seen[len(seen) - min(k, len(seen)) :]
    assert last_k == _indices(ScenarioConfig(window_flashes=k + more).flash_window(times, t))[-k:]


def _indices(window: slice) -> list[int]:
    return list(range(window.start, window.stop))


@st.composite
def _column_and_time(draw):
    """A sorted time column on a quarter-unit lattice (ties, exact boundaries) and a time t
    on a flash, between two flash times, before the first flash or anywhere."""
    times = np.array(sorted(draw(st.lists(st.integers(-40, 40), max_size=25)))) / 4.0
    where = draw(st.sampled_from(["on", "between", "before", "anywhere"]))
    if where == "on" and times.size:
        t = float(draw(st.sampled_from(times.tolist())))
    elif where == "between" and np.unique(times).size > 1:
        j = draw(st.integers(0, np.unique(times).size - 2))
        t = float(np.unique(times)[j : j + 2].mean())
    elif where == "before" and times.size:
        t = float(times[0]) - draw(st.floats(1e-3, 5.0))
    else:
        t = draw(st.floats(-12.0, 12.0))
    return times, t


@given(
    column=_column_and_time(),
    width=st.one_of(st.integers(1, 40).map(lambda q: q / 4.0), st.floats(1e-3, 30.0)),
    k=st.integers(1, 30),
)
@settings(max_examples=300, deadline=None)
def test_flash_window_matches_brute_force_scan(column, width, k):
    times, t = column
    # time window: every flash with t - width < time <= t, found by scanning
    scan = [i for i, s in enumerate(times.tolist()) if t - width < s <= t]
    assert _indices(ScenarioConfig(window=width).flash_window(times, t)) == scan
    # count window: the last k flashes with time <= t
    seen = [i for i, s in enumerate(times.tolist()) if s <= t]
    assert _indices(ScenarioConfig(window_flashes=k).flash_window(times, t)) == seen[max(len(seen) - k, 0) :]
