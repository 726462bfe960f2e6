"""Runnable paradox scenarios and their classifiers.

Three scenario kinds share one mathematical skeleton (a two-branch
superposition with widely separated supports):

* ``cat``     -- a balanced-ish superposition, labels dead/alive;
* ``tail``    -- a collapsed superposition with one tiny weight, watched for
                 verdict flips (resurrection events);
* ``marbles`` -- n non-interacting copies, counted against the box.

Verdicts are read off a chosen ontology: matter density (majority of mass in
the box), flashes (fraction of windowed flashes in the box), or the
weight-only view, which by construction yields no spatial verdict at all.
Flashes are columns, as in a trajectory record: a collapsed-past prehistory
is (times, particles, centers) arrays, and a window is an index range over
a time-sorted column (``ScenarioConfig.flash_window``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import BranchSystems, GrwParams, RngStream, TrajectoryState
from .errors import ConfigError, NumericsError
from .ontology import (
    MatterDensityField,
    default_window,
    flash_fraction_in_region,
    mass_fraction_in_region,
)
from .state import BranchState, GridSpec, Packet, Region, make_grid_wavefunction

# cap on the expected collapse count N * lambda_eff * T of one trajectory;
# the run loop has no other bound, and its event columns grow with the count
MAX_EXPECTED_EVENTS = 10**6
# draws of a prehistory center before it must have fallen in the box, and the
# most centers a collapsed past may expect to leave outside after them
PREHISTORY_TRIES = 100
MAX_EXHAUSTED = 1e-9


class ScenarioKind(str, Enum):
    CAT = "cat"
    TAIL = "tail"
    MARBLES = "marbles"


class Ontology(str, Enum):
    GRW0 = "grw0"
    GRWF = "grwf"
    GRWM = "grwm"


class History(str, Enum):
    COLLAPSED_PAST = "collapsed_past"
    FRESH_PREPARATION = "fresh_preparation"


class Verdict(str, Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    PARTIAL = "partial"
    UNDEFINED = "undefined"


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def verdict_from_fraction(fraction: float, theta: float) -> Verdict:
    """Threshold rule shared by all ontologies.

    Inside needs fraction >= theta AND fraction > 1 - theta (the second
    clause bites only at theta = 0.5, where an exact half is Partial);
    Outside is the mirror image; anything else is Partial.
    """
    if math.isnan(fraction):
        return Verdict.UNDEFINED
    if fraction >= theta and fraction > 1.0 - theta:
        return Verdict.INSIDE
    if fraction <= 1.0 - theta and fraction < theta:
        return Verdict.OUTSIDE
    return Verdict.PARTIAL


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and run one scenario."""

    kind: ScenarioKind = ScenarioKind.CAT
    c1_sq: float = 0.9
    n_marbles: int = 1
    box: Region = Region(-10.0, 10.0)
    ontology: Ontology = Ontology.GRWM
    history: History = History.FRESH_PREPARATION
    params: GrwParams = GrwParams()
    theta_m: float = 0.5
    theta_f: float = 0.99
    window: float | None = None  # time width; None derives ~100 expected flashes
    window_flashes: int | None = None  # when set, windows are "last/first k flashes"
    backend: str = "branch"  # "branch" | "grid"
    inside_anchor: float | None = None  # default: box midpoint
    outside_anchor: float | None = None  # default: box.upper + 20 sigma
    packet_width: float | None = None  # grid backend; default sigma / 2
    grid_points: int = 512
    x_min: float | None = None
    x_max: float | None = None
    density_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.c1_sq < 1.0:
            raise ConfigError(f"c1_sq must lie strictly between 0 and 1, got {self.c1_sq}")
        if self.n_marbles < 1:
            raise ConfigError("n_marbles must be >= 1")
        if self.kind is not ScenarioKind.MARBLES and self.n_marbles != 1:
            raise ConfigError(f"{self.kind.value} scenarios are single-system; set n_marbles = 1")
        if not 0.0 < self.theta_m < 1.0:
            raise ConfigError("theta_m must lie in (0, 1)")
        if not 0.5 < self.theta_f <= 1.0:
            raise ConfigError("theta_f must lie in (0.5, 1]")
        if self.backend not in ("branch", "grid"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == "grid" and self.n_marbles > 1:
            raise ConfigError("the grid backend supports a single system; marbles need branch")
        for name in ("window", "packet_width"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.window_flashes is not None and self.window_flashes < 1:
            raise ConfigError("window_flashes must be >= 1")
        if not all(0.0 <= t <= self.params.total_time for t in self.density_times):
            raise ConfigError(f"density_times must lie in [0, total_time = {self.params.total_time:g}]")
        names = [f"{t:g}" for t in self.density_times]  # the snapshot files are density-t<name>.csv
        if len(set(names)) < len(names):
            raise ConfigError(f"density_times {self.density_times} repeat a snapshot name: {', '.join(names)}")
        expected = self.num_particles * self.params.lambda_eff * self.params.total_time
        if expected > MAX_EXPECTED_EVENTS:
            raise ConfigError(
                f"a trajectory expects n_marbles * lambda_eff * total_time = {expected:g} "
                f"collapses, above the budget of {MAX_EXPECTED_EVENTS:g}"
            )
        if self.history is History.COLLAPSED_PAST:
            q_in = self.box_probability(self.anchor_positions()[0])
            flashes = self.num_particles * self.params.lambda_eff * self.window_length()
            if flashes * (1.0 - q_in) ** PREHISTORY_TRIES > MAX_EXHAUSTED:
                raise ConfigError(
                    f"the box holds a share {q_in:.3g} of the in-box flash law Normal(a_in, sigma^2 / 2), "
                    f"so a collapsed-past prehistory of {flashes:g} expected flashes may draw a center "
                    f"{PREHISTORY_TRIES} times outside it; widen the box or move inside_anchor into it"
                )

    @property
    def labels(self) -> tuple[str, str]:
        if self.kind is ScenarioKind.MARBLES:
            return ("inside", "outside")
        return ("dead", "alive")

    @property
    def num_particles(self) -> int:
        return self.n_marbles

    def anchor_positions(self) -> tuple[float, float]:
        sigma = self.params.sigma
        a_in = self.inside_anchor
        if a_in is None:
            a_in = 0.5 * (self.box.lower + self.box.upper)
        a_out = self.outside_anchor
        if a_out is None:
            a_out = self.box.upper + 20.0 * sigma
        if not self.box.contains(a_in):
            raise ConfigError(f"inside anchor {a_in} is not inside the box")
        if self.box.contains(a_out) or not math.isfinite(a_out):
            raise ConfigError(f"outside anchor {a_out} must be finite and outside the box")
        return float(a_in), float(a_out)

    def box_probability(self, anchor: float) -> float:
        """The box's share of the flash law Normal(anchor, sigma^2 / 2)."""
        scale = self.params.sigma / math.sqrt(2.0)
        return _normal_cdf((self.box.upper - anchor) / scale) - _normal_cdf((self.box.lower - anchor) / scale)

    def window_length(self) -> float:
        if self.window is not None:
            return self.window
        return default_window(self.num_particles, self.params.lambda_eff)

    def flash_window(self, times: np.ndarray, t: float) -> slice:
        """The index range, in a time-sorted column, of the flashes that fix the facts at time t.

        The last window_flashes flashes up to t, or else the flashes in the
        half-open interval (t - window, t].
        """
        end = int(np.searchsorted(times, t, side="right"))
        if self.window_flashes is not None:
            return slice(max(end - self.window_flashes, 0), end)
        return slice(int(np.searchsorted(times, t - self.window_length(), side="right")), end)


# a flash record as columns: (times, particles, centers)
FlashColumns = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class Scenario:
    """A built scenario: initial state and any pre-run flash history."""

    config: ScenarioConfig
    initial_state: TrajectoryState
    prehistory: FlashColumns


# prehistory generators live on a disjoint block of stream ids
PREHISTORY_STREAM_OFFSET = 2**48


def seed_prehistory(config: ScenarioConfig, rng: np.random.Generator) -> FlashColumns:
    """Flashes before t=0 in time order, all consistent with the in-box branch.

    One Poisson batch per particle over the window preceding the start;
    positions are drawn from the in-box branch's center law, rejection
    sampled into the box so the construction is inside by definition.  A
    center still outside after PREHISTORY_TRIES draws raises NumericsError;
    ScenarioConfig rejects a box where that is not vanishingly rare.
    """
    a_in, _ = config.anchor_positions()
    sigma = config.params.sigma
    window = config.window_length()
    times, particles, centers = [], [], []
    for particle in range(config.num_particles):
        count = int(rng.poisson(config.params.lambda_eff * window))
        for t in np.sort(rng.uniform(-window, 0.0, size=count)).tolist():
            for _ in range(PREHISTORY_TRIES):
                center = float(rng.normal(a_in, sigma / np.sqrt(2.0)))
                if config.box.contains(center):
                    break
            else:
                raise NumericsError(f"no prehistory center fell in the box in {PREHISTORY_TRIES} draws")
            times.append(t)
            particles.append(particle)
            centers.append(center)
    order = np.argsort(times, kind="stable")
    return np.array(times)[order], np.array(particles, dtype=int)[order], np.array(centers)[order]


def build_scenario(config: ScenarioConfig, rng: np.random.Generator | None = None) -> Scenario:
    """Initial state and prehistory for a scenario config.

    Branch scenarios start as a BranchSystems: cat and tail are one system,
    marbles are n_marbles systems.  CollapsedPast histories come with a
    pre-window flash record consistent with the in-box branch; fresh
    preparations start with no flashes at all.  The initial state draws
    nothing from rng, so only the prehistory depends on it.
    """
    a_in, a_out = config.anchor_positions()
    weights = (config.c1_sq, 1.0 - config.c1_sq)
    state: TrajectoryState
    if config.backend == "grid":
        sigma = config.params.sigma
        width = config.packet_width if config.packet_width is not None else 0.5 * sigma
        lo = config.x_min if config.x_min is not None else min(a_in, config.box.lower) - 15.0 * sigma
        hi = config.x_max if config.x_max is not None else max(a_out, config.box.upper) + 15.0 * sigma
        spec = GridSpec(lo, hi, config.grid_points, 1)
        state = make_grid_wavefunction(
            spec,
            [
                Packet((a_in,), width, np.sqrt(weights[0])),
                Packet((a_out,), width, np.sqrt(weights[1])),
            ],
        )
    else:
        state = BranchSystems(
            [
                BranchState.from_weights(config.labels, weights, [[a_in], [a_out]])
                for _ in range(config.n_marbles)
            ]
        )

    if config.history is not History.COLLAPSED_PAST:
        return Scenario(config, state, (np.empty(0), np.empty(0, dtype=int), np.empty(0)))
    if rng is None:
        rng = RngStream(0, PREHISTORY_STREAM_OFFSET).generator()
    return Scenario(config, state, seed_prehistory(config, rng))


# ---------------------------------------------------------------------------
# classification

def classify_grwm(field: MatterDensityField, box: Region, theta_m: float) -> Verdict:
    """Verdict from the fraction of matter inside the box."""
    if field.total_mass <= 0.0:
        return Verdict.UNDEFINED
    return verdict_from_fraction(mass_fraction_in_region(field, box), theta_m)


def classify_grwf(centers: np.ndarray, box: Region, theta_f: float) -> Verdict:
    """Verdict from the fraction of a window's flash centers in the box; no flashes (nan) means no fact."""
    return verdict_from_fraction(flash_fraction_in_region(centers, box)[0], theta_f)


def branch_box_fraction(state: BranchState, box: Region) -> float:
    """Mass fraction in the box for point anchors, without rasterizing.

    Equals mass_fraction_in_region over a covering grid: each branch puts
    weight w_i on its anchors, averaged over the equal-mass particles.
    """
    inside = (state.anchors >= box.lower) & (state.anchors <= box.upper)
    return float(np.sum(state.weights[:, None] * inside) / state.num_particles)


def classify_branch_grwm(state: BranchState, box: Region, theta_m: float) -> Verdict:
    return verdict_from_fraction(branch_box_fraction(state, box), theta_m)


def density_grid(config: ScenarioConfig) -> np.ndarray:
    """Uniform 2048-cell center grid covering box and anchors with 5-sigma margins."""
    a_in, a_out = config.anchor_positions()
    sigma = config.params.sigma
    lo = min(config.box.lower, a_in, a_out) - 5.0 * sigma
    hi = max(config.box.upper, a_in, a_out) + 5.0 * sigma
    return GridSpec(lo, hi, 2048).points()
