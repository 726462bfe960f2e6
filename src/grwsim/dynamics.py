"""The GRW stochastic jump process.

Between jumps the state evolves unitarily (identity for H=0, spectral
propagation for free particles).  Jumps arrive as a Poisson process with
total rate ``N * lambda_eff``; each jump picks a particle uniformly at
random, draws a collapse center X from the operator-completeness density
``p(X) = ||L_{k,X} psi||^2``, and applies the collapse.

The collapse operator multiplies the wavefunction along the chosen
coordinate by ``g(u) = (pi sigma^2)^(-1/4) exp(-u^2 / (2 sigma^2))`` with
``u = x_k - X``.  With this convention ``g^2`` is a normalized Gaussian of
variance ``sigma^2 / 2``, so ``int p(X) dX = 1`` exactly and the expected
branch weights are conserved event by event (the Born martingale).

For point-anchored branches the same rule reduces to the closed form
``w_i' proportional to w_i * exp(-(a_ik - X)^2 / sigma^2)``, applied here in
log space, and X is drawn from ``sum_i w_i Normal(a_ik, sigma^2 / 2)``.
Both steps are written once, on plain Python floats (``_draw_center`` and
``_posterior``, the branch kernel), over one system's log-weight list and
the collapsed particle's anchor list.

A trajectory is recorded as three columns, one entry per collapse: the
event times, the collapsed particles and the collapse centers.  Read row by
row they are its flashes (``Flash``, via ``ontology.flashes_of``), which is
all ``replay_state_at`` needs.  Branch weights before and after each
collapse are not stored; ``TrajectoryRecord.events`` rebuilds them on
demand by replaying the columns from the initial state.
The per-event primitives ``sample_collapse_center`` and
``branch_collapse_update`` act on one system (a ``GridWaveFunction`` or
one ``BranchState``) and a particle of it; on a ``BranchState`` they are
thin wrappers over the branch kernel.  The run loop and the replay call
the kernel directly, on the lists that ``_branch_lists`` reads once per
trajectory, and they alone map a global particle to its system (through
``BranchSystems._owners``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Iterable, Sequence, Union

import numpy as np
from numpy.fft import fftfreq, fftn, ifftn
from numpy.random import SeedSequence, default_rng

from .errors import ConfigError, NumericsError, ZeroProbabilityCollapseError
from .state import BranchState, GridWaveFunction, marginal_density, norm_squared

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Collapse norms at or below this are treated as zero-probability events.
UNDERFLOW_FLOOR = 1e-150

# g^2 is truncated at this many sigmas when tabulated on a grid.
_KERNEL_REACH = 9.0


@dataclass(frozen=True)
class Hamiltonian:
    """Between-jump generator: 'zero' (default) or 'free' with a per-particle mass."""

    kind: str = "zero"
    mass: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "free"):
            raise ConfigError(f"unknown hamiltonian kind {self.kind!r}")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ConfigError(f"particle mass must be positive and finite, got {self.mass}")


ZERO_HAMILTONIAN = Hamiltonian("zero")


@dataclass(frozen=True)
class GrwParams:
    """Dimensionless process parameters; sigma is the length unit's anchor."""

    lambda_eff: float = 1.0
    sigma: float = 1.0
    total_time: float = 10.0
    hamiltonian: Hamiltonian = ZERO_HAMILTONIAN

    def __post_init__(self) -> None:
        for name in ("lambda_eff", "sigma", "total_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class RngStream:
    """Reproducible substream: (seed, stream) -> identical draws on every run."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return default_rng(SeedSequence(self.seed, spawn_key=(self.stream,)))


@dataclass(frozen=True)
class Flash:
    """One collapse event in space-time: a trajectory's (time, center, particle)."""

    time: float
    center: float
    particle: int


@dataclass(frozen=True)
class CollapseEvent:
    """One collapse: when, which particle, where, and the weight change.

    For branch models the weight fields hold the affected system's branch
    weights; for the grid model they hold (marginal mean, marginal std) of
    the collapsed particle.  Built on demand by TrajectoryRecord.events.
    """

    time: float
    particle: int
    center: float
    pre_weights: tuple
    post_weights: tuple


@dataclass
class BranchSystems:
    """Non-interacting branch systems sharing one collapse clock.

    The trajectory state of every branch scenario: a cat or a tail is one
    system, n marbles are n systems.  Global particle indices run over the
    systems in order; with one particle per system the particle index is the
    system index.
    """

    systems: list[BranchState]
    # global particle -> (system, local particle); fixed at construction
    _owners: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._owners = [
            (i, k) for i, s in enumerate(self.systems) for k in range(s.num_particles)
        ]

    @property
    def num_particles(self) -> int:
        return len(self._owners)

    def locate(self, particle: int) -> tuple[int, int]:
        if not 0 <= particle < len(self._owners):
            raise ConfigError(f"particle index {particle} out of range for N={self.num_particles}")
        return self._owners[particle]

    def copy(self) -> "BranchSystems":
        return BranchSystems([s.copy() for s in self.systems])


TrajectoryState = Union[GridWaveFunction, BranchSystems]


@dataclass
class TrajectoryRecord:
    """One run: its collapses as columns (time, particle, center) and its end states."""

    params: GrwParams
    times: list[float]
    particles: list[int]
    centers: list[float]
    initial_state: TrajectoryState
    final_state: TrajectoryState
    status: str = "completed"  # "completed" | "aborted"
    diagnostic: str | None = None

    @property
    def num_events(self) -> int:
        return len(self.times)

    @property
    def events(self) -> list[CollapseEvent]:
        """The CollapseEvent log, rebuilt by replaying the columns from the initial state.

        The replay repeats the run's own arithmetic, so the weights are
        bit-identical to the states the run passed through.
        """
        collapses = list(zip(self.times, self.particles, self.centers))
        initial = self.initial_state
        if isinstance(initial, GridWaveFunction):
            replay = _replay_grid(initial, self.params, collapses)
            return [
                CollapseEvent(t, k, x, _grid_summary(before, k), _grid_summary(after, k))
                for (t, k, x), (before, after) in zip(collapses, replay)
            ]
        log_w, anchors, system_of = _branch_lists(initial)
        # each system's weights as logged: its last post-weights are its next pre-weights
        weights = [tuple([math.exp(v) for v in lw]) for lw in log_w]
        events = []
        replay = _replay_branches(log_w, anchors, system_of, self.params.sigma, collapses)
        for (t, k, x), system in zip(collapses, replay):
            post = tuple([math.exp(v) for v in log_w[system]])
            events.append(CollapseEvent(t, k, x, weights[system], post))
            weights[system] = post
        return events


def sample_waiting_time(num_particles: int, lambda_eff: float, rng: np.random.Generator) -> float:
    """Exponential waiting time with mean 1 / (N * lambda_eff)."""
    if num_particles < 1:
        raise ConfigError("num_particles must be >= 1")
    return float(rng.exponential(1.0 / (num_particles * lambda_eff)))


def _g_squared_kernel(dx: float, sigma: float) -> tuple[np.ndarray, int]:
    half = int(np.ceil(_KERNEL_REACH * sigma / dx))
    u = np.arange(-half, half + 1) * dx
    return np.exp(-(u**2) / sigma**2) / np.sqrt(np.pi * sigma**2), half


def collapse_center_density(psi: GridWaveFunction, particle: int, sigma: float) -> np.ndarray:
    """Density of the collapse center on the grid: marginal convolved with g^2.

    Nonnegative by construction; integrates to 1 (operator completeness) as
    long as the state keeps ~9 sigma of clearance from the domain edges.
    """
    marg = marginal_density(psi, particle)
    kernel, half = _g_squared_kernel(psi.spec.dx, sigma)
    full = np.convolve(marg * psi.spec.dx, kernel, mode="full")
    return full[half : half + psi.spec.points_per_axis]


def apply_collapse_grid(
    psi: GridWaveFunction, particle: int, center: float, sigma: float
) -> GridWaveFunction:
    """Multiply by g(x_k - center) along the particle's axis and renormalize."""
    n = psi.spec.num_particles
    if not 0 <= particle < n:
        raise ConfigError(f"particle index {particle} out of range for N={n}")
    x = psi.spec.points()
    g = (np.pi * sigma**2) ** (-0.25) * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))
    shape = [1] * n
    shape[particle] = -1
    new_amps = psi.amplitudes * g.reshape(shape)
    norm = math.sqrt(norm_squared(GridWaveFunction(psi.spec, new_amps)))
    if norm <= UNDERFLOW_FLOOR:
        raise ZeroProbabilityCollapseError(
            f"collapse at X={center} has norm {norm:.3e} (zero-probability collapse)"
        )
    return GridWaveFunction(psi.spec, new_amps / norm)


def branch_collapse_update(
    state: BranchState,
    particle: int,
    center: float,
    sigma: float,
    *,
    check_separation: bool = True,
) -> BranchState:
    """Closed-form posterior for point anchors: w_i' ~ w_i exp(-(a_ik - X)^2 / sigma^2).

    Computed in log space, so any finite number of updates leaves every
    initially positive weight positive.  Zero weights are absorbing.
    """
    if not 0 <= particle < state.num_particles:
        raise ConfigError(
            f"particle index {particle} out of range for N={state.num_particles}"
        )
    if check_separation:
        _warn_if_close(state, sigma)
    anchors = state.anchors[:, particle].tolist()
    log_w = _posterior(state.log_weights.tolist(), anchors, center, 1.0 / (sigma * sigma))
    return BranchState(state.labels, np.array(log_w), state.anchors)


def sample_collapse_center(
    state: GridWaveFunction | BranchState, particle: int, sigma: float, rng: np.random.Generator
) -> float:
    """Draw X with density ||L_{k,X} psi||^2 for one particle of one system.

    Grid model: inverse CDF over the discretized density (the sample is a
    grid cell center, exact with respect to the grid measure).  Branch
    model: the Gaussian mixture sum_i w_i Normal(a_ik, sigma^2 / 2) of the
    system's branches.
    """
    if isinstance(state, GridWaveFunction):
        density = collapse_center_density(state, particle, sigma)
        cdf = np.cumsum(density) * state.spec.dx
        u = rng.random() * cdf[-1]
        idx = min(int(np.searchsorted(cdf, u)), density.size - 1)
        return float(state.spec.points()[idx])
    if not 0 <= particle < state.num_particles:
        raise ConfigError(
            f"particle index {particle} out of range for N={state.num_particles}"
        )
    return _draw_center(
        state.log_weights.tolist(), state.anchors[:, particle].tolist(), sigma * _INV_SQRT2, rng
    )


# The branch kernel: one collapse of one system, on plain floats.  The run
# loop, the replay and the two primitives above all call these, and the
# branch counts are tiny, where numpy's per-call overhead would dominate.


def _draw_center(
    log_weights: list[float], anchors: list[float], spread: float, rng: np.random.Generator
) -> float:
    """X from sum_i w_i Normal(a_i, spread^2), with a_i the collapsed particle's anchors.

    One uniform picks a branch by weight, then one normal draws X.
    """
    weights = [math.exp(v) for v in log_weights]
    u = rng.random() * sum(weights)
    acc = 0.0
    for a, w in zip(anchors, weights):
        acc += w
        if u <= acc:
            return rng.normal(a, spread)
    # rounding left u above the last partial sum
    return rng.normal(anchors[-1], spread)


def _posterior(
    log_weights: list[float], anchors: list[float], center: float, inv_var: float
) -> list[float]:
    """Normalized log posterior log w_i - (a_i - X)^2 * inv_var - log Z, with inv_var = 1 / sigma^2.

    Computed in log space, so a positive weight stays positive; a zero
    weight stays zero.
    """
    if not math.isfinite(center):
        raise NumericsError(f"collapse center {center} is not finite")
    new_log = [lw - (a - center) * (a - center) * inv_var for lw, a in zip(log_weights, anchors)]
    peak = max(new_log)
    if not math.isfinite(peak):
        raise ZeroProbabilityCollapseError(
            "all branch posterior factors underflowed simultaneously"
        )
    total = peak + math.log(sum([math.exp(v - peak) for v in new_log]))
    return [v - total for v in new_log]


def _branch_lists(state: BranchSystems) -> tuple[list[list[float]], list[list[float]], list[int]]:
    """The kernel's view of branch systems: each system's log-weights, each global
    particle's anchors (one per branch of its system) and each global particle's system."""
    log_w = [s.log_weights.tolist() for s in state.systems]
    anchors = [col for s in state.systems for col in s.anchors.T.tolist()]
    return log_w, anchors, [system for system, _ in state._owners]


def _branch_systems(template: BranchSystems, log_w: list[list[float]]) -> BranchSystems:
    """template's systems with the given log-weights; shares no array with template."""
    systems = zip(template.systems, log_w)
    return BranchSystems([BranchState(s.labels, np.array(lw), s.anchors.copy()) for s, lw in systems])


def evolve_unitary(psi: GridWaveFunction, dt: float, hamiltonian: Hamiltonian) -> GridWaveFunction:
    """Unitary step between jumps; identity for H=0, spectral for free particles.

    Free evolution uses periodic boundaries, so states must stay away from
    the domain edges over the simulated times.
    """
    if dt < 0:
        raise ConfigError("dt must be nonnegative")
    if dt == 0 or hamiltonian.kind == "zero":
        return psi
    spec = psi.spec
    k = 2.0 * np.pi * fftfreq(spec.points_per_axis, d=spec.dx)
    phase_1d = np.exp(-1j * k**2 * dt / (2.0 * hamiltonian.mass))
    amps_k = fftn(psi.amplitudes)
    for axis in range(spec.num_particles):
        shape = [1] * spec.num_particles
        shape[axis] = -1
        amps_k = amps_k * phase_1d.reshape(shape)
    return GridWaveFunction(spec, ifftn(amps_k))


def _grid_summary(psi: GridWaveFunction, particle: int) -> tuple[float, float]:
    marg = marginal_density(psi, particle)
    x = psi.spec.points()
    mass = marg.sum() * psi.spec.dx
    mean = float((marg * x).sum() * psi.spec.dx / mass)
    var = float((marg * (x - mean) ** 2).sum() * psi.spec.dx / mass)
    return mean, float(np.sqrt(max(var, 0.0)))


def _require_trajectory_state(state: object) -> None:
    if not isinstance(state, (GridWaveFunction, BranchSystems)):
        raise ConfigError(
            f"trajectory state must be a GridWaveFunction or BranchSystems, not {type(state).__name__}"
        )


def run_trajectory(
    initial_state: TrajectoryState,
    params: GrwParams,
    stream: RngStream,
) -> TrajectoryRecord:
    """Run one full GRW trajectory up to params.total_time.

    Interleaves exponential waiting times (rate N * lambda_eff), uniform
    particle selection, collapse-center sampling, collapse application and
    unitary evolution.  Every collapse is recorded as its time, particle
    and center.  Deterministic given the RngStream.  Numerical failures
    abort the trajectory with a diagnostic instead of silently continuing.
    The caller's initial state is never modified.
    """
    _require_trajectory_state(initial_state)
    grid = isinstance(initial_state, GridWaveFunction)
    if params.hamiltonian.kind != "zero" and not grid:
        raise ConfigError("free-particle evolution requires the grid model")
    rng = stream.generator()
    if grid:
        times, particles, centers, final_state, diagnostic = _run_grid(
            initial_state.copy(), params, rng
        )
    else:
        for s in initial_state.systems:
            _warn_if_close(s, params.sigma)
        log_w, anchors, system_of = _branch_lists(initial_state)
        times, particles, centers, diagnostic = _run_branches(log_w, anchors, system_of, params, rng)
        final_state = _branch_systems(initial_state, log_w)

    return TrajectoryRecord(
        params=params,
        times=times,
        particles=particles,
        centers=centers,
        initial_state=initial_state,
        final_state=final_state,
        status="completed" if diagnostic is None else "aborted",
        diagnostic=diagnostic,
    )


def _run_grid(state: GridWaveFunction, params: GrwParams, rng: np.random.Generator) -> tuple:
    """run_trajectory's grid arm: (times, particles, centers, final state, diagnostic),
    where the diagnostic is None unless a numerical failure aborted the run."""
    times: list[float] = []
    particles: list[int] = []
    centers: list[float] = []
    n = state.num_particles
    sigma = params.sigma
    t = 0.0
    while True:
        t_next = t + sample_waiting_time(n, params.lambda_eff, rng)
        state = evolve_unitary(state, min(t_next, params.total_time) - t, params.hamiltonian)
        if t_next > params.total_time:
            return times, particles, centers, state, None
        # integers(1) consumes no bits, so skipping it leaves the stream unchanged
        particle = int(rng.integers(n)) if n > 1 else 0
        try:
            center = sample_collapse_center(state, particle, sigma, rng)
            state = apply_collapse_grid(state, particle, center, sigma)
        except NumericsError as exc:
            return times, particles, centers, state, f"event {len(times)} at t={t_next:.6g}: {exc}"
        times.append(t_next)
        particles.append(particle)
        centers.append(center)
        t = t_next


def _run_branches(
    log_w: list[list[float]], anchors: list[list[float]], system_of: list[int],
    params: GrwParams, rng: np.random.Generator,
) -> tuple:
    """run_trajectory's branch arm on _branch_lists' view: (times, particles, centers, diagnostic).

    Steps log_w in place.  Draws per event, in order: the waiting time, the
    particle (only when N > 1), the branch and the center.
    """
    times: list[float] = []
    particles: list[int] = []
    centers: list[float] = []
    n = len(anchors)
    wait_scale = 1.0 / (n * params.lambda_eff)
    spread = params.sigma * _INV_SQRT2
    inv_var = 1.0 / (params.sigma * params.sigma)
    total_time = params.total_time
    exponential, integers = rng.exponential, rng.integers
    t = 0.0
    while True:
        t_next = t + exponential(wait_scale)
        if t_next > total_time:
            return times, particles, centers, None
        particle = int(integers(n)) if n > 1 else 0
        system = system_of[particle]
        try:
            center = _draw_center(log_w[system], anchors[particle], spread, rng)
            log_w[system] = _posterior(log_w[system], anchors[particle], center, inv_var)
        except NumericsError as exc:
            return times, particles, centers, f"event {len(times)} at t={t_next:.6g}: {exc}"
        times.append(t_next)
        particles.append(particle)
        centers.append(center)
        t = t_next


def _replay_grid(
    psi: GridWaveFunction, params: GrwParams, collapses: Iterable[tuple[float, int, float]]
):
    """Apply (time, particle, center) collapses in order to psi, without random draws.

    Yields (before, after) per collapse: the wave function evolved to the
    collapse time, and the same collapsed.
    """
    t_prev = 0.0
    for t, particle, center in collapses:
        before = evolve_unitary(psi, t - t_prev, params.hamiltonian)
        psi = apply_collapse_grid(before, particle, center, params.sigma)
        t_prev = t
        yield before, psi


def _replay_branches(
    log_w: list[list[float]],
    anchors: list[list[float]],
    system_of: list[int],
    sigma: float,
    collapses: Iterable[tuple[float, int, float]],
):
    """Apply (time, particle, center) collapses in order to _branch_lists' view, without random draws.

    Steps log_w in place and yields the collapsed system's index after each
    collapse.
    """
    inv_var = 1.0 / (sigma * sigma)
    n = len(anchors)
    for _, particle, center in collapses:
        if not 0 <= particle < n:
            raise ConfigError(f"particle index {particle} out of range for N={n}")
        system = system_of[particle]
        log_w[system] = _posterior(log_w[system], anchors[particle], center, inv_var)
        yield system


def replay_state_at(
    initial_state: TrajectoryState,
    params: GrwParams,
    events: Sequence[Flash | CollapseEvent],
    t: float,
) -> TrajectoryState:
    """Reconstruct the state at time t from the initial state and its collapses.

    Reads the time, particle and center of each Flash or CollapseEvent.
    Collapse centers are logged exactly, so the replay reproduces the
    trajectory's state bit-for-bit without any random draws.
    """
    _require_trajectory_state(initial_state)
    upto_t = [(e.time, e.particle, e.center) for e in takewhile(lambda e: e.time <= t, events)]
    if isinstance(initial_state, GridWaveFunction):
        state = initial_state.copy()
        for _, state in _replay_grid(state, params, upto_t):
            pass
        t_prev = upto_t[-1][0] if upto_t else 0.0
        return evolve_unitary(state, t - t_prev, params.hamiltonian)
    log_w, anchors, system_of = _branch_lists(initial_state)
    for _ in _replay_branches(log_w, anchors, system_of, params.sigma, upto_t):
        pass
    return _branch_systems(initial_state, log_w)


def _warn_if_close(state: BranchState, sigma: float) -> None:
    # stacklevel 3 names the caller of run_trajectory / branch_collapse_update
    sep = state.separation()
    if sep < 10.0 * sigma:
        warnings.warn(
            f"branch separation {sep:.3g} < 10 sigma; point-anchor updates "
            "are unreliable for this state",
            stacklevel=3,
        )
