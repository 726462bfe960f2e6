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
log space.

A trajectory is recorded as three columns, one entry per collapse: the
event times, the collapsed particles and the collapse centers.  Read row by
row they are its flashes (``Flash``, via ``ontology.flashes_of``), which is
all ``replay_state_at`` needs.  Branch weights before and after each
collapse are not stored; ``TrajectoryRecord.events`` rebuilds them on
demand by replaying the columns from the initial state.
The per-event primitives ``sample_collapse_center`` and
``branch_collapse_update`` act on one system (a ``GridWaveFunction`` or
one ``BranchState``) and a particle of it; only the run loop and the
replay map a global particle to its system.
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
        replay = _replay(self.initial_state.copy(), self.params, collapses)
        return [
            CollapseEvent(t, k, x, _logged_summary(before, k), _logged_summary(after, k))
            for (t, k, x), (_, _, before, after) in zip(collapses, replay)
        ]


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
    if not math.isfinite(center):
        raise NumericsError(f"collapse center {center} is not finite")
    if check_separation:
        _warn_if_close(state, sigma)
    # plain-float arithmetic: this is the per-event hot path and the branch
    # counts are tiny, where numpy's call overhead dominates
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
    weights = [math.exp(v) for v in state.log_weights.tolist()]
    u = rng.random() * sum(weights)
    idx = len(weights) - 1
    acc = 0.0
    for j, w in enumerate(weights):
        acc += w
        if u <= acc:
            idx = j
            break
    return float(rng.normal(state.anchors[idx, particle], sigma * _INV_SQRT2))


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


def _logged_summary(system: GridWaveFunction | BranchState, particle: int) -> tuple:
    """A CollapseEvent weight field: the branch weights, or the particle's (mean, std) on the grid."""
    if isinstance(system, GridWaveFunction):
        return _grid_summary(system, particle)
    return tuple([math.exp(v) for v in system.log_weights.tolist()])


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
    state: TrajectoryState = initial_state.copy()
    n = state.num_particles
    sigma = params.sigma

    if not grid:
        for s in state.systems:
            _warn_if_close(s, sigma)

    times: list[float] = []
    particles: list[int] = []
    centers: list[float] = []
    status, diagnostic = "completed", None

    t = 0.0
    while True:
        t_next = t + sample_waiting_time(n, params.lambda_eff, rng)
        if grid:
            state = evolve_unitary(state, min(t_next, params.total_time) - t, params.hamiltonian)
        if t_next > params.total_time:
            break
        # integers(1) consumes no bits, so skipping it leaves the stream unchanged
        particle = int(rng.integers(n)) if n > 1 else 0
        try:
            if grid:
                center = sample_collapse_center(state, particle, sigma, rng)
                state = apply_collapse_grid(state, particle, center, sigma)
            else:
                sys_idx, local = state.locate(particle)
                system = state.systems[sys_idx]
                center = sample_collapse_center(system, local, sigma, rng)
                state.systems[sys_idx] = branch_collapse_update(
                    system, local, center, sigma, check_separation=False
                )
        except NumericsError as exc:
            status = "aborted"
            diagnostic = f"event {len(times)} at t={t_next:.6g}: {exc}"
            break
        times.append(t_next)
        particles.append(particle)
        centers.append(center)
        t = t_next

    return TrajectoryRecord(
        params=params,
        times=times,
        particles=particles,
        centers=centers,
        initial_state=initial_state,
        final_state=state,
        status=status,
        diagnostic=diagnostic,
    )


def _replay(
    state: TrajectoryState, params: GrwParams, collapses: Iterable[tuple[float, int, float]]
):
    """Apply (time, particle, center) collapses in order to state, without random draws.

    Yields (time, state, before, after) after each collapse, where before
    and after are the collapsed system (one BranchState, or the whole
    wave function on the grid) just before and just after it.  A
    BranchSystems state is updated in place; pass a copy.
    """
    t_prev = 0.0
    for t, particle, center in collapses:
        if isinstance(state, GridWaveFunction):
            before = evolve_unitary(state, t - t_prev, params.hamiltonian)
            state = after = apply_collapse_grid(before, particle, center, params.sigma)
        else:
            sys_idx, local = state.locate(particle)
            before = state.systems[sys_idx]
            after = branch_collapse_update(before, local, center, params.sigma, check_separation=False)
            state.systems[sys_idx] = after
        t_prev = t
        yield t, state, before, after


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
    state = initial_state.copy()
    t_prev = 0.0
    upto_t = ((e.time, e.particle, e.center) for e in takewhile(lambda e: e.time <= t, events))
    for t_prev, state, _, _ in _replay(state, params, upto_t):
        pass
    if isinstance(state, GridWaveFunction):
        state = evolve_unitary(state, t - t_prev, params.hamiltonian)
    return state


def _warn_if_close(state: BranchState, sigma: float) -> None:
    # stacklevel 3 names the caller of run_trajectory / branch_collapse_update
    sep = state.separation()
    if sep < 10.0 * sigma:
        warnings.warn(
            f"branch separation {sep:.3g} < 10 sigma; point-anchor updates "
            "are unreliable for this state",
            stacklevel=3,
        )
