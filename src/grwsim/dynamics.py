"""The GRW stochastic jump process.

Between jumps the state evolves unitarily (identity for H=0, spectral
propagation for free particles).  Jumps arrive as a Poisson process with
total rate ``N * lambda_eff``; each jump picks a particle uniformly at
random, draws a collapse center X from the operator-completeness density
``p(X) = ||L_{k,X} psi||^2``, and applies the collapse.  On the grid, p is
the particle's marginal convolved with ``g^2``, so X is drawn as a marginal
sample (a cell center) plus Normal(0, sigma^2 / 2) noise: a point of the
real line, and no convolution runs.  ``collapse_center_density`` tabulates
p at the cell centers for the acceptance checks and for users.

Grid trajectories run in lockstep chunks (``run_grid_chunk``): the rows of
one ``(R, points**N)`` array share each step's phase ``exp`` and FFT round
trip, and (for N = 1; else per run of rows that collapse the same
particle) its marginal and collapse, which pays numpy's per-call cost once
per chunk instead of once per trajectory.  R is ``GRID_CHUNK_CELLS // points**N``
(16 rows at 512 points), a bound on the chunk's memory.  The stream
contract is unchanged: trajectory i draws from ``RngStream(seed, i)`` in a
lone run's order, and ``run_trajectory``'s grid arm is a chunk of one.
``evolve_unitary`` and ``apply_collapse_grid``, the replay's primitives,
call the kernel's ``_free_step`` and ``_collapse_rows`` on one row, so a
replay reproduces a run bit for bit.

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

A trajectory is recorded as columns, one entry per collapse: the event
times, the collapsed particles and the collapse centers.  They are its
flashes, and the one flash layout: verdict windows, the collapsed-past
prehistory and the flash logs all read columns.  ``ontology.flashes_of``
reads them row by row as ``Flash`` objects, for ``replay_state_at`` and for
users.  A branch run keeps a fourth column: the collapsed system's
log-weights after each collapse, the list ``_posterior`` returned, so the
weights are kept by the run and never recomputed.  ``TrajectoryRecord.events``
and the event log read them off that column; a grid record rebuilds its
marginal summaries by replaying its columns.
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
from functools import lru_cache
from itertools import groupby, takewhile
from typing import Iterable, Sequence, Union

import numpy as np
from numpy.fft import fft, fftfreq, ifft
from numpy.random import SeedSequence, default_rng

from .errors import ConfigError, NumericsError, ZeroProbabilityCollapseError
from .state import BranchState, GridSpec, GridWaveFunction, check_particle, marginal_density, marginal_rows

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Collapse norms at or below this are treated as zero-probability events.
UNDERFLOW_FLOOR = 1e-150

# g^2 is truncated at this many sigmas when tabulated on a grid.
_KERNEL_REACH = 9.0

# Grid cells run_grid_chunk advances at once: 16 trajectories at 512 points,
# one on a 512^2 grid.  Each row costs a few copies of its amplitudes, so
# the chunk is kept small: on the grid_free benchmark config, 16, 32 and 64
# rows raised peak RSS by 1.1, 2.3 and 4.8 MB over 36.4 MB, and 32 or 64
# rows were at most 3% faster than 16.
GRID_CHUNK_CELLS = 8192


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
        check_particle(particle, len(self._owners))
        return self._owners[particle]

    def copy(self) -> "BranchSystems":
        return BranchSystems([s.copy() for s in self.systems])


TrajectoryState = Union[GridWaveFunction, BranchSystems]


@dataclass
class TrajectoryRecord:
    """One run: its collapses as columns (time, particle, center) and its end states.

    A branch run also keeps post_log_weights: per collapse, the collapsed
    system's log-weights after it.  Grid records leave it empty.
    """

    params: GrwParams
    times: list[float]
    particles: list[int]
    centers: list[float]
    post_log_weights: list[list[float]] = field(default_factory=list, kw_only=True)
    initial_state: TrajectoryState
    final_state: TrajectoryState
    status: str = "completed"  # "completed" | "aborted"
    diagnostic: str | None = None

    @property
    def num_events(self) -> int:
        return len(self.times)

    @property
    def events(self) -> list[CollapseEvent]:
        """The CollapseEvent log.

        A branch record reads its weights off post_log_weights (see
        weight_columns).  A grid record replays its columns from the initial
        state, so its summaries are those of the states the run passed through.
        """
        initial = self.initial_state
        if isinstance(initial, GridWaveFunction):
            collapses = list(zip(self.times, self.particles, self.centers))
            replay = _replay_grid(initial, self.params, collapses)
            return [
                CollapseEvent(t, k, x, _grid_summary(before, k), _grid_summary(after, k))
                for (t, k, x), (before, after) in zip(collapses, replay)
            ]
        weights, pre = self.weight_columns()
        posts = weights[len(weights) - len(pre) :]
        rows = zip(self.times, self.particles, self.centers, pre, posts)
        return [CollapseEvent(t, k, x, weights[p], post) for t, k, x, p, post in rows]

    def weight_columns(self) -> tuple[list[tuple], list[int]]:
        """(weights, pre): each system's initial weights, then each event's post-collapse
        weights of its system; and where each event's pre-weights sit in weights,
        its system's previous post-weights or initial weights.  A weight column that
        does not match the times, or a particle out of range (a hand-built record),
        raises ConfigError.
        """
        if len(self.post_log_weights) != len(self.times):
            raise ConfigError(
                f"branch record holds {len(self.post_log_weights)} post-collapse weight rows "
                f"for {len(self.times)} collapses"
            )
        owners = self.initial_state._owners
        if self.particles and not (0 <= min(self.particles) and max(self.particles) < len(owners)):
            raise ConfigError(f"branch record has a particle index out of range for N={len(owners)}")
        log_w = [s.log_weights.tolist() for s in self.initial_state.systems]
        weights = [tuple([math.exp(v) for v in lw]) for lw in log_w + self.post_log_weights]
        latest, pre = list(range(len(log_w))), []  # each system's latest position in weights
        for i, k in enumerate(self.particles, start=len(log_w)):
            system = owners[k][0]
            pre.append(latest[system])
            latest[system] = i
        return weights, pre


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
    """Density of the collapse center at the cell centers: marginal convolved with g^2.

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
    check_particle(particle, psi.spec.num_particles)
    spec, collapsed = psi.spec, np.empty_like(psi.amplitudes)
    norms = _collapse_rows(psi.amplitudes[None], particle, np.array([center]), spec, sigma, collapsed[None])
    norm = float(norms[0])
    if norm <= UNDERFLOW_FLOOR:
        raise ZeroProbabilityCollapseError(_zero_norm_message(center, norm))
    return GridWaveFunction(spec, collapsed / norm)


def _collapse_rows(
    amps: np.ndarray, particle: int, centers: np.ndarray, spec: GridSpec, sigma: float, out: np.ndarray
) -> np.ndarray:
    """Write each row of amps (R, *grid) times g(x_particle - centers[r]) to out;
    return each product's norm.

    The products are not renormalized: the caller checks the norms against
    UNDERFLOW_FLOOR before dividing by them.
    """
    n = spec.num_particles
    u = spec.points() - centers[:, None]
    g = (np.pi * sigma**2) ** (-0.25) * np.exp(-(u**2) / (2.0 * sigma**2))
    shape = [len(centers)] + [1] * n
    shape[particle + 1] = -1
    np.multiply(amps, g.reshape(shape), out=out)
    return np.sqrt(np.sum(np.abs(out) ** 2, axis=tuple(range(1, n + 1))) * spec.dx**n)


def _zero_norm_message(center: float, norm: float) -> str:
    return f"collapse at X={center} has norm {norm:.3e} (zero-probability collapse)"


def branch_collapse_update(
    state: BranchState,
    particle: int,
    center: float,
    sigma: float,
) -> BranchState:
    """Closed-form posterior for point anchors: w_i' ~ w_i exp(-(a_ik - X)^2 / sigma^2).

    Computed in log space, so any finite number of updates leaves every
    initially positive weight positive.  Zero weights are absorbing.
    """
    check_particle(particle, state.num_particles)
    _warn_if_close(state, sigma)
    anchors = state.anchors[:, particle].tolist()
    log_w = _posterior(state.log_weights.tolist(), anchors, center, 1.0 / (sigma * sigma))
    return BranchState(state.labels, np.array(log_w), state.anchors)


def sample_collapse_center(
    state: GridWaveFunction | BranchState, particle: int, sigma: float, rng: np.random.Generator
) -> float:
    """Draw X with density ||L_{k,X} psi||^2 for one particle of one system.

    That density is the particle's marginal convolved with g^2 =
    Normal(0, sigma^2 / 2), so X = x + noise.  Grid model: one uniform
    picks the cell center x by inverse CDF over the marginal, then one
    normal adds the noise; X is a point of the real line, not a cell center,
    and may fall outside the grid.  Its law is the continuous density whose
    values at the cell centers collapse_center_density tabulates.  Branch
    model: the Gaussian mixture sum_i w_i Normal(a_ik, sigma^2 / 2) of the
    system's branches.
    """
    if isinstance(state, GridWaveFunction):  # marginal_density checks the particle
        cell = _pick_cells(marginal_density(state, particle)[None], np.array([rng.random()]))[0]
        return float(rng.normal(state.spec.points()[cell], sigma * _INV_SQRT2))
    check_particle(particle, state.num_particles)
    return _draw_center(
        state.log_weights.tolist(), state.anchors[:, particle].tolist(), sigma * _INV_SQRT2, rng
    )


def _pick_cells(marginals: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Each row's inverse-CDF cell for its uniform u: the number of cells whose CDF is <= u * total.

    A cumulative sum of nonnegative terms never decreases, so the count
    equals searchsorted(side="right").  Counting over all cells but the
    last caps it at the last cell, which rounding past the total picks.
    """
    cdf = np.cumsum(marginals, axis=1)
    return (cdf[:, :-1] <= (uniforms * cdf[:, -1])[:, None]).sum(axis=1)


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
    amps = _free_step(psi.amplitudes[None], [dt], psi.spec, hamiltonian.mass)
    return GridWaveFunction(psi.spec, amps[0])


def _free_step(amps: np.ndarray, dts: Sequence[float], spec: GridSpec, mass: float) -> np.ndarray:
    """Each row of amps (R, *grid) evolved freely for its own time dts[r] > 0; a new array.

    The phase exp(-1j k^2 dt / (2 mass)) is taken once per distinct k^2
    (fftfreq is sign-symmetric) and gathered onto the FFT axis.
    """
    n = spec.num_particles
    rate, index = _free_rates(spec)
    phase = rate * np.array(dts)[:, None]
    phase /= 2.0 * mass
    phase = np.exp(phase, out=phase)[:, index]
    # fftn and ifftn over the grid axes, last axis first as they run it,
    # without their per-call argument handling
    amps_k = amps
    for axis in range(n, 0, -1):
        amps_k = fft(amps_k, axis=axis)
    for axis in range(1, n + 1):
        shape = [len(dts)] + [1] * n
        shape[axis] = -1
        amps_k *= phase.reshape(shape)
    for axis in range(n, 0, -1):
        amps_k = ifft(amps_k, axis=axis)
    return amps_k


@lru_cache(maxsize=16)
def _free_rates(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(rate, index): -1j * k^2 at the distinct k^2 of spec's FFT axis, and position j's
    entry min(j, points - j) in rate; read-only, one pair per spec.

    fftfreq puts -m exactly at points - m, so rate[index] is -1j * k**2 bit for
    bit.  _free_step scales rate as (rate * dt) / (2 mass), left to right like
    -1j * k**2 * dt / (2 mass); another order moves the phase's last bits.
    """
    points = spec.points_per_axis
    k = 2.0 * np.pi * fftfreq(points, d=spec.dx)[: points // 2 + 1]
    rate = -1j * k**2
    index = np.minimum(np.arange(points), points - np.arange(points))
    rate.flags.writeable = index.flags.writeable = False
    return rate, index


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
    and center, and on branches as the collapsed system's new log-weights.
    Deterministic given the RngStream.  Numerical failures
    abort the trajectory with a diagnostic instead of silently continuing.
    The caller's initial state is never modified.
    """
    _require_trajectory_state(initial_state)
    grid = isinstance(initial_state, GridWaveFunction)
    if params.hamiltonian.kind != "zero" and not grid:
        raise ConfigError("free-particle evolution requires the grid model")
    if grid:
        return run_grid_chunk(initial_state, params, [stream])[0]
    for s in initial_state.systems:
        _warn_if_close(s, params.sigma)
    log_w, anchors, system_of = _branch_lists(initial_state)
    times, particles, centers, post_log_weights, diagnostic = _run_branches(
        log_w, anchors, system_of, params, stream.generator()
    )
    return TrajectoryRecord(
        params=params,
        times=times,
        particles=particles,
        centers=centers,
        post_log_weights=post_log_weights,
        initial_state=initial_state,
        final_state=_branch_systems(initial_state, log_w),
        status="completed" if diagnostic is None else "aborted",
        diagnostic=diagnostic,
    )


def grid_chunk_rows(spec: GridSpec) -> int:
    """How many trajectories on spec's grid run_grid_chunk advances at once."""
    return max(1, GRID_CHUNK_CELLS // spec.points_per_axis**spec.num_particles)


def run_grid_chunk(
    initial_state: GridWaveFunction, params: GrwParams, streams: Sequence[RngStream]
) -> list[TrajectoryRecord]:
    """run_trajectory from one grid state for each stream, in lockstep.

    The trajectories are the rows of one (R, *grid) array: each step takes
    one phase exp and one FFT round trip over every live row, and one
    marginal and one collapse over each block of neighbouring rows that
    collapse the same particle (all of them when N = 1).  Row r draws from
    streams[r] exactly as a lone run does, per event the waiting time, the
    particle (only when N > 1), the uniform and the normal, so every record
    equals its chunk-of-one record bit for bit.  A row leaves at its
    horizon, or aborted with a diagnostic at a zero-probability collapse,
    keeping the state it reached.  Rows whose step is dt = 0 skip the free
    step.
    """
    spec = initial_state.spec
    n = spec.num_particles
    total_time, sigma, hamiltonian = params.total_time, params.sigma, params.hamiltonian
    wait_scale = 1.0 / (n * params.lambda_eff)
    spread = sigma * _INV_SQRT2
    points = spec.points()
    rngs = [s.generator() for s in streams]
    columns = [([], [], []) for _ in streams]  # each row's times, particles, centers
    finals: list = [None] * len(streams)
    diagnostics: list = [None] * len(streams)
    # the live rows: their chunk rows, amplitudes and last event times
    rows = list(range(len(streams)))
    amps = np.repeat(initial_state.amplitudes[None], len(rows), axis=0)
    t = [0.0] * len(rows)
    while rows:
        t_next = [tr + rngs[r].exponential(wait_scale) for r, tr in zip(rows, t)]
        if hamiltonian.kind == "free":
            dts = [min(tn, total_time) - tr for tn, tr in zip(t_next, t)]
            moving = [j for j, dt in enumerate(dts) if dt > 0]
            if len(moving) == len(rows):
                amps = _free_step(amps, dts, spec, hamiltonian.mass)
            elif moving:
                moved = _free_step(amps[moving], [dts[j] for j in moving], spec, hamiltonian.mass)
                amps[moving] = moved
        live = [j for j, tn in enumerate(t_next) if tn <= total_time]
        if len(live) < len(rows):
            for j, r in enumerate(rows):
                if t_next[j] > total_time:
                    finals[r] = amps[j].copy()
            rows, t_next, amps = [rows[j] for j in live], [t_next[j] for j in live], amps[live]
            if not rows:
                break
        # integers(1) consumes no bits, so skipping it leaves the stream unchanged
        particles = [int(rngs[r].integers(n)) if n > 1 else 0 for r in rows]
        uniforms = np.array([rngs[r].random() for r in rows])
        density = np.abs(amps) ** 2
        centers = np.empty(len(rows))
        collapsed = np.empty_like(amps)
        norms = np.empty(len(rows))
        # each run of neighbouring rows that collapse the same particle is one block
        lo = 0
        for particle, block in groupby(particles):
            hi = lo + len(list(block))
            cells = _pick_cells(marginal_rows(density[lo:hi], particle, spec), uniforms[lo:hi])
            x = points[cells].tolist()
            centers[lo:hi] = [rngs[r].normal(x[j], spread) for j, r in enumerate(rows[lo:hi])]
            norms[lo:hi] = _collapse_rows(
                amps[lo:hi], particle, centers[lo:hi], spec, sigma, collapsed[lo:hi]
            )
            lo = hi
        kept = []
        for j, (r, center, norm) in enumerate(zip(rows, centers.tolist(), norms.tolist())):
            times, parts, xs = columns[r]
            if norm <= UNDERFLOW_FLOOR:
                finals[r] = amps[j].copy()
                message = _zero_norm_message(center, norm)
                diagnostics[r] = f"event {len(times)} at t={t_next[j]:.6g}: {message}"
                continue
            times.append(t_next[j])
            parts.append(particles[j])
            xs.append(center)
            kept.append(j)
        if len(kept) < len(rows):
            rows, t_next = [rows[j] for j in kept], [t_next[j] for j in kept]
            collapsed, norms = collapsed[kept], norms[kept]
        amps = np.divide(collapsed, norms.reshape((-1,) + (1,) * n), out=collapsed)
        t = t_next
    return [
        TrajectoryRecord(
            params=params,
            times=times,
            particles=parts,
            centers=xs,
            initial_state=initial_state,
            final_state=GridWaveFunction(spec, final),
            status="completed" if diagnostic is None else "aborted",
            diagnostic=diagnostic,
        )
        for (times, parts, xs), final, diagnostic in zip(columns, finals, diagnostics)
    ]


def _run_branches(
    log_w: list[list[float]], anchors: list[list[float]], system_of: list[int],
    params: GrwParams, rng: np.random.Generator,
) -> tuple:
    """run_trajectory's branch arm on _branch_lists' view:
    (times, particles, centers, post_log_weights, diagnostic).

    Steps log_w in place and keeps each collapsed system's new log-weight
    list as its post_log_weights entry.  Draws per event, in order: the
    waiting time, the particle (only when N > 1), the branch and the center.
    """
    times: list[float] = []
    particles: list[int] = []
    centers: list[float] = []
    post_log_weights: list[list[float]] = []
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
            return times, particles, centers, post_log_weights, None
        particle = int(integers(n)) if n > 1 else 0
        system = system_of[particle]
        try:
            center = _draw_center(log_w[system], anchors[particle], spread, rng)
            log_w[system] = _posterior(log_w[system], anchors[particle], center, inv_var)
        except NumericsError as exc:
            diagnostic = f"event {len(times)} at t={t_next:.6g}: {exc}"
            return times, particles, centers, post_log_weights, diagnostic
        times.append(t_next)
        particles.append(particle)
        centers.append(center)
        post_log_weights.append(log_w[system])
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
    inv_var = 1.0 / (params.sigma * params.sigma)
    for _, particle, center in upto_t:
        check_particle(particle, len(anchors))
        system = system_of[particle]
        log_w[system] = _posterior(log_w[system], anchors[particle], center, inv_var)
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
