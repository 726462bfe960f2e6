"""Quantum-state substrates for collapse trajectories.

Two interoperable representations:

* ``GridWaveFunction`` -- exact complex amplitudes of ``N`` particles on a
  discretized configuration grid (one spatial dimension per particle,
  midpoint cells).  The exact-dynamics substrate; capped at ``N <= 3``
  because the grid grows as ``points**N``.
* ``BranchState`` -- finitely many macroscopically distinct branches, each a
  weight plus one point anchor per particle.  The analytic fast path for
  superpositions with widely separated components; weights are kept in log
  space so that no finite number of collapses can drive a positive weight to
  exactly zero.

All quantities are dimensionless: the collapse width sigma is the unit of
length, 1/lambda_eff the unit of time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ConfigError

# Cells beyond this total are rejected outright (memory guard).
MAX_GRID_CELLS = 2**24
MAX_GRID_PARTICLES = 3

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the configuration grid: N particles on a shared 1-D axis."""

    x_min: float
    x_max: float
    points_per_axis: int
    num_particles: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and self.x_min < self.x_max and math.isfinite(self.x_max)):
            raise ConfigError(f"grid needs finite x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.points_per_axis < 2:
            raise ConfigError("points_per_axis must be >= 2")
        if self.num_particles < 1:
            raise ConfigError("num_particles must be >= 1")
        if self.num_particles > MAX_GRID_PARTICLES:
            raise ConfigError(
                f"grid model supports at most {MAX_GRID_PARTICLES} particles; "
                "use BranchState for larger systems"
            )
        # points**N, computed in log space so the check itself cannot overflow
        if self.num_particles * np.log2(self.points_per_axis) > np.log2(MAX_GRID_CELLS):
            raise ConfigError(
                f"configuration grid {self.points_per_axis}^{self.num_particles} "
                f"exceeds the cap of {MAX_GRID_CELLS} cells"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.points_per_axis

    def points(self) -> np.ndarray:
        """Cell-center coordinates of the 1-D axis (midpoint rule).

        Computed once per spec and shared by every call, so the array is
        read-only; copy it before writing.
        """
        return _cell_centers(self)


@lru_cache(maxsize=16)
def _cell_centers(spec: GridSpec) -> np.ndarray:
    x = spec.x_min + (np.arange(spec.points_per_axis) + 0.5) * spec.dx
    x.flags.writeable = False
    return x


@dataclass
class GridWaveFunction:
    """Complex amplitudes over the N-particle configuration grid."""

    spec: GridSpec
    amplitudes: np.ndarray

    @property
    def num_particles(self) -> int:
        return self.spec.num_particles

    @property
    def cell_volume(self) -> float:
        return self.spec.dx**self.spec.num_particles

    def copy(self) -> "GridWaveFunction":
        return GridWaveFunction(self.spec, self.amplitudes.copy())


@dataclass(frozen=True)
class Packet:
    """One product-Gaussian component: |phi_k|^2 is Normal(center_k, width^2)."""

    centers: tuple[float, ...]
    width: float
    coefficient: complex = 1.0


@dataclass(frozen=True)
class Region:
    """A 1-D interval ("the box")."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and self.lower < self.upper and math.isfinite(self.upper)):
            raise ConfigError(f"region needs finite lower < upper, got [{self.lower}, {self.upper}]")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def norm_squared(psi: GridWaveFunction) -> float:
    """Riemann sum of |psi|^2 times the cell volume."""
    return float(np.sum(np.abs(psi.amplitudes) ** 2) * psi.cell_volume)


def normalize(psi: GridWaveFunction) -> GridWaveFunction:
    n2 = norm_squared(psi)
    if n2 <= 0.0:
        raise ConfigError("cannot normalize a zero wavefunction")
    return GridWaveFunction(psi.spec, psi.amplitudes / np.sqrt(n2))


def make_grid_wavefunction(spec: GridSpec, packets: Sequence[Packet]) -> GridWaveFunction:
    """Build a normalized superposition of product-Gaussian packets.

    Each packet contributes ``coefficient * prod_k exp(-(x_k - c_k)^2 / (4 w^2))``
    so that its single-particle position density has standard deviation ``w``.
    Packets narrower than 2 grid cells are unresolvable and rejected.
    """
    if not packets:
        raise ConfigError("packet list is empty")
    if all(p.coefficient == 0 for p in packets):
        raise ConfigError("all packet coefficients are zero")
    x = spec.points()
    amps = np.zeros((spec.points_per_axis,) * spec.num_particles, dtype=np.complex128)
    for p in packets:
        if len(p.centers) != spec.num_particles:
            raise ConfigError(
                f"packet has {len(p.centers)} centers for {spec.num_particles} particles"
            )
        if p.width <= 0:
            raise ConfigError("packet width must be positive")
        if p.width < 2 * spec.dx:
            raise ConfigError(
                f"packet width {p.width} is below 2 grid cells ({2 * spec.dx}); unresolvable"
            )
        for c in p.centers:
            if not (spec.x_min <= c <= spec.x_max):
                raise ConfigError(f"packet center {c} outside [{spec.x_min}, {spec.x_max}]")
        factors = [np.exp(-((x - c) ** 2) / (4.0 * p.width**2)) for c in p.centers]
        prod = factors[0]
        for f in factors[1:]:
            prod = np.multiply.outer(prod, f)
        amps += p.coefficient * prod
    psi = GridWaveFunction(spec, amps)
    return normalize(psi)


def check_particle(particle: int, n: int) -> None:
    """Raise ConfigError unless particle is a 0-based index of n particles."""
    if not 0 <= particle < n:
        raise ConfigError(f"particle index {particle} out of range for N={n}")


def marginal_rows(density: np.ndarray, particle: int, spec: GridSpec) -> np.ndarray:
    """One particle's marginal of each row of density (R, *grid): the other axes summed, times dx each."""
    axes = tuple(ax + 1 for ax in range(spec.num_particles) if ax != particle)
    return density.sum(axis=axes) * spec.dx ** len(axes) if axes else density


def marginal_density(psi: GridWaveFunction, particle: int) -> np.ndarray:
    """Position density of one particle, the others integrated out.

    Returns an array over the 1-D grid; its Riemann integral equals
    ``norm_squared(psi)``.  Particle indices are 0-based.
    """
    check_particle(particle, psi.spec.num_particles)
    return marginal_rows(np.abs(psi.amplitudes[None]) ** 2, particle, psi.spec)[0]


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-D real array, with scipy.special.logsumexp's arithmetic.

    The maxima are split out of the shifted sum and counted:
    log1p(s / m) + log(m) + max, so the result is bit-identical to SciPy's.
    A non-finite result falls back to log(sum(exp(a))), as SciPy's does.
    """
    a_max = np.max(a, keepdims=True)
    ties = a == a_max
    m = np.sum(ties, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum(np.exp(np.where(ties, -np.inf, a) - a_max), keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return out[0]


def _normalized_log_weights(log_w: np.ndarray) -> np.ndarray:
    total = _logsumexp(log_w)
    if not np.isfinite(total):
        raise ConfigError("branch weights sum to zero")
    return log_w - total


@dataclass
class BranchState:
    """Weights and point anchors of macroscopically distinct branches.

    ``log_weights`` is the canonical storage (normalized so the exponentials
    sum to 1); the ``weights`` property is a float64 view that may underflow
    to 0.0 for display even though the branch itself is never extinguished.
    """

    labels: tuple[str, ...]
    log_weights: np.ndarray
    anchors: np.ndarray  # shape (num_branches, num_particles)

    @classmethod
    def from_weights(
        cls,
        labels: Sequence[str],
        weights: Sequence[float],
        anchors: Sequence[Sequence[float]],
    ) -> "BranchState":
        w = np.asarray(weights, dtype=float)
        a = np.atleast_2d(np.asarray(anchors, dtype=float))
        if len(labels) != w.size or a.shape[0] != w.size:
            raise ConfigError("labels, weights and anchors must have matching lengths")
        if np.any(w < 0):
            raise ConfigError("branch weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"branch weights sum to {w.sum()}, expected 1 +/- {WEIGHT_SUM_TOL}")
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        return cls(tuple(labels), _normalized_log_weights(log_w), a)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @property
    def num_branches(self) -> int:
        return len(self.labels)

    @property
    def num_particles(self) -> int:
        return self.anchors.shape[1]

    def separation(self) -> float:
        """Min over branch pairs and particles of the anchor distance (inf below 2 branches)."""
        # plain floats: run_trajectory asks this of every system of every trajectory
        return min(
            (abs(a - b) for col in self.anchors.T.tolist() for a, b in combinations(col, 2)),
            default=math.inf,
        )

    def copy(self) -> "BranchState":
        return BranchState(self.labels, self.log_weights.copy(), self.anchors.copy())

