"""Primitive-ontology extraction from trajectories.

Three views of the same collapse process:

* flashes -- one space-time point per collapse, held as the trajectory
  record's columns (times, particles, centers); ``flashes_of`` reads them
  row by row as ``Flash`` objects, for ``replay_state_at`` and for users;
* matter density -- mass-weighted sum of single-particle position densities,
  a nonnegative field m(x) integrating to the total mass;
* weight-only view -- branch weights with nothing spatial attached, the
  point of comparison for the other two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import BranchSystems, Flash, TrajectoryRecord
from .errors import ConfigError, NumericsError
from .state import BranchState, GridWaveFunction, Region, marginal_density

COVERAGE_TOL = 1e-6


def flashes_of(trajectory: TrajectoryRecord) -> list[Flash]:
    """One flash per collapse event, order-preserving, same time and center."""
    return list(map(Flash, trajectory.times, trajectory.centers, trajectory.particles))


@dataclass
class MatterDensityField:
    """Mass density m(x) on a uniform 1-D grid at one instant."""

    grid: np.ndarray  # cell centers
    values: np.ndarray  # mass per length, >= 0
    dx: float

    @property
    def total_mass(self) -> float:
        return float(self.values.sum() * self.dx)


def _uniform_spacing(grid: np.ndarray) -> float:
    if grid.size < 2:
        raise ConfigError("density grid needs at least 2 points")
    steps = np.diff(grid)
    dx = float(steps[0])
    if not np.allclose(steps, dx, rtol=1e-9, atol=0.0):
        raise ConfigError("density grid must be uniformly spaced")
    return dx


def _rasterize_branches(
    state: BranchState, mass: float, grid: np.ndarray, dx: float, values: np.ndarray
) -> None:
    """Add each branch anchor as a single-cell spike; off-grid anchors add nothing."""
    w = state.weights
    for i in range(state.num_branches):
        a = state.anchors[i]
        idx = int(np.round((a - grid[0]) / dx))
        if 0 <= idx < grid.size and abs(a - grid[idx]) <= 0.5 * dx + 1e-12:
            values[idx] += w[i] * mass / dx


def matter_density(
    state: GridWaveFunction | BranchSystems, grid: np.ndarray | None = None
) -> MatterDensityField:
    """Mass-weighted density: m(x) = sum_k m_k * (position density of particle k).

    The particles carry equal shares m_k = 1 / N of a unit total mass.
    Branch anchors rasterize as single-cell spikes; a grid state's one
    particle carries all of it, on the state's own grid.  Rejects a grid
    that captures less than 1 - 1e-6 of the total mass.
    """
    if isinstance(state, GridWaveFunction):
        if grid is not None and not np.array_equal(grid, state.spec.points()):
            raise ConfigError("grid states emit density on their own grid; pass grid=None")
        grid = state.spec.points()
        dx = state.spec.dx
        values = marginal_density(state, 0)
    else:
        mass = 1.0 / state.num_particles
        if grid is None:
            raise ConfigError("branch states need an explicit density grid")
        grid = np.asarray(grid, dtype=float)
        dx = _uniform_spacing(grid)
        values = np.zeros_like(grid)
        for s in state.systems:
            _rasterize_branches(s, mass, grid, dx, values)

    field = MatterDensityField(grid=grid, values=values, dx=dx)
    if field.total_mass < 1.0 - COVERAGE_TOL:
        raise NumericsError(f"density grid covers only {field.total_mass:.9g} of the unit total mass")
    return field


def mass_fraction_in_region(field: MatterDensityField, region: Region) -> float:
    """Fraction of the total mass whose cells lie inside the region."""
    total = field.total_mass
    if total <= 0:
        raise NumericsError("matter density has zero total mass")
    inside = (field.grid >= region.lower) & (field.grid <= region.upper)
    return float(field.values[inside].sum() * field.dx / total)


def flash_fraction_in_region(centers: np.ndarray, region: Region) -> tuple[float, int]:
    """(fraction of the flash centers inside the region, flash count).

    No flashes return (nan, 0) so callers can tell "no facts" apart from
    "all outside".  ScenarioConfig.flash_window picks a time's flashes.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.size == 0:
        return float("nan"), 0
    inside = int(np.count_nonzero((centers >= region.lower) & (centers <= region.upper)))
    return inside / centers.size, centers.size


def default_window(num_particles: int, lambda_eff: float) -> float:
    """Window length holding 100 expected flashes."""
    return 100.0 / (num_particles * lambda_eff)


def grw0_view(state: BranchSystems) -> list[list[tuple[str, float]]]:
    """Each system's (label, weight) pairs -- deliberately nothing spatial to point at."""
    return [list(zip(s.labels, s.weights.tolist())) for s in state.systems]
