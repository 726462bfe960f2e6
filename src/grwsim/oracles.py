"""Independent brute-force reference computations.

Everything in here is deliberately slow and simple: direct adaptive
quadrature, an oracle-local center sampler, no shared numerical kernels
with the trajectory engine.  The test suite and the acceptance criteria
compare engine output against these references; the engine modules never
import them.  SciPy's ``quad`` is imported inside
``one_step_posterior_oracle``, the one function that integrates, so
importing ``grwsim`` (and ``grwsim run``) loads no SciPy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import apply_collapse_grid, branch_collapse_update
from .errors import ConfigError, NumericsError
from .state import BranchState, GridSpec, Packet, make_grid_wavefunction, marginal_density

MAX_ORACLE_BRANCHES = 8
QUAD_TOL = 1e-10


@dataclass(frozen=True)
class OneStepOracle:
    """Quadrature results for a single collapse step on point anchors."""

    expected_posterior: tuple[float, ...]
    density_integral: float
    density_mean: float
    density_variance: float


def _posterior_fraction(x: float, weights: np.ndarray, anchors: np.ndarray, sigma: float, i: int):
    log_f = -((anchors - x) ** 2) / sigma**2
    log_f = log_f - log_f.max()
    contrib = weights * np.exp(log_f)
    return contrib[i] / contrib.sum()


def one_step_posterior_oracle(
    weights: Sequence[float], anchors: Sequence[float], sigma: float
) -> OneStepOracle:
    """Expected posterior weights and center-density moments by quadrature.

    The center density is p(X) = sum_j w_j Normal(X; a_j, sigma^2 / 2) and
    the posterior weight of branch i given X is
    w_i exp(-(a_i - X)^2 / sigma^2) / normalization.  Integrals run over a
    +/- 20 sigma padding of the anchor span; the truncated tails are far
    below the 1e-10 tolerance.
    """
    from scipy.integrate import quad

    w = np.asarray(weights, dtype=float)
    a = np.asarray(anchors, dtype=float)
    if w.size != a.size:
        raise ConfigError("weights and anchors must have equal length")
    if w.size > MAX_ORACLE_BRANCHES:
        raise ConfigError(f"oracle supports at most {MAX_ORACLE_BRANCHES} branches")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ConfigError("weights must sum to 1")

    lo = float(a.min() - 20.0 * sigma)
    hi = float(a.max() + 20.0 * sigma)
    interior = sorted(float(v) for v in a)
    norm = 1.0 / np.sqrt(np.pi * sigma**2)

    def density(x: float) -> float:
        return float(np.sum(w * norm * np.exp(-((a - x) ** 2) / sigma**2)))

    def integrate(f, label: str) -> float:
        value, abserr = quad(f, lo, hi, points=interior, limit=400, epsabs=1e-13, epsrel=1e-13)
        if abserr > QUAD_TOL:
            raise NumericsError(f"quadrature for {label} did not converge: abserr={abserr:.2e}")
        return value

    total = integrate(density, "density integral")
    mean = integrate(lambda x: x * density(x), "density mean")
    second = integrate(lambda x: x * x * density(x), "density second moment")
    posterior = tuple(
        integrate(
            lambda x, i=i: density(x) * _posterior_fraction(x, w, a, sigma, i),
            f"posterior weight {i}",
        )
        for i in range(w.size)
    )
    return OneStepOracle(
        expected_posterior=posterior,
        density_integral=total,
        density_mean=mean,
        density_variance=second - mean**2,
    )


@dataclass(frozen=True)
class CrosscheckResult:
    max_discrepancy: float
    n_cases: int
    compliant: bool
    separations: tuple[float, ...]


def _sample_mixture_center(
    weights: np.ndarray, anchors: np.ndarray, sigma: float, rng: np.random.Generator
) -> float:
    # oracle-local sampler, independent of the engine's
    u = rng.random()
    acc = 0.0
    idx = len(weights) - 1
    for j, wj in enumerate(weights):
        acc += wj
        if u <= acc:
            idx = j
            break
    return float(rng.normal(anchors[idx], sigma / np.sqrt(2.0)))


def grid_branch_crosscheck(
    n_cases: int = 100,
    seed: int = 0,
    sigma: float = 1.0,
    packet_width_factor: float = 0.01,
    separation_range: tuple[float, float] = (10.0, 25.0),
) -> CrosscheckResult:
    """Posterior-weight discrepancy between the grid and branch collapse paths.

    Each case draws a two-branch weight split, an anchor separation in the
    given range (in units of sigma), and a collapse center from the physical
    center density, then applies the collapse along both paths.  With
    separations >= 10 sigma and packet widths <= sigma / 100 the two paths
    agree to well below 1e-6; narrower separations (pass e.g. (1, 1)) are
    out of regime and merely reported.
    """
    rng = np.random.default_rng(seed)
    width = packet_width_factor * sigma
    compliant = separation_range[0] >= 10.0 and packet_width_factor <= 0.01
    worst = 0.0
    seps = []
    for _ in range(n_cases):
        w1 = rng.uniform(0.05, 0.95)
        weights = np.array([w1, 1.0 - w1])
        d = rng.uniform(*separation_range) * sigma
        anchors = np.array([0.0, d])
        seps.append(d)
        x_center = _sample_mixture_center(weights, anchors, sigma, rng)

        # branch path (separation warnings are the point of the non-compliant mode)
        branch = BranchState.from_weights(("a", "b"), weights, [[0.0], [d]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            post_branch = branch_collapse_update(branch, 0, x_center, sigma).weights

        # grid path: two narrow packets, posterior mass on each side of the midpoint
        margin = 12.0 * sigma
        dx_target = width / 3.0
        n_points = int(np.ceil((d + 2.0 * margin) / dx_target))
        spec = GridSpec(-margin, d + margin, n_points, 1)
        psi = make_grid_wavefunction(
            spec,
            [
                Packet((0.0,), width, np.sqrt(weights[0])),
                Packet((d,), width, np.sqrt(weights[1])),
            ],
        )
        collapsed = apply_collapse_grid(psi, 0, x_center, sigma)
        dens = marginal_density(collapsed, 0)
        x = spec.points()
        mid = d / 2.0
        mass_left = float(dens[x < mid].sum() * spec.dx)
        mass_right = float(dens[x >= mid].sum() * spec.dx)
        post_grid = np.array([mass_left, mass_right])

        worst = max(worst, float(np.max(np.abs(post_grid - post_branch))))
    return CrosscheckResult(
        max_discrepancy=worst,
        n_cases=n_cases,
        compliant=compliant,
        separations=tuple(seps),
    )
