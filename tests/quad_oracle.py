"""One-step quadrature oracle: the independent check of a single branch collapse.

Direct adaptive quadrature with SciPy's ``quad``, sharing no numerical
kernel with the trajectory engine: it integrates the center density and
the posterior weights the engine samples and updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from grwsim import ConfigError, NumericsError

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
