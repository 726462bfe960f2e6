"""Independent brute-force reference computations.

Everything in here is deliberately slow and simple: direct adaptive
quadrature, a standalone vectorized sampler, no shared numerical kernels
with the trajectory engine.  The test suite and the acceptance criteria
compare engine output against these references.

``compute_reference_values`` builds the JSON file ``grwsim oracle`` writes
(shipped with the package under ``data/reference_values.json``), holding
the Monte Carlo flash-sequence verdict probabilities and the quadrature
cross-checks the suite consumes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from importlib.resources import files as package_files
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from .dynamics import apply_collapse_grid, branch_collapse_update
from .errors import ConfigError, NumericsError
from .state import BranchState, GridSpec, Packet, Region, make_grid_wavefunction, marginal_density

MAX_ORACLE_BRANCHES = 8
MAX_SEQUENCE_FLASHES = 1000
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


@dataclass(frozen=True)
class VerdictProbabilities:
    """Monte Carlo verdict distribution over fixed-length flash sequences."""

    p_inside: float
    p_outside: float
    p_partial: float
    p_undefined: float
    se_inside: float
    n_sequences: int


def flash_sequence_probability(
    weights: Sequence[float],
    sigma: float,
    anchors: Sequence[float],
    k: int,
    box: Region,
    theta_f: float = 0.99,
    n_sequences: int = 1_000_000,
    seed: int = 0,
    chunk: int = 200_000,
) -> VerdictProbabilities:
    """Verdict probabilities after exactly k flashes of a fresh branch state.

    Vectorized reference sampler, written independently of the trajectory
    engine: repeatedly draw a center from the current Gaussian mixture,
    count whether it falls in the box, and update the branch weights with
    the squared-Gaussian posterior factors.  The verdict applies the flash
    threshold rule to the inside fraction of the k flashes.
    """
    if k > MAX_SEQUENCE_FLASHES:
        raise ConfigError(f"k={k} exceeds the {MAX_SEQUENCE_FLASHES}-flash cap")
    w0 = np.asarray(weights, dtype=float)
    a = np.asarray(anchors, dtype=float)
    if k == 0:
        return VerdictProbabilities(0.0, 0.0, 0.0, 1.0, 0.0, n_sequences)

    rng = np.random.default_rng(seed)
    n_inside_verdict = 0
    n_outside_verdict = 0
    n_partial = 0
    done = 0
    scale = sigma / np.sqrt(2.0)
    while done < n_sequences:
        m = min(chunk, n_sequences - done)
        with np.errstate(divide="ignore"):  # zero weights start at -inf, intended
            log_w = np.tile(np.log(w0), (m, 1))
        inside_counts = np.zeros(m, dtype=np.int64)
        for _ in range(k):
            w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            picks = (rng.random(m)[:, None] > np.cumsum(w, axis=1)).sum(axis=1)
            picks = np.minimum(picks, a.size - 1)
            centers = rng.normal(a[picks], scale)
            inside_counts += (centers >= box.lower) & (centers <= box.upper)
            log_w += -((a[None, :] - centers[:, None]) ** 2) / sigma**2
            log_w -= log_w.max(axis=1, keepdims=True)
            del w
        frac = inside_counts / k
        is_inside = (frac >= theta_f) & (frac > 1.0 - theta_f)
        is_outside = (frac <= 1.0 - theta_f) & (frac < theta_f)
        n_inside_verdict += int(is_inside.sum())
        n_outside_verdict += int(is_outside.sum())
        n_partial += int((~is_inside & ~is_outside).sum())
        done += m

    p_in = n_inside_verdict / n_sequences
    return VerdictProbabilities(
        p_inside=p_in,
        p_outside=n_outside_verdict / n_sequences,
        p_partial=n_partial / n_sequences,
        p_undefined=0.0,
        se_inside=float(np.sqrt(max(p_in * (1.0 - p_in), 1e-12) / n_sequences)),
        n_sequences=n_sequences,
    )


# ---------------------------------------------------------------------------
# reference-values file

REFERENCE_FORMAT = 1
_DEFAULT_FLASH_CASES = (
    {"weights": (0.99, 0.01), "anchors": (0.0, 30.0), "sigma": 1.0, "box": (-10.0, 10.0),
     "k": 100, "theta_f": 0.99},
    {"weights": (0.9, 0.1), "anchors": (0.0, 30.0), "sigma": 1.0, "box": (-10.0, 10.0),
     "k": 100, "theta_f": 0.99},
)
_DEFAULT_ONE_STEP_CASES = (
    {"weights": (0.7, 0.3), "anchors": (0.0, 10.0), "sigma": 1.0},
    {"weights": (0.5, 0.5), "anchors": (0.0, 10.0), "sigma": 1.0},
    {"weights": (0.2, 0.3, 0.5), "anchors": (-12.0, 0.0, 15.0), "sigma": 1.0},
)


def compute_reference_values(seed: int = 20260810, n_sequences: int = 1_000_000) -> dict:
    """Regenerate every reference entry the test suite consumes."""
    flash_entries = []
    for case in _DEFAULT_FLASH_CASES:
        probs = flash_sequence_probability(
            case["weights"],
            case["sigma"],
            case["anchors"],
            case["k"],
            Region(*case["box"]),
            theta_f=case["theta_f"],
            n_sequences=n_sequences,
            seed=seed,
        )
        flash_entries.append(
            {
                **{k: list(v) if isinstance(v, tuple) else v for k, v in case.items()},
                "n_sequences": probs.n_sequences,
                "p_inside": probs.p_inside,
                "p_outside": probs.p_outside,
                "p_partial": probs.p_partial,
                "p_undefined": probs.p_undefined,
                "se_inside": probs.se_inside,
            }
        )
    one_step_entries = []
    for case in _DEFAULT_ONE_STEP_CASES:
        result = one_step_posterior_oracle(case["weights"], case["anchors"], case["sigma"])
        one_step_entries.append(
            {
                **{k: list(v) if isinstance(v, tuple) else v for k, v in case.items()},
                "expected_posterior": list(result.expected_posterior),
                "density_integral": result.density_integral,
                "density_mean": result.density_mean,
                "density_variance": result.density_variance,
            }
        )
    crosscheck = grid_branch_crosscheck(n_cases=100, seed=seed)
    return {
        "format": REFERENCE_FORMAT,
        "seed": seed,
        "flash_sequence": flash_entries,
        "one_step": one_step_entries,
        "crosscheck": {
            "n_cases": crosscheck.n_cases,
            "max_discrepancy": crosscheck.max_discrepancy,
            "compliant": crosscheck.compliant,
        },
    }


def load_reference_values(path: str | Path | None = None) -> dict:
    """Load a reference file; None loads the packaged default."""
    if path is None:
        resource = package_files("grwsim").joinpath("data/reference_values.json")
        text = resource.read_text()
    else:
        text = Path(path).read_text()
    data = json.loads(text)
    if data.get("format") != REFERENCE_FORMAT:
        raise ConfigError(f"unsupported reference file format: {data.get('format')!r}")
    return data


def find_flash_reference(
    data: dict,
    weights: Sequence[float],
    anchors: Sequence[float],
    sigma: float,
    k: int,
    box: Region,
    theta_f: float,
) -> dict | None:
    """Locate the flash-sequence entry matching a scenario, if any."""
    for entry in data.get("flash_sequence", []):
        if (
            entry["k"] == k
            and np.isclose(entry["sigma"], sigma)
            and np.isclose(entry["theta_f"], theta_f)
            and np.allclose(entry["weights"], list(weights))
            and np.allclose(entry["anchors"], list(anchors))
            and np.allclose(entry["box"], [box.lower, box.upper])
        ):
            return entry
    return None
