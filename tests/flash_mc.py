"""Monte Carlo flash-sequence sampler: the independent check of the exact first-window law.

Vectorized and written apart from the trajectory engine and from
``ensemble.grwf_inside_rate_test``: it draws centers sequentially from the
current Gaussian mixture and updates the branch weights, where the closed
form mixes Binomial inside counts over the branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from grwsim import ConfigError, Region

MAX_SEQUENCE_FLASHES = 1000


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
