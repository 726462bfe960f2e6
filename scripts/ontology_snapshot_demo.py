#!/usr/bin/env python3
"""One trajectory through three ontologies.

Runs a single collapsed-past tail trajectory and prints what each ontology
says about the system along the way: branch weights only (grw0), the
windowed flash record (grwf), and the in-box matter fraction (grwm).
"""

import argparse

import numpy as np

from grwsim import (
    GrwParams,
    History,
    Ontology,
    RngStream,
    ScenarioConfig,
    ScenarioKind,
    build_scenario,
    flash_fraction_in_region,
    flashes_of,
    grw0_view,
    mass_fraction_in_region,
    matter_density,
    replay_state_at,
    run_trajectory,
)
from grwsim.scenarios import density_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", type=float, default=0.01, help="minority branch weight")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--total-time", type=float, default=30.0)
    args = parser.parse_args()

    config = ScenarioConfig(
        kind=ScenarioKind.TAIL,
        c1_sq=1.0 - args.eps,
        ontology=Ontology.GRWM,
        history=History.COLLAPSED_PAST,
        params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=args.total_time),
        window=10.0,
    )
    scenario = build_scenario(config, np.random.default_rng(args.seed))
    record = run_trajectory(scenario.initial_state, config.params, RngStream(args.seed))
    run_flashes = flashes_of(record)
    pre_times, _, pre_centers = scenario.prehistory
    times = np.concatenate((pre_times, record.times))
    centers = np.concatenate((pre_centers, record.centers))
    box = config.box
    grid = density_grid(config)

    print(f"eps = {args.eps}, box = [{box.lower}, {box.upper}], seed {args.seed}")
    print(f"prehistory flashes: {len(pre_times)} (all inside the box)")
    print(f"{'t':>6} {'w_dead':>10} {'flash frac in box':>18} {'matter frac in box':>19}")
    for t in np.linspace(0.0, config.params.total_time, 7):
        state = replay_state_at(scenario.initial_state, config.params, run_flashes, t)
        (_, w_dead), _ = grw0_view(state)[0]
        frac, count = flash_fraction_in_region(centers[config.flash_window(times, t)], box)
        m_frac = mass_fraction_in_region(matter_density(state, grid=grid), box)
        flash_txt = f"{frac:.3f} ({count:3d} fl)" if count else "   no flashes"
        print(f"{t:>6.1f} {w_dead:>10.3e} {flash_txt:>18} {m_frac:>19.6f}")

    (_, w_final), _ = grw0_view(record.final_state)[0]
    verdict = "inside/dead" if w_final > 0.5 else "outside/alive"
    print(f"\nlimit verdict: {verdict}; the weight-only view never said where anything was.")


if __name__ == "__main__":
    main()
