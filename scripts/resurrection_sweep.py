#!/usr/bin/env python3
"""Resurrection-rate sweep: verdict flips versus the minority branch weight.

Starts a two-branch state at weights (1 - eps, eps), classifies it through
the matter density (majority rule), and measures how often the verdict at
the horizon differs from the verdict at t = 0.  The martingale structure of
the collapse process predicts a flip probability of exactly eps: rare but
strictly positive, for every eps > 0.
"""

import argparse

from grwsim import GrwParams, Ontology, ScenarioConfig, ScenarioKind, run_ensemble


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--eps", type=float, nargs="+", default=[0.05, 0.02, 0.01, 0.005, 0.002]
    )
    parser.add_argument("--trajectories", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="this process plus N-1 worker processes; results are identical for any N",
    )
    args = parser.parse_args()

    print(f"{args.trajectories} trajectories per point, seed {args.seed}")
    print(f"{'eps':>8} {'flip rate':>10} {'4*SE':>9} {'z':>6}")
    for eps in args.eps:
        config = ScenarioConfig(
            kind=ScenarioKind.TAIL,
            c1_sq=1.0 - eps,
            ontology=Ontology.GRWM,
            params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=20.0),
        )
        summary = run_ensemble(
            config, args.trajectories, master_seed=args.seed, threads=args.threads
        )
        rec = next(r for r in summary.records if r.name == "resurrection_rate")
        print(f"{eps:>8.4f} {rec.estimate:>10.5f} {4 * rec.se:>9.5f} {rec.z:>6.2f}")
    print("\nflip rate tracks eps; the dead verdict a moment earlier was still correct.")


if __name__ == "__main__":
    main()
