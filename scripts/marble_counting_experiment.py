#!/usr/bin/env python3
"""Marble-counting experiment: census counts against the analytic laws.

For each n, prepares n marbles in the same two-branch state (weight c1_sq on
the in-box branch), lets the collapse process run to its limit, and compares

  * the mean number of marbles ending inside the box with n * c1_sq,
  * the frequency of "all marbles inside" with c1_sq ** n,

both with binomial error bars.  The all-inside probability decays
geometrically in n even though every single marble is almost certainly
inside, which is the whole point of counting them.
"""

import argparse

from grwsim import GrwParams, Ontology, ScenarioConfig, ScenarioKind, run_ensemble


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--c1-sq", type=float, default=0.9, help="in-box branch weight")
    parser.add_argument("--marbles", type=int, nargs="+", default=[1, 2, 5, 10, 20])
    parser.add_argument("--trajectories", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="this process plus N-1 worker processes; results are identical for any N",
    )
    args = parser.parse_args()

    print(f"c1_sq = {args.c1_sq}, {args.trajectories} runs per n, seed {args.seed}")
    print(f"{'n':>4} {'mean inside':>12} {'n*c1_sq':>9} {'all-inside':>11} {'c1_sq^n':>9} {'z':>6}")
    for n in args.marbles:
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            c1_sq=args.c1_sq,
            n_marbles=n,
            ontology=Ontology.GRWM,
            params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=20.0),
        )
        summary = run_ensemble(
            config, args.trajectories, master_seed=args.seed, threads=args.threads
        )
        by_name = {r.name: r for r in summary.records}
        mean = by_name["census_inside_mean"]
        all_in = by_name["census_all_inside"]
        print(
            f"{n:>4} {mean.estimate:>12.4f} {mean.target:>9.4f} "
            f"{all_in.estimate:>11.5f} {all_in.target:>9.5f} {all_in.z:>6.2f}"
        )
    print("\nall-inside shrinks like c1_sq^n; the per-marble verdicts do not change.")


if __name__ == "__main__":
    main()
