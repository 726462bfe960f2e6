"""Command-line entry point.

Subcommands:
  run     execute a scenario config and emit logs + statistics
  check   run the acceptance suite
  report  summarize a results directory

Exit codes: 0 success, 1 a failed statistic, 2 usage/config error (a
horizon too short for a limit statistic, a malformed summary and an output
path that cannot be written included), 3 numerical error, 4 a worker
process died (no summary is written).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .dynamics import TrajectoryRecord, replay_state_at
from .ensemble import run_ensemble
from .errors import ConfigError, GrwError, NumericsError, WorkerError
from .fileio import (
    parse_scenario_file,
    read_summary_json,
    write_density_csv,
    write_events_jsonl,
    write_flashes_csv,
    write_summary_csv,
    write_summary_json,
)
from .ontology import flashes_of, matter_density
from .scenarios import FlashColumns, ScenarioConfig, density_grid
from .state import GridWaveFunction

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_WORKER = 4


def write_trajectory_logs(
    out: Path, config: ScenarioConfig, index: int, record: TrajectoryRecord, prehistory: FlashColumns
) -> None:
    """One logged trajectory's events, flashes and prehistory, plus trajectory 0's density snapshots.

    run_ensemble calls this in the process that ran the trajectory, so it
    lives at module level and the directory appears with the first log.
    """
    out.mkdir(parents=True, exist_ok=True)
    write_events_jsonl(out / f"events-{index:05d}.jsonl", record)
    write_flashes_csv(out / f"flashes-{index:05d}.csv", record.times, record.particles, record.centers)
    if len(prehistory[0]):
        write_flashes_csv(out / f"prehistory-{index:05d}.csv", *prehistory)
    write_density_snapshots(out, config, index, record, prehistory)


def write_density_snapshots(
    out: Path, config: ScenarioConfig, index: int, record: TrajectoryRecord, prehistory: FlashColumns
) -> None:
    """Trajectory 0's density-t* snapshots, replayed from its flashes; nothing for any other."""
    if index != 0 or not config.density_times:
        return
    out.mkdir(parents=True, exist_ok=True)
    initial = record.initial_state
    grid = None if isinstance(initial, GridWaveFunction) else density_grid(config)
    flashes = flashes_of(record)
    for t in config.density_times:
        state = replay_state_at(initial, config.params, flashes, t)
        write_density_csv(out / config.snapshot_name(t), matter_density(state, grid=grid))


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_scenario_file(args.config)
    log_first, write_logs = args.log_trajectories, write_trajectory_logs
    if config.density_times and log_first == 0:
        # the snapshots replay trajectory 0, which writes no other log
        log_first, write_logs = 1, write_density_snapshots

    out = Path(args.out)
    summary = run_ensemble(
        config,
        args.trajectories,
        args.seed,
        threads=args.threads,
        log_first=log_first,
        on_logged=functools.partial(write_logs, out, config),
    )

    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out / "summary.csv", summary.records)
    write_summary_json(out / "summary.json", summary)

    if summary.failures:
        print(f"{summary.failures} trajectories aborted; see summary.json", file=sys.stderr)
        return EXIT_NUMERIC
    if not all(r.passed for r in summary.records):
        failed = [r.name for r in summary.records if not r.passed]
        print(f"statistical failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_STAT_FAIL
    print(f"wrote {out}/summary.csv ({len(summary.records)} statistics, all passed)")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from .acceptance import parse_criteria, run_criteria

    wanted = parse_criteria(args.criteria) if args.criteria is not None else None
    results = run_criteria(numbers=wanted)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number:2d} [{status}] {r.name}: {r.detail} ({r.elapsed:.1f}s)")
    if all(r.passed for r in results):
        print(f"{len(results)}/{len(results)} acceptance criteria passed")
        return EXIT_OK
    bad = sum(1 for r in results if not r.passed)
    print(f"{bad}/{len(results)} acceptance criteria FAILED", file=sys.stderr)
    return EXIT_STAT_FAIL


def cmd_report(args: argparse.Namespace) -> int:
    summary = read_summary_json(Path(args.results) / "summary.json")
    cfg = summary["config"]
    print(
        f"scenario: {cfg['kind']} (ontology {cfg['ontology']}, history {cfg['history']}), "
        f"{summary['n_trajectories']} trajectories, seed {summary['master_seed']}"
    )
    print(f"failures: {summary['failures']}")
    header = f"{'statistic':<24}{'estimate':>14}{'target':>14}{'z':>10}  pass"
    print(header)
    print("-" * len(header))
    for r in summary["records"]:
        # null marks a non-finite value in summary.json; it prints blank
        estimate, target, z = (
            "" if r[key] is None else format(r[key], spec)
            for key, spec in (("estimate", ".6g"), ("target", ".6g"), ("z", ".3f"))
        )
        print(f"{r['statistic']:<24}{estimate:>14}{target:>14}{z:>10}  {'yes' if r['pass'] else 'NO'}")
    for line in summary["diagnostics"]:
        print(f"note: {line}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grwsim",
        description="Monte Carlo simulator for GRW collapse dynamics with "
        "flash and matter-density ontologies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True, help="scenario config file (key = value)")
    p_run.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_run.add_argument("--trajectories", type=int, default=100, help="ensemble size")
    p_run.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="this process plus N-1 worker processes, each on a block of trajectories; "
        "outputs are byte-identical for any N (default 1, at most 64)",
    )
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--log-trajectories", type=int, default=10,
        help="how many trajectories get full event/flash logs (default 10)",
    )
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run the acceptance suite")
    p_check.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    p_check.set_defaults(func=cmd_check)

    p_report = sub.add_parser("report", help="summarize a results directory")
    p_report.add_argument("results", help="directory written by 'grwsim run'")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except GrwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # an output file or directory, here or in a worker: reading a
        # config or a summary raises ConfigError instead
        target = exc.filename2 or exc.filename or "output"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
