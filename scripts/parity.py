#!/usr/bin/env python3
"""Byte parity of `grwsim run` between two source trees.

    python3 scripts/parity.py --base PATH --head PATH [--report parity.json]

Runs `grwsim run` from each tree's ``src/`` on the committed case list
CASES, at seed 11, and compares every output file byte for byte and every
exit code.  It also runs each tree's ``scripts/ontology_snapshot_demo.py``
at its default (fixed) seed and compares the stdout and exit code.  It
writes one JSON report and exits 0 when every case and the demo match on
both trees, 1 otherwise.  A change that says it moves no random draw cites
this report.

Only bytes are compared.  A change that alters the draws needs a
comparison in law (histograms and verdict tables under two-sample tests),
which this script does not make.  The script reads no gate or bound and
edits none.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
RUN_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class Case:
    name: str
    config: str  # scenario config text
    trajectories: int
    threads: int = 1
    log_trajectories: int = 2


def _benchmark_cases(sizes: list[tuple[str, int, int]]) -> list[Case]:
    """The named grwbench workloads with (name, trajectories, log_trajectories) sizes."""
    spec = importlib.util.spec_from_file_location("grwbench_workloads", ROOT / "grwbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return [
        Case(name, module.WORKLOADS[name].config, n, module.WORKLOADS[name].threads, log)
        for name, n, log in sizes
    ]


# the benchmark's three workloads at reduced sizes, then criteria and edge cases
CASES = _benchmark_cases([("cat_grw0", 500, 0), ("marbles_grwf", 30, 30), ("grid_free", 100, 10)]) + [
    # criterion 11: the exact first-window law on a fresh GRWf marble
    Case(
        "criterion_11",
        "kind = marbles\nc1_sq = 0.99\nontology = grwf\nhistory = fresh_preparation\n"
        "window_flashes = 100\ntotal_time = 200\n",
        1000,
    ),
    # criterion 12: three matter-density marbles on four workers
    Case(
        "criterion_12",
        "kind = marbles\nc1_sq = 0.9\nn_marbles = 3\nontology = grwm\n"
        "history = collapsed_past\ntotal_time = 10\n",
        60,
        threads=4,
        log_trajectories=3,
    ),
    # GRWf flips after a collapsed past, with a time window inside the run
    Case(
        "tail_grwf_collapsed_past",
        "kind = tail\nc1_sq = 0.99\nontology = grwf\nhistory = collapsed_past\n"
        "window = 10\ntotal_time = 20\n",
        500,
    ),
    # the same on three workers (blocks 0-65, 66-132 and 133-199), with
    # logged trajectories in every block
    Case(
        "tail_grwf_three_workers",
        "kind = tail\nc1_sq = 0.99\nontology = grwf\nhistory = collapsed_past\n"
        "window = 10\ntotal_time = 20\n",
        200,
        threads=3,
        log_trajectories=150,
    ),
    # grid trajectories run in lockstep chunks of consecutive indices; three
    # workers (blocks 0-11, 12-23 and 24-36) cut them elsewhere than one does
    replace(
        _benchmark_cases([("grid_free", 37, 5)])[0], name="grid_free_three_workers", threads=3
    ),
    # matter-density snapshots replayed from a grid run
    Case(
        "grid_cat_density",
        "kind = cat\nc1_sq = 0.7\nbackend = grid\ntotal_time = 5\ndensity_times = 0, 2.5, 5\n",
        50,
        log_trajectories=1,
    ),
    # GRWf verdicts of a grid tail after a collapsed-past prehistory: the grid's
    # flash path, read off the particle column, and its prehistory and flash logs
    Case(
        "grid_tail_grwf_prehistory",
        "kind = tail\nc1_sq = 0.99\nontology = grwf\nhistory = collapsed_past\nbackend = grid\n"
        "window = 5\ntotal_time = 10\n",
        60,
        log_trajectories=3,
    ),
    # matter-density snapshots replayed from a branch run, rastered on density_grid
    Case(
        "marbles3_grwm_density",
        "kind = marbles\nn_marbles = 3\nc1_sq = 0.9\nontology = grwm\n"
        "history = collapsed_past\ntotal_time = 10\ndensity_times = 0, 2.5, 10\n",
        60,
        threads=2,
    ),
    # two fresh GRWf marbles with count windows: census chi-square and exact law
    Case(
        "marbles2_grwf_count_window",
        "kind = marbles\nn_marbles = 2\nc1_sq = 0.9\nontology = grwf\n"
        "history = fresh_preparation\nwindow_flashes = 20\ntotal_time = 40\n",
        500,
    ),
    # three collapsed-past GRWf marbles whose count windows of 40 flashes
    # reach back into the prehistory
    Case(
        "marbles3_grwf_prehistory",
        "kind = marbles\nn_marbles = 3\nontology = grwf\nhistory = collapsed_past\n"
        "window_flashes = 40\ntotal_time = 20\n",
        300,
    ),
    # the README's example config (its "# cat.cfg" block without the comments):
    # a one-system tail's matter-density verdicts and snapshots
    Case(
        "readme_example",
        "kind = tail\nc1_sq = 0.99\nn_marbles = 1\nbox_lower = -10\nbox_upper = 10\n"
        "ontology = grwm\nhistory = collapsed_past\ntheta_m = 0.5\n"
        "window = 10.0\nbackend = branch\ninside_anchor = 0.0\n"
        "outside_anchor = 30.0\ndensity_times = 0.0, 20.0\nlambda_eff = 1.0\nsigma = 1.0\n"
        "total_time = 20.0\nhamiltonian = zero\nmass = 1.0\n",
        100,
    ),
]
DEMO = Path("scripts") / "ontology_snapshot_demo.py"


def _env(tree: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def run_case(tree: Path, case: Case, work: Path) -> tuple[int, str]:
    """`grwsim run` of one case from tree's src/, writing into work/out; (exit code, last stderr line)."""
    work.mkdir(parents=True)
    cfg = work / "scenario.cfg"
    cfg.write_text(case.config)
    argv = [
        sys.executable, "-m", "grwsim.cli", "run", "--config", str(cfg), "--seed", str(SEED),
        "--trajectories", str(case.trajectories), "--threads", str(case.threads),
        "--log-trajectories", str(case.log_trajectories), "--out", str(work / "out"),
    ]
    proc = subprocess.run(
        argv, cwd=work, env=_env(tree), capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stderr.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def compare_case(base: Path, head: Path, case: Case, work: Path) -> dict:
    sides = {}
    for label, tree in (("base", base), ("head", head)):
        code, err = run_case(tree, case, work / case.name / label)
        sides[label] = (code, err, _outputs(work / case.name / label / "out"))
    (code_b, err_b, files_b), (code_h, err_h, files_h) = sides["base"], sides["head"]
    names = sorted(files_b.keys() | files_h.keys())
    differing = [n for n in names if files_b.get(n) != files_h.get(n)]
    return {
        "name": case.name,
        "trajectories": case.trajectories,
        "threads": case.threads,
        "exit": [code_b, code_h],
        "stderr": [err_b, err_h],
        "files": len(names),
        "differing": differing,
        "match": code_b == code_h and not differing,
    }


def compare_demo(base: Path, head: Path) -> dict:
    """Exit code and stdout of each tree's demo script, run on its own src/."""
    runs = [
        subprocess.run(
            [sys.executable, str(tree / DEMO)], cwd=tree, env=_env(tree),
            capture_output=True, timeout=RUN_TIMEOUT_S,
        )
        for tree in (base, head)
    ]
    return {
        "name": DEMO.name,
        "exit": [run.returncode for run in runs],
        "match": runs[0].returncode == runs[1].returncode and runs[0].stdout == runs[1].stdout,
    }


def compare_trees(base: Path, head: Path, cases: list[Case], work: Path) -> dict:
    results = [compare_case(base, head, case, work) for case in cases]
    demo = compare_demo(base, head)
    return {
        "mode": "bytes",
        "base": str(base),
        "head": str(head),
        "seed": SEED,
        "cases": results,
        "demo": demo,
        "identical": demo["match"] and all(r["match"] for r in results),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="source tree of the parent")
    parser.add_argument("--head", required=True, type=Path, help="source tree of the change")
    parser.add_argument("--report", default="parity.json", type=Path, help="JSON report path")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        report = compare_trees(args.base.resolve(), args.head.resolve(), CASES, Path(tmp))
    args.report.write_text(json.dumps(report, indent=1) + "\n")
    for r in report["cases"]:
        status = "same" if r["match"] else f"DIFFERS {r['differing']}"
        print(f"{r['name']:<28} exit {r['exit'][0]}/{r['exit'][1]}  {r['files']:4d} files  {status}")
    demo = report["demo"]
    print(f"{demo['name']:<28} exit {demo['exit'][0]}/{demo['exit'][1]}  stdout {'same' if demo['match'] else 'DIFFERS'}")
    same = sum(r["match"] for r in report["cases"])
    print(f"{same}/{len(report['cases'])} cases byte-identical; report in {args.report}")
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
