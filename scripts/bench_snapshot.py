#!/usr/bin/env python3
"""Performance snapshot of one source tree, or paired runs of two, written to BENCH_<label>.json.

    python3 scripts/bench_snapshot.py --tree PATH --label L
    python3 scripts/bench_snapshot.py --tree PATH --label L --base PATH --workload W --pairs N

Without ``--base``, runs three things from the checkout at PATH, one after
the other:

* ``grwbench/run.py --seed 1 --trace 0`` on every workload of the tree's
  ``BENCHMARK.json``, for the run length that file fixes;
* ``grwsim check``, which times each acceptance criterion against its
  budget;
* the Tier-1 suite (``python -m pytest -q``), timed as a whole.

``BENCH_<label>.json`` lands at the root of the repository holding this
script.  It keeps the machine record that run.py prints, each workload's
metrics and repeats, each criterion's wall time next to its budget, and the
Tier-1 wall time and result line.  The script only reads budgets and
bounds; it edits neither.  The host's speed drifts over minutes, so a
speed claim rests on paired parent/change runs, not on two snapshots.

With ``--base``, runs workload W as N pairs: pair i runs seed i + 1 on the
base tree and on PATH, each with that tree's own ``grwbench/run.py``, and
the tree that runs first alternates (the base first in even pairs).  The
pairs go under ``paired`` -> W in ``BENCH_<label>.json``, next to whatever
the file already holds.  They keep every run's gate result and metrics,
and per end-to-end metric each tree's quartiles over the pairs, the median
change/base ratio, the number of pairs where the change was better and
whether that shows a gain (9 in 10 pairs won, and medians further apart
than the base's interquartile distance).  Seeds where both trees fail the
gate are named as such.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1

# one line of `grwsim check`: "criterion  4 [PASS] name: detail (12.3s)"
_CHECK_LINE = re.compile(r"criterion\s+(\d+) \[(PASS|FAIL)\] ([^:]*): (.*) \(([\d.]+)s\)$")
_BUDGETS = (
    "import json; from grwsim.acceptance import _CRITERIA; "
    "print(json.dumps({n: b for n, _, _, b in _CRITERIA}))"
)


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH", "")) if p)
    return env


def _timed(cmd: list[str], tree: Path) -> tuple[subprocess.CompletedProcess, float]:
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, env=_env(tree), capture_output=True, text=True)
    return proc, time.monotonic() - start


def run_workload(tree: Path, name: str, seconds: float, seed: int = SEED) -> dict:
    cmd = [
        sys.executable, str(tree / "grwbench" / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc, elapsed = _timed(cmd, tree)
    # run.py ends with two JSON lines: the run record, then the verdict and metrics
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    record = json.loads(lines[-2])["record"] if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else {}
    return {
        "exit_code": proc.returncode,
        "elapsed_s": elapsed,
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": result.get("metrics"),
        "record": record,
        "stderr_tail": proc.stderr[-2000:] if proc.returncode or not result.get("correct") else "",
    }


def run_check(tree: Path) -> dict:
    budgets_proc, _ = _timed([sys.executable, "-c", _BUDGETS], tree)
    budgets = json.loads(budgets_proc.stdout) if budgets_proc.returncode == 0 else {}
    proc, elapsed = _timed([sys.executable, "-m", "grwsim.cli", "check"], tree)
    criteria = []
    for line in proc.stdout.splitlines():
        m = _CHECK_LINE.match(line.strip())
        if m:
            number = int(m.group(1))
            criteria.append({
                "number": number,
                "name": m.group(3),
                "passed": m.group(2) == "PASS",
                "detail": m.group(4),
                "wall_s": float(m.group(5)),
                "budget_s": budgets.get(str(number)),
            })
    return {"exit_code": proc.returncode, "wall_s": elapsed, "criteria": criteria}


def run_tier1(tree: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    proc, elapsed = _timed(cmd, tree)
    lines = proc.stdout.strip().splitlines()
    return {"exit_code": proc.returncode, "wall_s": elapsed, "result": lines[-1] if lines else ""}


def _quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3]; one value is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def _values(run: dict) -> dict:
    return {name: m["value"] for name, m in (run.get("metrics") or {}).items()}


def run_pairs(tree: Path, base: Path, workload: str, pairs: int, seconds: float, end_to_end: list[dict],
              runner=run_workload) -> dict:
    """N alternating base/change pairs of one workload; runner(tree, workload, seconds, seed) runs one."""
    records, machine = [], None
    for i in range(pairs):
        seed = i + 1
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        runs = {}
        for side in order:
            print(f"{workload} pair {i + 1}/{pairs}: {side} (seed {seed}) ...", file=sys.stderr, flush=True)
            run = runner(base if side == "base" else tree, workload, seconds, seed)
            machine = machine or (run.get("record") or {}).get("machine")
            runs[side] = {
                "exit_code": run["exit_code"], "correct": run["correct"], "metrics": _values(run),
                "stderr_tail": run.get("stderr_tail", ""),
            }
        records.append({"seed": seed, "first": order[0], **runs})

    metrics = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p["base"]["metrics"][name], p["change"]["metrics"][name]) for p in records
                if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        ratios = [c / b for b, c in both if b]
        base_q, change_q = (_quartiles([pair[j] for pair in both]) for j in (0, 1))
        wins = sum(1 for b, c in both if (c < b if lower else c > b))
        metrics[name] = {
            "better": m["better"],
            "bound": m["bound"],
            "base_quartiles": base_q,
            "change_quartiles": change_q,
            "ratio_median": statistics.median(ratios) if ratios else None,
            "change_better": wins,
            "pairs": len(both),
            # a gain counts when the change wins 9 in 10 pairs and the medians
            # differ by more than the base's interquartile distance
            "gain_shown": wins >= 0.9 * len(both)
            and abs(change_q[1] - base_q[1]) > base_q[2] - base_q[0],
        }
    ok = [(bool(p["base"]["correct"]), bool(p["change"]["correct"])) for p in records]

    def seeds(base_ok: bool, change_ok: bool) -> list[int]:
        return [p["seed"] for p, o in zip(records, ok) if o == (base_ok, change_ok)]

    return {
        "machine": machine,
        "seconds": seconds,
        "pairs": records,
        "gate": {
            "base_correct": sum(b for b, _ in ok),
            "change_correct": sum(c for _, c in ok),
            "both_fail_seeds": seeds(False, False),
            "change_only_fail_seeds": seeds(True, False),
            "base_only_fail_seeds": seeds(False, True),
        },
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, type=Path, help="checkout to measure (the change)")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--base", type=Path, help="paired mode: the parent checkout")
    parser.add_argument("--workload", help="paired mode: the workload to run")
    parser.add_argument("--pairs", type=int, default=10, help="paired mode: number of pairs (default 10)")
    args = parser.parse_args()
    tree = args.tree.resolve()
    bench = json.loads((tree / "BENCHMARK.json").read_text())
    out = ROOT / f"BENCH_{args.label}.json"

    if args.base is not None:
        names = [wl["name"] for wl in bench["workloads"]]
        if args.workload not in names or args.pairs < 1:
            parser.error(f"paired mode needs --workload in {names} and --pairs >= 1")
        result = run_pairs(tree, args.base.resolve(), args.workload, args.pairs, bench["run_seconds"],
                           bench["end_to_end"])
        snapshot = json.loads(out.read_text()) if out.exists() else {"label": args.label}
        snapshot.setdefault("paired", {})[args.workload] = {
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            **result,
        }
        out.write_text(json.dumps(snapshot, indent=1) + "\n")
        print(f"wrote {out}")
        return 0

    workloads = {}
    for wl in bench["workloads"]:
        print(f"workload {wl['name']} ...", file=sys.stderr, flush=True)
        workloads[wl["name"]] = run_workload(tree, wl["name"], bench["run_seconds"])
    print("grwsim check ...", file=sys.stderr, flush=True)
    check = run_check(tree)
    print("tier-1 ...", file=sys.stderr, flush=True)
    tier1 = run_tier1(tree)

    machine = next((w["record"]["machine"] for w in workloads.values() if w["record"]), None)
    snapshot = {
        "label": args.label,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": SEED,
        "run_seconds": bench["run_seconds"],
        "machine": machine,
        "workloads": workloads,
        "check": check,
        "tier1": tier1,
    }
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out}")
    ok = check["exit_code"] == 0 and tier1["exit_code"] == 0
    return 0 if ok and all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
