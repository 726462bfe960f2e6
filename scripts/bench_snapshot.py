#!/usr/bin/env python3
"""Performance snapshot of one source tree, written to BENCH_<label>.json.

    python3 scripts/bench_snapshot.py --tree PATH --label L

Runs three things from the checkout at PATH, one after the other:

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
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
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


def run_workload(tree: Path, name: str, seconds: float) -> dict:
    cmd = [
        sys.executable, str(tree / "grwbench" / "run.py"), "--workload", name,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, type=Path, help="checkout to measure")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args()
    tree = args.tree.resolve()
    bench = json.loads((tree / "BENCHMARK.json").read_text())

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
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out}")
    ok = check["exit_code"] == 0 and tier1["exit_code"] == 0
    return 0 if ok and all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
