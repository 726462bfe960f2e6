"""Benchmark of `grwsim run`: end-to-end metrics, or per-layer metrics when traced.

    python3 grwbench/run.py --workload cat_grw0 --seed 1 --seconds 30 --trace 0

Run from a source checkout; the program is imported from ``src/``.  One run
of a workload:

1. writes the workload's config and starts one untimed set-up process, which
   compiles bytecode and fills the page cache (a user pays that once);
2. repeats the workload, one `grwsim run` process per repeat with the same
   seed, until ``--seconds`` have passed and at least MIN_REPEATS ran;
3. with ``--trace 1``, runs it once more with the span tracer installed;
4. checks every repeat: exit code 0, every summary.csv statistic passes,
   ``failures`` is 0 in summary.json, and every repeat (the traced one too)
   wrote a byte-identical summary.csv.  Workloads with ``check_edges``
   also replay the logged trajectories and bound the mass near the grid
   edges.

End-to-end numbers are medians over the repeats; set-up time is the time
from starting a repeat's process until grwsim is imported and the config
parsed.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` trajectories, and the
``metrics``; the line before it records the machine, versions, seed, sizes
and every repeat.  Outputs go to ``grwbench/.work`` inside the checkout, and
the warm-up writes grwsim's bytecode cache under ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import EDGE_MASS_LIMIT, EDGE_REACH_SIGMAS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_REPEATS = 3
# no repeat starts once the run could pass this; the whole run must end within 180 s
BUDGET_S = 140.0
CHILD_TIMEOUT_S = 120.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Repeat:
    setup_s: float | None = None
    wall_s: float | None = None
    peak_rss_mb: float | None = None
    events: int = 0
    summary_csv: bytes | None = None
    problems: list[str] = field(default_factory=list)
    not_traced: list[str] = field(default_factory=list)  # tracer targets the program lacks

    @property
    def ok(self) -> bool:
        return not self.problems


def _child(own: list[str], grwsim_argv: list[str], timing: Path, env: dict) -> tuple[float, dict | None, str]:
    """Start child.py, wait for it, and return (start stamp, its timing record, stderr)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(timing), *own, "--", *grwsim_argv]
    timing.unlink(missing_ok=True)
    started = _now()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return started, None, f"timed out after {CHILD_TIMEOUT_S:g} s"
    if proc.returncode != 0 or not timing.exists():
        return started, None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return started, json.loads(timing.read_text()), proc.stderr


def _summary_problems(out: Path, rep: Repeat) -> None:
    """The correctness gate on one output directory (determinism is checked by the caller)."""
    try:
        rep.summary_csv = (out / "summary.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        rep.problems.append(f"unreadable summary: {exc}")
        return
    rows = rep.summary_csv.decode().splitlines()[1:]
    failed_stats = [row.split(",")[0] for row in rows if row.split(",")[-1] != "true"]
    if failed_stats or not rows:
        rep.problems.append(f"statistics failed: {failed_stats or 'none reported'}")
    if summary.get("failures") != 0:
        rep.problems.append(f"failures = {summary.get('failures')}")
    hist = summary.get("histograms", {}).get("event_count", [])
    rep.events = sum(k * n for k, n in enumerate(hist))


def run_repeat(wl: Workload, seed: int, cfg: Path, work: Path, env: dict, trace: Path | None = None) -> Repeat:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [
        "run", "--config", str(cfg), "--seed", str(seed),
        "--trajectories", str(wl.trajectories), "--threads", str(wl.threads),
        "--log-trajectories", str(wl.log_trajectories), "--out", str(out),
    ]
    own = ["--trace", str(trace)] if trace is not None else []
    started, timing, err = _child(own, argv, work / "timing.json", env)
    rep = Repeat()
    if timing is None:
        rep.problems.append(err)
        return rep
    rep.setup_s = timing["setup_done"] - started
    rep.wall_s = timing["run_done"] - timing["setup_done"]
    rep.peak_rss_mb = timing["peak_rss_mb"]
    rep.not_traced = timing.get("not_traced", [])
    if timing["rc"] != 0:
        rep.problems.append(f"grwsim run exited {timing['rc']}: {err.strip()[-500:]}")
    if trace is not None and not timing.get("restored"):
        rep.problems.append("tracer left a wrapped function in place")
    _summary_problems(out, rep)
    return rep


def warm_up(cfg: Path, work: Path, env: dict) -> None:
    """One untimed set-up process: compiles bytecode and fills the page cache."""
    _, timing, err = _child(["--setup-only"], ["run", "--config", str(cfg)], work / "timing.json", env)
    if timing is None:
        print(f"warm-up failed: {err}", file=sys.stderr)


def max_edge_mass(cfg: Path, out: Path) -> tuple[float, int]:
    """Largest mass within EDGE_REACH_SIGMAS of a grid edge over the logged trajectories.

    Each logged event log is replayed with ``replay_state_at`` at every event
    time and at 21 evenly spaced times up to the horizon.
    """
    sys.path.insert(0, str(SRC))
    import numpy as np
    from grwsim.dynamics import CollapseEvent, replay_state_at
    from grwsim.fileio import parse_scenario_file
    from grwsim.scenarios import build_scenario
    from grwsim.state import marginal_density

    config = parse_scenario_file(cfg)
    psi0 = build_scenario(config).initial_state
    spec = psi0.spec
    x = spec.points()
    reach = EDGE_REACH_SIGMAS * config.params.sigma
    edge = (x < spec.x_min + reach) | (x > spec.x_max - reach)
    horizon = config.params.total_time
    worst = 0.0
    logs = sorted(out.glob("events-*.jsonl"))
    for path in logs:
        events = [
            CollapseEvent(e["t"], e["particle"], e["center"], tuple(e["pre_weights"]), tuple(e["post_weights"]))
            for e in map(json.loads, path.read_text().splitlines())
        ]
        times = sorted({e.time for e in events} | set(np.linspace(0.0, horizon, 21).tolist()))
        for t in times:
            state = replay_state_at(psi0, config.params, events, t)
            for particle in range(spec.num_particles):
                mass = float(marginal_density(state, particle)[edge].sum() * spec.dx)
                worst = max(worst, mass)
    return worst, len(logs)


def machine_record() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    cfg = work / "workload.cfg"
    cfg.write_text(wl.config)
    env = dict(os.environ)
    # an installed package ships compiled bytecode: let the warm-up write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    run_start = _now()

    warm_up(cfg, work, env)
    measure_start = _now()
    repeats: list[Repeat] = []
    last_s = 0.0
    while len(repeats) < MIN_REPEATS or _now() - measure_start < seconds:
        if repeats and _now() - run_start + last_s > BUDGET_S:
            print(f"stopping after {len(repeats)} repeats: time budget", file=sys.stderr)
            break
        t0 = _now()
        repeats.append(run_repeat(wl, seed, cfg, work, env))
        last_s = _now() - t0

    traced = None
    trace_path = WORK / f"trace-{wl.name}.npz"
    if trace:
        traced = run_repeat(wl, seed, cfg, work, env, trace=trace_path)
    runs = repeats + ([traced] if traced is not None else [])
    if len({r.summary_csv for r in runs if r.summary_csv is not None}) > 1:
        for rep in runs:
            rep.problems.append("the repeats wrote different summary.csv files")

    edge = None
    problems = [p for rep in runs for p in rep.problems]
    if wl.check_edges and (work / "out").is_dir():
        worst, n_logs = max_edge_mass(cfg, work / "out")
        edge = {"max_edge_mass": worst, "limit": EDGE_MASS_LIMIT, "trajectories_replayed": n_logs}
        if not worst <= EDGE_MASS_LIMIT or n_logs == 0:
            problems.append(f"edge mass {worst:.3g} over {n_logs} replayed trajectories (limit {EDGE_MASS_LIMIT:g})")

    good = [r for r in repeats if r.wall_s is not None]
    attempted = wl.trajectories * len(runs)
    failed = wl.trajectories * sum(1 for r in runs if not r.ok)

    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "trajectories": wl.trajectories,
        "threads": wl.threads,
        "log_trajectories": wl.log_trajectories,
        "seconds": seconds,
        "machine": machine_record(),
        "repeats": [
            {"setup_s": r.setup_s, "wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb,
             "events": r.events, "problems": r.problems}
            for r in runs
        ],
        "edge_check": edge,
        "not_traced": traced.not_traced if traced is not None else None,
        "problems": problems,
    }
    if not good:
        print(json.dumps({"record": record}))
        print("error: no repeat completed; see problems above", file=sys.stderr)
        return 1

    wall = statistics.median(r.wall_s for r in good)
    if trace:
        metrics = {}
        if traced.wall_s is not None and trace_path.exists():
            from spans import layer_metrics, load_trace

            layers = layer_metrics(
                load_trace(trace_path), events=traced.events,
                trajectories=wl.trajectories, workers=wl.threads,
            )
            layers["trace.overhead_s"] = (traced.wall_s - wall, "s")
            metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
        else:
            problems.append("the traced run produced no spans")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(r.setup_s for r in good), "s"),
            "wall_s": _metric(wall, "s"),
            "traj_per_s": _metric(statistics.median(wl.trajectories / r.wall_s for r in good), "1/s"),
            "events_per_s": _metric(statistics.median(r.events / r.wall_s for r in good), "1/s"),
            "peak_rss_mb": _metric(statistics.median(r.peak_rss_mb for r in good), "MB"),
            "completed_frac": _metric((attempted - failed) / attempted, "1"),
        }

    (WORK / f"result-{wl.name}.json").write_text(json.dumps({"record": record, "metrics": metrics}, indent=1))
    print(json.dumps({"record": record}))
    if problems:
        print("correctness gate failed:\n  " + "\n  ".join(problems), file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grwsim" / "cli.py").is_file():
        print(f"error: no grwsim source tree at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return bench(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
