"""Span tracing of grwsim from outside the package, and the per-layer metrics.

``Tracer.install`` replaces public functions of the ``grwsim`` modules with
wrappers that record a span per call: name, start, end, parent span,
trajectory index and thread id.  Each wrapper goes where the program looks
the name up, e.g. ``grwsim.ensemble.run_trajectory`` because ``ensemble``
imports ``run_trajectory`` by name.  No module is edited; ``uninstall`` puts
every original object back.  Spans are kept in memory, one log per thread,
and written to an ``.npz`` file when the run ends.

``layer_metrics`` turns a span file into the per-layer numbers.  Times of
named functions are inclusive (a call's whole duration); the glue of
``run_trajectory`` and of ``cli.main`` is self time, a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from pathlib import Path

import numpy as np

# (owner, attribute, span name).  The owner is a module or "module:Class".
SPAN_TARGETS = [
    ("grwsim.cli", "main", "cli.main"),
    ("grwsim.cli", "parse_scenario_file", "fileio.parse_scenario_file"),
    ("grwsim.cli", "run_ensemble", "ensemble.run_ensemble"),
    ("grwsim.cli", "replay_state_at", "dynamics.replay_state_at"),
    ("grwsim.cli", "matter_density", "ontology.matter_density"),
    ("grwsim.cli", "write_summary_csv", "fileio.write_summary_csv"),
    ("grwsim.cli", "write_summary_json", "fileio.write_summary_json"),
    ("grwsim.cli", "write_events_jsonl", "fileio.write_events_jsonl"),
    ("grwsim.cli", "write_flashes_csv", "fileio.write_flashes_csv"),
    ("grwsim.cli", "write_density_csv", "fileio.write_density_csv"),
    ("grwsim.ensemble", "build_scenario", "scenarios.build_scenario"),
    ("grwsim.ensemble", "run_trajectory", "dynamics.run_trajectory"),
    ("grwsim.ensemble", "reduce_trajectory", "ensemble.reduce_trajectory"),
    ("grwsim.ensemble", "classify_grwf", "scenarios.classify_grwf"),
    ("grwsim.ensemble", "classify_branch_grwm", "scenarios.classify_branch_grwm"),
    ("grwsim.dynamics", "sample_waiting_time", "dynamics.sample_waiting_time"),
    ("grwsim.dynamics", "sample_collapse_center", "dynamics.sample_collapse_center"),
    ("grwsim.dynamics", "branch_collapse_update", "dynamics.branch_collapse_update"),
    ("grwsim.dynamics", "collapse_center_density", "dynamics.collapse_center_density"),
    ("grwsim.dynamics", "apply_collapse_grid", "dynamics.apply_collapse_grid"),
    ("grwsim.dynamics", "evolve_unitary", "dynamics.evolve_unitary"),
    ("grwsim.dynamics", "marginal_density", "state.marginal_density"),
    ("grwsim.dynamics:RngStream", "generator", "dynamics.RngStream.generator"),
    # reduce_trajectory imports matter_density from grwsim.ontology at call time
    ("grwsim.ontology", "matter_density", "ontology.matter_density"),
    ("grwsim.ontology", "marginal_density", "state.marginal_density"),
    ("grwsim.state:BranchState", "from_weights", "state.BranchState.from_weights"),
]
# the public statistic tests, looked up in grwsim.ensemble by _compute_plan_records
STATS_PREFIX = "ensemble.stats."
STATS_MODULE = "grwsim.ensemble"
# calls counted without a span: locate is cheap and frequent
COUNT_TARGETS = [("grwsim.dynamics:BranchSystems", "locate", "dynamics.BranchSystems.locate")]
# every output file goes through atomic_write_text; counted with its size
FILE_TARGET = ("grwsim.fileio", "atomic_write_text", "fileio.files")

# collapsed-past prehistories draw from stream ids offset by this block
_PREHISTORY_STREAM_OFFSET = 2**48
# per-trajectory work on a worker; what worker_busy_frac counts as busy
_TRAJECTORY_WORK = (
    "dynamics.RngStream.generator",
    "scenarios.build_scenario",
    "dynamics.run_trajectory",
    "ensemble.reduce_trajectory",
)


def resolve_owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _stream_index(stream) -> int:
    return int(stream.stream) % _PREHISTORY_STREAM_OFFSET


def targets() -> list[tuple[str, str, str, str]]:
    """(owner, attribute, name, kind) of every object a Tracer replaces."""
    ensemble = importlib.import_module(STATS_MODULE)
    stats = [
        (STATS_MODULE, attr, STATS_PREFIX + attr, "span")
        for attr in sorted(vars(ensemble))
        if attr.endswith("_test") and not attr.startswith("_") and callable(getattr(ensemble, attr))
    ]
    return (
        [(o, a, n, "span") for o, a, n in SPAN_TARGETS]
        + stats
        + [(o, a, n, "count") for o, a, n in COUNT_TARGETS]
        + [(*FILE_TARGET, "file")]
    )


# trajectory index of a call, for the calls whose arguments say it
_TRAJ_OF = {
    "dynamics.run_trajectory": lambda a, kw: _stream_index(a[2] if len(a) > 2 else kw["stream"]),
    "ensemble.reduce_trajectory": lambda a, kw: int(a[2] if len(a) > 2 else kw["index"]),
    "dynamics.RngStream.generator": lambda a, kw: _stream_index(a[0]),
}


class _ThreadLog:
    __slots__ = ("tid", "stack", "spans", "counts", "traj")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.traj = -1


class Tracer:
    """Wraps grwsim functions in place and records their spans in memory."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._ids = itertools.count()
        self._names: list[str] = []
        self.originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._installed = False
        self._main: _ThreadLog | None = None

    # -- recording -------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._tls, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            with self._lock:
                self._logs.append(log)
            self._tls.log = log
        return log

    def _name_code(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def _span_wrapper(self, fn, name: str):
        code = self._name_code(name)
        ids = self._ids
        clock = time.perf_counter_ns
        traj_of = _TRAJ_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            if log.stack:
                parent = log.stack[-1]
            else:
                # a worker thread's top-level call belongs to the span that
                # the installing thread has open (run_ensemble)
                main_stack = self._main.stack
                parent = main_stack[-1] if main_stack else -1
            if traj_of is not None:
                try:
                    log.traj = traj_of(args, kwargs)
                except (IndexError, KeyError, AttributeError, TypeError, ValueError):
                    pass  # a changed signature costs the index, never the call
            traj = log.traj
            sid = next(ids)
            log.stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                log.stack.pop()
                log.spans.append((sid, code, start, end, parent, traj, log.tid))

        return wrapper

    def _count_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._log().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _file_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            counts = self._log().counts
            counts[name] = counts.get(name, 0) + 1
            try:
                counts["fileio.bytes"] = counts.get("fileio.bytes", 0) + os.path.getsize(path)
            except (OSError, TypeError):
                pass
            return result

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self.originals = []
        self.missing = []
        self._main = self._log()
        make = {"span": self._span_wrapper, "count": self._count_wrapper, "file": self._file_wrapper}
        for owner_path, attr, name, kind in targets():
            try:
                owner = resolve_owner(owner_path)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                # a refactor removed it: its layer metrics read 0 and the record says why
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(make[kind](original.__func__, name))
            else:
                replacement = make[kind](original, name)
            self.originals.append((owner, attr, original))
            setattr(owner, attr, replacement)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self._installed = False

    def restored(self) -> bool:
        """Whether every object install() replaced is back in place."""
        return all(vars(owner)[attr] is original for owner, attr, original in self.originals)

    # -- output ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for log in self._logs:
            for name, n in log.counts.items():
                total[name] = total.get(name, 0) + n
        return total

    def dump(self, path: str | Path) -> None:
        """Write every recorded span and count to an uncompressed .npz file."""
        spans = [s for log in self._logs for s in log.spans]
        cols = list(zip(*spans)) if spans else [()] * 7
        counts = self.counts()
        np.savez(
            path,
            names=np.array(self._names),
            sid=np.array(cols[0], dtype=np.int64),
            name=np.array(cols[1], dtype=np.int32),
            start=np.array(cols[2], dtype=np.int64),
            end=np.array(cols[3], dtype=np.int64),
            parent=np.array(cols[4], dtype=np.int64),
            traj=np.array(cols[5], dtype=np.int64),
            tid=np.array(cols[6], dtype=np.int64),
            count_names=np.array(list(counts), dtype=str),
            count_values=np.array(list(counts.values()), dtype=np.int64),
        )


def self_times(sid, start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals within it.

    Children on different threads may overlap; the union counts shared
    time once, and a child running past its parent is clipped to it.
    """
    sid, start, end, parent = (np.asarray(a, dtype=np.int64) for a in (sid, start, end, parent))
    pos = {s: i for i, s in enumerate(sid.tolist())}
    covered = [0] * sid.size
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    current, reach = None, 0
    for k in np.lexsort((start, parent)).tolist():
        i = pos.get(parents[k])
        if i is None:
            continue
        if parents[k] != current:
            current, reach = parents[k], starts[i]
        lo = max(starts[k], reach)
        hi = min(ends[k], ends[i])
        if hi > lo:
            covered[i] += hi - lo
            reach = hi
    return (end - start) - np.array(covered, dtype=np.int64)


def load_trace(path: str | Path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def layer_metrics(
    trace: dict, *, events: int, trajectories: int, workers: int
) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of one traced run; a layer that never ran reads 0.

    ``events`` and ``trajectories`` are the run's totals (from its summary),
    the bases of the per-event and per-trajectory ratios.
    """
    names = trace["names"].tolist()
    code = trace["name"]
    dur = (trace["end"] - trace["start"]).astype(np.float64)
    counts = dict(zip(trace["count_names"].tolist(), trace["count_values"].tolist()))

    def mask(name: str) -> np.ndarray:
        return code == names.index(name) if name in names else np.zeros(code.size, bool)

    def total_ns(*wanted: str) -> float:
        return float(sum(dur[mask(n)].sum() for n in wanted))

    def per_call_ns(name: str) -> float:
        m = mask(name)
        return float(dur[m].mean()) if m.any() else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    own = self_times(trace["sid"], trace["start"], trace["end"], trace["parent"])
    traj = mask("dynamics.run_trajectory")
    traj_us = dur[traj] / 1e3
    stats = [n for n in names if n.startswith(STATS_PREFIX)]

    ensemble = mask("ensemble.run_ensemble")
    ensemble_ns = float(dur[ensemble].sum())
    ensemble_ids = set(trace["sid"][ensemble].tolist())
    work = np.isin(code, [names.index(n) for n in _TRAJECTORY_WORK if n in names])
    work &= np.isin(trace["parent"], list(ensemble_ids))

    return {
        "dynamics.events": (float(events), "count"),
        "dynamics.wait_us_per_event": (ratio(total_ns("dynamics.sample_waiting_time"), events) / 1e3, "us"),
        "dynamics.center_us_per_event": (ratio(total_ns("dynamics.sample_collapse_center"), events) / 1e3, "us"),
        "dynamics.collapse_us_per_event": (ratio(total_ns("dynamics.branch_collapse_update"), events) / 1e3, "us"),
        "dynamics.glue_us_per_event": (ratio(float(own[traj].sum()), events) / 1e3, "us"),
        "dynamics.locate_calls_per_event": (
            ratio(counts.get("dynamics.BranchSystems.locate", 0), events), "count"
        ),
        "dynamics.traj_us_p50": (float(np.percentile(traj_us, 50)) if traj.any() else 0.0, "us"),
        "dynamics.traj_us_p99": (float(np.percentile(traj_us, 99)) if traj.any() else 0.0, "us"),
        "dynamics.substream_us_per_traj": (
            ratio(total_ns("dynamics.RngStream.generator"), trajectories) / 1e3, "us"
        ),
        "dynamics.grid_density_us_per_call": (per_call_ns("dynamics.collapse_center_density") / 1e3, "us"),
        "dynamics.grid_collapse_us_per_call": (per_call_ns("dynamics.apply_collapse_grid") / 1e3, "us"),
        "dynamics.grid_evolve_us_per_call": (per_call_ns("dynamics.evolve_unitary") / 1e3, "us"),
        "dynamics.replay_ms_per_call": (per_call_ns("dynamics.replay_state_at") / 1e6, "ms"),
        "scenarios.build_us_per_traj": (ratio(total_ns("scenarios.build_scenario"), trajectories) / 1e3, "us"),
        "state.from_weights_us_per_call": (per_call_ns("state.BranchState.from_weights") / 1e3, "us"),
        "scenarios.classify_us_per_traj": (
            ratio(total_ns("scenarios.classify_grwf", "scenarios.classify_branch_grwm"), trajectories) / 1e3,
            "us",
        ),
        "ensemble.reduce_us_per_traj": (ratio(total_ns("ensemble.reduce_trajectory"), trajectories) / 1e3, "us"),
        "ensemble.stats_ms": (total_ns(*stats) / 1e6, "ms"),
        "ensemble.worker_busy_frac": (ratio(float(dur[work].sum()), workers * ensemble_ns), "1"),
        "ontology.matter_density_us_per_call": (per_call_ns("ontology.matter_density") / 1e3, "us"),
        "state.marginal_density_us_per_call": (per_call_ns("state.marginal_density") / 1e3, "us"),
        "fileio.write_s": (total_ns(*[n for n in names if n.startswith("fileio.write_")]) / 1e9, "s"),
        "fileio.files": (float(counts.get("fileio.files", 0)), "count"),
        "fileio.bytes": (float(counts.get("fileio.bytes", 0)), "B"),
        "cli.self_ms": (float(own[mask("cli.main")].sum()) / 1e6, "ms"),
    }
