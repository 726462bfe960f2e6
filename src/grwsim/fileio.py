"""Config parsing and stable output formats.

Scenario configs are flat ``key = value`` text; ``#`` or ``;`` starts a
comment.  Every key maps one-to-one onto a field of ScenarioConfig,
GrwParams, Hamiltonian or the box, and unknown keys are hard errors with
line numbers (typos must not become silent defaults).  Keys a file leaves
out take those classes' own defaults.

Outputs: collapse events as JSON Lines, flashes and matter-density
snapshots as flat CSV, ensemble summaries as a six-column CSV plus a richer
JSON twin.  All files are written atomically (temp + rename).
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .dynamics import BranchSystems, GrwParams, Hamiltonian, TrajectoryRecord
from .ensemble import EnsembleSummary, StatRecord
from .errors import ConfigError
from .ontology import MatterDensityField
from .scenarios import History, Ontology, ScenarioConfig, ScenarioKind
from .state import Region


def _parse_times(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(float(tok) for tok in raw.split(","))


_SCHEMA: dict[str, Callable[[str], object]] = {
    # scenario fields
    "kind": lambda s: ScenarioKind(s.strip().lower()),
    "c1_sq": float,
    "n_marbles": int,
    "box_lower": float,
    "box_upper": float,
    "ontology": lambda s: Ontology(s.strip().lower()),
    "history": lambda s: History(s.strip().lower()),
    "theta_m": float,
    "theta_f": float,
    "window": float,
    "window_flashes": int,
    "backend": lambda s: s.strip().lower(),
    "inside_anchor": float,
    "outside_anchor": float,
    "packet_width": float,
    "grid_points": int,
    "x_min": float,
    "x_max": float,
    "density_times": _parse_times,
    # process parameters
    "lambda_eff": float,
    "sigma": float,
    "total_time": float,
    "hamiltonian": lambda s: s.strip().lower(),
    "mass": float,
}


def parse_scenario_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse flat key=value scenario text into a validated ScenarioConfig."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = re.split("[#;]", raw_line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip().lower()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _SCHEMA[key](raw_value.strip())
        except (ValueError, KeyError) as exc:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key!r}: {raw_value.strip()!r} ({exc})"
            ) from exc

    def take(**keys: str) -> dict[str, object]:
        # field name -> value, for the fields whose config key the file sets
        return {field: values.pop(key) for field, key in keys.items() if key in values}

    params = GrwParams(
        hamiltonian=Hamiltonian(**take(kind="hamiltonian", mass="mass")),
        **take(lambda_eff="lambda_eff", sigma="sigma", total_time="total_time"),
    )
    box = replace(ScenarioConfig.box, **take(lower="box_lower", upper="box_upper"))
    return ScenarioConfig(params=params, box=box, **values)  # type: ignore[arg-type]


def parse_scenario_file(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_scenario_text(text, source=str(path))


# ---------------------------------------------------------------------------
# writers

def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place; a failure removes the temp file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp~")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def write_summary_csv(path: str | Path, records: Iterable[StatRecord]) -> None:
    lines = ["statistic,estimate,se,target,z,pass"]
    for r in records:
        lines.append(
            f"{r.name},{_fmt(r.estimate)},{_fmt(r.se)},{_fmt(r.target)},{_fmt(r.z)},"
            f"{'true' if r.passed else 'false'}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def config_to_dict(config: ScenarioConfig) -> dict:
    """The fields as JSON values, in declaration order but params last, as its five keys."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, Region):
            value = [value.lower, value.upper]
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    p = out.pop("params")
    process = dict(lambda_eff=p.lambda_eff, sigma=p.sigma, total_time=p.total_time)
    return out | process | {"hamiltonian": p.hamiltonian.kind, "mass": p.hamiltonian.mass}


def _jsonable(x: float | None):
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return None
    return x


def write_summary_json(path: str | Path, summary: EnsembleSummary) -> None:
    payload = {
        "config": config_to_dict(summary.config),
        "n_trajectories": len(summary.trajectories),
        "master_seed": summary.master_seed,
        "failures": summary.failures,
        "diagnostics": summary.diagnostics,
        "records": [
            {
                "statistic": r.name,
                "estimate": _jsonable(r.estimate),
                "se": _jsonable(r.se),
                "target": _jsonable(r.target),
                "z": _jsonable(r.z),
                "p_value": _jsonable(r.p_value),
                "pass": r.passed,
                "provenance": r.provenance,
            }
            for r in summary.records
        ],
        "histograms": summary.histograms,
    }
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


# json's spelling of the floats that float.__repr__ spells nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: Iterable[float]) -> list[str]:
    """Each float as json spells it: its repr, or NaN, Infinity or -Infinity."""
    return [_JSON_NONFINITE.get(s, s) for s in map(float.__repr__, values)]


def _json_array(values: Iterable[float]) -> str:
    return "[" + ",".join(_json_floats(values)) + "]"


def write_events_jsonl(path: str | Path, record: TrajectoryRecord) -> None:
    """One JSON object per collapse event: {t, particle, center, pre_weights, post_weights}.

    Each line is what json.dumps(event, separators=(",", ":")) writes.  A
    branch record's lines come straight from its weight_columns, and each
    weight tuple is spelled once.
    """
    if isinstance(record.initial_state, BranchSystems):
        weights, pre = record.weight_columns()
        spelled = [_json_array(w) for w in weights]
        posts = spelled[len(spelled) - len(pre) :]
        pres = [spelled[p] for p in pre]
    else:
        events = record.events
        pres = [_json_array(e.pre_weights) for e in events]
        posts = [_json_array(e.post_weights) for e in events]
    rows = zip(_json_floats(record.times), record.particles, _json_floats(record.centers), pres, posts)
    lines = [
        f'{{"t":{t},"particle":{k},"center":{x},"pre_weights":{pre},"post_weights":{post}}}\n'
        for t, k, x, pre, post in rows
    ]
    atomic_write_text(path, "".join(lines))


def write_flashes_csv(path: str | Path, times: Iterable, particles: Iterable, centers: Iterable) -> None:
    """Flash columns (times, particles, centers), lists or arrays, as time,position,particle rows."""
    times, centers = (np.asarray(c, dtype=float).tolist() for c in (times, centers))
    rows = [f"{t!r},{x!r},{k}\n" for t, k, x in zip(times, np.asarray(particles).tolist(), centers)]
    atomic_write_text(path, "time,position,particle\n" + "".join(rows))


def write_density_csv(path: str | Path, field: MatterDensityField) -> None:
    lines = ["x,m"]
    for x, m in zip(field.grid, field.values):
        lines.append(f"{_fmt(x)},{_fmt(m)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# what grwsim report reads of a summary.json
_SUMMARY_KEYS = ("config", "n_trajectories", "master_seed", "failures", "records", "diagnostics")
_RECORD_KEYS = ("statistic", "estimate", "target", "z", "pass")


def _has_keys(obj, keys: tuple[str, ...]) -> bool:
    return isinstance(obj, dict) and all(k in obj for k in keys)


def read_summary_json(path: str | Path) -> dict:
    """A summary.json holding every key ``grwsim report`` reads, else ConfigError."""
    path = Path(path)
    try:
        summary = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read summary {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed summary {path}: {exc}") from exc
    if not (
        _has_keys(summary, _SUMMARY_KEYS)
        and _has_keys(summary["config"], ("kind", "ontology", "history"))
        and isinstance(summary["diagnostics"], list)
        and isinstance(summary["records"], list)
        and all(_has_keys(r, _RECORD_KEYS) for r in summary["records"])
        # the types report formats; null marks a non-finite value, and a bool is no number
        and all(
            isinstance(r["statistic"], str) and isinstance(r["pass"], bool)
            and all(r[k] is None or type(r[k]) in (int, float) for k in ("estimate", "target", "z"))
            for r in summary["records"]
        )
    ):
        raise ConfigError(
            f"malformed summary {path}: expected a JSON object with the keys "
            f"{', '.join(_SUMMARY_KEYS)} and records holding {', '.join(_RECORD_KEYS)} "
            "(a string, numbers or null, and a bool)"
        )
    return summary
