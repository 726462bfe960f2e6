"""The log writers spell every value as json and repr spell it; the summary's config keys follow the fields."""

import json
import math
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grwsim import BranchState, GridSpec, GrwParams, Packet, fileio, make_grid_wavefunction
from grwsim.dynamics import BranchSystems, CollapseEvent, TrajectoryRecord
from grwsim.fileio import config_to_dict, write_events_jsonl, write_flashes_csv
from grwsim.scenarios import ScenarioConfig

ENCODER = json.JSONEncoder(separators=(",", ":"))
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, math.inf, -math.inf, math.nan]

# any float, numpy's float64 scalars among them
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL), st.floats().map(np.float64))
# log-weights whose exponentials cover 0, subnormals, inf and nan; math.exp overflows above 709.78
log_weights = st.one_of(
    st.floats(max_value=709.0), st.sampled_from([-math.inf, math.inf, math.nan, -740.0, -745.0])
)


def _expected_lines(events) -> list[str]:
    return [
        ENCODER.encode(
            {
                "t": e.time,
                "particle": e.particle,
                "center": e.center,
                "pre_weights": list(e.pre_weights),
                "post_weights": list(e.post_weights),
            }
        )
        for e in events
    ]


def _written(write, *args) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log"
        write(path, *args)
        return path.read_text()


def _branch_state(log_w):
    return BranchState(("in", "out"), np.array(log_w), np.array([[0.0], [30.0]]))


@given(
    initial=st.lists(st.tuples(log_weights, log_weights), min_size=2, max_size=2),
    rows=st.lists(st.tuples(floats, st.integers(0, 1), floats, log_weights, log_weights), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_branch_event_lines_match_json(initial, rows):
    systems = BranchSystems([_branch_state(lw) for lw in initial])
    record = TrajectoryRecord(
        params=GrwParams(),
        times=[r[0] for r in rows],
        particles=[r[1] for r in rows],
        centers=[r[2] for r in rows],
        post_log_weights=[[float(r[3]), float(r[4])] for r in rows],
        initial_state=systems,
        final_state=systems,
    )
    text = _written(write_events_jsonl, record)
    assert text.splitlines() == _expected_lines(record.events)
    assert text.endswith("\n") or not rows


@dataclass
class _GivenEvents(TrajectoryRecord):
    """A record whose event log is given instead of replayed."""

    given_events: list = field(default_factory=list)

    @property
    def events(self):
        return self.given_events


_GRID = make_grid_wavefunction(GridSpec(-20.0, 20.0, 128, 1), [Packet((0.0,), 1.0, 1.0)])


@given(rows=st.lists(st.tuples(floats, floats, floats, floats, floats, floats), max_size=12))
@settings(max_examples=150, deadline=None)
def test_grid_event_lines_match_json(rows):
    events = [CollapseEvent(t, 0, x, (m0, s0), (m1, s1)) for t, x, m0, s0, m1, s1 in rows]
    record = _GivenEvents(
        params=GrwParams(),
        times=[e.time for e in events],
        particles=[0] * len(events),
        centers=[e.center for e in events],
        initial_state=_GRID,
        final_state=_GRID,
        given_events=events,
    )
    assert _written(write_events_jsonl, record).splitlines() == _expected_lines(events)


@given(rows=st.lists(st.tuples(floats, st.integers(0, 2**40), floats), max_size=20))
@settings(max_examples=150, deadline=None)
def test_flashes_csv_from_arrays_equals_from_lists(rows):
    times, particles, centers = ([r[i] for r in rows] for i in range(3))
    from_lists = _written(write_flashes_csv, times, particles, centers)
    arrays = (np.array(times, dtype=float), np.array(particles, dtype=np.int64), np.array(centers, dtype=float))
    assert _written(write_flashes_csv, *arrays) == from_lists
    # each value spelled as repr(float(x)), the file's spelling since its first version
    expected = ["time,position,particle"] + [f"{float(t)!r},{float(x)!r},{k}" for t, k, x in rows]
    assert from_lists.splitlines() == expected


def test_config_keys_match_fields_and_schema():
    # summary.json's config keys: the ScenarioConfig fields in declaration
    # order with params last as its five keys; the parser reads the same
    # keys with the box split, so a new field reaches both or neither
    process = ["lambda_eff", "sigma", "total_time", "hamiltonian", "mass"]
    scenario = [f.name for f in fields(ScenarioConfig) if f.name != "params"]
    keys = list(config_to_dict(ScenarioConfig()))
    assert keys == scenario + process
    split = [part for key in keys for part in (["box_lower", "box_upper"] if key == "box" else [key])]
    assert list(fileio._SCHEMA) == split
