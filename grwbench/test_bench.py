"""Self-tests of the benchmark itself.

    python3 -m pytest grwbench/test_bench.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import grwsim.cli  # noqa: E402
from spans import Tracer, layer_metrics, load_trace, resolve_owner, self_times, targets  # noqa: E402

TINY_MARBLES = """\
kind = marbles
n_marbles = 3
c1_sq = 0.9
ontology = grwf
history = collapsed_past
total_time = 20
"""


def test_self_time_on_a_hand_built_span_tree():
    # 0: root [0, 100]; 1, 2: children on two threads that overlap in [20, 30];
    # 3: child of 1; 4: child of 0 running past its end; 5: a leaf with no parent.
    sid = [0, 1, 2, 3, 4, 5]
    start = [0, 10, 20, 12, 90, 200]
    end = [100, 30, 40, 18, 120, 210]
    parent = [-1, 0, 0, 1, 0, -1]
    own = self_times(sid, start, end, parent)
    # root: covered by [10, 40] and [90, 100] -> 100 - 30 - 10
    assert own.tolist() == [60, 14, 20, 6, 30, 10]


def test_every_wrapper_is_restored_after_a_traced_run(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_MARBLES)
    tracer = Tracer()
    before = {(owner, attr): vars(resolve_owner(owner))[attr] for owner, attr, _, _ in targets()}
    tracer.install()
    assert all(vars(owner)[attr] is not original for owner, attr, original in tracer.originals)
    try:
        rc = grwsim.cli.main(
            ["run", "--config", str(cfg), "--seed", "5", "--trajectories", "40",
             "--threads", "2", "--log-trajectories", "2", "--out", str(tmp_path / "out")]
        )
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.restored()
    assert len(tracer.originals) == len(before)
    for owner, attr, _, _ in targets():
        assert vars(resolve_owner(owner))[attr] is before[(owner, attr)]
    trace_path = tmp_path / "spans.npz"
    tracer.dump(trace_path)
    metrics = layer_metrics(load_trace(trace_path), events=1, trajectories=40, workers=2)
    assert metrics["fileio.files"][0] == 2 + 2 * 3  # summaries + events/flashes/prehistory per log
    assert metrics["dynamics.traj_us_p50"][0] > 0
    assert 0 < metrics["ensemble.worker_busy_frac"][0] <= 1


@pytest.mark.parametrize(
    "config",
    [
        TINY_MARBLES,
        "kind = tail\nc1_sq = 0.99\nbackend = grid\nx_min = -30\nx_max = 50\n"
        "hamiltonian = free\nmass = 5\ntotal_time = 3\ndensity_times = 0, 3\n",
    ],
    ids=["marbles", "grid"],
)
def test_traced_and_untraced_runs_write_the_same_summary(tmp_path, config):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(config)
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    outputs = []
    for own in ([], ["--trace", str(tmp_path / "spans.npz")]):
        out = tmp_path / f"out{len(outputs)}"
        argv = ["run", "--config", str(cfg), "--seed", "9", "--trajectories", "40",
                "--threads", "2", "--log-trajectories", "3", "--out", str(out)]
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(tmp_path / "timing.json"), *own, "--", *argv],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append((out / "summary.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert np.load(tmp_path / "spans.npz")["sid"].size > 0
