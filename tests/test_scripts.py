"""The experiment scripts run end to end with small arguments."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("ontology_snapshot_demo.py", []),
        ("marble_counting_experiment.py", ["--marbles", "2", "--trajectories", "200"]),
        ("resurrection_sweep.py", ["--eps", "0.05", "--trajectories", "200"]),
    ],
)
def test_script_exits_cleanly(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_parity_tree_against_itself(tmp_path):
    parity = _load_parity()
    assert len({case.name for case in parity.CASES}) == len(parity.CASES)
    cases = [
        parity.Case("cat", "kind = cat\nontology = grw0\ntotal_time = 20\n", 20),
        parity.Case(
            "marbles", "kind = marbles\nn_marbles = 3\nontology = grwf\nhistory = collapsed_past\n"
            "total_time = 20\n", 20, threads=2,
        ),
    ]
    report = parity.compare_trees(ROOT, ROOT, cases, tmp_path / "same")
    assert report["identical"], report
    assert [c["exit"] for c in report["cases"]] == [[0, 0], [0, 0]]
    assert all(c["files"] >= 4 for c in report["cases"])
    assert report["demo"]["exit"] == [0, 0] and report["demo"]["match"]

    # a head whose gof gate reads 2e-3 writes another summary target column
    head = tmp_path / "head"
    for folder in ("src", "scripts"):
        shutil.copytree(ROOT / folder, head / folder, ignore=shutil.ignore_patterns("__pycache__"))
    ensemble = head / "src" / "grwsim" / "ensemble.py"
    ensemble.write_text(ensemble.read_text().replace("P_MIN = 1e-3", "P_MIN = 2e-3"))
    report = parity.compare_trees(ROOT, head, cases[:1], tmp_path / "changed")
    assert not report["identical"]
    assert report["cases"][0]["differing"] == ["summary.csv", "summary.json"]
    assert report["demo"]["match"]  # the demo prints no summary

    # a head whose demo runs at another default seed prints other flashes
    demo = head / "scripts" / "ontology_snapshot_demo.py"
    demo.write_text(demo.read_text().replace("type=int, default=3)", "type=int, default=4)"))
    result = parity.compare_demo(ROOT, head)
    assert result["exit"] == [0, 0] and not result["match"]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_alternate_and_summarize():
    snapshot = _load_script("bench_snapshot")
    base, change = Path("/base"), Path("/change")
    calls = []

    def stub_runner(tree, workload, seconds, seed):
        # the change is 20% faster; both trees fail the gate at seed 3, the change alone at 4
        calls.append((tree, seed))
        wall = 2.0 if tree == base else 1.6
        correct = seed != 3 and not (tree == change and seed == 4)
        metrics = {"wall_s": {"value": wall + seed / 100, "unit": "s"},
                   "traj_per_s": {"value": 300 / wall, "unit": "1/s"}}
        return {"exit_code": 0, "correct": correct, "metrics": metrics}

    end_to_end = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "traj_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},  # no run reports it
    ]
    result = snapshot.run_pairs(change, base, "cat_grw0", 4, 12.0, end_to_end, runner=stub_runner)

    assert calls == [(base, 1), (change, 1), (change, 2), (base, 2),
                     (base, 3), (change, 3), (change, 4), (base, 4)]
    assert [p["first"] for p in result["pairs"]] == ["base", "change", "base", "change"]
    assert [p["seed"] for p in result["pairs"]] == [1, 2, 3, 4]
    assert result["gate"] == {
        "base_correct": 3, "change_correct": 2, "both_fail_seeds": [3],
        "change_only_fail_seeds": [4], "base_only_fail_seeds": [],
    }
    wall = result["metrics"]["wall_s"]
    assert wall["base_quartiles"] == pytest.approx([2.0175, 2.025, 2.0325])
    assert wall["change_quartiles"] == pytest.approx([1.6175, 1.625, 1.6325])
    assert wall["change_better"] == 4 and wall["pairs"] == 4 and wall["gain_shown"]
    assert 0.80 < wall["ratio_median"] < 0.81
    assert result["metrics"]["traj_per_s"]["change_better"] == 4
    # a metric whose trees read the same shows no gain
    same = snapshot.run_pairs(change, change, "cat_grw0", 2, 12.0, end_to_end, runner=stub_runner)
    assert same["metrics"]["wall_s"]["change_better"] == 0 and not same["metrics"]["wall_s"]["gain_shown"]
    assert "peak_rss_mb" not in result["metrics"]
