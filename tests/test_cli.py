import functools
import json
import os
import re
from pathlib import Path

import pytest

from grwsim import ConfigError, History, NumericsError, Ontology, ScenarioKind
from grwsim.cli import main
from grwsim.fileio import parse_scenario_text

CAT_CFG = """\
# two-branch superposition watched through the matter density
kind = cat
c1_sq = 0.7
ontology = grwm
history = fresh_preparation
lambda_eff = 1.0
sigma = 1.0
total_time = 20.0
box_lower = -10
box_upper = 10
"""


# two GRWf marbles after a collapsed past, with density snapshots
MARBLES_CFG = """\
kind = marbles
n_marbles = 2
c1_sq = 0.9
ontology = grwf
history = collapsed_past
total_time = 20
density_times = 0, 10
"""


def _summary_text(**record) -> str:
    """A summary.json that grwsim report reads, its one record updated with record."""
    row = {"statistic": "event_count_mean", "estimate": 20.1, "target": 20.0, "z": 0.5, "pass": True}
    summary = {
        "config": {"kind": "cat", "ontology": "grwm", "history": "fresh_preparation"},
        "n_trajectories": 40, "master_seed": 0, "failures": 0, "diagnostics": [],
        "records": [row | record],
    }
    return json.dumps(summary)


def _failing_logs(error, out, config, index, record, prehistory):
    # stands in for write_trajectory_logs; trajectory 8 belongs to the last block
    if index == 8:
        raise error("synthetic failure in a worker")


def _dying_logs(out, config, index, record, prehistory):
    # stands in for write_trajectory_logs; trajectory 3 opens the middle block
    if index == 3:
        os._exit(1)


@pytest.fixture
def cat_cfg(tmp_path):
    path = tmp_path / "cat.cfg"
    path.write_text(CAT_CFG)
    return path


class TestRunCommand:
    def test_run_writes_expected_files(self, cat_cfg, tmp_path):
        out = tmp_path / "results"
        code = main(
            ["run", "--config", str(cat_cfg), "--seed", "42",
             "--trajectories", "80", "--out", str(out), "--log-trajectories", "2"]
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"summary.csv", "summary.json", "events-00000.jsonl",
                "flashes-00000.csv", "events-00001.jsonl", "flashes-00001.csv"} <= names
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "statistic,estimate,se,target,z,pass"
        first_flash_header = (out / "flashes-00000.csv").read_text().splitlines()[0]
        assert first_flash_header == "time,position,particle"

    def test_no_temp_files_left_behind(self, cat_cfg, tmp_path):
        out = tmp_path / "results"
        main(["run", "--config", str(cat_cfg), "--trajectories", "40", "--out", str(out)])
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp~")]

    def test_event_log_schema(self, cat_cfg, tmp_path):
        out = tmp_path / "results"
        main(["run", "--config", str(cat_cfg), "--seed", "1",
              "--trajectories", "40", "--out", str(out), "--log-trajectories", "1"])
        lines = (out / "events-00000.jsonl").read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert set(record) == {"t", "particle", "center", "pre_weights", "post_weights"}

    def test_byte_identical_across_threads(self, cat_cfg, tmp_path):
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"r{threads}"
            code = main(
                ["run", "--config", str(cat_cfg), "--seed", "9", "--trajectories", "60",
                 "--threads", threads, "--out", str(out), "--log-trajectories", "2"]
            )
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]

    def test_logs_identical_across_worker_blocks(self, tmp_path):
        # 9 trajectories on 3 workers are blocks 0-2, 3-5 and 6-8, and the
        # first 7 are logged, so every block writes logs.  Nine runs are too
        # few for the event-count chi-square: both runs exit 2 after the
        # run, leaving the logs and no summary.
        cfg = tmp_path / "marbles.cfg"
        cfg.write_text(MARBLES_CFG)
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"r{threads}"
            code = main(
                ["run", "--config", str(cfg), "--seed", "4", "--trajectories", "9",
                 "--threads", threads, "--out", str(out), "--log-trajectories", "7"]
            )
            assert code == 2
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        logs = {f"{kind}-{i:05d}.{ext}" for i in range(7)
                for kind, ext in (("events", "jsonl"), ("flashes", "csv"), ("prehistory", "csv"))}
        assert set(outputs[0]) == logs | {"density-t0.csv", "density-t10.csv"}
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("error,code", [(ConfigError, 2), (NumericsError, 3)])
    def test_worker_error_exit_code(self, cat_cfg, tmp_path, monkeypatch, capsys, error, code):
        import grwsim.cli as cli

        monkeypatch.setattr(cli, "write_trajectory_logs", functools.partial(_failing_logs, error))
        argv = ["run", "--config", str(cat_cfg), "--seed", "4", "--trajectories", "9",
                "--threads", "3", "--out", str(tmp_path / "o"), "--log-trajectories", "9"]
        assert main(argv) == code
        assert "synthetic failure in a worker" in capsys.readouterr().err

    def test_dead_worker_exit_code(self, cat_cfg, tmp_path, monkeypatch, capsys):
        import grwsim.cli as cli

        monkeypatch.setattr(cli, "write_trajectory_logs", _dying_logs)
        out = tmp_path / "o"
        argv = ["run", "--config", str(cat_cfg), "--seed", "4", "--trajectories", "9",
                "--threads", "3", "--out", str(out), "--log-trajectories", "9"]
        assert main(argv) == 4
        assert "trajectories 3-5 did not finish: a worker process died" in capsys.readouterr().err
        assert not list(out.glob("summary.*"))

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_unwritable_out_exit_code(self, cat_cfg, tmp_path, capsys, threads):
        # with no logs, the summary write is the first to fail, after the whole run
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "results"
        argv = ["run", "--config", str(cat_cfg), "--trajectories", "40", "--threads", threads,
                "--out", str(out), "--log-trajectories", "0"]
        assert main(argv) == 2
        assert f"error: cannot write {out}: Not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_unwritable_log_exit_code(self, cat_cfg, tmp_path, capsys, threads):
        # trajectory 8's event log cannot replace a directory; at 3 threads
        # the last worker block raises it
        out = tmp_path / "o"
        (out / "events-00008.jsonl").mkdir(parents=True)
        argv = ["run", "--config", str(cat_cfg), "--seed", "4", "--trajectories", "9",
                "--threads", threads, "--out", str(out), "--log-trajectories", "9"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out / 'events-00008.jsonl'}: Is a directory" in err
        assert not list(out.glob("summary.*"))
        assert not list(out.glob("*.tmp~"))  # the failed write removed its temp file

    def test_density_snapshots(self, tmp_path):
        cfg = tmp_path / "density.cfg"
        cfg.write_text(CAT_CFG + "density_times = 0.0, 20.0\n")
        out = tmp_path / "results"
        code = main(["run", "--config", str(cfg), "--trajectories", "40", "--out", str(out)])
        assert code == 0
        density = (out / "density-t20.csv").read_text().splitlines()
        assert density[0] == "x,m"
        assert len(density) > 100

    def test_density_snapshots_without_logs(self, tmp_path):
        # --log-trajectories 0 asks for no trajectory logs: the snapshots replay
        # trajectory 0 and write nothing else
        cfg = tmp_path / "density.cfg"
        cfg.write_text(CAT_CFG + "density_times = 0, 20\n")
        out = tmp_path / "results"
        argv = ["run", "--config", str(cfg), "--trajectories", "40", "--seed", "3",
                "--out", str(out), "--log-trajectories", "0"]
        assert main(argv) == 0
        assert {p.name for p in out.iterdir()} == {
            "summary.csv", "summary.json", "density-t0.csv", "density-t20.csv"
        }
        logged = tmp_path / "logged"
        argv[-3:] = [str(logged), "--log-trajectories", "1"]
        assert main(argv) == 0
        for name in ("density-t0.csv", "density-t20.csv", "summary.csv"):
            assert (out / name).read_bytes() == (logged / name).read_bytes()

    def test_grid_backend_run(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "kind = cat\nc1_sq = 0.7\nontology = grwm\nbackend = grid\n"
            "grid_points = 512\ntotal_time = 5.0\ndensity_times = 5.0\n"
        )
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--trajectories", "50",
                     "--out", str(out)]) == 0
        assert (out / "density-t5.csv").exists()


class TestConfigErrors:
    def test_unknown_key_line_numbered(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = cat\nbogus = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err and "bogus" in err

    def test_bad_value_line_numbered(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = cat\n\nc1_sq = lots\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "bad.cfg:3" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = cat\nkind = tail\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("times", ["-1", "0, 20.5", "2, 2.0"])
    def test_density_time_outside_run_rejected(self, tmp_path, capsys, times):
        # the grid backend used to fail at t = -1 only after writing its logs;
        # 2 and 2.0 used to write one density-t2.csv over the other
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"kind = cat\nbackend = grid\ntotal_time = 20.0\ndensity_times = {times}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--trajectories", "4", "--out", str(out)]) == 2
        assert "density_times" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "total_time = inf",  # the run loop would never end
            "total_time = nan",
            "lambda_eff = inf",
            "lambda_eff = nan",
            "sigma = inf",
            "mass = nan",  # nan amplitudes would pass every statistic
            "packet_width = nan",
            "window = nan",
            "outside_anchor = nan",
            "outside_anchor = inf",
            "box_upper = inf",
            "x_max = inf",
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(f"kind = cat\nbackend = grid\nhamiltonian = free\n{line}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--trajectories", "4", "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_event_budget_rejected(self, tmp_path, capsys):
        # 10^10 expected collapses per trajectory: the run used to grow its
        # event columns until it was killed
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("kind = cat\nlambda_eff = 1e9\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--trajectories", "2", "--out", str(out)]) == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    def test_thread_count_above_cap_rejected(self, cat_cfg, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["run", "--config", str(cat_cfg), "--trajectories", "4",
                "--threads", "65", "--out", str(out)]
        assert main(argv) == 2
        assert "threads must be in 1..64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("density", ["", "density_times = 0\n"])
    def test_negative_log_count_rejected(self, tmp_path, capsys, density):
        cfg = tmp_path / "cat.cfg"
        cfg.write_text(CAT_CFG + density)
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg), "--trajectories", "4",
                "--log-trajectories", "-3", "--out", str(out)]
        assert main(argv) == 2
        assert "logged trajectories must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, cat_cfg, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["run", "--config", str(cat_cfg), "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        assert "master seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            # a cat whose systems have not all converged by T = 3 used to be
            # rerun at T = 6 without notice, and summary.json said 6
            ("kind = cat\nc1_sq = 0.7\nontology = grw0\ntotal_time = 3\n",
             "total_time = 3 is too short for the limit statistics: a share 0.0498 of the systems"),
            # the final 100-unit flash window outlasts a 20-unit run (this
            # exited 1 with resurrection_rate 0.0)
            ("kind = tail\nontology = grwf\nhistory = collapsed_past\ntotal_time = 20\n",
             "final flash window of 100 time units reaches into the prehistory at total_time = 20"),
        ],
        ids=["cat-short-horizon", "grwf-flip-window"],
    )
    def test_short_horizon_rejected(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg), "--seed", "3", "--trajectories", "200", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "suffices" in err or "lengthen total_time" in err
        assert not out.exists()

    def test_narrow_prehistory_box_rejected(self, tmp_path, capsys):
        # the box holds about 0.1% of the prehistory's center law Normal(0, 1/2):
        # 100 redraws used to leave every center outside and put it at the
        # anchor without notice; now the config is refused
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(
            "kind = tail\nontology = grwf\nhistory = collapsed_past\nbox_lower = -0.001\n"
            "box_upper = 0.001\nwindow = 10\ntotal_time = 20\n"
        )
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg), "--seed", "3", "--trajectories", "20", "--out", str(out)]
        assert main(argv) == 2
        assert "so a collapsed-past prehistory of 10 expected flashes" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_hamiltonian_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = cat\nhamiltonian = quantum\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown hamiltonian kind 'quantum'" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, cat_cfg, tmp_path, monkeypatch):
        import grwsim.cli as cli
        from grwsim.errors import NumericsError

        def explode(*args, **kwargs):
            raise NumericsError("synthetic")

        monkeypatch.setattr(cli, "run_ensemble", explode)
        assert main(["run", "--config", str(cat_cfg), "--out", str(tmp_path / "o")]) == 3

    def test_statistical_failure_exit_code(self, cat_cfg, tmp_path, monkeypatch):
        import grwsim.cli as cli
        from grwsim.ensemble import run_ensemble as real_run

        def tampered(*args, **kwargs):
            summary = real_run(*args, **kwargs)
            bad = summary.records[0].__class__(
                name="synthetic", estimate=1.0, se=0.1, target=0.0, z=10.0,
                passed=False, provenance="synthetic",
            )
            summary.records.append(bad)
            return summary

        monkeypatch.setattr(cli, "run_ensemble", tampered)
        assert main(["run", "--config", str(cat_cfg), "--trajectories", "40",
                     "--out", str(tmp_path / "o")]) == 1


class TestOtherCommands:
    def test_check_fast_criteria(self, capsys):
        assert main(["check", "--criteria", "1,9,12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "3/3 acceptance criteria passed"
        # criterion 12's inner runs used to print their "wrote ..." lines here
        assert all(line.startswith("criterion ") for line in lines[:-1])
        assert [line[:20] for line in lines[:-1]] == [
            "criterion  1 [PASS] ", "criterion  9 [PASS] ", "criterion 12 [PASS] "
        ]

    @pytest.mark.parametrize("criteria", ["13", "0,1", "1,x", "1,,9"])
    def test_check_rejects_unknown_criteria(self, capsys, criteria):
        # an unknown number used to run nothing and exit 0; a non-integer
        # died with a traceback and exit code 1
        assert main(["check", "--criteria", criteria]) == 2
        captured = capsys.readouterr()
        assert "valid criteria are 1-12" in captured.err
        assert "criterion" not in captured.out

    def test_report_summarizes_run(self, cat_cfg, tmp_path, capsys):
        out = tmp_path / "results"
        main(["run", "--config", str(cat_cfg), "--trajectories", "40", "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "martingale_w1_final" in text
        assert "scenario: cat" in text

    def test_report_null_values(self, cat_cfg, tmp_path, capsys):
        # summary.json writes a non-finite estimate, target or z as null
        out = tmp_path / "results"
        main(["run", "--config", str(cat_cfg), "--trajectories", "40", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        summary["records"][0]["estimate"] = None
        summary["records"][1]["target"] = None
        (out / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[4:]}
        first, second = (rows[r["statistic"]] for r in summary["records"][:2])
        assert first[24:38].strip() == "" and first[38:52].strip()  # blank estimate
        assert second[24:38].strip() and second[38:52].strip() == ""  # blank target

    @pytest.mark.parametrize("record", [{}, {"estimate": 20, "target": None, "z": None, "pass": False}])
    def test_report_reads_hand_written_summary(self, tmp_path, capsys, record):
        # an integer estimate and null values are well typed
        (tmp_path / "summary.json").write_text(_summary_text(**record))
        assert main(["report", str(tmp_path)]) == 0
        assert "event_count_mean" in capsys.readouterr().out

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"config": {}}',
            "[1, 2]",
            # a record whose values report cannot format used to die mid-table
            pytest.param(_summary_text(estimate="abc"), id="string-estimate"),
            pytest.param(_summary_text(statistic=None), id="null-statistic"),
        ],
    )
    def test_report_malformed_summary(self, tmp_path, capsys, text):
        # valid JSON that is not a summary: a config error, not a traceback
        (tmp_path / "summary.json").write_text(text)
        assert main(["report", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert "malformed summary" in err
        assert out == ""


def test_readme_config_example_parses():
    # the README's annotated example puts a comment after every value
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```\n(# cat\.cfg\n.*?)```", readme, re.DOTALL).group(1)
    config = parse_scenario_text(block, source="README")
    assert (config.kind, config.ontology, config.history) == (
        ScenarioKind.TAIL, Ontology.GRWM, History.COLLAPSED_PAST
    )
    assert config.window_flashes == 100
    assert config.density_times == (0.0, 20.0)
