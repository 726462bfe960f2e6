import concurrent.futures
import functools
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from grwsim import (
    ConfigError,
    GrwParams,
    History,
    NumericsError,
    Ontology,
    Packet,
    RngStream,
    ScenarioConfig,
    ScenarioKind,
    build_scenario,
    center_histogram_test,
    make_grid_wavefunction,
    run_ensemble,
    run_trajectory,
    sample_collapse_center,
)
from grwsim.ensemble import (
    CODES,
    CONVERGENCE_WEIGHT,
    INSIDE,
    EnsembleSummary,
    _unconverged_share,
    _verdict_at,
    first_window_inside_probability,
    frequency_record,
    gof_record,
    grwf_inside_rate_test,
    inside_count_threshold,
    poisson_flash_test,
    resurrection_rate_test,
    z_record,
)
from grwsim.fileio import parse_scenario_text, write_summary_csv, write_summary_json
from grwsim.scenarios import PREHISTORY_STREAM_OFFSET, Verdict, verdict_from_fraction


def _tail_config():
    # GRWf flips after a collapsed past: every trajectory draws its own prehistory
    return ScenarioConfig(
        kind=ScenarioKind.TAIL,
        c1_sq=0.99,
        ontology=Ontology.GRWF,
        history=History.COLLAPSED_PAST,
        window=10.0,
        params=GrwParams(total_time=20.0),
    )


def _raise_at(index, error, i, record, prehistory):
    if i == index:
        raise error(f"trajectory {i}")


def _record_log(out, i, record, prehistory):
    # what a log needs from the run, and the process that wrote it
    lines = [repr(record.times), repr(record.centers), repr(prehistory), str(os.getpid())]
    (out / f"{i}.txt").write_text("\n".join(lines))


def _same_columns(a, b):
    """Whether two summaries hold the same columns, bit for bit, and the same diagnostics."""
    return (
        a.columns.keys() == b.columns.keys()
        and all(np.array_equal(a.columns[k], b.columns[k]) for k in a.columns)
        and a.diagnostics == b.diagnostics
    )


def _cat_config(c1=0.7, total_time=20.0, **kwargs):
    return ScenarioConfig(
        kind=ScenarioKind.CAT,
        c1_sq=c1,
        ontology=Ontology.GRW0,
        params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=total_time),
        **kwargs,
    )


class TestRunEnsemble:
    def test_single_trajectory_rejected(self):
        with pytest.raises(ConfigError):
            run_ensemble(_cat_config(), 1, master_seed=0)

    def test_deterministic_summaries(self, tmp_path):
        config = _cat_config()
        out = []
        for threads in (1, 3):
            summary = run_ensemble(config, 200, master_seed=11, threads=threads, log_first=2)
            csv_path = tmp_path / f"summary-{threads}.csv"
            json_path = tmp_path / f"summary-{threads}.json"
            write_summary_csv(csv_path, summary.records)
            write_summary_json(json_path, summary)
            out.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert out[0] == out[1]

    def test_grid_summaries_identical_across_workers(self, tmp_path):
        # 37 trajectories: chunks of 16 on one worker, and blocks 0-11,
        # 12-23 and 24-36 on three, so the chunk edges fall elsewhere
        config = parse_scenario_text(
            "kind = tail\nc1_sq = 0.99\nontology = grwm\nbackend = grid\nx_min = -30\n"
            "x_max = 50\nhamiltonian = free\nmass = 5\ntotal_time = 3\n"
        )
        out, summaries = [], []
        for threads in (1, 3):
            summary = run_ensemble(config, 37, master_seed=12, threads=threads)
            write_summary_csv(tmp_path / f"summary-{threads}.csv", summary.records)
            write_summary_json(tmp_path / f"summary-{threads}.json", summary)
            out.append([(tmp_path / f"summary-{threads}.{ext}").read_bytes() for ext in ("csv", "json")])
            summaries.append(summary)
        assert out[0] == out[1]
        assert _same_columns(summaries[0], summaries[1])
        scenario = build_scenario(config, np.random.default_rng(0))
        lone = [run_trajectory(scenario.initial_state, config.params, RngStream(12, i)) for i in range(37)]
        assert summaries[0].columns["events"].tolist() == [r.num_events for r in lone]
        assert len({r.num_events for r in lone}) > 1

    def test_same_seed_same_summary(self):
        config = _cat_config()
        a = run_ensemble(config, 100, master_seed=21)
        b = run_ensemble(config, 100, master_seed=21)
        assert [r.estimate for r in a.records] == [r.estimate for r in b.records]

    def test_all_standard_records_present(self):
        summary = run_ensemble(_cat_config(), 200, master_seed=31)
        names = {r.name for r in summary.records}
        assert {"event_count_mean", "poisson_chi2_p", "martingale_w1_final",
                "selection_frequency"} <= names
        assert summary.failures == 0
        assert "event_count" in summary.histograms

    def test_martingale_passes_the_readme_example_at_every_seed(self):
        # c1_sq = 0.99: about 0.99^100 = 37% of 100-run ensembles end with
        # every run in the in-box branch, where a sample-SD SE read 0 and z inf
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"```\n(# cat\.cfg\n.*?)```", readme, re.DOTALL).group(1)
        config = parse_scenario_text(block, source="README")
        assert config.c1_sq == 0.99
        for seed in range(10):
            summary = run_ensemble(config, 100, master_seed=seed)
            rec = next(r for r in summary.records if r.name == "martingale_w1_final")
            assert rec.se == math.sqrt(0.99 * (1.0 - 0.99) / 100)
            assert math.isfinite(rec.z) and rec.passed, seed

    def test_symmetric_selection(self):
        summary = run_ensemble(_cat_config(c1=0.5), 2000, master_seed=51)
        rec = next(r for r in summary.records if r.name == "selection_frequency")
        assert abs(rec.estimate - 0.5) < 4.0 * math.sqrt(0.25 / 2000.0)
        assert rec.passed

    def test_short_horizon_rejected_before_any_trajectory(self, monkeypatch):
        # ~1 expected event, so e^-1 of the systems never collapse; the exact
        # unconverged share first drops below 1% at T = 8 (e^-8), and the
        # config is rejected before any trajectory runs
        import grwsim.ensemble as ens

        def no_run(*args, **kwargs):
            raise AssertionError("a trajectory ran")

        monkeypatch.setattr(ens, "run_trajectory", no_run)
        with pytest.raises(ConfigError, match=r"total_time = 1 .* a share 0\.368 .* total_time = 8 suffices"):
            run_ensemble(_cat_config(total_time=1.0), 50, master_seed=61)

    def test_horizon_beyond_event_budget(self):
        # anchors 0.002 sigma apart need ~10^7 collapses to converge, more
        # than any horizon within the 10^6 budget gives
        config = _cat_config(total_time=1.0, inside_anchor=9.999, outside_anchor=10.001)
        with pytest.raises(ConfigError, match="no total_time within the event budget suffices"):
            run_ensemble(config, 50, master_seed=61)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="master seed must be >= 0, got -1"):
            run_ensemble(_cat_config(), 4, master_seed=-1)

    @pytest.mark.parametrize(
        "window,match",
        [
            (dict(), "100 time units .* total_time = 20 with probability 1,"),
            (dict(window_flashes=25), "25 flashes .* total_time = 20 with probability 0.843,"),
        ],
    )
    def test_flip_window_reaching_prehistory_rejected(self, monkeypatch, window, match):
        # a final window that still holds prehistory flashes cannot flip
        # (defect (b) of grwbench/workloads.py is the first case)
        import grwsim.ensemble as ens

        monkeypatch.setattr(ens, "build_scenario", None)
        config = ScenarioConfig(
            kind=ScenarioKind.TAIL,
            ontology=Ontology.GRWF,
            history=History.COLLAPSED_PAST,
            params=GrwParams(total_time=20.0),
            **window,
        )
        with pytest.raises(ConfigError, match=match):
            run_ensemble(config, 50, master_seed=3)

    def test_thread_count_capped(self, monkeypatch):
        # --threads 100000 --trajectories 100000 used to ask the pool for
        # 10^5 workers; the cap is checked before any pool exists
        import grwsim.ensemble as ens

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigError, match=f"threads must be in 1..{ens.MAX_THREADS}, got 65"):
            run_ensemble(_cat_config(), 4, master_seed=0, threads=ens.MAX_THREADS + 1)
        with pytest.raises(ConfigError, match="threads must be in 1..64, got 0"):
            run_ensemble(_cat_config(), 4, master_seed=0, threads=0)

    def test_pool_size_capped_by_trajectories(self, monkeypatch):
        # three trajectories make three blocks: this process runs one, and
        # the pool is asked for two processes however many threads are given
        sizes, blocks = [], []

        class InlineExecutor:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                blocks.append(args[-2:])
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        # three runs are too few for the event-count chi-square, which comes after the pool
        with pytest.raises(ConfigError, match="poisson_flash_test has 0 usable bins"):
            run_ensemble(_cat_config(), 3, master_seed=5, threads=8)
        assert sizes == [2]
        assert blocks == [(1, 2), (2, 3)]

    @pytest.mark.parametrize("error", [ConfigError, NumericsError])
    def test_worker_error_keeps_its_class(self, error):
        # trajectory 8 lies in the last of three blocks, run by a worker process
        hook = functools.partial(_raise_at, 8, error)
        with pytest.raises(error, match="trajectory 8"):
            run_ensemble(_cat_config(), 9, master_seed=5, threads=3, log_first=9, on_logged=hook)

    def test_logs_from_every_block(self, tmp_path):
        # 30 trajectories on 3 workers are blocks 0-9, 10-19 and 20-29; the
        # first 25 are logged, each by the process that ran it
        seen, summaries = {}, {}
        for threads in (1, 3):
            out = tmp_path / str(threads)
            out.mkdir()
            hook = functools.partial(_record_log, out)
            summaries[threads] = run_ensemble(
                _tail_config(), 30, master_seed=5, threads=threads, log_first=25, on_logged=hook
            )
            seen[threads] = {p.name: p.read_text().rsplit("\n", 1) for p in out.iterdir()}
        assert sorted(seen[1]) == sorted(f"{i}.txt" for i in range(25))
        assert {k: v[0] for k, v in seen[1].items()} == {k: v[0] for k, v in seen[3].items()}
        assert all(v[0].splitlines()[2] != "[]" for v in seen[3].values())  # prehistories travel too
        pids = [seen[3][f"{i}.txt"][1] for i in range(25)]
        assert set(pids[:10]) == {str(os.getpid())}
        assert str(os.getpid()) not in pids[10:]  # one worker may run both blocks
        assert _same_columns(summaries[1], summaries[3])
        assert repr(summaries[1].records) == repr(summaries[3].records)  # nan != nan

    def test_aborted_trajectories_fail_ensemble(self, monkeypatch):
        import grwsim.ensemble as ens

        real = ens.run_trajectory

        def sabotage(initial_state, params, stream):
            record = real(initial_state, params, stream)
            if stream.stream == 3:
                record.status = "aborted"
                record.diagnostic = "synthetic failure"
            return record

        monkeypatch.setattr(ens, "run_trajectory", sabotage)
        summary = run_ensemble(_cat_config(), 200, master_seed=71)
        assert summary.failures == 1
        assert not (summary.failures == 0 and all(r.passed for r in summary.records))
        assert any("synthetic" in d for d in summary.diagnostics)

    def test_marble_census_statistics(self):
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            c1_sq=0.9,
            n_marbles=5,
            ontology=Ontology.GRWM,
            params=GrwParams(total_time=20.0),
        )
        summary = run_ensemble(config, 2000, master_seed=81)
        by_name = {r.name: r for r in summary.records}
        assert by_name["census_all_inside"].passed
        assert by_name["census_all_inside"].target == pytest.approx(0.9**5)
        assert by_name["census_inside_mean"].passed
        assert by_name["census_inside_mean"].target == pytest.approx(4.5)
        assert by_name["census_chi2_p"].passed
        assert "inside_count" in summary.histograms
        assert sum(summary.histograms["inside_count"]) == 2000

    def test_resurrection_rate_near_epsilon(self):
        config = ScenarioConfig(
            kind=ScenarioKind.TAIL,
            c1_sq=0.99,
            ontology=Ontology.GRWM,
            params=GrwParams(total_time=20.0),
        )
        summary = run_ensemble(config, 3000, master_seed=91)
        rec = next(r for r in summary.records if r.name == "resurrection_rate")
        assert rec.target == pytest.approx(0.01)
        assert abs(rec.estimate - 0.01) < 4.0 * math.sqrt(0.01 * 0.99 / 3000.0)

    def test_grwm_initial_verdict_deterministic(self):
        # the matter density at t0 already says Inside, in every trajectory
        config = ScenarioConfig(
            kind=ScenarioKind.TAIL,
            c1_sq=0.99,
            ontology=Ontology.GRWM,
            params=GrwParams(total_time=20.0),
        )
        summary = run_ensemble(config, 100, master_seed=94)
        assert (summary.columns["initial"] == INSIDE).all()

    def test_grid_run_reads_no_matter_density(self, monkeypatch):
        # the grid plans no verdict statistic, so its run reads no matter
        # density at all (it read the initial one once and each final one)
        import grwsim.ontology

        calls = []
        original = grwsim.ontology.matter_density

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(grwsim.ontology, "matter_density", counting)
        config = ScenarioConfig(
            kind=ScenarioKind.TAIL,
            c1_sq=0.99,
            ontology=Ontology.GRWM,
            backend="grid",
            params=GrwParams(total_time=2.0),
        )
        n = 40
        summary = run_ensemble(config, n, master_seed=99)
        assert len(calls) == 0
        assert set(summary.columns) == {"events"}

    def test_cat_reads_no_flash_verdict(self, monkeypatch):
        # a collapsed-past cat plans no verdict statistic, so a GRWf one
        # classifies no flash window (it classified three per trajectory)
        import grwsim.ensemble as ens

        calls = []
        original = ens.classify_grwf

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(ens, "classify_grwf", counting)
        config = ScenarioConfig(
            kind=ScenarioKind.CAT, ontology=Ontology.GRWF, history=History.COLLAPSED_PAST,
            params=GrwParams(total_time=20.0),
        )
        summary = run_ensemble(config, 40, master_seed=99)
        assert len(calls) == 0
        assert set(summary.columns) == {"events", "w1", "winner"}

    def test_grwf_first_window_not_certain(self):
        # fresh preparation: Inside over the first window is only very probable
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            c1_sq=0.9,
            n_marbles=1,
            ontology=Ontology.GRWF,
            history=History.FRESH_PREPARATION,
            window_flashes=50,
            params=GrwParams(total_time=150.0),
        )
        summary = run_ensemble(config, 400, master_seed=98)
        verdicts = summary.columns["first"]
        inside = int((verdicts == INSIDE).sum())
        assert 0 < inside < len(verdicts)

    def test_grwf_collapsed_past_initial_verdict_defined(self):
        config = ScenarioConfig(
            kind=ScenarioKind.TAIL,
            c1_sq=0.99,
            ontology=Ontology.GRWF,
            history=History.COLLAPSED_PAST,
            window=10.0,  # the default 100-unit window would outlast the run
            params=GrwParams(total_time=20.0),
        )
        summary = run_ensemble(config, 100, master_seed=95)
        assert (summary.columns["initial"] == INSIDE).all()  # prehistory flashes all sit in the box

    def test_grwf_fresh_initial_verdict_undefined(self):
        # no flashes precede a fresh preparation, so no flip can be read and
        # the run computes no verdict
        config = ScenarioConfig(
            kind=ScenarioKind.TAIL,
            c1_sq=0.99,
            ontology=Ontology.GRWF,
            history=History.FRESH_PREPARATION,
            params=GrwParams(total_time=20.0),
        )
        summary = run_ensemble(config, 100, master_seed=96)
        assert "initial" not in summary.columns and "final" not in summary.columns
        empty = (np.empty(0), np.empty(0))
        assert _verdict_at(config, None, empty, 0.0) == CODES[Verdict.UNDEFINED]

    def test_grwf_inside_rate_against_reference(self):
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            c1_sq=0.99,
            n_marbles=1,
            ontology=Ontology.GRWF,
            history=History.FRESH_PREPARATION,
            window_flashes=100,
            params=GrwParams(total_time=200.0),
        )
        summary = run_ensemble(config, 1000, master_seed=97)
        rec = grwf_inside_rate_test(summary)
        # 30-sigma anchors: the first flash settles the branch, so p* = 0.99
        assert rec.target == pytest.approx(0.99, abs=1e-12)
        assert rec.se == pytest.approx(math.sqrt(0.99 * 0.01 / 1000))
        assert rec.passed, f"estimate {rec.estimate} vs {rec.target} (z={rec.z})"

    def test_grwf_inside_rate_unfilled_windows(self):
        # 10-flash windows at lambda * T = 8 stay short in 72% of runs, and an
        # inside anchor 0.7 center widths from the box edge makes Partial common
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            c1_sq=0.8,
            n_marbles=1,
            ontology=Ontology.GRWF,
            history=History.FRESH_PREPARATION,
            window_flashes=10,
            theta_f=0.7,
            inside_anchor=9.5,
            outside_anchor=30.0,
            params=GrwParams(total_time=8.0),
        )
        summary = run_ensemble(config, 4000, master_seed=98)
        rec = next(r for r in summary.records if r.name == "grwf_inside_rate")
        assert summary.config is config
        assert rec.target == first_window_inside_probability(config)
        partial = int((summary.columns["first"] == CODES[Verdict.PARTIAL]).sum())
        assert partial > 0.15 * len(summary.columns["first"])
        assert rec.passed, f"estimate {rec.estimate} vs {rec.target} (z={rec.z})"


# one config per shape of plan: no verdict, flips, a census after a collapsed
# past, a census with a first window, and the grid's clock alone
_REFERENCE_CONFIGS = {
    "grw0_cat": "kind = cat\nc1_sq = 0.7\nontology = grw0\ntotal_time = 20\n",
    "grwm_tail": "kind = tail\nc1_sq = 0.9\nontology = grwm\ntotal_time = 20\n",
    "grwf_marbles3_collapsed_past": (
        "kind = marbles\nn_marbles = 3\nontology = grwf\nhistory = collapsed_past\n"
        "window_flashes = 40\ntotal_time = 20\n"
    ),
    "grwf_marbles2_fresh": (
        "kind = marbles\nn_marbles = 2\nontology = grwf\nhistory = fresh_preparation\n"
        "window_flashes = 20\ntotal_time = 40\n"
    ),
    "grid_tail": (
        "kind = tail\nc1_sq = 0.99\nontology = grwm\nbackend = grid\nx_min = -30\nx_max = 50\n"
        "hamiltonian = free\nmass = 5\ntotal_time = 3\n"
    ),
}


def _reference(config, n, seed):
    """Each planned statistic's estimate and the histograms, one trajectory at a time.

    Trajectory i runs on RngStream(seed, i) and its prehistory on
    (seed, PREHISTORY_STREAM_OFFSET + i); each verdict is one _verdict_at
    call on one system.
    """
    verdict_code = {v: CODES[v] for v in Verdict}
    events, w1, wins, initial, inside, flips, first = [], [], [], [], [], [], []
    for i in range(n):
        scenario = build_scenario(config, RngStream(seed, PREHISTORY_STREAM_OFFSET + i).generator())
        record = run_trajectory(scenario.initial_state, config.params, RngStream(seed, i))
        events.append(record.num_events)
        if config.backend == "grid":
            continue
        finals = record.final_state.systems
        w1.append(float(finals[0].weights[0]))
        wins += [int(np.argmax(s.weights)) == 0 for s in finals]
        if config.ontology is Ontology.GRW0:
            continue
        pre_t, pre_k, pre_x = scenario.prehistory
        run_t, run_k, run_x = (np.asarray(c) for c in (record.times, record.particles, record.centers))

        def flashes(k):
            # system k's prehistory, then its run flashes
            return (
                np.concatenate((pre_t[pre_k == k], run_t[run_k == k])),
                np.concatenate((pre_x[pre_k == k], run_x[run_k == k])),
            )

        views = [(s, flashes(k)) for k, s in enumerate(finals)]
        horizon = config.params.total_time
        verdicts = [_verdict_at(config, s, f, horizon) for s, f in views]
        inside.append(verdicts.count(verdict_code[Verdict.INSIDE]))
        start = _verdict_at(config, scenario.initial_state.systems[0], views[0][1], 0.0)
        initial.append(start)
        definite = {verdict_code[Verdict.INSIDE], verdict_code[Verdict.OUTSIDE]}
        if start in definite and verdicts[0] in definite:
            flips.append(start != verdicts[0])
        if config.window_flashes is not None:
            times, centers = flashes(0)
            k = config.window_flashes
            closes = times[k - 1] if times.size >= k else horizon
            first.append(_verdict_at(config, None, (times, centers), closes) == verdict_code[Verdict.INSIDE])
    estimates = {
        "event_count_mean": float(np.mean(np.array(events, dtype=float))),
        "martingale_w1_final": float(np.mean(w1)) if w1 else None,
        "selection_frequency": float(np.mean(wins)) if wins else None,
        "census_inside_mean": float(np.mean(inside)) if inside else None,
        "census_all_inside": float(np.mean([c == config.n_marbles for c in inside])) if inside else None,
        "resurrection_rate": float(np.mean(flips)) if flips else None,
        "grwf_inside_rate": float(np.mean(first)) if first else None,
    }
    histograms = {"event_count": np.bincount(events).tolist()}
    if inside:
        histograms["inside_count"] = np.bincount(inside, minlength=config.n_marbles + 1).tolist()
    return estimates, histograms


@pytest.mark.parametrize("name", list(_REFERENCE_CONFIGS))
def test_columns_match_a_per_trajectory_reference(name):
    # pins the statistics' array expressions on the columns against a plain
    # loop over trajectories, at one worker and at three
    config = parse_scenario_text(_REFERENCE_CONFIGS[name])
    n, seed = 40, 17
    estimates, histograms = _reference(config, n, seed)
    for threads in (1, 3):
        summary = run_ensemble(config, n, master_seed=seed, threads=threads)
        assert summary.failures == 0
        for rec in summary.records:
            if rec.p_value is None:
                assert rec.estimate.hex() == estimates[rec.name].hex(), (rec.name, threads)
        expected = histograms if config.n_marbles > 1 else {"event_count": histograms["event_count"]}
        assert summary.histograms == expected


def test_unconverged_share_law_against_engine():
    # anchors 1 sigma apart converge slowly: at T = 5 almost half the systems
    # still have no weight above 0.99, which the exact law must predict
    import warnings

    from grwsim import build_scenario, run_trajectory

    config = _cat_config(total_time=5.0, inside_anchor=9.5, outside_anchor=10.5)
    law = _unconverged_share(config, 5.0)
    assert law == pytest.approx(0.462, abs=1e-3)
    n = 6000
    state = build_scenario(config).initial_state
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the separation warning of close anchors
        unconverged = sum(
            max(run_trajectory(state, config.params, RngStream(3, i)).final_state.systems[0].weights)
            <= CONVERGENCE_WEIGHT
            for i in range(n)
        )
    assert abs(unconverged / n - law) <= 4.0 * math.sqrt(law * (1.0 - law) / n)


def test_unconverged_share_far_anchors():
    # 30-sigma anchors settle at the first collapse: only the e^-lambda*T
    # systems that never collapse stay unconverged
    for t in (1.0, 3.0, 20.0):
        assert _unconverged_share(_cat_config(total_time=t), t) == pytest.approx(math.exp(-t), rel=1e-9)
    # a cat at c1_sq = 0.995 starts converged
    assert _unconverged_share(_cat_config(c1=0.995, total_time=1.0), 1.0) < 1e-12


@pytest.mark.parametrize("theta", [0.51, 0.7, 0.99, 1.0])
def test_inside_count_threshold_matches_verdict_rule(theta):
    m = np.arange(1, 1001)
    for size, c in zip(m.tolist(), inside_count_threshold(m, theta).tolist()):
        assert verdict_from_fraction(c / size, theta) is Verdict.INSIDE
        assert verdict_from_fraction((c - 1) / size, theta) is not Verdict.INSIDE


class TestRecords:
    def test_z_record_pass_boundary(self):
        assert z_record("x", 1.4, 0.1, 1.0, "t").passed  # z = 4 exactly
        assert not z_record("x", 1.41, 0.1, 1.0, "t").passed

    def test_z_record_degenerate_se(self):
        rec = z_record("x", 1.0, 0.0, 1.0, "t")
        assert rec.passed and rec.z == 0.0
        rec2 = z_record("x", 1.1, 0.0, 1.0, "t")
        assert not rec2.passed and math.isinf(rec2.z)

    def test_frequency_record(self):
        rec = frequency_record("f", [True, False, True, True], 0.5, "t")
        assert (rec.estimate, rec.se, rec.z, rec.passed) == (0.75, 0.25, 1.0, True)

    def test_gof_record(self):
        assert gof_record("p", 0.5, "t").passed
        assert not gof_record("p", 0.0001, "t").passed

    def test_records_carry_provenance(self):
        summary = run_ensemble(_cat_config(), 100, master_seed=101)
        assert all(r.provenance for r in summary.records)


class TestPoissonFlashTest:
    def test_rate_scaling_many_particles(self):
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            n_marbles=10,
            c1_sq=0.9,
            ontology=Ontology.GRW0,
            params=GrwParams(lambda_eff=1.0, total_time=8.0),
        )
        summary = run_ensemble(config, 1000, master_seed=111)
        rec = next(r for r in summary.records if r.name == "event_count_mean")
        assert rec.target == pytest.approx(80.0)  # N lambda T = 10 * 1 * 8
        assert rec.passed

    def test_too_few_bins_rejected(self):
        # a hand-built summary with zero events everywhere leaves one usable bin
        config = _cat_config(total_time=0.001)
        import grwsim.ensemble as ens

        counts_summary = ens.EnsembleSummary(
            config=config,
            master_seed=0,
            columns={
                "events": np.zeros(50, dtype=int),
                "w1": np.full(50, 0.7),
                "winner": np.zeros((50, 1), dtype=int),
            },
            records=[], histograms={}, failures=0, diagnostics=[],
        )
        with pytest.raises(ConfigError):
            poisson_flash_test(counts_summary)


class TestCensusChi2:
    def test_one_bin_census_rejected(self):
        # Binomial(2, 0.99) over 200 runs expects (0.02, 3.96, 196.02) marbles
        # inside, which merges into one bin: nothing is left to test
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            c1_sq=0.99,
            n_marbles=2,
            ontology=Ontology.GRWM,
            params=GrwParams(total_time=20.0),
        )
        with pytest.raises(ConfigError, match="census_chi2_test has 1 usable bins"):
            run_ensemble(config, 200, master_seed=5)

    def test_one_marble_small_ensemble_completes(self):
        # criterion 11's config at 150 runs: one marble plans no chi-square,
        # so the census cannot collapse into a single bin
        config = ScenarioConfig(
            kind=ScenarioKind.MARBLES,
            c1_sq=0.99,
            n_marbles=1,
            ontology=Ontology.GRWF,
            history=History.FRESH_PREPARATION,
            window_flashes=100,
            params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=200.0),
        )
        summary = run_ensemble(config, 150, master_seed=11)
        names = [r.name for r in summary.records]
        assert "census_inside_mean" in names and "grwf_inside_rate" in names
        assert "census_all_inside" not in names and "census_chi2_p" not in names


class TestCenterHistogram:
    def test_small_sample_rejected(self, two_packet_state):
        with pytest.raises(ConfigError):
            center_histogram_test(two_packet_state, 0, 1.0, 500, RngStream(0))

    def test_tv_within_tolerance(self, two_packet_state):
        rec = center_histogram_test(two_packet_state, 0, 1.0, 20_000, RngStream(3))
        assert rec.passed
        assert rec.estimate <= 0.9 * math.sqrt(50.0 / 20_000.0)

    def test_reproducible(self, two_packet_state):
        a = center_histogram_test(two_packet_state, 0, 1.0, 5000, RngStream(9))
        b = center_histogram_test(two_packet_state, 0, 1.0, 5000, RngStream(9))
        assert a.estimate == b.estimate

    def test_centers_beyond_the_grid_count_in_edge_cells(self, spec512):
        # a packet 0.6 sigma inside each edge puts centers beyond both ends of
        # the grid; they count in the edge cells instead of breaking the count
        packets = [Packet(-25.0, 1.0, 1.0), Packet(25.0, 1.0, 1.0)]
        psi = make_grid_wavefunction(spec512, packets)
        rng = RngStream(4).generator()
        draws = np.array([sample_collapse_center(psi, 0, 1.0, rng) for _ in range(2000)])
        assert draws.min() < spec512.x_min and draws.max() > spec512.x_max
        rec = center_histogram_test(psi, 0, 1.0, 2000, RngStream(4))
        assert 0.0 <= rec.estimate <= 1.0


def test_resurrection_requires_definite_verdicts():
    config = ScenarioConfig(
        kind=ScenarioKind.TAIL,
        c1_sq=0.99,
        ontology=Ontology.GRWF,
        history=History.FRESH_PREPARATION,  # no initial facts -> no flips defined
        params=GrwParams(total_time=20.0),
    )
    summary = run_ensemble(config, 50, master_seed=121)
    with pytest.raises(ConfigError, match="filled no 'initial' column"):
        resurrection_rate_test(summary)
    # verdicts read but never both definite: nothing to count
    undefined = CODES[Verdict.UNDEFINED]
    columns = {"events": np.zeros(3, dtype=int), "initial": np.full(3, undefined), "final": np.array([[0], [1], [2]])}
    hand_built = EnsembleSummary(config, 0, columns, [], {}, 0, [])
    with pytest.raises(ConfigError, match="no trajectories with definite initial and final verdicts"):
        resurrection_rate_test(hand_built)
