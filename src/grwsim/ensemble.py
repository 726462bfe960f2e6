"""Trajectory ensembles and their statistical verdicts.

Each trajectory runs on its own seeded substream (stream id = trajectory
index), so summaries are deterministic no matter how many workers run them.
Workers are processes: the indices split into contiguous blocks, the
calling process runs the first and a process pool the rest.  Within a
block, grid trajectories run in lockstep chunks of consecutive indices.
A block reduces its trajectories to numpy columns, one row per trajectory,
and the blocks concatenate in index order.  scenario_plan decides what a
run measures: a run fills only the columns its planned statistics read
(plan_columns), and each statistic is an array expression over them.
Every statistic record carries its analytic target and the provenance of
that target; nothing is fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .dynamics import (
    GridWaveFunction,
    GrwParams,
    RngStream,
    TrajectoryRecord,
    TrajectoryState,
    collapse_center_density,
    grid_chunk_rows,
    run_grid_chunk,
    run_trajectory,
    sample_collapse_center,
)
from .errors import ConfigError, WorkerError
from .scenarios import (
    MAX_EXPECTED_EVENTS,
    PREHISTORY_STREAM_OFFSET,
    FlashColumns,
    History,
    Ontology,
    Scenario,
    ScenarioConfig,
    ScenarioKind,
    Verdict,
    _normal_cdf,
    build_scenario,
    classify_branch_grwm,
    classify_grwf,
    seed_prehistory,
)
from .state import BranchState

Z_MAX = 4.0
P_MIN = 1e-3
CONVERGENCE_WEIGHT = 0.99
# the largest share of unconverged systems, or of flip windows reaching the prehistory
MAX_UNCONVERGED = 0.01
# threads = N runs this process plus min(N, n_trajectories) - 1 worker
# processes; each costs a process's memory, so a mistyped count must not
# start thousands of them
MAX_THREADS = 64

# A verdict's code is its position in Verdict.
CODES = {verdict: code for code, verdict in enumerate(Verdict)}
INSIDE, OUTSIDE = CODES[Verdict.INSIDE], CODES[Verdict.OUTSIDE]

# The columns a run may fill, row i for trajectory i of S systems:
#   events   (n,)    collapse count
#   w1       (n,)    system 0's final first-branch weight
#   winner   (n, S)  each system's largest-weight branch at the horizon
#   initial  (n,)    system 0's verdict code at t = 0
#   final    (n, S)  each system's verdict code at the horizon
#   first    (n,)    system 0's verdict code over its first flash window
VERDICT_COLUMNS = frozenset({"initial", "final", "first"})


@dataclass(frozen=True)
class StatRecord:
    """One statistic: estimate vs analytic target, with its provenance."""

    name: str
    estimate: float
    se: float
    target: float
    z: float
    passed: bool
    provenance: str
    p_value: float | None = None


def z_record(name: str, estimate: float, se: float, target: float, provenance: str) -> StatRecord:
    if se == 0.0:
        z = 0.0 if estimate == target else math.inf
    else:
        z = (estimate - target) / se
    return StatRecord(name, estimate, se, target, z, abs(z) <= Z_MAX, provenance)


def frequency_record(name: str, hits: Sequence, target: float, provenance: str) -> StatRecord:
    """The share of hits, judged against a Bernoulli(target) frequency over len(hits) trials."""
    se = math.sqrt(target * (1.0 - target) / len(hits))
    return z_record(name, float(np.mean(hits)), se, target, provenance)


def gof_record(name: str, p_value: float, provenance: str) -> StatRecord:
    return StatRecord(
        name,
        estimate=p_value,
        se=float("nan"),
        target=P_MIN,
        z=float("nan"),
        passed=p_value >= P_MIN,
        provenance=provenance,
        p_value=p_value,
    )


@dataclass
class EnsembleSummary:
    config: ScenarioConfig
    master_seed: int
    columns: dict[str, np.ndarray]  # the planned columns (plan_columns), row i for trajectory i
    records: list[StatRecord]
    histograms: dict[str, list[int]]
    failures: int
    diagnostics: list[str]

    def column(self, name: str) -> np.ndarray:
        """A column of the run; ConfigError if no statistic of its plan read it, so it was never filled."""
        if name not in self.columns:
            raise ConfigError(f"this run filled no {name!r} column: no statistic of its plan reads it")
        return self.columns[name]


# what run_ensemble hands a logged trajectory to: (index, record, prehistory)
LogHook = Callable[[int, TrajectoryRecord, FlashColumns], None]


def _flash_columns(record: TrajectoryRecord, prehistory: FlashColumns) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each system's (times, centers) columns, its prehistory then its run flashes, in time order."""
    times = np.concatenate((prehistory[0], record.times))
    centers = np.concatenate((prehistory[2], record.centers))
    systems = len(record.initial_state.systems)
    # particle k is system k; a stable sort by system keeps each system's flashes in time order
    system = np.concatenate((prehistory[1], np.asarray(record.particles, dtype=int)))
    order = np.argsort(system, kind="stable")
    times, centers = times[order], centers[order]
    ends = np.cumsum(np.bincount(system, minlength=systems)).tolist()
    return [(times[lo:hi], centers[lo:hi]) for lo, hi in zip([0] + ends, ends)]


def _verdict_at(config: ScenarioConfig, state: BranchState | None, flashes: tuple | None, t: float) -> int:
    """One branch system's verdict code at time t, read off the configured ontology.

    Matter density reads the system's state at t; flashes read the centers
    in config.flash_window of the system's (times, centers) columns.
    """
    if config.ontology is Ontology.GRWM:
        return CODES[classify_branch_grwm(state, config.box, config.theta_m)]
    times, centers = flashes
    return CODES[classify_grwf(centers[config.flash_window(times, t)], config.box, config.theta_f)]


def reduce_trajectory(
    record: TrajectoryRecord, scenario: Scenario, index: int, initial_verdict: int | None = None
) -> dict[str, object]:
    """Trajectory index's row: a value for each column that the scenario's plan reads (plan_columns).

    A column no planned statistic reads is left out, so a run computes no
    verdict that nothing reports.  initial_verdict, when given, is the code
    of the verdict at t = 0 read by the caller (an ensemble's matter-density
    verdict of its shared initial state); otherwise it is read here.
    """
    config = scenario.config
    reads = plan_columns(config)
    row: dict[str, object] = {"events": record.num_events}
    if "w1" in reads:
        row["w1"] = float(record.final_state.systems[0].weights[0])
    if "winner" in reads:
        row["winner"] = [int(np.argmax(s.weights)) for s in record.final_state.systems]
    if not reads & VERDICT_COLUMNS:
        return row

    systems, horizon = record.final_state.systems, record.params.total_time
    grwf = config.ontology is Ontology.GRWF
    flashes = _flash_columns(record, scenario.prehistory) if grwf else [None] * len(systems)
    if "initial" in reads:
        if initial_verdict is None:
            initial_verdict = _verdict_at(config, scenario.initial_state.systems[0], flashes[0], 0.0)
        row["initial"] = initial_verdict
    if "final" in reads:
        row["final"] = [_verdict_at(config, s, f, horizon) for s, f in zip(systems, flashes)]
    if "first" in reads:
        # planned for a fresh preparation's count windows only: the window of
        # system 0's first window_flashes flashes, closed at the last of them
        times, k = flashes[0][0], config.window_flashes
        row["first"] = _verdict_at(config, None, flashes[0], times[k - 1] if times.size >= k else horizon)
    return row


def _run_block(
    config: ScenarioConfig, master_seed: int, log_first: int, on_logged: LogHook | None, lo: int, hi: int
) -> tuple[dict[str, np.ndarray], list[tuple[int, str]]]:
    """Trajectories lo..hi-1 run and reduced: their columns, and (index, diagnostic) of each aborted one.

    Each i < log_first also goes to on_logged.  Module-level and fed only
    picklable arguments, so a worker process runs a block exactly as the
    calling process does.
    """

    def prehistory_rng(i: int) -> np.random.Generator:
        return RngStream(master_seed, PREHISTORY_STREAM_OFFSET + i).generator()

    # The initial state draws nothing, so every block builds the same one; a
    # collapsed past draws trajectory i's prehistory on its own stream from
    # a disjoint block, and build_scenario draws trajectory lo's.
    first = build_scenario(config, prehistory_rng(lo))
    redraw = config.history is History.COLLAPSED_PAST
    # matter density reads only that shared state, so one initial verdict
    # serves every trajectory; flash verdicts read each prehistory
    initial_verdict = None
    if config.ontology is Ontology.GRWM and "initial" in plan_columns(config):
        initial_verdict = _verdict_at(config, first.initial_state.systems[0], None, 0.0)

    rows, aborted = [], []
    records = _run_records(first.initial_state, config.params, master_seed, lo, hi)
    for i, record in zip(range(lo, hi), records):
        scenario = first
        if redraw and i > lo:
            scenario = replace(first, prehistory=seed_prehistory(config, prehistory_rng(i)))
        rows.append(reduce_trajectory(record, scenario, i, initial_verdict))
        if record.status != "completed":
            aborted.append((i, record.diagnostic))
        if i < log_first and on_logged is not None:
            on_logged(i, record, scenario.prehistory)
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}, aborted


def _run_records(
    state: TrajectoryState, params: GrwParams, master_seed: int, lo: int, hi: int
) -> Iterator[TrajectoryRecord]:
    """Trajectories lo..hi-1 from state, in index order, trajectory i on RngStream(master_seed, i).

    Grid trajectories run in lockstep chunks of consecutive indices
    (run_grid_chunk); branch trajectories one by one.
    """
    if not isinstance(state, GridWaveFunction):
        for i in range(lo, hi):
            yield run_trajectory(state, params, RngStream(master_seed, i))
        return
    size = grid_chunk_rows(state.spec)
    for start in range(lo, hi, size):
        streams = [RngStream(master_seed, i) for i in range(start, min(start + size, hi))]
        yield from run_grid_chunk(state, params, streams)


def run_ensemble(
    config: ScenarioConfig,
    n_trajectories: int,
    master_seed: int,
    threads: int = 1,
    log_first: int = 0,
    on_logged: LogHook | None = None,
) -> EnsembleSummary:
    """Run n independent trajectories and compute the scenario's statistics.

    threads = N splits the indices into min(N, n) equal contiguous blocks:
    this process runs the first, a pool of worker processes the rest.
    Deterministic given the master seed irrespective of N: trajectory i
    always runs on RngStream(master_seed, i) (its prehistory on a disjoint
    stream block) and the blocks' columns join in index order.  Each
    trajectory i < log_first is handed to on_logged, a picklable hook, in the
    process that ran it, as soon as it finishes (a grid trajectory: its chunk).
    Any aborted trajectory is counted and fails the ensemble.  A worker process that dies raises WorkerError,
    naming the first block that did not finish.  A horizon too short for
    the planned limit statistics is rejected before anything runs.
    """
    if n_trajectories < 2:
        raise ConfigError("an ensemble needs at least 2 trajectories")
    if not 1 <= threads <= MAX_THREADS:
        raise ConfigError(f"threads must be in 1..{MAX_THREADS}, got {threads}")
    if master_seed < 0:
        raise ConfigError(f"the master seed must be >= 0, got {master_seed}")
    if log_first < 0:
        raise ConfigError(f"the number of logged trajectories must be >= 0, got {log_first}")
    plan = scenario_plan(config)
    _check_horizon(config, plan)

    blocks = min(threads, n_trajectories)
    bounds = [n_trajectories * b // blocks for b in range(blocks + 1)]
    block_args = (config, master_seed, log_first, on_logged)
    if blocks == 1:
        done = [_run_block(*block_args, 0, n_trajectories)]
    else:
        # imported here: a one-worker run loads no multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # spawned workers start from a fresh import; a fork of this process
        # could inherit threads (a BLAS pool) and locks held by them
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=blocks - 1, mp_context=spawn) as pool:
            spans = list(zip(bounds[1:-1], bounds[2:]))
            rest = [pool.submit(_run_block, *block_args, lo, hi) for lo, hi in spans]
            done = [_run_block(*block_args, bounds[0], bounds[1])]
            for block, (lo, hi) in zip(rest, spans):
                try:
                    done.append(block.result())
                except BrokenProcessPool as exc:
                    raise WorkerError(
                        f"trajectories {lo}-{hi - 1} did not finish: a worker process died"
                    ) from exc

    columns = {name: np.concatenate([cols[name] for cols, _ in done]) for name in done[0][0]}
    aborted = [a for _, block_aborted in done for a in block_aborted]
    summary = EnsembleSummary(
        config=config, master_seed=master_seed, columns=columns, records=[],
        histograms={"event_count": np.bincount(columns["events"]).tolist()},
        failures=len(aborted), diagnostics=[f"trajectory {i}: {d}" for i, d in aborted],
    )
    if census_chi2_test in plan:
        inside = _inside_counts(summary)
        summary.histograms["inside_count"] = np.bincount(inside, minlength=config.n_marbles + 1).tolist()
    for test in plan:
        summary.records.append(test(summary))
    return summary


def scenario_plan(config: ScenarioConfig) -> list[Callable]:
    """The statistic tests a scenario reports, in order; each maps the summary to a StatRecord.

    The plan decides what a run measures: a run fills only the columns that
    its planned tests read (plan_columns).
    """
    plan = [event_count_test, poisson_flash_test]
    if config.backend != "branch":
        return plan
    plan += [martingale_test, selection_frequency_test]
    grwm, grwf = config.ontology is Ontology.GRWM, config.ontology is Ontology.GRWF
    collapsed = config.history is History.COLLAPSED_PAST
    if config.kind is ScenarioKind.MARBLES and (grwm or grwf):
        plan += [census_mean_test]
        if config.n_marbles > 1:  # one marble: all-inside and the chi-square restate the mean
            plan += [census_all_inside_test, census_chi2_test]
    # a verdict flip needs a definite initial verdict: matter density always
    # has one, flashes only when a collapsed past supplies a pre-window record
    if config.kind is ScenarioKind.TAIL and (grwm or (grwf and collapsed)):
        plan += [resurrection_rate_test]
    if grwf and not collapsed and config.window_flashes is not None:
        plan += [grwf_inside_rate_test]
    return plan


def plan_columns(config: ScenarioConfig) -> set[str]:
    """The columns a run of config fills: those its planned statistics read."""
    # the statistics are looked up per call, so one replaced at run time still maps
    reads = {
        "events": (event_count_test, poisson_flash_test),
        "w1": (martingale_test,),
        "winner": (selection_frequency_test,),
        "initial": (resurrection_rate_test,),
        "final": (census_mean_test, census_all_inside_test, census_chi2_test, resurrection_rate_test),
        "first": (grwf_inside_rate_test,),
    }
    plan = scenario_plan(config)
    return {column for column, tests in reads.items() if any(test in plan for test in tests)}


def _unconverged_share(config: ScenarioConfig, total_time: float) -> float:
    """Exact share of branch systems whose largest weight is <= CONVERGENCE_WEIGHT at total_time.

    After n ~ Poisson(lambda_eff * T) collapses, n >= 1, the log-odds
    l = log(w_0 / w_1) of branch i is Normal(l_0 +- n D, 2 n D), D = d^2 / sigma^2
    (the flash mixture of first_window_inside_probability).  Branch 1 reads
    -l, which drifts up like l, so no difference of normal CDFs cancels.
    """
    mu = config.params.lambda_eff * total_time
    a_in, a_out = config.anchor_positions()
    sep = ((a_out - a_in) / config.params.sigma) ** 2
    bound = math.log(CONVERGENCE_WEIGHT / (1.0 - CONVERGENCE_WEIGHT))
    l0 = math.log(config.c1_sq / (1.0 - config.c1_sq))
    reach = 40.0 * math.sqrt(mu) + 50.0  # as in _poisson_tails
    n = np.arange(max(1, int(mu - reach)), int(mu + reach) + 1)
    share = math.exp(-mu) * (max(config.c1_sq, 1.0 - config.c1_sq) <= CONVERGENCE_WEIGHT)
    for w, start in ((config.c1_sq, l0), (1.0 - config.c1_sq, -l0)):
        for p_n, mean, sd in zip(_poisson_pmf(n, mu), start + n * sep, np.sqrt(2.0 * n * sep)):
            share += w * p_n * (_normal_cdf((bound - mean) / sd) - _normal_cdf((-bound - mean) / sd))
    return float(share)


def _check_horizon(config: ScenarioConfig, plan: list[Callable]) -> None:
    """Reject a horizon too short for the limit statistics in plan, before anything runs.

    Their targets hold once the weights have converged; a GRWf flip after a
    collapsed past also needs a final window that holds run flashes only.
    """
    if selection_frequency_test not in plan:  # the grid backend plans no limit statistic
        return
    params, horizon = config.params, config.params.total_time
    share = _unconverged_share(config, horizon)
    if share > MAX_UNCONVERGED:
        budget = MAX_EXPECTED_EVENTS / (config.num_particles * params.lambda_eff)
        needed = 2.0 * horizon
        while needed <= budget and _unconverged_share(config, needed) > MAX_UNCONVERGED:
            needed *= 2.0
        fix = f"total_time = {needed:g}" if needed <= budget else "no total_time within the event budget"
        raise ConfigError(
            f"total_time = {horizon:g} is too short for the limit statistics: a share {share:.3g} "
            f"of the systems keep a largest weight <= {CONVERGENCE_WEIGHT} (at most "
            f"{MAX_UNCONVERGED:g} may); {fix} suffices"
        )
    if resurrection_rate_test in plan and config.ontology is Ontology.GRWF:
        k = config.window_flashes
        if k is None:
            window, reach = f"{config.window_length():g} time units", float(config.window_length() > horizon)
        else:
            tails = _poisson_tails(params.lambda_eff * horizon)
            window, reach = f"{k} flashes", 1.0 - (tails[k] if k < tails.size else 0.0)
        if reach > MAX_UNCONVERGED:
            raise ConfigError(
                f"the final flash window of {window} reaches into the prehistory at total_time = "
                f"{horizon:g} with probability {reach:.3g}, so no verdict can flip; shorten the "
                "window or lengthen total_time"
            )


# ---------------------------------------------------------------------------
# statistic records

def event_count_test(summary: EnsembleSummary) -> StatRecord:
    """Mean collapse count vs the rate law N * lambda_eff * T."""
    config = summary.config
    target = config.num_particles * config.params.lambda_eff * config.params.total_time
    counts = summary.columns["events"].astype(float)
    se = math.sqrt(target / counts.size)  # Poisson variance equals the mean
    provenance = "Poisson mean N*lambda_eff*T (collapse rate law)"
    return z_record("event_count_mean", float(counts.mean()), se, target, provenance)


def _merged_chi2(
    expected: np.ndarray, observed: np.ndarray, min_bins: int, name: str
) -> tuple[float, int]:
    """Chi-square p-value and bin count after merging adjacent bins.

    Bins merge from the low end into their right neighbor until each expects
    >= 5; a leftover tail joins the last bin.  Fewer than min_bins merged
    bins leave nothing to test and raise ConfigError.
    """
    exp_bins: list[float] = []
    obs_bins: list[float] = []
    acc_e = acc_o = 0.0
    for e, o in zip(expected, observed):
        acc_e += e
        acc_o += o
        if acc_e >= 5.0:
            exp_bins.append(acc_e)
            obs_bins.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e > 0 and exp_bins:
        exp_bins[-1] += acc_e
        obs_bins[-1] += acc_o
    if len(exp_bins) < min_bins:
        raise ConfigError(
            f"{name} has {len(exp_bins)} usable bins (needs >= {min_bins}); "
            "increase the horizon or the ensemble size"
        )
    stat = float(np.sum((np.array(obs_bins) - np.array(exp_bins)) ** 2 / np.array(exp_bins)))
    return _chi2_sf(stat, len(exp_bins) - 1), len(exp_bins)


# ---------------------------------------------------------------------------
# distribution functions of the targets, from math.lgamma / math.erfc

def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log(k!) for each nonnegative integer in k."""
    return np.array([math.lgamma(j + 1.0) for j in np.ravel(k).tolist()]).reshape(np.shape(k))


def _sum_exp(log_terms: np.ndarray) -> float:
    """sum(exp(log_terms)), scaled by the largest term so no term underflows first."""
    if log_terms.size == 0:
        return 0.0
    top = float(np.max(log_terms))
    return math.exp(top + math.log(float(np.sum(np.exp(log_terms - top)))))


def _chi2_sf(x: float, df: int) -> float:
    """P(chi-square with df degrees of freedom > x), for integer df >= 1.

    The finite series of the upper incomplete gamma function, with y = x / 2:
    e^-y sum_{j < df/2} y^j / j! for even df, and
    erfc(sqrt y) + e^-y sum_{j < (df-1)/2} y^(j+1/2) / Gamma(j + 3/2) for odd df.
    """
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    j = np.arange(df // 2)
    if df % 2 == 0:
        return _sum_exp(j * math.log(y) - y - _log_factorial(j))
    log_gamma = np.array([math.lgamma(i + 1.5) for i in j.tolist()])
    return math.erfc(math.sqrt(y)) + _sum_exp((j + 0.5) * math.log(y) - y - log_gamma)


def _poisson_pmf(k: np.ndarray, mu: float) -> np.ndarray:
    """P(N = k) for N ~ Poisson(mu), mu > 0, at each count in k."""
    return np.exp(k * math.log(mu) - mu - _log_factorial(k))


def _poisson_tails(mu: float) -> np.ndarray:
    """P(N >= k) for N ~ Poisson(mu) and k = 0..K.

    K lies 40 standard deviations (plus 50) above mu, where the tail is
    below 1e-130 for any mu.  A tail below 1/2 sums the counts up to 2K
    from the smallest term up; a larger one is 1 minus the counts below k,
    so neither side cancels.
    """
    size = int(mu + 40.0 * math.sqrt(mu) + 50.0) + 1
    pmf = _poisson_pmf(np.arange(2 * size), mu)
    upper = np.cumsum(pmf[::-1])[::-1]
    below = np.concatenate(([0.0], np.cumsum(pmf)[:-1]))
    return np.where(upper < 0.5, upper, 1.0 - below)[:size]


def _poisson_isf(q: float, mu: float) -> int:
    """The smallest count k with P(N > k) <= q, for N ~ Poisson(mu).

    Decided as scipy.stats.poisson.isf decides it, by the CDF at k against
    1 - q in floating point, so histogram bins cut here match SciPy's.
    """
    return int(np.argmax(1.0 - _poisson_tails(mu)[1:] >= 1.0 - q))


def _binom_pmf(j: np.ndarray, n: int, p: float, log_fact: np.ndarray) -> np.ndarray:
    """P(X = j) for X ~ Binomial(n, p), 0 < p < 1, at each count 0 <= j <= n.

    log_fact[i] is log(i!) for i = 0..n (at least).
    """
    log_comb = log_fact[n] - log_fact[j] - log_fact[n - j]
    return np.exp(log_comb + j * math.log(p) + (n - j) * math.log1p(-p))


def _binom_tail(c: int, n: int, p: float, log_fact: np.ndarray) -> float:
    """P(X >= c) for X ~ Binomial(n, p); log_fact as for _binom_pmf.

    Counts more than 40 standard deviations (plus 50) below the mean, or
    above both the mean and c, are left out: their share of the tail is
    below 1e-300.
    """
    if p in (0.0, 1.0):
        return float(c <= n * p)  # X = n * p for certain
    reach = 40.0 * math.sqrt(n * p * (1.0 - p)) + 50.0
    lo = max(c, 0, int(n * p - reach))
    hi = min(n, int(max(c, n * p) + reach))
    return float(np.sum(_binom_pmf(np.arange(lo, hi + 1), n, p, log_fact)))


def poisson_flash_test(summary: EnsembleSummary) -> StatRecord:
    """Chi-square of the event-count histogram against Poisson(N lambda T)."""
    config = summary.config
    mu = config.num_particles * config.params.lambda_eff * config.params.total_time
    counts = summary.columns["events"]
    n = counts.size

    upper = _poisson_isf(1e-12, mu) + 1
    pmf = _poisson_pmf(np.arange(upper), mu)
    pmf = np.append(pmf, 1.0 - pmf.sum())  # tail bin
    observed = np.bincount(np.minimum(counts, upper), minlength=upper + 1)
    p, bins = _merged_chi2(pmf * n, observed, 3, "poisson_flash_test")
    return gof_record("poisson_chi2_p", p, f"chi-square vs Poisson({mu:g}), {bins} bins")


def martingale_test(summary: EnsembleSummary) -> StatRecord:
    """Mean first-branch weight at the horizon vs its start value.

    The SE is the target law's, sqrt(c1_sq (1 - c1_sq) / n): w1 lies in
    [0, 1] with mean c1_sq, so c1_sq (1 - c1_sq) bounds its variance.  The
    sample SD would read 0 when every run ends in one branch.
    """
    values = summary.column("w1")
    target = summary.config.c1_sq
    se = math.sqrt(target * (1.0 - target) / values.size)
    provenance = "branch-weight conservation (Born martingale)"
    return z_record("martingale_w1_final", float(values.mean()), se, target, provenance)


def selection_frequency_test(summary: EnsembleSummary) -> StatRecord:
    """Winner frequency vs the initial first-branch weight."""
    return frequency_record(
        "selection_frequency",
        (summary.column("winner") == 0).ravel(),
        summary.config.c1_sq,
        "limit selection probabilities equal initial branch weights",
    )


def _inside_counts(summary: EnsembleSummary) -> np.ndarray:
    """Each trajectory's count of systems whose final verdict is Inside."""
    return (summary.column("final") == INSIDE).sum(axis=1)


def census_mean_test(summary: EnsembleSummary) -> StatRecord:
    config = summary.config
    inside = _inside_counts(summary)
    n, p = config.n_marbles, config.c1_sq
    se = math.sqrt(n * p * (1.0 - p) / inside.size)
    provenance = "binomial mean: n_marbles * c1_sq marbles end inside"
    return z_record("census_inside_mean", float(inside.mean()), se, n * p, provenance)


def census_all_inside_test(summary: EnsembleSummary) -> StatRecord:
    config = summary.config
    return frequency_record(
        "census_all_inside",
        _inside_counts(summary) == config.n_marbles,
        config.c1_sq**config.n_marbles,
        "all-inside probability c1_sq ** n_marbles",
    )


def census_chi2_test(summary: EnsembleSummary) -> StatRecord:
    """Chi-square of the histogram "inside_count" vs Binomial(n_marbles, c1_sq)."""
    config = summary.config
    observed = np.array(summary.histograms["inside_count"], dtype=float)
    n, p = config.n_marbles, config.c1_sq
    counts = np.arange(n + 1)
    pmf = _binom_pmf(counts, n, p, _log_factorial(counts))
    p_val, bins = _merged_chi2(pmf * len(summary.columns["events"]), observed, 2, "census_chi2_test")
    return gof_record("census_chi2_p", p_val, f"chi-square vs Binomial({n}, {p:g}), {bins} bins")


def resurrection_rate_test(summary: EnsembleSummary) -> StatRecord:
    """Frequency of definite-verdict flips between start and horizon."""
    config = summary.config
    initial, final = summary.column("initial"), summary.column("final")[:, 0]
    definite = np.isin(initial, (INSIDE, OUTSIDE)) & np.isin(final, (INSIDE, OUTSIDE))
    if not definite.any():
        raise ConfigError("no trajectories with definite initial and final verdicts")
    return frequency_record(
        "resurrection_rate",
        initial[definite] != final[definite],
        min(config.c1_sq, 1.0 - config.c1_sq),
        "flip probability = weight of the minority branch (martingale limit)",
    )


def inside_count_threshold(m: np.ndarray, theta: float) -> np.ndarray:
    """The fewest inside flashes c with c / m >= theta, per window size m >= 1.

    With theta in (0.5, 1] that is the Inside rule of verdict_from_fraction;
    the two corrections undo a rounding of theta * m across an integer.
    """
    c = np.ceil(theta * m)
    c += c / m < theta
    c -= (c - 1) / m >= theta
    return c


def first_window_inside_probability(config: ScenarioConfig) -> float:
    """Exact probability that a fresh branch run's first count window reads Inside.

    With point anchors and H = 0 the flashes of a fresh branch system are an
    exchangeable mixture: branch i is picked once with weight w_i, then the
    centers are iid Normal(a_i, sigma^2 / 2) (the GRWf flash POVM, Tumulka
    2006).  System 0 is one particle, so its first window holds
    m = min(k, N) flashes with N ~ Poisson(lambda_eff * T), and given branch
    i its inside count is Binomial(m, q_i) with q_i the box probability of
    that normal.  m = 0 is Undefined.
    """
    k = config.window_flashes
    mu = config.params.lambda_eff * config.params.total_time
    # counts above top, the first with P(N >= top) <= 1e-16, change p* by
    # less than that
    tails = _poisson_tails(mu)
    top = min(k, int(np.argmax(tails <= 1e-16)))
    m = np.arange(1, top + 1)
    p_m = _poisson_pmf(m, mu)
    if top == k:
        p_m[-1] = tails[k]  # every N >= k fills the window
    c = inside_count_threshold(m, config.theta_f).astype(int)
    log_fact = _log_factorial(np.arange(top + 1))
    p_star = 0.0
    for w, a in zip((config.c1_sq, 1.0 - config.c1_sq), config.anchor_positions()):
        q = config.box_probability(a)
        inside = np.array([_binom_tail(ci, mi, q, log_fact) for ci, mi in zip(c, m)])
        p_star += w * float(np.sum(p_m * inside))
    return p_star


def grwf_inside_rate_test(summary: EnsembleSummary) -> StatRecord:
    """First-window Inside frequency vs the exact law at the configured horizon."""
    config = summary.config
    return frequency_record(
        "grwf_inside_rate",
        summary.column("first") == INSIDE,
        first_window_inside_probability(config),
        f"exact first-window law: branch mixture of Binomial(min(k={config.window_flashes}, N), q_i)",
    )


def center_histogram_test(
    psi: GridWaveFunction,
    particle: int,
    sigma: float,
    n_samples: int,
    stream: RngStream,
) -> StatRecord:
    """Total-variation distance between sampled centers and the analytic density.

    Each center counts in its nearest cell; a center beyond the grid counts
    in the edge cell on its side.  The tolerance scales as
    0.9 * sqrt(bins / n_samples) over 50 bins; repeated-seed calibration
    puts the observed TV a factor ~2 below that.
    """
    bins = 50
    if n_samples < 1000:
        raise ConfigError("center_histogram_test needs n_samples >= 1000")
    density = collapse_center_density(psi, particle, sigma)
    dx = psi.spec.dx
    rng = stream.generator()
    centers = np.array(
        [sample_collapse_center(psi, particle, sigma, rng) for _ in range(n_samples)]
    )
    idx = np.clip(np.rint((centers - psi.spec.points()[0]) / dx), 0, density.size - 1).astype(int)

    # every grid cell maps to one bin (remainder cells join the last bin), so
    # the expected and empirical measures aggregate identically
    cells_per_bin = max(density.size // bins, 1)
    cell_bins = np.minimum(np.arange(density.size) // cells_per_bin, bins - 1)
    probs = np.bincount(cell_bins, weights=density * dx, minlength=bins)
    probs = probs / probs.sum()
    counts = np.bincount(cell_bins[idx], minlength=bins)
    emp = counts / counts.sum()
    tv = 0.5 * float(np.abs(emp - probs).sum())
    tol = 0.9 * math.sqrt(bins / n_samples)
    se = tol / Z_MAX
    return z_record(
        "center_histogram_tv",
        tv,
        se,
        0.0,
        f"TV concentration ~ sqrt(bins/n) over {bins} bins",
    )
