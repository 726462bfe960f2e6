"""The acceptance suite: every criterion at its stated tolerance and budget.

Each criterion returns a CriterionResult; both ``grwsim check`` and the
pytest acceptance module run these functions and report one line per
criterion.  Tolerances and runtime budgets are pinned here, not in the
callers.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .dynamics import BranchSystems, GrwParams, RngStream, apply_collapse_grid, collapse_center_density, sample_collapse_center
from .ensemble import center_histogram_test, run_ensemble
from .errors import ConfigError, GrwError
from .ontology import mass_fraction_in_region, matter_density
from .oracles import grid_branch_crosscheck
from .scenarios import History, Ontology, ScenarioConfig, ScenarioKind, density_grid
from .state import BranchState, GridSpec, Packet, Region, make_grid_wavefunction, norm_squared


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float


def _random_state(rng: np.random.Generator, spec: GridSpec):
    n_packets = int(rng.integers(1, 4))
    packets = []
    for _ in range(n_packets):
        center = float(rng.uniform(-12.0, 12.0))
        width = float(rng.uniform(0.3, 2.0))
        coeff = complex(rng.normal(), rng.normal())
        packets.append(Packet(center, width, coeff))
    return make_grid_wavefunction(spec, packets)


def criterion_1_completeness():
    spec = GridSpec(-25.6, 25.6, 512)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        psi = _random_state(rng, spec)
        density = collapse_center_density(psi, 0, sigma=1.0)
        worst = max(worst, abs(float(density.sum() * spec.dx) - 1.0))
    return worst < 1e-6, f"max |integral - 1| = {worst:.3e} (< 1e-6) over 20 random states"


def criterion_2_norm_preservation():
    spec = GridSpec(-25.6, 25.6, 512)
    rng_states = np.random.default_rng(102)
    stream_rng = RngStream(102, 1).generator()
    worst = 0.0
    psi = None
    for i in range(10_000):
        if i % 500 == 0:
            psi = _random_state(rng_states, spec)
        center = sample_collapse_center(psi, 0, 1.0, stream_rng)
        psi = apply_collapse_grid(psi, 0, center, 1.0)
        worst = max(worst, abs(math.sqrt(norm_squared(psi)) - 1.0))
    return worst < 1e-10, f"max |norm - 1| = {worst:.3e} (< 1e-10) over 10^4 collapses"


def _record(summary, name):
    for r in summary.records:
        if r.name == name:
            return r
    raise GrwError(f"summary is missing the {name!r} record")


def criterion_3_martingale():
    config = ScenarioConfig(
        kind=ScenarioKind.CAT,
        c1_sq=0.7,
        ontology=Ontology.GRW0,
        params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=20.0),
    )
    summary = run_ensemble(config, 10_000, master_seed=1003)
    r = _record(summary, "martingale_w1_final")
    return r.passed, (
        f"mean w1 = {r.estimate:.5f} vs 0.7, se = {r.se:.5f}, |z| = {abs(r.z):.2f} (<= 4)"
    )


def criterion_4_selection():
    config = ScenarioConfig(
        kind=ScenarioKind.CAT,
        c1_sq=0.7,
        ontology=Ontology.GRW0,
        params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=50.0),
    )
    summary = run_ensemble(config, 10_000, master_seed=1004)
    r = _record(summary, "selection_frequency")
    return r.passed, (
        f"winner frequency = {r.estimate:.5f} vs 0.7, |z| = {abs(r.z):.2f} (<= 4)"
    )


def criterion_5_census():
    config = ScenarioConfig(
        kind=ScenarioKind.MARBLES,
        c1_sq=0.9,
        n_marbles=5,
        ontology=Ontology.GRWM,
        params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=20.0),
    )
    summary = run_ensemble(config, 10_000, master_seed=1005)
    r_all = _record(summary, "census_all_inside")
    r_mean = _record(summary, "census_inside_mean")
    ok = r_all.passed and r_mean.passed
    return ok, (
        f"all-inside freq = {r_all.estimate:.5f} vs {r_all.target:.5f} (|z| = {abs(r_all.z):.2f}); "
        f"mean inside = {r_mean.estimate:.4f} vs 4.5 (|z| = {abs(r_mean.z):.2f})"
    )


def criterion_6_poisson():
    config = ScenarioConfig(
        kind=ScenarioKind.CAT,
        c1_sq=0.5,
        ontology=Ontology.GRW0,
        params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=10.0),
    )
    summary = run_ensemble(config, 10_000, master_seed=1006)
    r_chi = _record(summary, "poisson_chi2_p")
    r_mean = _record(summary, "event_count_mean")
    ok = r_chi.passed and r_mean.passed
    return ok, (
        f"chi-square p = {r_chi.p_value:.4f} (>= 0.001); "
        f"mean count = {r_mean.estimate:.4f} vs 10 (|z| = {abs(r_mean.z):.2f})"
    )


def criterion_7_center_tv():
    spec = GridSpec(-25.6, 25.6, 512)
    psi = make_grid_wavefunction(
        spec,
        [Packet(-6.0, 1.0, math.sqrt(0.6)), Packet(6.0, 1.5, math.sqrt(0.4))],
    )
    r = center_histogram_test(psi, 0, 1.0, 100_000, RngStream(1007))
    ok = r.passed and r.estimate <= 0.02
    return ok, f"TV distance = {r.estimate:.4f} (<= 0.02, 50 bins, 10^5 samples)"


def criterion_8_crosscheck():
    worst = grid_branch_crosscheck(n_cases=100, seed=1008)
    return worst < 1e-6, f"max posterior discrepancy = {worst:.3e} (< 1e-6, 100 cases)"


def criterion_9_tail_fact():
    box = Region(-10.0, 10.0)
    c2 = 0.1
    # branch model
    state = BranchSystems([BranchState.from_weights(("inside", "outside"), (1.0 - c2, c2), [0.0, 30.0])])
    cfg = ScenarioConfig(
        kind=ScenarioKind.MARBLES, c1_sq=1.0 - c2, box=box, ontology=Ontology.GRWM
    )
    field = matter_density(state, grid=density_grid(cfg))
    branch_err = abs((1.0 - mass_fraction_in_region(field, box)) - c2)
    # grid model
    spec = GridSpec(-25.0, 55.0, 2048)
    psi = make_grid_wavefunction(
        spec,
        [Packet(0.0, 1.0, math.sqrt(1.0 - c2)), Packet(30.0, 1.0, math.sqrt(c2))],
    )
    grid_field = matter_density(psi)
    grid_err = abs((1.0 - mass_fraction_in_region(grid_field, box)) - c2)
    ok = branch_err < 1e-9 and grid_err < 1e-6
    return ok, (
        f"outside fraction error: branch {branch_err:.2e} (< 1e-9), "
        f"grid {grid_err:.2e} (< 1e-6)"
    )


def criterion_10_resurrection():
    config = ScenarioConfig(
        kind=ScenarioKind.TAIL,
        c1_sq=0.99,
        ontology=Ontology.GRWM,
        params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=20.0),
    )
    summary = run_ensemble(config, 100_000, master_seed=1010)
    r = _record(summary, "resurrection_rate")
    return r.passed, (
        f"flip frequency = {r.estimate:.5f} vs 0.01, se = {r.se:.2e}, |z| = {abs(r.z):.2f} (<= 4)"
    )


def criterion_11_grwf_fresh():
    config = ScenarioConfig(
        kind=ScenarioKind.MARBLES,
        c1_sq=0.99,
        n_marbles=1,
        ontology=Ontology.GRWF,
        history=History.FRESH_PREPARATION,
        window_flashes=100,
        params=GrwParams(lambda_eff=1.0, sigma=1.0, total_time=200.0),
    )
    summary = run_ensemble(config, 10_000, master_seed=1011)
    r = _record(summary, "grwf_inside_rate")
    return r.passed, (
        f"Inside frequency = {r.estimate:.5f} vs exact p* = {r.target:.5f}, "
        f"|z| = {abs(r.z):.2f} (<= 4)"
    )


_DETERMINISM_CONFIG = """\
kind = marbles
c1_sq = 0.9
n_marbles = 3
ontology = grwm
history = collapsed_past
lambda_eff = 1.0
sigma = 1.0
total_time = 10.0
"""


def criterion_12_determinism():
    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_DETERMINISM_CONFIG)
        outs = []
        for label, n_threads in (("a", 1), ("b", 4)):
            out = tmp_path / label
            # the inner runs' "wrote ..." lines are not criterion output
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(
                    [
                        "run",
                        "--config", str(cfg),
                        "--seed", "7",
                        "--trajectories", "60",
                        "--threads", str(n_threads),
                        "--out", str(out),
                        "--log-trajectories", "3",
                    ]
                )
            if code != 0:
                return False, f"run exited with {code}"
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        names_b = sorted(p.name for p in outs[1].iterdir())
        if names != names_b:
            return False, f"file sets differ: {names} vs {names_b}"
        mismatched = [
            n for n in names if not filecmp.cmp(outs[0] / n, outs[1] / n, shallow=False)
        ]
        if mismatched:
            return False, f"byte differences in {mismatched}"
        return True, f"{len(names)} output files byte-identical across --threads 1 vs 4"


_CRITERIA: list[tuple[int, str, Callable, float]] = [
    (1, "center-density completeness", criterion_1_completeness, 1.0),
    (2, "collapse norm preservation", criterion_2_norm_preservation, 10.0),
    (3, "branch-weight martingale", criterion_3_martingale, 60.0),
    (4, "branch selection frequency", criterion_4_selection, 120.0),
    (5, "marble census law", criterion_5_census, 120.0),
    (6, "Poisson flash counts", criterion_6_poisson, 60.0),
    (7, "center sampling TV distance", criterion_7_center_tv, 30.0),
    (8, "grid/branch posterior equivalence", criterion_8_crosscheck, 60.0),
    (9, "matter-density tail fraction", criterion_9_tail_fact, 1.0),
    (10, "resurrection frequency", criterion_10_resurrection, 300.0),
    (11, "fresh-preparation flash verdicts", criterion_11_grwf_fresh, 120.0),
    (12, "thread-count determinism", criterion_12_determinism, 60.0),
]


def parse_criteria(text: str) -> list[int]:
    """Criterion numbers from a comma-separated list such as "1,9"; anything else is a ConfigError."""
    known = {str(number): number for number, _, _, _ in _CRITERIA}
    tokens = {tok.strip() for tok in text.split(",")}
    if not tokens <= known.keys():
        raise ConfigError(f"--criteria {text!r}: valid criteria are 1-{len(_CRITERIA)}")
    return sorted(known[tok] for tok in tokens)


def run_criteria(numbers: list[int] | None = None) -> list[CriterionResult]:
    """Run the selected criteria (all by default) and collect results."""
    results = []
    for number, name, fn, budget in _CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except GrwError as exc:
            passed, detail = False, f"error: {exc}"
        elapsed = time.perf_counter() - start
        if passed and elapsed > budget:
            passed = False
            detail += f"; exceeded the {budget:.0f}s budget"
        results.append(CriterionResult(number, name, passed, detail, elapsed, budget))
    return results
