"""The benchmark's workloads: each is a scenario config plus a `grwsim run` size.

Every workload is run the way a user runs it, as one `grwsim run` process
per repeat, with the master seed taken from the benchmark's ``--seed``.
The reasons each workload exists are recorded next to its definition; the
layer each one loads is what a later change should cite when it claims a
gain there.

Two modules stay out of the workloads on purpose:

* ``oracles`` is slow-but-simple reference code by policy;
* ``acceptance`` criteria already time themselves against their budgets in
  ``grwsim check`` and take 12-56 s each, too long to repeat per run.
  Instead ``cat_grw0`` reuses criterion 4's config and ``marbles_grwf``
  the marble census scenario of criterion 5, at smaller sizes.

Known defects, found while sizing the workloads and left standing here for
the precondition guards on the roadmap (both configs are physically
invalid, which is why no workload uses them; the program does not say so):

(a) Free evolution with ``mass = 1`` on the default grid domain (the
    ``grid_free`` config without ``x_min``/``x_max`` and with ``mass = 1``):
    the packet wraps round the periodic edges.  Replaying 20 logged
    trajectories of a 200-trajectory run (seed 3) puts 0.99999 of the mass
    within 9 sigma of an edge, yet the run reports 0 failures, every
    statistic passes and it exits 0.
(b) ``kind = tail, ontology = grwf, history = collapsed_past,
    total_time = 20`` with the default window (100 time units, longer than
    the horizon): the final flash window still holds mostly prehistory, so
    no verdict can flip.  200 trajectories (seed 3) give
    ``resurrection_rate = 0.0`` against a target of 0.1 (z = -4.46) and the
    run exits 1.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # scenario config text, written to a file for `grwsim run --config`
    trajectories: int
    threads: int
    log_trajectories: int
    why: str
    check_edges: bool = False  # replay logged grid trajectories for edge clearance


CAT_GRW0 = Workload(
    name="cat_grw0",
    # Criterion 4's config: one shared fresh scenario, a trivial reduce and
    # two small output files, so the per-event branch engine (about 250k
    # events) is nearly all the work.  Many short trajectories make the
    # per-trajectory costs (substream setup, reduce) visible as well.
    config="""\
kind = cat
c1_sq = 0.7
ontology = grw0
history = fresh_preparation
backend = branch
lambda_eff = 1.0
sigma = 1.0
total_time = 50
""",
    trajectories=5000,
    threads=1,
    log_trajectories=0,
    why="criterion 4 cat config: the per-event branch engine is nearly all the work",
)

MARBLES_GRWF = Workload(
    name="marbles_grwf",
    # The marble census (criterion 5's scenario) with 20 marbles on one clock:
    # BranchSystems.locate runs about 4 times per event; every trajectory
    # builds its own scenario and collapsed-past prehistory (logsumexp in
    # BranchState.from_weights); reduce_trajectory reads the flash window of
    # each marble; the thread pool is in use (2 workers = cores of the
    # reference machine); and every event is materialised and written out
    # (about 900 files, 20 MB), so a fast path that skips event records must
    # show here that it does not slow the logged path.
    config="""\
kind = marbles
n_marbles = 20
c1_sq = 0.9
ontology = grwf
history = collapsed_past
backend = branch
lambda_eff = 1.0
sigma = 1.0
total_time = 20
""",
    trajectories=300,
    threads=2,
    log_trajectories=300,
    why="20-marble flash census: locate, per-trajectory scenarios, thread pool and full event logs",
)

GRID_FREE = Workload(
    name="grid_free",
    # The grid kernels (center-density convolution, collapse, FFT step) carry
    # the run and the branch engine does nothing.  The domain and the mass
    # keep the state clear of the periodic edges (checked from outside on
    # every run, see EDGE_MASS_LIMIT), so a clearance guard will not abort it.
    config="""\
kind = tail
c1_sq = 0.99
ontology = grwm
backend = grid
grid_points = 512
x_min = -30
x_max = 50
hamiltonian = free
mass = 5
lambda_eff = 1.0
sigma = 1.0
total_time = 10
density_times = 0, 5, 10
""",
    trajectories=1500,
    threads=1,
    log_trajectories=10,
    why="free-particle grid tail: convolution, grid collapse and FFT steps carry the run",
    check_edges=True,
)

WORKLOADS = {w.name: w for w in (CAT_GRW0, MARBLES_GRWF, GRID_FREE)}

# Largest mass allowed within 9 sigma of a grid edge at any replayed time of
# a logged grid_free trajectory.  The collapse kernel is truncated at 9 sigma,
# so edge mass leaks out of the center density; criterion 1 holds that
# density's integral to 1e-6, and this limit stays 1000 times below it.
EDGE_MASS_LIMIT = 1e-9
EDGE_REACH_SIGMAS = 9.0
