"""Monte Carlo simulation of GRW spontaneous-collapse dynamics.

The package pairs two state models (an exact grid wavefunction and an
analytic branch model) with the GRW jump process, extracts the primitive
ontologies (flashes, matter density, weight-only view), and runs the cat /
tail / marble scenarios as seeded, statistically-checked ensembles.
"""

from .dynamics import (
    BranchSystems,
    CollapseEvent,
    GrwParams,
    Hamiltonian,
    RngStream,
    TrajectoryRecord,
    apply_collapse_grid,
    branch_collapse_update,
    collapse_center_density,
    evolve_unitary,
    replay_state_at,
    run_trajectory,
    sample_collapse_center,
    sample_waiting_time,
)
from .ensemble import (
    EnsembleSummary,
    StatRecord,
    center_histogram_test,
    martingale_test,
    poisson_flash_test,
    run_ensemble,
    selection_frequency_test,
)
from .errors import (
    ConfigError,
    GrwError,
    NumericsError,
    WorkerError,
    ZeroProbabilityCollapseError,
)
from .ontology import (
    Flash,
    MatterDensityField,
    flash_fraction_in_region,
    flashes_of,
    grw0_view,
    mass_fraction_in_region,
    matter_density,
)
from .oracles import grid_branch_crosscheck, one_step_posterior_oracle
from .scenarios import (
    History,
    Ontology,
    Scenario,
    ScenarioConfig,
    ScenarioKind,
    Verdict,
    build_scenario,
    classify_grwf,
    classify_grwm,
)
from .state import (
    BranchState,
    GridSpec,
    GridWaveFunction,
    Packet,
    Region,
    branch_weights,
    make_grid_wavefunction,
    marginal_density,
    norm_squared,
)

__version__ = "0.1.0"
