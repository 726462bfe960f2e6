import numpy as np
import pytest

from grwsim import GridSpec, Packet, make_grid_wavefunction

STANDARD_SPEC = GridSpec(-25.6, 25.6, 512)


@pytest.fixture(scope="session")
def spec512():
    return STANDARD_SPEC


@pytest.fixture(scope="session")
def two_packet_state():
    """Weights (0.9, 0.1), centers -10 and +10, unit widths (20 sigma apart)."""
    return make_grid_wavefunction(
        STANDARD_SPEC,
        [Packet(-10.0, 1.0, np.sqrt(0.9)), Packet(10.0, 1.0, np.sqrt(0.1))],
    )
