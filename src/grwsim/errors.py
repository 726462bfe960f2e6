"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2 (a horizon too short
for a limit statistic included), NumericsError -> 3.
"""


class GrwError(Exception):
    """Base class for all grwsim errors."""


class ConfigError(GrwError):
    """Invalid configuration, arguments, or file contents."""


class NumericsError(GrwError):
    """Numerical failure: underflow, non-convergence, coverage loss."""


class ZeroProbabilityCollapseError(NumericsError):
    """Collapse center so far from the support that the post-collapse norm underflows."""
