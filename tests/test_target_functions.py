"""The distribution functions behind the statistics' targets, against scipy.stats.

``grwsim run`` computes its chi-square, Poisson, binomial and normal targets
from ``math`` and ``numpy`` alone.  Each function agrees with SciPy within
1e-9 relative wherever SciPy's value exceeds 1e-250, and the Poisson cutoff
of the event-count histogram is SciPy's own, so its chi-square bins match.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

from grwsim import ensemble as ens

REL = 1e-9
FLOOR = 1e-250
MUS = np.concatenate([np.logspace(-1, 4, 41), [5.0, 8.0, 20.0, 50.0, 200.0, 1500.0]])


def assert_close(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    shown = ref > FLOOR
    assert shown.any()
    worst = np.max(np.abs(got[shown] - ref[shown]) / ref[shown])
    assert worst <= REL, worst


def test_chi2_sf():
    for df in [*range(1, 101), *range(101, 1000, 9), 1000]:
        xs = np.concatenate([np.linspace(0.0, 3.0 * df + 60.0, 12), [df - 0.5, df + 0.25]])
        assert_close([ens._chi2_sf(float(x), df) for x in xs], sps.chi2.sf(xs, df))


@pytest.mark.parametrize("mu", MUS)
def test_poisson_pmf_and_tails(mu):
    tails = ens._poisson_tails(mu)
    k = np.arange(tails.size)
    assert_close(ens._poisson_pmf(k, mu), sps.poisson.pmf(k, mu))
    assert_close(tails, sps.poisson.sf(k - 1, mu))


@pytest.mark.parametrize("mu", MUS)
def test_poisson_histogram_cutoff_is_scipys(mu):
    assert ens._poisson_isf(1e-12, mu) == int(sps.poisson.isf(1e-12, mu))


@pytest.mark.parametrize("mu", MUS)
def test_exact_law_cutoff(mu):
    # first_window_inside_probability drops the counts above the first
    # whose tail is <= 1e-16.  SciPy's isf compares the CDF against
    # 1 - 1e-16, which rounds to 1 - 2^-53; its cutoff therefore sits up to
    # three counts lower at large mu, never higher.
    tails = ens._poisson_tails(mu)
    top = int(np.argmax(tails <= 1e-16))
    assert tails[top] <= 1e-16 < tails[top - 1]
    assert 0 <= (top - 1) - int(sps.poisson.isf(1e-16, mu)) <= 3


LOG_FACT = ens._log_factorial(np.arange(201))


def test_log_factorial():
    exact = [math.log(math.factorial(k)) for k in range(201)]
    assert np.allclose(LOG_FACT, exact, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("p", [0.01, 0.5, 0.9, 0.99])
def test_binomial_pmf_and_tail(p):
    for n in range(201):
        j = np.arange(n + 1)
        assert_close(ens._binom_pmf(j, n, p, LOG_FACT), sps.binom.pmf(j, n, p))
        tails = [ens._binom_tail(c, n, p, LOG_FACT) for c in range(n + 2)]
        assert_close(tails, sps.binom.sf(np.arange(n + 2) - 1, n, p))


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_binomial_certain_outcome(p):
    # a box probability rounds to exactly 0 or 1 for anchors 14 center
    # widths inside or outside the box
    tails = [ens._binom_tail(c, 5, p, LOG_FACT) for c in range(7)]
    assert tails == sps.binom.sf(np.arange(7) - 1, 5, p).tolist()


def test_normal_cdf():
    z = np.linspace(-37.0, 8.0, 451)
    assert_close([ens._normal_cdf(float(v)) for v in z], sps.norm.cdf(z))
    assert ens._normal_cdf(0.0) == 0.5
    assert math.isclose(ens._normal_cdf(1.0) - ens._normal_cdf(-1.0), math.erf(1.0 / math.sqrt(2.0)))
