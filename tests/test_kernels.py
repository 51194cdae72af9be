"""The allocation kernels implement the documented closed forms under their workspace contract.

Every state is favourable (a > b), the result goes to ``out`` and the
scratch to ``work``, and with an eavesdropper the states come in
invariant form.
"""

import numpy as np
import pytest

from v2vsec import _kernels


def _favorable_states(n=5000, seed=3):
    rng = np.random.default_rng(seed)
    b = rng.exponential(1.0, n)
    b[: n // 10] = 0.0  # include eavesdropper-free states
    a = b + rng.exponential(1.0, n)
    a[n // 10 : n // 5] = b[n // 10 : n // 5] * (1.0 + 1e-12)  # near-ties
    a[n // 5 : 3 * n // 10] *= 1e3  # a much stronger legitimate link
    return a, b


def _allocate(a, b, mu):
    """gamma_allocation on the invariant form of (a, b), into fresh rows."""
    n = a.shape[0]
    gap, sums = _kernels.invariant_form(a, b, out=np.empty((3, n)))
    out = np.empty(n)
    gamma = _kernels.gamma_allocation(gap, sums, mu, out=out, work=np.empty((2, n)))
    assert gamma is out
    return gamma


def _rates(a, b, gamma):
    out = np.empty_like(gamma)
    rates = _kernels.secrecy_rate(a, b, gamma, out=out, work=np.empty_like(gamma))
    assert rates is out
    return rates


@pytest.fixture(autouse=True)
def _float_errors_raise():
    # on favourable states of ordinary size no step of the closed form over-
    # or underflows, and the square root never sees a negative
    with np.errstate(all="raise"):
        yield


@pytest.mark.parametrize("mu", [0.01, 0.5, 2.0])
def test_allocation_positive_exactly_when_gap_exceeds_multiplier(mu):
    a, b = _favorable_states(seed=11)
    gamma = _allocate(a, b, mu)
    assert np.all(np.isfinite(gamma))
    assert np.all(gamma >= 0)
    assert np.array_equal(gamma > 0, (a - b) > mu)


def test_zero_eavesdropper_is_classic_waterfilling():
    rng = np.random.default_rng(4)
    a = rng.exponential(1.0, 2000)
    mu = 0.3
    gamma = _kernels.gamma_allocation(a, None, mu, out=np.empty(2000), work=np.empty((2, 2000)))
    expected = np.maximum(0.0, 1.0 / mu - 1.0 / a)
    np.testing.assert_allclose(gamma, expected, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(_allocate(a, np.zeros(2000), mu), expected, rtol=1e-12,
                               atol=1e-15)


def test_rate_matches_direct_formula():
    a, b = _favorable_states(seed=6)
    gamma = _allocate(a, b, 0.1)
    rates = _rates(a, b, gamma)
    expected = np.log2(1.0 + gamma * a) - np.log2(1.0 + gamma * b)
    np.testing.assert_allclose(rates, expected, rtol=1e-10, atol=1e-12)


def test_rates_nonnegative_on_allocated_states():
    a, b = _favorable_states(seed=8)
    gamma = _allocate(a, b, 0.05)
    rates = _rates(a, b, gamma)
    assert np.all(rates[gamma > 0] > 0)
    assert np.all(rates[gamma == 0] == 0)
