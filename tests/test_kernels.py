"""The allocation kernels must implement the documented closed forms."""

import numpy as np
import pytest

from v2vsec import _kernels


def _random_states(n=5000, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.exponential(1.0, n)
    b = rng.exponential(1.0, n)
    b[: n // 10] = 0.0  # include eavesdropper-free states
    a[n // 10 : n // 5] = b[n // 10 : n // 5]  # and exactly-tied ones
    return np.ascontiguousarray(a), np.ascontiguousarray(b)


@pytest.mark.parametrize("mu", [0.01, 0.5, 2.0])
def test_allocation_positive_exactly_when_gap_exceeds_multiplier(mu):
    a, b = _random_states(seed=11)
    gamma = _kernels.gamma_allocation(a, b, mu)
    assert np.all(gamma >= 0)
    assert np.array_equal(gamma > 0, (a - b) > mu)


def test_zero_eavesdropper_is_classic_waterfilling():
    rng = np.random.default_rng(4)
    a = np.ascontiguousarray(rng.exponential(1.0, 2000))
    b = np.zeros(2000)
    mu = 0.3
    gamma = _kernels.gamma_allocation(a, b, mu)
    expected = np.maximum(0.0, 1.0 / mu - 1.0 / a)
    np.testing.assert_allclose(gamma, expected, rtol=1e-12, atol=1e-15)


def test_rate_matches_direct_formula():
    a, b = _random_states(seed=6)
    gamma = _kernels.gamma_allocation(a, b, 0.1)
    rates = _kernels.secrecy_rate(a, b, np.ascontiguousarray(gamma))
    expected = np.log2(1.0 + gamma * a) - np.log2(1.0 + gamma * b)
    np.testing.assert_allclose(rates, expected, rtol=1e-10, atol=1e-12)


def test_rates_nonnegative_on_allocated_states():
    a, b = _random_states(seed=8)
    gamma = _kernels.gamma_allocation(a, b, 0.05)
    rates = _kernels.secrecy_rate(a, b, np.ascontiguousarray(gamma))
    assert np.all(rates[gamma > 0] > 0)
    assert np.all(rates[gamma == 0] == 0)
