"""Vectorized numpy power-allocation kernels: the per-state closed forms.

``ergodic`` calls them as ``_kernels.gamma_allocation`` and
``_kernels.secrecy_rate`` attribute lookups, once per multiplier trial.
"""

import numpy as np

_LN2 = 0.6931471805599453


def gamma_allocation(a: np.ndarray, b: np.ndarray, mu: float) -> np.ndarray:
    """Per-state optimal transmit power for the multiplier mu (nat scale).

    For a state with gain ratios a > b the stationarity condition of
    log2(1+g*a) - log2(1+g*b) - (mu/ln2)*g is a quadratic in g whose
    positive root is

        g = 2*(a - b - mu) / (sqrt(mu*(a-b)*(mu*(a-b) + 4ab)) + mu*(a+b))

    clamped at zero; the allocation is positive exactly when a - b > mu.
    States outside the favorable set (a <= b) get zero power.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros(a.shape)
    s = a - b - mu
    active = s > 0.0
    if np.any(active):
        aa = a[active]
        bb = b[active]
        diff = aa - bb
        disc = mu * diff * (mu * diff + 4.0 * aa * bb)
        out[active] = 2.0 * s[active] / (np.sqrt(disc) + mu * (aa + bb))
    return out


def secrecy_rate(a: np.ndarray, b: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-state secrecy rate log2(1 + gamma*a) - log2(1 + gamma*b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    return (np.log1p(gamma * a) - np.log1p(gamma * b)) / _LN2
