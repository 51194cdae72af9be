"""Ergodic secrecy capacity: Monte-Carlo estimate with optimal power allocation.

The estimator samples fading states for the legitimate and eavesdropper
links, keeps the favorable set (legitimate gain ratio strictly larger),
and maximizes the average secrecy rate over state-dependent transmit
powers subject to an average-power budget. The per-state optimum is
closed-form given the budget multiplier (``v2vsec._kernels``); the
multiplier itself is found on a log scale by Illinois false position on
the relative average-power residual, over the favorable states only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import FadingModel, sample_fading

__all__ = [
    "DEFAULT_SEED",
    "ErgodicSpec",
    "ErgodicResult",
    "ErgodicConvergenceError",
    "draw_channel_states",
    "estimate_on_states",
    "ergodic_secrecy",
    "constant_power_capacity",
]

DEFAULT_SEED = 12345

# Multiplier search policy: relative power tolerance and iteration caps.
_POWER_RTOL = 1e-9
_MAX_BRACKET_GROWTH = 12  # steps sum to 4095 > 1455, the span of ln() over positive doubles
_MAX_ITER = 100


class ErgodicConvergenceError(RuntimeError):
    """The multiplier search failed to meet the power-budget tolerance."""


@dataclass(frozen=True)
class ErgodicSpec:
    """Monte-Carlo setup for one ergodic estimate.

    ``eaves_fading=None`` models an absent eavesdropper (zero gain in
    every state).
    """

    legit_fading: FadingModel
    p_budget: float
    eaves_fading: FadingModel | None = None
    sigma_b2: float = 1.0
    sigma_e2: float = 1.0
    n_samples: int = 100_000
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p_budget) and self.p_budget > 0):
            raise ValueError(f"p_budget must be > 0, got {self.p_budget!r}")
        if self.n_samples < 1_000:
            raise ValueError(f"n_samples must be >= 1000, got {self.n_samples!r}")
        for name in ("sigma_b2", "sigma_e2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be > 0, got {v!r}")


@dataclass(frozen=True)
class ErgodicResult:
    """Estimate plus the diagnostics needed to audit it."""

    capacity: float
    achieved_avg_power: float
    ci_halfwidth: float
    multiplier: float
    n_active: int


def draw_channel_states(spec: ErgodicSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sample the per-state gain ratios (a, b) = (|h_AB|^2/s_B^2, |h_AE|^2/s_E^2).

    The two links use independent child streams spawned from the seed, so
    the draw is reproducible and the links stay independent.
    """
    legit_ss, eaves_ss = np.random.SeedSequence(spec.seed).spawn(2)
    h_b = sample_fading(spec.legit_fading, np.random.default_rng(legit_ss), spec.n_samples)
    a = np.ascontiguousarray(h_b * h_b / spec.sigma_b2)
    if spec.eaves_fading is None:
        b = np.zeros(spec.n_samples)
    else:
        h_e = sample_fading(spec.eaves_fading, np.random.default_rng(eaves_ss), spec.n_samples)
        b = np.ascontiguousarray(h_e * h_e / spec.sigma_e2)
    return a, b


def estimate_on_states(a: np.ndarray, b: np.ndarray, p_budget: float) -> ErgodicResult:
    """Optimal-allocation estimate on an explicit sample of gain-ratio states.

    Raises :class:`ErgodicConvergenceError` if the budget multiplier cannot
    be solved to within the relative power tolerance; never returns a
    silently unconverged answer.
    """
    if not (math.isfinite(p_budget) and p_budget > 0):
        raise ValueError(f"p_budget must be > 0, got {p_budget!r}")
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("gain ratios must be finite")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("gain ratios must be >= 0")
    n = a.shape[0]
    favorable = a > b
    n_active = int(np.count_nonzero(favorable))
    if n_active == 0:
        return ErgodicResult(0.0, 0.0, 0.0, math.inf, 0)
    if n_active < n:
        # Only favorable states can ever get power; the rest add zeros.
        a, b = a[favorable], b[favorable]

    def residual(log_mu: float) -> tuple[float, np.ndarray]:
        gamma = _kernels.gamma_allocation(a, b, math.exp(log_mu))
        return float(np.sum(gamma)) / (n * p_budget) - 1.0, gamma

    # Average power falls monotonically from +inf as mu -> 0 to zero at
    # mu = max(a - b), where no state gets power: step ln(mu) down from
    # there, doubling the step, until the allocation exceeds the budget.
    hi, f_hi = math.log(float(np.max(a - b))), -1.0
    step = 1.0
    for _ in range(_MAX_BRACKET_GROWTH):
        lo = hi - step
        f_lo, gamma = residual(lo)
        if f_lo > -_POWER_RTOL:
            break
        hi, f_hi = lo, f_lo
        step *= 2.0
    else:
        raise ErgodicConvergenceError("multiplier bracket did not close")

    # Illinois false position on [lo, hi] with f(lo) > 0 > f(hi): an end
    # kept twice in a row has its residual halved, so both ends converge.
    log_mu, f, kept = lo, f_lo, 0
    for _ in range(_MAX_ITER):
        if abs(f) <= _POWER_RTOL:
            break
        log_mu = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f, gamma = residual(log_mu)
        if f > 0:
            lo, f_lo = log_mu, f
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = log_mu, f
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    if abs(f) > _POWER_RTOL:
        raise ErgodicConvergenceError(
            f"relative power residual {f!r} not within {_POWER_RTOL} of budget "
            f"after {_MAX_ITER} iterations"
        )

    rates = _kernels.secrecy_rate(a, b, gamma)
    capacity = float(np.sum(rates)) / n
    # Spread over all n states; the n - n_active unfavorable ones have rate 0.
    var = (float(np.sum((rates - capacity) ** 2)) + (n - n_active) * capacity**2) / n
    ci = 1.96 * math.sqrt(var / n)
    return ErgodicResult(capacity, float(np.sum(gamma)) / n, ci, math.exp(log_mu), n_active)


def ergodic_secrecy(spec: ErgodicSpec) -> ErgodicResult:
    """Ergodic secrecy capacity in bits/s/Hz for the sampled fading spec."""
    a, b = draw_channel_states(spec)
    return estimate_on_states(a, b, spec.p_budget)


def constant_power_capacity(a: np.ndarray, b: np.ndarray, p_budget: float) -> float:
    """Baseline that spends the budget uniformly over the favorable states.

    The optimizer must never fall below this value on the same sample set.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    active = a > b
    n_active = int(np.count_nonzero(active))
    if n_active == 0:
        return 0.0
    gamma = np.where(active, p_budget * a.shape[0] / n_active, 0.0)
    return float(np.mean(_kernels.secrecy_rate(a, b, np.ascontiguousarray(gamma))))
