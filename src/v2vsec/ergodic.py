"""Ergodic secrecy capacity: Monte-Carlo estimate with optimal power allocation.

The estimator samples fading states for the legitimate and eavesdropper
links, keeps the favorable set (legitimate gain ratio strictly larger),
and maximizes the average secrecy rate over state-dependent transmit
powers subject to an average-power budget. The per-state optimum is
closed-form given the budget multiplier (``v2vsec._kernels``); the
multiplier itself is found on a log scale by safeguarded Newton on the
log of the total allocated power, over the favorable states only. With
no eavesdropper the allocation is water-filling, whose multiplier follows
exactly from the sorted gains, so the search starts at the root and its
first kernel call confirms it.
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

# Multiplier search policy: relative power tolerance and kernel-call cap.
_POWER_RTOL = 1e-9
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
    iterations: int  # gamma_allocation calls made by the multiplier search
    power_residual: float  # final relative power residual, achieved/budget - 1


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
        return ErgodicResult(0.0, 0.0, 0.0, math.inf, 0, 0, 0.0)
    if n_active < n:
        # Only favorable states can ever get power; the rest add zeros.
        a, b = a[favorable], b[favorable]

    # Newton on F(t) = ln P(e^t) - ln(n p), t = ln(mu), P the total allocated
    # power. On allocated states the KKT condition x - y = mu, with
    # x = a/(1+g*a) and y = b/(1+g*b), gives dg/dmu = 1/(y^2 - x^2) =
    # -1/(mu*(x + y)), so dF/dt = -sum(1/(x + y)) / P from the same gamma.
    # P falls from +inf as mu -> 0 to zero at mu = max(a - b), so each
    # residual narrows the bracket (lo, hi); lo = 0 while no lower end is
    # known. The iterate is mu itself, so the search can reach every double.
    target = n * p_budget
    lo, hi = 0.0, float(np.max(a - b))
    if not np.any(b):
        # No eavesdropper: the allocation is water-filling, 1/mu - 1/a where
        # a > mu. The allocated states are then the k strongest, and spending
        # the budget on them fixes mu_k = k / (n p + sum of their 1/a); the
        # true k is the largest with a_(k) > mu_k, so the start is the root.
        strongest = np.sort(a)[::-1]
        levels = np.arange(1, n_active + 1) / (target + np.cumsum(1.0 / strongest))
        start = float(levels[max(1, int(np.count_nonzero(strongest > levels))) - 1])
    else:
        # the same level as if every favorable state were allocated
        start = n_active / (target + float(np.sum(1.0 / a)))
    mu = min(start, hi) if start > 0 else hi
    step = 1.0
    for iterations in range(1, _MAX_ITER + 1):
        gamma = _kernels.gamma_allocation(a, b, mu)
        power = float(np.sum(gamma))
        residual = power / target - 1.0
        if abs(residual) <= _POWER_RTOL:
            break
        if residual > 0:
            lo = mu
        else:
            hi = mu
        nxt = math.nan
        if power > 0:
            inv = 1.0 / (a / (1.0 + gamma * a) + b / (1.0 + gamma * b))
            dt = math.log(power / target) * power / float(np.sum(inv, where=gamma > 0))
            nxt = mu * math.exp(min(dt, 709.0))  # exp() overflows past 709
        if not lo < nxt < hi:
            if lo == 0.0:
                nxt, step = hi * math.exp(-step), 2.0 * step
            else:
                nxt = math.sqrt(lo) * math.sqrt(hi)
                if not lo < nxt < hi:  # a few ulps apart: halve on the linear scale
                    nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break  # no double lies strictly inside the bracket
        mu = nxt
    if abs(residual) > _POWER_RTOL:
        raise ErgodicConvergenceError(
            f"relative power residual {residual!r} not within {_POWER_RTOL} after "
            f"{iterations} iterations (p_budget={p_budget!r}, n_active={n_active})"
        )

    rates = _kernels.secrecy_rate(a, b, gamma)
    capacity = float(np.sum(rates)) / n
    # Spread over all n states; the n - n_active unfavorable ones have rate 0.
    var = (float(np.sum((rates - capacity) ** 2)) + (n - n_active) * capacity**2) / n
    ci = 1.96 * math.sqrt(var / n)
    return ErgodicResult(capacity, power / n, ci, mu, n_active, iterations, residual)


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
