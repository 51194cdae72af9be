"""Ergodic secrecy capacity: Monte-Carlo estimate with optimal power allocation.

The estimator samples fading states for the legitimate and eavesdropper
links, keeps the favorable set (legitimate gain ratio strictly larger),
and maximizes the average secrecy rate over state-dependent transmit
powers subject to an average-power budget. The per-state optimum is
closed-form given the budget multiplier (``v2vsec._kernels``); the
multiplier itself is found on a log scale by safeguarded Newton on the
log of the total allocated power, over the favorable states only. With
no eavesdropper the allocation is water-filling, and its multiplier
follows from rounds over an active set: the level that spends the budget
on the states kept, then dropping the states at or below it, until none
drops. The search starts at that root and its first kernel call confirms
it. With an eavesdropper it starts from the water level that allocates
every favorable state; from 12,000 favorable states up, it first runs the
same search on every 16th favorable state for that subsample's share of
the budget, and starts from the multiplier found there, which is already
close to the root. Each Newton step takes its slope from the root R of
the kernel's quadratic: on allocated states 1/(x + y) = d/R, so the step
costs one divide per state.

Each estimate gathers the favorable states when some are dropped, and
allocates one workspace block. With an eavesdropper the block also holds
the multiplier-free rows d = a - b, s = a + b and 4ab, computed once; the
subsample search reads them through strided views and writes into a
three-row block of its own.
Every kernel call (through its ``out``/``work`` arguments), every Newton
step and the final rates write into the block, so the search allocates
no per-call temporaries beyond a byte mask per water-level round. Every
state left is favorable, as the kernels require.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._common import ComputationError, instance, integer, real, validated
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
# Rounds of the no-eavesdropper water level before the search takes over.
_WATER_ROUNDS = 16
# With an eavesdropper and at least _SUBSAMPLE_STRIDE * _SUBSAMPLE_MIN
# favorable states, the search starts from the multiplier solved on every
# _SUBSAMPLE_STRIDE-th of them. Timed against the all-favorable start with
# Rayleigh, Rician and Nakagami eavesdroppers, the two break even at 10-12k
# favorable states; the subsample start is faster from 12k up.
_SUBSAMPLE_STRIDE = 16
_SUBSAMPLE_MIN = 750


class ErgodicConvergenceError(ComputationError):
    """The multiplier search failed to meet the power-budget tolerance."""


@validated
class ErgodicSpec(NamedTuple):
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

    def _check(self) -> tuple:
        p_budget = real("p_budget", self.p_budget, "> 0")
        n_samples = integer("n_samples", self.n_samples, ">= 1000")
        sigma_b2 = real("sigma_b2", self.sigma_b2, "> 0")
        sigma_e2 = real("sigma_e2", self.sigma_e2, "> 0")
        seed = integer("seed", self.seed, ">= 0")
        legit, eaves = instance("legit_fading", self.legit_fading, FadingModel), self.eaves_fading
        if not (eaves is None or isinstance(eaves, FadingModel)):
            raise ValueError(f"eaves_fading must be None or a FadingModel, got {eaves!r}")
        return legit, p_budget, eaves, sigma_b2, sigma_e2, n_samples, seed


class ErgodicResult(NamedTuple):
    """Estimate plus the diagnostics needed to audit it."""

    capacity: float
    achieved_avg_power: float
    ci_halfwidth: float
    multiplier: float
    n_active: int
    iterations: int  # gamma_allocation calls of the multiplier search, a subsample's included
    power_residual: float  # final relative power residual, achieved/budget - 1


def draw_channel_states(spec: ErgodicSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sample the per-state gain ratios (a, b) = (|h_AB|^2/s_B^2, |h_AE|^2/s_E^2).

    The two links use independent child streams spawned from the seed, so
    the draw is reproducible and the links stay independent.
    """
    legit_ss, eaves_ss = np.random.SeedSequence(spec.seed).spawn(2)
    # each power-gain array is fresh, so it is scaled in place; dividing by a
    # unit variance would change no bit
    a = sample_fading(spec.legit_fading, np.random.default_rng(legit_ss), spec.n_samples)
    if spec.sigma_b2 != 1.0:
        np.divide(a, spec.sigma_b2, out=a)
    if spec.eaves_fading is None:
        b = np.zeros(spec.n_samples)
    else:
        b = sample_fading(spec.eaves_fading, np.random.default_rng(eaves_ss), spec.n_samples)
        if spec.sigma_e2 != 1.0:
            np.divide(b, spec.sigma_e2, out=b)
    return a, b


def estimate_on_states(a: np.ndarray, b: np.ndarray, p_budget: float) -> ErgodicResult:
    """Optimal-allocation estimate on an explicit sample of gain-ratio states.

    Raises :class:`ErgodicConvergenceError` if the budget multiplier cannot
    be solved to within the relative power tolerance; never returns a
    silently unconverged answer.
    """
    real("p_budget", p_budget, "> 0")
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1-d arrays of equal length")
    n = a.shape[0]
    # min() and max() bound each array in one pass without a temporary, and
    # nan fails both; the elementwise checks run only to name the fault.
    b_max = float(b.max()) if n else 0.0
    if n and not (a.min() >= 0.0 and a.max() < math.inf and b.min() >= 0.0 and b_max < math.inf):
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("gain ratios must be finite")
        raise ValueError("gain ratios must be >= 0")
    if b_max == 0.0:
        b = None  # no eavesdropper, as the kernels spell it; a > 0 is then favorable
    favorable = a if b is None else np.greater(a, b)
    n_active = int(np.count_nonzero(favorable))
    if n_active == 0:
        return ErgodicResult(0.0, 0.0, 0.0, math.inf, 0, 0, 0.0)
    if n_active < n:
        # Only favorable states can ever get power; the rest add zeros.
        keep = np.flatnonzero(favorable)  # an index gather is faster than a mask
        a = np.take(a, keep)
        if b is not None:
            b = np.take(b, keep)
            if not b.any():
                b = None  # b > 0 only on dropped states: water-filling again
    # One block holds gamma, two scratch rows and, with an eavesdropper, the
    # invariant form (d, s, 4ab). Every kernel call and Newton step below
    # writes into it; the caller's a and b are only read.
    block = np.empty((3 if b is None else 6, n_active))
    gamma, work = block[0], block[1:3]
    gap, sums = (a, None) if b is None else _kernels.invariant_form(a, b, out=block[3:])

    target = n * p_budget
    warm_calls = 0
    if b is None:
        with np.errstate(over="ignore"):  # 1/a may overflow, as in _all_allocated_level
            mu = _water_level(a, target, work)
    elif n_active < _SUBSAMPLE_STRIDE * _SUBSAMPLE_MIN:
        mu = _all_allocated_level(a, target, work[0])
    else:
        # Solve every _SUBSAMPLE_STRIDE-th favorable state for its share of the
        # budget, and start from that multiplier.
        sub = slice(None, None, _SUBSAMPLE_STRIDE)
        sub_gap = gap[sub]
        m = sub_gap.shape[0]
        sub_target = target * m / n_active
        sub_block = np.empty((3, m))
        mu = _all_allocated_level(a[sub], sub_target, sub_block[0])
        mu, _, _, warm_calls, _ = _multiplier_search(
            sub_gap, (sums[0][sub], sums[1][sub]), sub_target, mu, sub_block[0], sub_block[1:]
        )
    mu, power, residual, calls, resolution = _multiplier_search(
        gap, sums, target, mu, gamma, work)
    iterations = warm_calls + calls
    if abs(residual) > max(_POWER_RTOL, resolution):
        raise ErgodicConvergenceError(
            f"relative power residual {residual!r} not within {_POWER_RTOL} after "
            f"{iterations} iterations (p_budget={p_budget!r}, n_active={n_active})"
        )

    # the rows the last kernel call wrote, still in cache
    rates = _kernels.secrecy_rate(a, b, gamma, out=work[1], work=work[0])
    capacity = float(np.sum(rates)) / n
    # Spread over all n states; the n - n_active unfavorable ones have rate 0.
    deviation = np.square(np.subtract(rates, capacity, out=rates), out=rates)
    var = (float(np.sum(deviation)) + (n - n_active) * capacity**2) / n
    ci = 1.96 * math.sqrt(var / n)
    return ErgodicResult(capacity, power / n, ci, mu, n_active, iterations, residual)


def _all_allocated_level(a: np.ndarray, target: float, scratch: np.ndarray) -> float:
    """The water level as if every state were allocated: len(a) / (target + sum of 1/a)."""
    # 1/a overflows to inf for a subnormal gain; the start then comes out 0,
    # and the search starts from the top of the bracket instead.
    with np.errstate(over="ignore"):
        return a.shape[0] / (target + float(np.sum(np.divide(1.0, a, out=scratch))))


def _multiplier_search(
    gap: np.ndarray, sums, target: float, mu: float, gamma: np.ndarray, work: np.ndarray
) -> tuple[float, float, float, int, float]:
    """Safeguarded Newton for the multiplier that allocates ``target`` over the states.

    The arguments after ``target`` are the start and the kernel's ``out`` and
    ``work`` rows. Returns (mu, total power, relative residual, kernel calls,
    resolution); power and residual are mu's, whose allocation the last
    kernel call left in ``gamma``. Never raises, so the caller judges the
    residual: it meets the tolerance, or it is within the resolution.

    Newton runs on F(t) = ln P(e^t) - ln(target), t = ln(mu), P the total
    allocated power, with dF/dt = -_newton_slope(...) / P from the same
    gamma. P falls from +inf as mu -> 0 to zero at mu = max(d), so each
    residual narrows the bracket (lo, hi); lo = 0 while no lower end is
    known. The iterate is mu itself, so the search can reach every double.
    When no double lies strictly inside the bracket, mu is the end whose
    residual is smaller, and the resolution is the residual step between
    the two ends, the closest any double can get; until then it is 0.
    """
    lo, hi = 0.0, float(np.max(gap))
    # the residuals at the bracket's ends: P is +inf at mu = 0 and 0 at max(d)
    res_lo, res_hi = math.inf, -1.0
    mu = min(mu, hi) if mu > 0 else hi
    step = 1.0
    for calls in range(1, _MAX_ITER + 1):
        _kernels.gamma_allocation(gap, sums, mu, out=gamma, work=work)
        power = float(np.sum(gamma))
        residual = power / target - 1.0
        if abs(residual) <= _POWER_RTOL:
            break
        if residual > 0:
            lo, res_lo = mu, residual
        else:
            hi, res_hi = mu, residual
        nxt = math.nan
        if power > 0:
            dt = math.log(power / target) * power / _newton_slope(gap, sums, mu, gamma, work)
            nxt = mu * math.exp(min(dt, 709.0))  # exp() overflows past 709
        if not lo < nxt < hi:
            if lo == 0.0:
                nxt, step = hi * math.exp(-step), 2.0 * step
            else:
                nxt = math.sqrt(lo) * math.sqrt(hi)
                if not lo < nxt < hi:  # a few ulps apart: halve on the linear scale
                    nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                # no double lies strictly inside the bracket: settle on its closer end
                closer = lo if res_lo < -res_hi else hi
                if closer != mu:
                    calls += 1
                    _kernels.gamma_allocation(gap, sums, closer, out=gamma, work=work)
                    mu, power = closer, float(np.sum(gamma))
                    residual = power / target - 1.0
                return mu, power, residual, calls, res_lo - res_hi
        mu = nxt
    return mu, power, residual, calls, 0.0


def _water_level(a: np.ndarray, target: float, work: np.ndarray) -> float:
    """The multiplier that water-filling spends ``target`` with, from two scratch rows.

    With no eavesdropper the allocation is 1/mu - 1/a where a > mu. Spending
    the budget on a set K of states fixes mu = |K| / (target + sum over K of
    1/a). Starting from every state, each round drops the states at or below
    that level and raises the level again, until no state drops; the kept
    states are then exactly those above mu, and mu is the root. A bound of
    ``_WATER_ROUNDS`` rounds hands a level below the root to the search.
    """
    inv = np.divide(1.0, a, out=work[1])
    k = a.shape[0]
    mu = k / (target + float(np.sum(inv)))
    for _ in range(_WATER_ROUNDS):
        kept = a > mu
        count = int(np.count_nonzero(kept))
        if count in (k, 0):
            break
        k = count
        mask = work[0]
        np.copyto(mask, kept)  # a float mask multiplies faster than a bool one
        mu = k / (target + float(np.sum(np.multiply(mask, inv, out=mask))))
    return mu


def _newton_slope(gap: np.ndarray, sums, mu: float, gamma: np.ndarray, work: np.ndarray) -> float:
    """Sum of 1/(x + y) over the allocated states, from one kernel call's results.

    On allocated states the KKT condition x - y = mu holds, with
    x = a/(1 + g*a) and y = b/(1 + g*b), so dg/dmu = 1/(y^2 - x^2) =
    -1/(mu*(x + y)). The other arguments are the kernel call's. With no
    eavesdropper (``sums`` None) x = mu on every allocated state. Otherwise
    the root R = sqrt(mu*d*(mu*d + 4ab)) left in ``work[0]`` satisfies
    R = mu*(s + 2ab*g), and x + y = R/d, so each term costs one divide.
    """
    if sums is None:
        return np.count_nonzero(gamma) / mu
    w = work[1]
    # R underflows to 0 on a subnormal state, which never gets power: its
    # inf * 0 is nan, which fmax clears.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(gap, work[0], out=w)
        np.multiply(w, np.greater(gamma, 0.0, out=work[0]), out=w)
    return float(np.sum(np.fmax(w, 0.0, out=w)))


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
    out, work = np.empty((2, *gamma.shape))
    return float(np.mean(_kernels.secrecy_rate(a, b, gamma, out=out, work=work)))
