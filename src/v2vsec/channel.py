"""Primitive radio-link quantities: capacities, path loss, dB scales, fading.

All capacities are in bits (base-2 logarithms). Fading amplitudes are
normalized to unit mean power, E[|h|^2] = 1, so that fading and the
deterministic path-loss gain compose multiplicatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PowerBudget",
    "FadingModel",
    "awgn_capacity",
    "path_loss_amplitude",
    "db_to_linear",
    "sample_fading",
]

_LN2 = math.log(2.0)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PowerBudget:
    """Transmit power and noise variance on a common linear scale."""

    p_linear: float
    n0_linear: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p_linear) and self.p_linear > 0):
            raise ValueError(f"p_linear must be positive and finite, got {self.p_linear!r}")
        if not (math.isfinite(self.n0_linear) and self.n0_linear > 0):
            raise ValueError(f"n0_linear must be positive and finite, got {self.n0_linear!r}")

    @property
    def snr(self) -> float:
        return self.p_linear / self.n0_linear

    @classmethod
    def from_db(cls, pn0_db: float, n0_linear: float = 1.0) -> "PowerBudget":
        """Budget with the given power-to-noise ratio in dB at the given noise floor."""
        return cls(p_linear=n0_linear * db_to_linear(pn0_db), n0_linear=n0_linear)


@dataclass(frozen=True)
class FadingModel:
    """One of the three small-scale fading families, unit mean power.

    ``kind`` is ``"rayleigh"``, ``"rician"`` (with ``k_factor`` >= 0) or
    ``"nakagami"`` (with shape ``m`` >= 0.5).
    """

    kind: str
    k_factor: float = 0.0
    m: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("rayleigh", "rician", "nakagami"):
            raise ValueError(f"unknown fading kind {self.kind!r}")
        if self.kind == "rician" and not (math.isfinite(self.k_factor) and self.k_factor >= 0):
            raise ValueError(f"Rician K-factor must be >= 0, got {self.k_factor!r}")
        if self.kind == "nakagami" and not (math.isfinite(self.m) and self.m >= 0.5):
            raise ValueError(f"Nakagami shape m must be >= 0.5, got {self.m!r}")

    @classmethod
    def rayleigh(cls) -> "FadingModel":
        return cls(kind="rayleigh")

    @classmethod
    def rician(cls, k_factor: float) -> "FadingModel":
        return cls(kind="rician", k_factor=k_factor)

    @classmethod
    def nakagami(cls, m: float) -> "FadingModel":
        return cls(kind="nakagami", m=m)


def awgn_capacity(budget: PowerBudget, gain_power: float) -> float:
    """Capacity in bits/s/Hz of a non-fading AWGN link with a power gain."""
    gain_power = _check_finite("gain_power", gain_power)
    if gain_power < 0:
        raise ValueError(f"gain_power must be >= 0, got {gain_power!r}")
    return math.log1p(budget.p_linear * gain_power / budget.n0_linear) / _LN2


def path_loss_amplitude(distance: float, alpha: float) -> float:
    """Amplitude gain d^(-alpha) of the unbounded power-law path-loss model.

    The squared value d^(-2*alpha) is the power gain that enters the
    secrecy formulas. The model is singular at d = 0, so nonpositive
    distances are rejected.
    """
    distance = _check_finite("distance", distance)
    alpha = _check_finite("alpha", alpha)
    if distance <= 0:
        raise ValueError(f"distance must be > 0, got {distance!r}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha!r}")
    return distance ** (-alpha)


def db_to_linear(x: float) -> float:
    """Power ratio from decibels: 10^(x/10); a ratio beyond the float range is an error."""
    x = _check_finite("x", x)
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        raise ValueError(f"{x!r} dB overflows a float power ratio") from None


def sample_fading(model: FadingModel, rng: np.random.Generator, size: int | None = None):
    """Draw fading amplitudes |h| >= 0 with E[|h|^2] = 1 from the model.

    Deterministic for a given generator state. Returns a scalar when
    ``size`` is None, otherwise an array of that length. This is the one
    function of the module that computes on arrays, so it imports numpy
    itself and importing :mod:`v2vsec.channel` does not load numpy.
    """
    import numpy as np

    n = 1 if size is None else int(size)
    if model.kind == "rayleigh":
        out = rng.rayleigh(scale=1.0 / math.sqrt(2.0), size=n)
    elif model.kind == "rician":
        k = model.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        i = los + sigma * rng.standard_normal(n)
        q = sigma * rng.standard_normal(n)
        out = np.hypot(i, q)
    else:  # nakagami: |h|^2 ~ Gamma(m, 1/m)
        out = np.sqrt(rng.gamma(shape=model.m, scale=1.0 / model.m, size=n))
    if size is None:
        return float(out[0])
    return out
