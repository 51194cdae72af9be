"""Primitive radio-link quantities: capacities, path loss, dB scales, fading.

All capacities are in bits (base-2 logarithms). The fading samplers
return power gains |h|^2 with unit mean, E[|h|^2] = 1, so that fading and
the deterministic path-loss gain compose multiplicatively.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._common import ValidatedRecord, instance, real

__all__ = [
    "PowerBudget",
    "FadingModel",
    "awgn_capacity",
    "path_loss_amplitude",
    "db_to_linear",
    "sample_fading",
]

_LN2 = math.log(2.0)
_INF = math.inf


class _PowerBudget(NamedTuple):
    p_linear: float
    n0_linear: float


class PowerBudget(ValidatedRecord, _PowerBudget):
    """Transmit power and noise variance on a common linear scale."""

    __slots__ = ()

    def _check(self) -> tuple:
        return (real("p_linear", self.p_linear, "positive and finite"),
                real("n0_linear", self.n0_linear, "positive and finite"))

    @property
    def snr(self) -> float:
        return self.p_linear / self.n0_linear

    @classmethod
    def from_db(cls, pn0_db: float, n0_linear: float = 1.0) -> "PowerBudget":
        """Budget with the given power-to-noise ratio in dB at the given noise floor."""
        return cls(p_linear=n0_linear * db_to_linear(real("pn0_db", pn0_db)),
                   n0_linear=n0_linear)


class _FadingModel(NamedTuple):
    kind: str
    k_factor: float = 0.0
    m: float = 1.0


class FadingModel(ValidatedRecord, _FadingModel):
    """One of the three small-scale fading families, unit mean power.

    ``kind`` is ``"rayleigh"``, ``"rician"`` (with ``k_factor`` >= 0) or
    ``"nakagami"`` (with shape ``m`` >= 0.5).
    """

    __slots__ = ()

    def _check(self) -> tuple:
        kind = self.kind
        if kind not in ("rayleigh", "rician", "nakagami"):
            raise ValueError(f"unknown fading kind {kind!r}")
        return (kind, real("Rician K-factor", self.k_factor, ">= 0" if kind == "rician" else None),
                real("Nakagami shape m", self.m, ">= 0.5" if kind == "nakagami" else None))

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
    instance("budget", budget, PowerBudget)
    gain_power = real("gain_power", gain_power)
    if gain_power < 0:
        raise ValueError(f"gain_power must be >= 0, got {gain_power!r}")
    return math.log1p(budget.p_linear * gain_power / budget.n0_linear) / _LN2


def path_loss_amplitude(distance: float, alpha: float) -> float:
    """Amplitude gain d^(-alpha) of the unbounded power-law path-loss model.

    The squared value d^(-2*alpha) is the power gain that enters the
    secrecy formulas. The model is singular at d = 0, so nonpositive
    distances are rejected, and so is a gain beyond the float range.
    """
    distance, alpha = real("distance", distance), real("alpha", alpha)
    if distance <= 0:
        raise ValueError(f"distance must be > 0, got {distance!r}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha!r}")
    try:
        return distance ** (-alpha)
    except OverflowError:
        raise ValueError(f"path-loss amplitude out of float range: distance={distance!r}, "
                         f"alpha={alpha!r}") from None


def db_to_linear(x: float) -> float:
    """Power ratio from decibels: 10^(x/10); a ratio beyond the float range is an error."""
    if type(x) is not float or not -_INF < x < _INF:  # a finite float needs no rule
        x = real("x", x)
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        raise ValueError(f"{x!r} dB overflows a float power ratio") from None


def sample_fading(model: FadingModel, rng: np.random.Generator, size: int | None = None):
    """Draw fading power gains |h|^2 >= 0 with E[|h|^2] = 1 from the model.

    Deterministic for a given generator state, and the same random stream
    as an amplitude draw: numpy's Rayleigh sampler is
    scale*sqrt(2*standard_exponential), so the Rayleigh power gain is the
    standard exponential itself. Returns a scalar when ``size`` is None,
    otherwise an array of that length. This is the one function of the
    module that computes on arrays; it computes with the generator's own
    arrays, so importing :mod:`v2vsec.channel` does not load numpy.
    """
    n = 1 if size is None else int(size)
    if model.kind == "rayleigh":  # |h|^2 ~ Exp(1)
        out = rng.standard_exponential(n)
    elif model.kind == "rician":
        k = model.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        i = los + sigma * rng.standard_normal(n)
        q = sigma * rng.standard_normal(n)
        out = i * i + q * q
    else:  # nakagami: |h|^2 ~ Gamma(m, 1/m)
        out = rng.gamma(shape=model.m, scale=1.0 / model.m, size=n)
    if size is None:
        return float(out[0])
    return out
