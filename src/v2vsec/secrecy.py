"""Secrecy-capacity formulas for the V2V wiretap geometry.

Every operation returns a :class:`SecrecyResult` carrying both the raw
formula value (which can be negative when the eavesdropper's channel is
the stronger one) and its nonnegative clamp. Sweeps plot the raw value;
protocol decisions use the clamped one.

The fading, geometric and relay formulas live once, in the private
float-level helpers ``_fading_raw``, ``_geometric_raw`` and
``_relay_raw``. The public functions validate their inputs and return
through them. ``_velocity_raw`` is ``velocity_secrecy``'s raw value on
plain floats: one positive-and-finite guard, then ``_geometric_raw``,
and the public function's own error for any input the guard refuses.
``_velocity_raw`` serves the sweep engine's d = v*tau rows, protocol's
``decide`` and the scenario trace's direct-capacity column. ``_relay_raw``
serves protocol's relay-power search and, with ``_fading_raw``, the
relay-compare table; both hold inputs that ``RelayConfig`` accepts. So
a sweep cell, a decision's capacity or a relay-power probe and the
public function agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SecrecyResult",
    "WiretapNoise",
    "LinkGeometry",
    "RelayConfig",
    "gaussian_wiretap",
    "fading_secrecy",
    "geometric_secrecy",
    "velocity_secrecy",
    "relay_secrecy",
]

_LN2 = math.log(2.0)
_INF = math.inf


def _log2_1p(x: float) -> float:
    return math.log1p(x) / _LN2


def _fading_raw(p: float, n0: float, h_ab: float, h_ae: float) -> float:
    """Raw fading secrecy capacity on validated floats; amplitudes are squared here."""
    return _log2_1p(p * (h_ab * h_ab) / n0) - _log2_1p(p * (h_ae * h_ae) / n0)


def _path_loss_range_error(d: float, r: float, alpha: float) -> ValueError:
    """The error for a path-loss power d**(2*alpha) or r**(2*alpha) beyond the float range."""
    return ValueError(f"path-loss power out of float range: d={d!r}, r={r!r}, alpha={alpha!r}")


def _geometric_raw(p: float, n0: float, d: float, r: float, alpha: float) -> float:
    """Raw geometric secrecy capacity on validated positive finite floats.

    ``ValueError`` if a path-loss power or an SNR quotient leaves the float
    range, since the capacity would then come out inf or nan.
    """
    exp = 2.0 * alpha
    try:
        raw = _log2_1p(p / (n0 * d**exp)) - _log2_1p(p / (n0 * r**exp))
    except (OverflowError, ZeroDivisionError):
        # a path-loss power d**(2*alpha) or r**(2*alpha) left the float range
        raise _path_loss_range_error(d, r, alpha) from None
    if -_INF < raw < _INF:
        return raw
    # an SNR quotient overflowed to inf, so raw is inf or inf - inf = nan
    raise ValueError(
        f"signal-to-noise ratio out of float range: p={p!r}, n0={n0!r}, d={d!r}, r={r!r}, "
        f"alpha={alpha!r}"
    )


def _velocity_raw(p: float, n0: float, v: float, tau: float, r: float, alpha: float) -> float:
    """``velocity_secrecy(p, n0, v, tau, r, alpha).raw`` bit for bit, on plain floats.

    When all six inputs and d = v*tau are positive and finite this is
    ``_geometric_raw(p, n0, v * tau, r, alpha)``, the value the public
    function returns through. Any other input goes to ``velocity_secrecy``,
    which raises its own error.
    """
    d = v * tau
    if (0.0 < p < _INF and 0.0 < n0 < _INF and 0.0 < v < _INF and 0.0 < tau < _INF
            and 0.0 < r < _INF and 0.0 < alpha < _INF and 0.0 < d < _INF):
        return _geometric_raw(p, n0, d, r, alpha)
    return velocity_secrecy(p, n0, v, tau, r, alpha).raw


def _relay_raw(
    p_a: float,
    p_r: float,
    h_ab: float,
    h_rb: float,
    h_ae: float,
    h_re: float,
    sigma_b2: float,
    sigma_e2: float,
    w: float,
) -> float:
    """Raw relay-model secrecy capacity on floats that :class:`RelayConfig` would accept."""
    snr_b = p_a * h_ab / (p_r * h_rb + sigma_b2)
    snr_e = p_a * h_ae / (p_r * h_re + sigma_e2)
    return w * (_log2_1p(snr_b) - _log2_1p(snr_e))


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SecrecyResult:
    """Raw secrecy capacity and its clamp at zero, in the caller's rate unit."""

    raw: float
    clamped: float

    @classmethod
    def from_raw(cls, raw: float) -> "SecrecyResult":
        return cls(raw=raw, clamped=max(0.0, raw))


@dataclass(frozen=True)
class WiretapNoise:
    """Noise variances at the legitimate receiver and at the eavesdropper."""

    n_m: float
    n_w: float

    def __post_init__(self) -> None:
        _check_positive("n_m", self.n_m)
        _check_positive("n_w", self.n_w)


@dataclass(frozen=True)
class LinkGeometry:
    """Host/target/eavesdropper placement: r to the eavesdropper, d = r*theta
    between the legitimate pair.

    Exactly one of ``theta`` and ``d`` may be omitted; the other is derived.
    When both are given they must satisfy d = r*theta.
    """

    r: float
    theta: float | None = None
    d: float | None = None

    def __post_init__(self) -> None:
        _check_positive("r", self.r)
        if self.theta is None and self.d is None:
            raise ValueError("one of theta or d is required")
        if self.d is None:
            _check_positive("theta", self.theta)
            object.__setattr__(self, "d", self.r * self.theta)
        elif self.theta is None:
            _check_positive("d", self.d)
            object.__setattr__(self, "theta", self.d / self.r)
        else:
            _check_positive("theta", self.theta)
            _check_positive("d", self.d)
            expect = self.r * self.theta
            if abs(self.d - expect) > 1e-9 * max(abs(self.d), abs(expect)):
                raise ValueError(f"inconsistent geometry: d={self.d!r} but r*theta={expect!r}")


@dataclass(frozen=True)
class RelayConfig:
    """Powers, power-domain channel gains, and noises of the four-link relay model."""

    p_a: float
    p_r: float
    h_ab: float
    h_rb: float
    h_ae: float
    h_re: float
    sigma_b2: float
    sigma_e2: float
    w: float = 1.0

    def __post_init__(self) -> None:
        _check_positive("p_a", self.p_a)
        if not (math.isfinite(self.p_r) and self.p_r >= 0):
            raise ValueError(f"p_r must be >= 0, got {self.p_r!r}")
        for name in ("h_ab", "h_rb", "h_ae", "h_re"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be >= 0, got {v!r}")
        _check_positive("sigma_b2", self.sigma_b2)
        _check_positive("sigma_e2", self.sigma_e2)
        _check_positive("w", self.w)


def gaussian_wiretap(p: float, noise: WiretapNoise) -> SecrecyResult:
    """Secrecy capacity of the real Gaussian wiretap channel (1/2-log form)."""
    _check_positive("p", p)
    raw = 0.5 * _log2_1p(p / noise.n_m) - 0.5 * _log2_1p(p / noise.n_w)
    return SecrecyResult.from_raw(raw)


def fading_secrecy(p: float, n0: float, h_ab: float, h_ae: float) -> SecrecyResult:
    """Secrecy capacity in bits/s/Hz for fading amplitude coefficients.

    The amplitudes are squared into power gains, so the sign of the result
    follows the sign of |h_ab| - |h_ae|.
    """
    _check_positive("p", p)
    _check_positive("n0", n0)
    for name, v in (("h_ab", h_ab), ("h_ae", h_ae)):
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be >= 0, got {v!r}")
    return SecrecyResult.from_raw(_fading_raw(p, n0, h_ab, h_ae))


def geometric_secrecy(p: float, n0: float, geom: LinkGeometry, alpha: float) -> SecrecyResult:
    """Secrecy capacity with pure path-loss coefficients d^-alpha and r^-alpha.

    Positive exactly when the legitimate pair is closer than the
    eavesdropper (d < r).
    """
    _check_positive("p", p)
    _check_positive("n0", n0)
    _check_positive("alpha", alpha)
    return SecrecyResult.from_raw(_geometric_raw(p, n0, geom.d, geom.r, alpha))


def velocity_secrecy(
    p: float, n0: float, v: float, tau: float, r: float, alpha: float
) -> SecrecyResult:
    """Secrecy capacity as a function of host speed, with separation d = v*tau.

    v must be strictly positive: a stationary host gives d = 0, the
    singular point of the path-loss model.
    """
    _check_positive("v", v)
    _check_positive("tau", tau)
    return geometric_secrecy(p, n0, LinkGeometry(r=r, d=v * tau), alpha)


def relay_secrecy(cfg: RelayConfig) -> SecrecyResult:
    """Secrecy capacity in bits/s of the relay model, scaled by bandwidth w.

    The relay's transmission enters both receivers as interference; its
    gains are power-domain and are used unsquared. With p_r = 0 and w = 1
    this reduces to the direct fading formula on power gains.
    """
    raw = _relay_raw(
        cfg.p_a, cfg.p_r, cfg.h_ab, cfg.h_rb, cfg.h_ae, cfg.h_re, cfg.sigma_b2, cfg.sigma_e2, cfg.w
    )
    return SecrecyResult(raw, max(0.0, raw))
