"""Secrecy-capacity formulas for the V2V wiretap geometry.

Every operation returns a :class:`SecrecyResult` carrying both the raw
formula value (which can be negative when the eavesdropper's channel is
the stronger one) and its nonnegative clamp. Sweeps plot the raw value;
protocol decisions use the clamped one.

The fading, geometric and relay formulas live once, in the private
float-level helpers ``_fading_raw``, ``_geometric_raw`` and
``_relay_raw``. The public functions validate their inputs and return
through them. ``_velocity_raw`` owns the velocity rule: one guard, then
``_geometric_raw`` or the first failing field's error. It serves
``velocity_secrecy``, protocol's ``decide`` and each point of a sweep
curve that ``_velocity_curve`` cannot evaluate. ``_relay_raw`` serves
protocol's relay-power search; it and ``_fading_raw`` hold inputs that
``RelayConfig`` accepts. The sweep engine evaluates whole curves and
tables through ``_velocity_curve``, ``_relay_rows`` and ``_fading_rows``,
which compute each term once while its inputs stay fixed and follow the
helpers' operation order. So a sweep cell, a decision's capacity or a
relay-power probe and the public function agree bit for bit.
"""

from __future__ import annotations

import math
from itertools import repeat
from math import log1p
from typing import NamedTuple

from ._common import ValidatedRecord, instance, real

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
    """Raw secrecy capacity at speed v, with separation d = v*tau, on plain floats.

    When all six inputs, real numbers, and d are positive and finite this
    is ``_geometric_raw(p, n0, v * tau, r, alpha)``. Otherwise the first of
    v, tau, r, d, p, n0, alpha that is not raises its ``real`` error.
    """
    d = v * tau
    if not (0.0 < p < _INF and 0.0 < n0 < _INF and 0.0 < v < _INF and 0.0 < tau < _INF
            and 0.0 < r < _INF and 0.0 < alpha < _INF and 0.0 < d < _INF):
        for name, value in zip("v tau r d p n0 alpha".split(), (v, tau, r, d, p, n0, alpha)):
            real(name, value, "positive and finite")
    return _geometric_raw(p, n0, d, r, alpha)


def _each(x):
    """The values of x per point of a curve: x itself if it is a list, else x repeated."""
    return x if type(x) is list else repeat(x)


def _varies(*xs) -> bool:
    return any(type(x) is list for x in xs)


def _positive_finite(x) -> bool:
    """0 < x < inf for a float, or for every value of a list.

    For a list, ``min`` finds a value <= 0 unless a nan hides it, and the
    sum of values above 0 stays below inf only if none is inf or nan. A
    list whose finite sum overflows reads False too; the caller then takes
    the exact per-point path.
    """
    if type(x) is list:
        return not x or (0.0 < min(x) and sum(x) < _INF)
    return 0.0 < x < _INF


def _velocity_curve(p, n0: float, v, tau, r: float, alpha, out: list) -> None:
    """Append ``_velocity_raw(p, n0, v, tau, r, alpha)`` at each point of a curve to ``out``.

    Each of p, v, tau and alpha is a float, fixed along the curve, or a
    list of one value per point; the lists have one length, and there is
    at least one. A term is computed once while its inputs stay fixed and
    per point where they vary: d = v*tau, the exponent 2*alpha, and the
    eavesdropper term log2(1 + p/(n0*r**(2*alpha))), which varies only
    with p or alpha. Every value follows ``_geometric_raw``'s operation
    order, so it equals ``_velocity_raw``'s bit for bit. If the guard or a
    float-range check refuses any point, every point goes through
    ``_velocity_raw`` instead, which raises the first refused point's
    error with ``out`` ending at the point before it.
    """
    try:
        if (_positive_finite(p) and 0.0 < n0 < _INF and _positive_finite(v)
                and _positive_finite(tau) and 0.0 < r < _INF and _positive_finite(alpha)):
            d = [v * tau for v, tau in zip(_each(v), _each(tau))] if _varies(v, tau) else v * tau
            if _positive_finite(d):
                exp = [2.0 * alpha for alpha in alpha] if _varies(alpha) else 2.0 * alpha
                if _varies(p, exp):
                    eaves = [log1p(p / (n0 * r**exp)) / _LN2
                             for p, exp in zip(_each(p), _each(exp))]
                else:
                    eaves = _log2_1p(p / (n0 * r**exp))
                raws = [log1p(p / (n0 * d**exp)) / _LN2 - eaves
                        for p, d, exp, eaves in zip(_each(p), _each(d), _each(exp), _each(eaves))]
                # a finite raw lies within +-1024 (log2 of the largest double),
                # so the sum is finite exactly when every raw is
                if -_INF < sum(raws) < _INF:
                    out += raws
                    return
    except (OverflowError, ZeroDivisionError):
        pass  # a path-loss power, or an SNR quotient's divisor, left the float range
    points = zip(_each(p), _each(v), _each(tau), _each(alpha))
    out.extend(_velocity_raw(p, n0, v, tau, r, alpha) for p, v, tau, alpha in points)


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


def _relay_rows(
    p_a, p_r, h_ab: float, h_rb: float, h_ae: float, h_re: float, sigma_b2: float,
    sigma_e2: float, w: float,
) -> tuple:
    """``_relay_raw`` with the relay on, and off (p_r = 0), per row of a power sweep.

    p_a and p_r are each a float, fixed along the table, or a list of one
    value per row, and every value is one :class:`RelayConfig` accepts. A
    term is computed once while its inputs stay fixed: the denominators
    p_r*h + sigma^2 once per table unless p_r varies, and the relay-off
    arm once unless p_a varies. Every value follows ``_relay_raw``'s
    operation order, so it equals ``_relay_raw``'s bit for bit. Returns
    each arm as a list per row, or as one float where it is fixed.
    """

    def arm(p_r):
        if _varies(p_r):
            den_b = [p_r * h_rb + sigma_b2 for p_r in p_r]
            den_e = [p_r * h_re + sigma_e2 for p_r in p_r]
        else:
            den_b, den_e = p_r * h_rb + sigma_b2, p_r * h_re + sigma_e2
        if not _varies(p_a, den_b):
            return _relay_raw(p_a, p_r, h_ab, h_rb, h_ae, h_re, sigma_b2, sigma_e2, w)
        return [w * (log1p(p_a * h_ab / den_b) / _LN2 - log1p(p_a * h_ae / den_e) / _LN2)
                for p_a, den_b, den_e in zip(_each(p_a), _each(den_b), _each(den_e))]

    return arm(p_r), arm(0.0)


def _fading_rows(p, n0: float, h_ab: float, h_ae: float, w: float):
    """``w * _fading_raw(p, n0, h_ab, h_ae)`` per row where p is a list, else one float.

    Each amplitude is squared once, and each value follows the operation
    order of ``w * _fading_raw(...)``, so it equals that bit for bit.
    """
    g_ab, g_ae = h_ab * h_ab, h_ae * h_ae
    if not _varies(p):
        return w * (_log2_1p(p * g_ab / n0) - _log2_1p(p * g_ae / n0))
    return [w * (log1p(p * g_ab / n0) / _LN2 - log1p(p * g_ae / n0) / _LN2) for p in p]


class SecrecyResult(NamedTuple):
    """Raw secrecy capacity and its clamp at zero, in the caller's rate unit."""

    raw: float
    clamped: float

    @classmethod
    def from_raw(cls, raw: float) -> "SecrecyResult":
        return cls(raw=raw, clamped=max(0.0, raw))


class _WiretapNoise(NamedTuple):
    n_m: float
    n_w: float


class WiretapNoise(ValidatedRecord, _WiretapNoise):
    """Noise variances at the legitimate receiver and at the eavesdropper."""

    __slots__ = ()

    def _check(self) -> tuple:
        return (real("n_m", self.n_m, "positive and finite"),
                real("n_w", self.n_w, "positive and finite"))


class _LinkGeometry(NamedTuple):
    r: float
    theta: float | None = None
    d: float | None = None


class LinkGeometry(ValidatedRecord, _LinkGeometry):
    """Host/target/eavesdropper placement: r to the eavesdropper, d = r*theta
    between the legitimate pair.

    Exactly one of ``theta`` and ``d`` may be omitted; ``_check`` derives
    the other. When both are given they must satisfy d = r*theta. All
    three are stored as floats.
    """

    __slots__ = ()

    def _check(self) -> tuple:
        r, theta, d = self
        r = real("r", r, "positive and finite")
        if theta is None and d is None:
            raise ValueError("one of theta or d is required")
        if theta is not None:
            theta = real("theta", theta, "positive and finite")
        if d is None:
            return r, theta, r * theta
        d = real("d", d, "positive and finite")
        if theta is None:
            return r, d / r, d
        expect = r * theta
        if abs(d - expect) > 1e-9 * max(abs(d), abs(expect)):
            raise ValueError(f"inconsistent geometry: d={d!r} but r*theta={expect!r}")
        return r, theta, d


class _RelayConfig(NamedTuple):
    p_a: float
    p_r: float
    h_ab: float
    h_rb: float
    h_ae: float
    h_re: float
    sigma_b2: float
    sigma_e2: float
    w: float = 1.0


class RelayConfig(ValidatedRecord, _RelayConfig):
    """Powers, power-domain channel gains, and noises of the four-link relay model."""

    __slots__ = ()

    def _check(self) -> tuple:
        return tuple(real(name, value, "positive and finite"
                          if name in ("p_a", "sigma_b2", "sigma_e2", "w") else ">= 0")
                     for name, value in zip(self._fields, self))


def gaussian_wiretap(p: float, noise: WiretapNoise) -> SecrecyResult:
    """Secrecy capacity of the real Gaussian wiretap channel (1/2-log form)."""
    p = real("p", p, "positive and finite")
    instance("noise", noise, WiretapNoise)
    raw = 0.5 * _log2_1p(p / noise.n_m) - 0.5 * _log2_1p(p / noise.n_w)
    return SecrecyResult.from_raw(raw)


def fading_secrecy(p: float, n0: float, h_ab: float, h_ae: float) -> SecrecyResult:
    """Secrecy capacity in bits/s/Hz for fading amplitude coefficients.

    The amplitudes are squared into power gains, so the sign of the result
    follows the sign of |h_ab| - |h_ae|.
    """
    p, n0 = real("p", p, "positive and finite"), real("n0", n0, "positive and finite")
    h_ab, h_ae = real("h_ab", h_ab, ">= 0"), real("h_ae", h_ae, ">= 0")
    return SecrecyResult.from_raw(_fading_raw(p, n0, h_ab, h_ae))


def geometric_secrecy(p: float, n0: float, geom: LinkGeometry, alpha: float) -> SecrecyResult:
    """Secrecy capacity with pure path-loss coefficients d^-alpha and r^-alpha.

    Positive exactly when the legitimate pair is closer than the
    eavesdropper (d < r).
    """
    p, n0, alpha = (real(name, value, "positive and finite")
                    for name, value in (("p", p), ("n0", n0), ("alpha", alpha)))
    instance("geom", geom, LinkGeometry)
    return SecrecyResult.from_raw(_geometric_raw(p, n0, geom.d, geom.r, alpha))


def velocity_secrecy(
    p: float, n0: float, v: float, tau: float, r: float, alpha: float
) -> SecrecyResult:
    """Secrecy capacity as a function of host speed, with separation d = v*tau.

    v must be strictly positive: a stationary host gives d = 0, the
    singular point of the path-loss model.
    """
    # the types first, as _velocity_raw's guard compares real numbers; it checks the ranges
    p, n0, v, tau, r, alpha = (real(name, value, None) for name, value in zip(
        ("p", "n0", "v", "tau", "r", "alpha"), (p, n0, v, tau, r, alpha)))
    return SecrecyResult.from_raw(_velocity_raw(p, n0, v, tau, r, alpha))


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
