"""Vehicle dynamics to inter-vehicle separation.

Internal units are SI throughout (m, s, m/s); km/h exists only at the
CLI boundary via the conversion helpers.
"""

from __future__ import annotations

from typing import NamedTuple

from ._common import ValidatedRecord, real

__all__ = [
    "VehicleState",
    "safety_distance_full",
    "kmh_to_ms",
    "ms_to_kmh",
]


class _VehicleState(NamedTuple):
    speed: float
    accel: float


class VehicleState(ValidatedRecord, _VehicleState):
    """Speed and usable braking deceleration of one vehicle."""

    __slots__ = ()

    def _check(self) -> tuple:
        return real("speed", self.speed, ">= 0"), real("accel", self.accel, "> 0")


def safety_distance_full(host: VehicleState, target: VehicleState, tau: float) -> float:
    """Separation in m that prevents a rear-end collision between host and target.

    May be negative when the target out-brakes the host; the raw value is
    returned and callers decide how to clamp. With equal vehicles it
    reduces to the cruise separation v*tau, the d = v*tau of the secrecy
    formulas.
    """
    real("tau", tau, "> 0")
    return (
        host.speed * tau
        + host.speed * host.speed / (2.0 * host.accel)
        - target.speed * target.speed / (2.0 * target.accel)
    )


def kmh_to_ms(v: float) -> float:
    """km/h to m/s."""
    return real("v", v, ">= 0") / 3.6


def ms_to_kmh(v: float) -> float:
    """m/s to km/h."""
    return real("v", v, ">= 0") * 3.6
