"""Vehicle dynamics to inter-vehicle separation.

Internal units are SI throughout (m, s, m/s); km/h exists only at the
CLI boundary via the conversion helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "VehicleState",
    "safety_distance_full",
    "kmh_to_ms",
    "ms_to_kmh",
]


@dataclass(frozen=True)
class VehicleState:
    """Speed and usable braking deceleration of one vehicle."""

    speed: float
    accel: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed) and self.speed >= 0):
            raise ValueError(f"speed must be >= 0, got {self.speed!r}")
        if not (math.isfinite(self.accel) and self.accel > 0):
            raise ValueError(f"accel must be > 0, got {self.accel!r}")


def safety_distance_full(host: VehicleState, target: VehicleState, tau: float) -> float:
    """Separation in m that prevents a rear-end collision between host and target.

    May be negative when the target out-brakes the host; the raw value is
    returned and callers decide how to clamp. With equal vehicles it
    reduces to the cruise separation v*tau, the d = v*tau of the secrecy
    formulas.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be > 0, got {tau!r}")
    return (
        host.speed * tau
        + host.speed * host.speed / (2.0 * host.accel)
        - target.speed * target.speed / (2.0 * target.accel)
    )


def kmh_to_ms(v: float) -> float:
    """km/h to m/s."""
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"v must be >= 0, got {v!r}")
    return v / 3.6


def ms_to_kmh(v: float) -> float:
    """m/s to km/h."""
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"v must be >= 0, got {v!r}")
    return v * 3.6
