"""Pieces shared by the workloads: the interface, the pass result and a formula."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class PassResult:
    """One pass: per-operation latencies plus the output check's verdict.

    ``ops`` counts the unit ``ops_per_s`` reports (estimates, CSI lines,
    table rows, cipher trials); ``failed`` counts the same unit.
    ``outputs`` is compared between replays of the same inputs.
    ``slowdown`` is set by the caller from the calibration around the pass.
    """

    latencies_ns: list[int]
    ops: int
    failed: int
    outputs: object
    slowdown: float = 1.0


class BaseWorkload:
    """A workload with no one-off loading and no check over the whole run.

    Subclasses build ``inputs(index)`` from the seed alone and ``run`` one
    pass over them. ``setup_code`` is what a fresh interpreter runs after
    ``import v2vsec`` to get ready, matching ``load``.
    """

    setup_code = ""

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed

    def load(self) -> None:
        pass

    def verdict(self) -> bool:
        return True


def closed_form_secrecy(p: float, n0: float, d: float, r: float, alpha: float) -> float:
    """Raw geometric secrecy capacity, evaluated apart from ``v2vsec.secrecy``."""
    exp = 2.0 * alpha
    return math.log2(1.0 + p / (n0 * d**exp)) - math.log2(1.0 + p / (n0 * r**exp))


def close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)
