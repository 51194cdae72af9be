"""Parameter sweeps and deterministic CSV emission.

Reproduces the figure-style datasets at desk scale: capacity vs speed,
power ratio, cruise constant or path-loss exponent, the relay on/off
comparison, the ergodic-vs-AWGN comparison, and the cipher demo. Output
is plain CSV with LF line endings; re-runs with the same inputs are
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import PowerBudget, awgn_capacity, db_to_linear
from . import csenc
# encrypt stays importable from here: perfbench's tracer wraps it by this name
from .csenc import CsKey, decrypt, encrypt, random_sparse_signal  # noqa: F401
from .ergodic import DEFAULT_SEED, ErgodicSpec, ergodic_secrecy
from .kinematics import ms_to_kmh
from .secrecy import (
    LinkGeometry,
    RelayConfig,
    fading_secrecy,
    geometric_secrecy,
    relay_secrecy,
    velocity_secrecy,
)

__all__ = [
    "SWEEP_HEADER",
    "RELAY_COMPARE_HEADER",
    "ERGODIC_COMPARE_HEADER",
    "CS_DEMO_HEADER",
    "SweepSpec",
    "SweepRow",
    "SweepError",
    "SweepOrderingError",
    "SweepFormatError",
    "fmt_num",
    "axis_points",
    "run_sweep",
    "check_sweep_orderings",
    "rows_to_csv",
    "read_sweep_csv",
    "run_relay_compare",
    "run_ergodic_compare",
    "run_cs_demo",
]

SWEEP_HEADER = "axis,axis_value,v_mps,v_kmh,alpha,tau_s,r_m,pn0_db,cs_raw,cs_clamped,variant"
RELAY_COMPARE_HEADER = (
    "axis,axis_value,p_a,p_r,h_ab,h_rb,h_ae,h_re,sigma_b2,sigma_e2,w,"
    "cs_on_raw,cs_on_clamped,cs_off_raw,cs_off_clamped"
)
ERGODIC_COMPARE_HEADER = (
    "p_db,p_linear,awgn_capacity,ergodic_capacity,ci_halfwidth,"
    "achieved_avg_power,n_samples,seed"
)
CS_DEMO_HEADER = "arm,n,m,k,trials,successes,success_rate,mean_rel_error"

AXES = ("speed", "power_db", "tau", "alpha")
VARIANT_VTAU = "vtau"
VARIANT_THETA = "theta"

DEFAULT_SPEED_MPS = 80.0 / 3.6  # the most-swept operating point, 80 km/h


class SweepError(ValueError):
    """Invalid sweep specification, including a bad point on the axis."""


class SweepOrderingError(RuntimeError):
    """A computed table violated its expected monotone ordering."""


class SweepFormatError(ValueError):
    """CSV text does not conform to the sweep table contract."""


def fmt_num(x: float) -> str:
    """Numeric cell: up to 6 significant digits, no negative zero."""
    if x == 0:
        x = 0.0
    return f"{x:.6g}"


@dataclass(frozen=True)
class SweepSpec:
    """One curve: a swept axis over [start, stop] plus fixed parameters."""

    axis: str
    start: float
    stop: float
    step: float
    r: float = 1000.0
    alpha: float = 1.4
    tau: float = 0.2
    pn0_db: float = 70.0
    v_mps: float = DEFAULT_SPEED_MPS
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise SweepError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise SweepError(f"step must be > 0, got {self.step!r}")
        if self.stop < self.start:
            raise SweepError(f"empty range [{self.start!r}, {self.stop!r}]")
        if self.theta is not None and self.axis != "speed":
            raise SweepError("theta variant applies to the speed axis only")


@dataclass(frozen=True)
class SweepRow:
    axis: str
    axis_value: float
    v_mps: float
    v_kmh: float
    alpha: float
    tau_s: float
    r_m: float
    pn0_db: float
    cs_raw: float
    cs_clamped: float
    variant: str

    def to_csv(self) -> str:
        return ",".join(
            (
                self.axis,
                fmt_num(self.axis_value),
                fmt_num(self.v_mps),
                fmt_num(self.v_kmh),
                fmt_num(self.alpha),
                fmt_num(self.tau_s),
                fmt_num(self.r_m),
                fmt_num(self.pn0_db),
                fmt_num(self.cs_raw),
                fmt_num(self.cs_clamped),
                self.variant,
            )
        )


def axis_points(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid start, start+step, ... capped at stop."""
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def _row_for_point(spec: SweepSpec, value: float) -> SweepRow:
    v = value if spec.axis == "speed" else spec.v_mps
    alpha = value if spec.axis == "alpha" else spec.alpha
    tau = value if spec.axis == "tau" else spec.tau
    pn0_db = value if spec.axis == "power_db" else spec.pn0_db
    try:
        res = velocity_secrecy(db_to_linear(pn0_db), 1.0, v, tau, spec.r, alpha)
    except ValueError as exc:
        raise SweepError(f"axis point {spec.axis}={fmt_num(value)}: {exc}") from None
    return SweepRow(
        axis=spec.axis,
        axis_value=value,
        v_mps=v,
        v_kmh=ms_to_kmh(v),
        alpha=alpha,
        tau_s=tau,
        r_m=spec.r,
        pn0_db=pn0_db,
        cs_raw=res.raw,
        cs_clamped=res.clamped,
        variant=VARIANT_VTAU,
    )


def _theta_row_for_point(spec: SweepSpec, v: float) -> SweepRow:
    try:
        res = geometric_secrecy(
            db_to_linear(spec.pn0_db), 1.0, LinkGeometry(r=spec.r, theta=spec.theta), spec.alpha
        )
    except ValueError as exc:
        raise SweepError(f"axis point speed={fmt_num(v)}: {exc}") from None
    return SweepRow(
        axis=spec.axis,
        axis_value=v,
        v_mps=v,
        v_kmh=ms_to_kmh(v),
        alpha=spec.alpha,
        tau_s=spec.tau,
        r_m=spec.r,
        pn0_db=spec.pn0_db,
        cs_raw=res.raw,
        cs_clamped=res.clamped,
        variant=VARIANT_THETA,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Rows for one curve in ascending axis order.

    For the speed axis with ``theta`` set, a second block of rows follows
    in which the separation is fixed by the angle instead of d = v*tau;
    the ``variant`` column tells the blocks apart.
    """
    points = axis_points(spec.start, spec.stop, spec.step)
    rows = [_row_for_point(spec, value) for value in points]
    if spec.theta is not None:
        rows.extend(_theta_row_for_point(spec, v) for v in points)
    return rows


def check_sweep_orderings(spec: SweepSpec, rows: list[SweepRow]) -> None:
    """Assert the monotone orderings that hold while v*tau < r.

    Raw capacity must fall strictly with speed and with tau, and rise
    strictly with power. The path-loss exponent has no asserted direction,
    and the fixed-angle variant rows are constant by construction.
    """
    direction = {"speed": -1, "tau": -1, "power_db": +1, "alpha": 0}[spec.axis]
    if direction == 0:
        return
    curve = [row for row in rows if row.variant == VARIANT_VTAU]
    for prev, cur in zip(curve, curve[1:]):
        if prev.v_mps * prev.tau_s >= prev.r_m or cur.v_mps * cur.tau_s >= cur.r_m:
            continue
        delta = cur.cs_raw - prev.cs_raw
        if direction * delta <= 0:
            raise SweepOrderingError(
                f"{spec.axis} ordering violated between "
                f"{fmt_num(prev.axis_value)} and {fmt_num(cur.axis_value)}: "
                f"raw {prev.cs_raw!r} -> {cur.cs_raw!r}"
            )


def rows_to_csv(rows: list[SweepRow]) -> str:
    return "\n".join([SWEEP_HEADER] + [row.to_csv() for row in rows]) + "\n"


def read_sweep_csv(text: str) -> list[SweepRow]:
    """Strict parser for the sweep table; re-encoding its output is byte-identical."""
    lines = text.split("\n")
    if not lines or lines[0] != SWEEP_HEADER:
        raise SweepFormatError(f"bad header: {lines[0] if lines else ''!r}")
    if lines[-1] != "":
        raise SweepFormatError("missing trailing newline")
    rows = []
    for i, line in enumerate(lines[1:-1], start=2):
        parts = line.split(",")
        if len(parts) != 11:
            raise SweepFormatError(f"line {i}: expected 11 fields, got {len(parts)}")
        axis, *numeric, variant = parts
        if axis not in AXES:
            raise SweepFormatError(f"line {i}: unknown axis {axis!r}")
        if variant not in (VARIANT_VTAU, VARIANT_THETA):
            raise SweepFormatError(f"line {i}: unknown variant {variant!r}")
        try:
            values = [float(p) for p in numeric]
        except ValueError as exc:
            raise SweepFormatError(f"line {i}: {exc}") from None
        rows.append(SweepRow(axis, *values, variant))
    return rows


def run_relay_compare(
    axis: str,
    start: float,
    stop: float,
    step: float,
    base: RelayConfig,
) -> list[str]:
    """Paired with-relay / relay-off rows over host power (dB) or relay power.

    ``axis`` is ``pa_db`` (sweeps p_a in dB over sigma_b2) or ``pr``
    (sweeps p_r linearly). Returns formatted CSV lines including header.
    """
    if axis not in ("pa_db", "pr"):
        raise SweepError(f"axis must be pa_db or pr, got {axis!r}")
    if not (math.isfinite(step) and step > 0) or stop < start:
        raise SweepError(f"bad range [{start!r}, {stop!r}] step {step!r}")
    lines = [RELAY_COMPARE_HEADER]
    for value in axis_points(start, stop, step):
        try:
            if axis == "pa_db":
                cfg = replace(base, p_a=base.sigma_b2 * db_to_linear(value))
            else:
                cfg = replace(base, p_r=value)
        except ValueError as exc:
            raise SweepError(f"axis point {axis}={fmt_num(value)}: {exc}") from None
        on = relay_secrecy(cfg)
        off = relay_secrecy(replace(cfg, p_r=0.0))
        if cfg.sigma_b2 == cfg.sigma_e2:
            # relay-off must reduce to the direct fading formula; the sqrt
            # round-trip perturbs the gains by ~1 ulp, hence the abs floor
            direct = cfg.w * fading_secrecy(
                cfg.p_a, cfg.sigma_b2, math.sqrt(cfg.h_ab), math.sqrt(cfg.h_ae)
            ).raw
            if abs(off.raw - direct) > 1e-9 + 1e-12 * abs(direct):
                raise SweepOrderingError(
                    f"relay-off arm {off.raw!r} deviates from the direct formula "
                    f"{direct!r} at {axis}={fmt_num(value)}"
                )
        lines.append(
            ",".join(
                (
                    axis,
                    fmt_num(value),
                    fmt_num(cfg.p_a),
                    fmt_num(cfg.p_r),
                    fmt_num(cfg.h_ab),
                    fmt_num(cfg.h_rb),
                    fmt_num(cfg.h_ae),
                    fmt_num(cfg.h_re),
                    fmt_num(cfg.sigma_b2),
                    fmt_num(cfg.sigma_e2),
                    fmt_num(cfg.w),
                    fmt_num(on.raw),
                    fmt_num(on.clamped),
                    fmt_num(off.raw),
                    fmt_num(off.clamped),
                )
            )
        )
    return lines


def run_ergodic_compare(
    p_dbs: list[float],
    legit_fading,
    eaves_fading=None,
    sigma_b2: float = 1.0,
    sigma_e2: float = 1.0,
    n_samples: int = 100_000,
    seed: int | None = None,
) -> list[str]:
    """AWGN capacity next to the ergodic estimate per average-power point.

    Raises :class:`SweepOrderingError` if any estimate exceeds the AWGN
    capacity by more than its confidence halfwidth.
    """
    if seed is None:
        seed = DEFAULT_SEED
    lines = [ERGODIC_COMPARE_HEADER]
    for p_db in p_dbs:
        p = db_to_linear(p_db)
        spec = ErgodicSpec(
            legit_fading=legit_fading,
            p_budget=p,
            eaves_fading=eaves_fading,
            sigma_b2=sigma_b2,
            sigma_e2=sigma_e2,
            n_samples=n_samples,
            seed=seed,
        )
        result = ergodic_secrecy(spec)
        awgn = awgn_capacity(PowerBudget(p_linear=p, n0_linear=sigma_b2), 1.0)
        if awgn < result.capacity - result.ci_halfwidth:
            raise SweepOrderingError(
                f"ergodic estimate {result.capacity!r} exceeds AWGN {awgn!r} "
                f"beyond CI at {fmt_num(p_db)} dB"
            )
        lines.append(
            ",".join(
                (
                    fmt_num(p_db),
                    fmt_num(p),
                    fmt_num(awgn),
                    fmt_num(result.capacity),
                    fmt_num(result.ci_halfwidth),
                    fmt_num(result.achieved_avg_power),
                    str(n_samples),
                    str(seed),
                )
            )
        )
    return lines


def run_cs_demo(n: int, m: int, k: int, trials: int, seed: int) -> list[str]:
    """Correct-key and wrong-key recovery statistics over seeded trials."""
    if trials < 1:
        raise SweepError(f"trials must be >= 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    stats = {"correct_key": [0, 0.0], "wrong_key": [0, 0.0]}
    for t in range(trials):
        key = CsKey(seed=(seed + 2 * t) % 2**64, n=n, m=m)
        wrong = CsKey(seed=(seed + 2 * t + 1) % 2**64, n=n, m=m)
        x = random_sparse_signal(n, k, rng)
        phi = csenc.keygen(key)  # y = encrypt(x, key) without a second keygen
        y = phi @ x.values
        recovered = {"correct_key": csenc.omp(phi, y, k)}
        del phi  # one key matrix alive at a time
        recovered["wrong_key"] = decrypt(y, wrong, k)
        xnorm = float(np.linalg.norm(x.values))
        for arm, signal in recovered.items():
            rel = float(np.linalg.norm(signal.values - x.values)) / xnorm
            stats[arm][0] += rel < 1e-6
            stats[arm][1] += rel
    lines = [CS_DEMO_HEADER]
    for arm in ("correct_key", "wrong_key"):
        successes, rel_sum = stats[arm]
        lines.append(
            ",".join(
                (
                    arm,
                    str(n),
                    str(m),
                    str(k),
                    str(trials),
                    str(successes),
                    fmt_num(successes / trials),
                    fmt_num(rel_sum / trials),
                )
            )
        )
    return lines
