"""Parameter sweeps and deterministic CSV emission.

Reproduces the figure-style datasets at desk scale: capacity vs speed,
power ratio, cruise constant or path-loss exponent, the relay on/off
comparison, the ergodic-vs-AWGN comparison, and the cipher demo. Output
is plain CSV with LF line endings; re-runs with the same inputs are
byte-identical.

The sweep and relay-compare tables are evaluated on plain Python floats
through the private formula helpers in :mod:`v2vsec.secrecy`, the same
ones the public functions return through, so every cell equals the
public function's value bit for bit. A sweep point takes one path:
``_velocity_raw``, whose guard hands a bad point to ``velocity_secrecy``
for its error. A relay-compare point passes one positive-and-finite
guard on the swept power, and one that fails goes through
``RelayConfig``'s checks. Either error names the field and is reported
as ``axis point <axis>=<value>: ...``. Rows are
:class:`SweepRow` named tuples, and each CSV line is one ``%``-format
string with fmt_num's ``%.6g`` per numeric cell.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import PowerBudget, awgn_capacity, db_to_linear
from . import csenc
from ._common import ComputationError, fmt_num
# encrypt stays importable from here: perfbench's tracer wraps it by this name
from .csenc import CsKey, decrypt, encrypt, random_sparse_signal  # noqa: F401
from .ergodic import DEFAULT_SEED, ErgodicSpec, draw_channel_states, estimate_on_states
from .secrecy import (
    LinkGeometry,
    RelayConfig,
    _fading_raw,
    _relay_raw,
    _velocity_raw,
    geometric_secrecy,
    relay_secrecy,  # noqa: F401  no longer called here; perfbench's tracer wraps it by this name
    velocity_secrecy,  # noqa: F401  not called here; perfbench's tracer wraps it by this name
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


class SweepOrderingError(ComputationError):
    """A computed table violated its expected monotone ordering."""


class SweepFormatError(ValueError):
    """CSV text does not conform to the sweep table contract."""


def _point_count(start: float, stop: float, step: float) -> int:
    """Number of points of the inclusive grid over [start, stop] in steps of step.

    The one range rule for every axis: a positive finite step, a finite
    non-empty range and a finite point count, else :class:`SweepError`.
    """
    if not (math.isfinite(step) and step > 0):
        raise SweepError(f"step must be > 0, got {step!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise SweepError(f"range [{start!r}, {stop!r}] must be finite")
    if stop < start:
        raise SweepError(f"empty range [{start!r}, {stop!r}]")
    spans = (stop - start) / step
    if not math.isfinite(spans):
        raise SweepError(
            f"range [{start!r}, {stop!r}] with step {step!r} has no finite point count"
        )
    return int(math.floor(spans + 1e-9)) + 1


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
        _point_count(self.start, self.stop, self.step)
        if self.theta is not None and self.axis != "speed":
            raise SweepError("theta variant applies to the speed axis only")


# One sweep-table line: fmt_num's "%.6g" per numeric cell. Each number
# gets + 0.0 first, which turns a negative zero into 0 as fmt_num does.
_ROW_FORMAT = "%s" + ",%.6g" * 9 + ",%s"
# One relay-compare line; the seven channel cells that no axis sweeps are
# formatted once per table and enter as one "%s".
_RELAY_ROW_FORMAT = "%s,%.6g,%.6g,%.6g,%s,%.6g,%.6g,%.6g,%.6g"


def _csv_lines(rows: Iterable[SweepRow]) -> list[str]:
    """Sweep-table lines, one per 11-field row, without the header."""
    return [
        _ROW_FORMAT
        % (axis, x + 0.0, v + 0.0, kmh + 0.0, alpha + 0.0, tau + 0.0, r + 0.0, db + 0.0,
           raw + 0.0, clamped + 0.0, variant)
        for axis, x, v, kmh, alpha, tau, r, db, raw, clamped, variant in rows
    ]


class SweepRow(NamedTuple):
    """One sweep-table row, its fields in SWEEP_HEADER's order."""

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
        return _csv_lines((self,))[0]


def axis_points(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid start, start+step, ... capped at stop.

    Raises :class:`SweepError` for a range that ``_point_count`` refuses.
    """
    return [start + i * step for i in range(_point_count(start, stop, step))]


def _vtau_rows(spec: SweepSpec, points: list[float]) -> list[SweepRow]:
    """The d = v*tau rows, on plain floats through secrecy's own formula.

    Each point is ``_velocity_raw`` at p = ``db_to_linear(pn0_db)``. The
    error of a point either refuses (``_velocity_raw`` raises
    ``velocity_secrecy``'s) is reported with the axis point.
    """
    axis, r = spec.axis, spec.r

    def column(name: str, fixed: float) -> list[float]:
        return points if axis == name else [fixed] * len(points)

    rows = []
    for value, v, tau, alpha, pn0_db in zip(
        points, column("speed", spec.v_mps), column("tau", spec.tau),
        column("alpha", spec.alpha), column("power_db", spec.pn0_db),
    ):
        try:
            raw = _velocity_raw(db_to_linear(pn0_db), 1.0, v, tau, r, alpha)
        except ValueError as exc:
            raise SweepError(f"axis point {axis}={fmt_num(value)}: {exc}") from None
        # v * 3.6 is ms_to_kmh on a speed _velocity_raw has accepted
        rows.append(SweepRow(axis, value, v, v * 3.6, alpha, tau, r, pn0_db, raw,
                             max(0.0, raw), VARIANT_VTAU))
    return rows


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Rows for one curve in ascending axis order.

    For the speed axis with ``theta`` set, a second block of rows follows
    in which the separation is fixed by the angle instead of d = v*tau;
    the ``variant`` column tells the blocks apart. That capacity does not
    depend on speed, so it is evaluated once per curve.
    """
    points = axis_points(spec.start, spec.stop, spec.step)
    rows = _vtau_rows(spec, points)
    if spec.theta is not None:
        try:
            geometry = LinkGeometry(r=spec.r, theta=spec.theta)
            theta = geometric_secrecy(db_to_linear(spec.pn0_db), 1.0, geometry, spec.alpha)
        except ValueError as exc:
            raise SweepError(f"axis point speed={fmt_num(points[0])}: {exc}") from None
        # every speed passed the vtau block's guard, so v * 3.6 is ms_to_kmh
        fixed = (spec.alpha, spec.tau, spec.r, spec.pn0_db, theta.raw, theta.clamped)
        rows += [SweepRow("speed", v, v, v * 3.6, *fixed, VARIANT_THETA) for v in points]
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
    # Fields by position, in SWEEP_HEADER's order: 1 axis_value, 2 v_mps,
    # 5 tau_s, 6 r_m, 8 cs_raw, 10 variant; indexing reads them faster than
    # unpacking the whole row.
    prev = None  # the previous vtau row, if it lies inside r
    for row in rows:
        if row[10] != VARIANT_VTAU:
            continue
        if row[2] * row[5] >= row[6]:
            prev = None
            continue
        if prev is not None and direction * (row[8] - prev[8]) <= 0:
            raise SweepOrderingError(
                f"{spec.axis} ordering violated between "
                f"{fmt_num(prev[1])} and {fmt_num(row[1])}: "
                f"raw {prev[8]!r} -> {row[8]!r}"
            )
        prev = row


def rows_to_csv(rows: list[SweepRow]) -> str:
    return "\n".join([SWEEP_HEADER, *_csv_lines(rows), ""])


def read_sweep_csv(text: str) -> list[SweepRow]:
    """Parse a sweep table, checking its structure.

    The text must start with exactly ``SWEEP_HEADER``, end in one LF, and
    hold 11 comma-separated fields per line, with a known axis in the first
    and a known variant in the last. Each of the nine numeric cells may be
    any spelling ``float()`` accepts, such as ``1e3``, ``+3``, ``1_0``,
    ``nan``, ``inf`` or a number with surrounding spaces. Re-encoding the
    rows gives back the identical bytes for a table that
    :func:`rows_to_csv` wrote, not for every table this accepts.
    """
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
        if parts[0] not in AXES:
            raise SweepFormatError(f"line {i}: unknown axis {parts[0]!r}")
        if parts[10] not in (VARIANT_VTAU, VARIANT_THETA):
            raise SweepFormatError(f"line {i}: unknown variant {parts[10]!r}")
        try:
            parts[1:10] = map(float, parts[1:10])
        except ValueError as exc:
            raise SweepFormatError(f"line {i}: {exc}") from None
        rows.append(SweepRow._make(parts))
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
    ``base`` is a validated :class:`RelayConfig`, so only the swept powers
    are checked per point; a point that fails goes through
    ``dataclasses.replace``, whose checks name the field.
    """
    if axis not in ("pa_db", "pr"):
        raise SweepError(f"axis must be pa_db or pr, got {axis!r}")
    p_a, p_r = base.p_a, base.p_r
    gains = (base.h_ab, base.h_rb, base.h_ae, base.h_re)
    sigma_b2, sigma_e2, w = base.sigma_b2, base.sigma_e2, base.w
    fixed_cells = ",".join(fmt_num(x) for x in (*gains, sigma_b2, sigma_e2, w))
    # relay-off must reduce to the direct fading formula on amplitudes sqrt(h)
    direct_amplitudes = (math.sqrt(base.h_ab), math.sqrt(base.h_ae))
    inf = math.inf
    lines = [RELAY_COMPARE_HEADER]
    for value in axis_points(start, stop, step):
        try:
            if axis == "pa_db":
                p_a = sigma_b2 * 10.0 ** (value / 10.0)  # db_to_linear; the guard checks it
            else:
                p_r = value
            valid = 0 < p_a < inf and 0 <= p_r < inf
        except OverflowError:
            valid = False
        if not valid:
            try:
                if axis == "pa_db":
                    cfg = replace(base, p_a=sigma_b2 * db_to_linear(value))
                else:
                    cfg = replace(base, p_r=value)
            except ValueError as exc:
                raise SweepError(f"axis point {axis}={fmt_num(value)}: {exc}") from None
            p_a, p_r = cfg.p_a, cfg.p_r
        on = _relay_raw(p_a, p_r, *gains, sigma_b2, sigma_e2, w)
        off = _relay_raw(p_a, 0.0, *gains, sigma_b2, sigma_e2, w)
        if sigma_b2 == sigma_e2:
            # the sqrt round-trip perturbs the gains by ~1 ulp, hence the abs floor
            direct = w * _fading_raw(p_a, sigma_b2, *direct_amplitudes)
            if abs(off - direct) > 1e-9 + 1e-12 * abs(direct):
                raise SweepOrderingError(
                    f"relay-off arm {off!r} deviates from the direct formula "
                    f"{direct!r} at {axis}={fmt_num(value)}"
                )
        lines.append(
            _RELAY_ROW_FORMAT
            % (axis, value + 0.0, p_a + 0.0, p_r + 0.0, fixed_cells, on + 0.0,
               max(0.0, on) + 0.0, off + 0.0, max(0.0, off) + 0.0)
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

    Every point shares the seed, so the fading states are drawn once, at
    the first point, and each point estimates on them.

    Raises :class:`SweepOrderingError` if any estimate exceeds the AWGN
    capacity by more than its confidence halfwidth.
    """
    if seed is None:
        seed = DEFAULT_SEED
    lines = [ERGODIC_COMPARE_HEADER]
    states = None
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
        if states is None:
            states = draw_channel_states(spec)
        result = estimate_on_states(*states, p)
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
