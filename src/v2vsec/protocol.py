"""Link-mode decision engine and the CSI wire codec.

A host ingests a CSI report, computes the speed-dependent secrecy
capacity of the direct link, compares it against a per-speed-band
threshold, and picks one of four modes: direct, relay-assisted,
power-boosted direct, or fallback to infrastructure.

Wire format (one message per line, UTF-8):

    CSI1|sender_id|seq|timestamp_ms|tx_power_dbm|rx_power_dbm|noise_floor_dbm|snr_db|speed_mps

Fields are '|'-separated; ``CSI1`` is the version tag. ``sender_id`` is
nonempty and holds neither '|' nor any character ``str.splitlines()``
breaks a line at (``LINE_BREAKS``), so a message is always one line.
``seq`` and ``timestamp_ms`` are ASCII digits only; the other numeric
fields are an optional '-', digits, and optionally a '.' radix point
followed by 1-4 digits. Nothing else is a number on the wire: no
exponent, sign '+', digit separator, surrounding whitespace, or nan/inf.

:class:`CsiMessage` and :class:`LinkDecision`, built once per direct
report, are immutable named tuples: besides field access they unpack,
index, and compare equal to tuples of equal values. ``CsiMessage``
validates in ``__new__``, which its ``_make`` and ``_replace`` go
through. The other records (schedules, relay candidates and selections,
link and protocol configuration) stay frozen dataclasses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .channel import PowerBudget, db_to_linear
from .secrecy import (
    _path_loss_range_error,
    _relay_raw,
    _velocity_raw,
    relay_secrecy,  # noqa: F401  no longer called here; perfbench's tracer wraps it by this name
    velocity_secrecy,  # noqa: F401  no longer called here; perfbench's tracer wraps it by this name
)

__all__ = [
    "CsiMessage",
    "CsiParseError",
    "CsiVersionError",
    "CsiMissingFieldError",
    "CsiMalformedFieldError",
    "CsiConsistencyError",
    "CsiSeqRegressionError",
    "StaleCsiError",
    "NoRelayError",
    "ThresholdSchedule",
    "RelayCandidate",
    "LinkScenario",
    "ProtocolConfig",
    "LinkDecision",
    "RelaySelection",
    "ProtocolSession",
    "DEFAULT_THRESHOLDS",
    "encode_csi",
    "parse_csi",
    "derive_threshold",
    "optimize_relay_power",
    "select_relay",
    "decide",
]

WIRE_VERSION = "CSI1"
_WIRE_FIELDS = 9
# Carried SNR may differ from rx - noise by at most this much (dB).
SNR_TOLERANCE_DB = 0.01
# Every character str.splitlines() breaks a line at; none may appear in a sender_id.
LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
# A well-formed line; one that fails to match is classified by parse_csi.
_DECIMAL = r"(-?[0-9]+(?:\.[0-9]{1,4})?)"
_SENDER = "([^|" + "".join(sorted(LINE_BREAKS)) + "]*)"
_WIRE_LINE = re.compile(
    rf"{WIRE_VERSION}\|{_SENDER}\|([0-9]+)\|([0-9]+)" + rf"\|{_DECIMAL}" * 5
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
COARSE_GRID_POINTS = 32


class CsiParseError(ValueError):
    """Base class for wire-format rejections."""


class CsiVersionError(CsiParseError):
    """Unknown version tag."""


class CsiMissingFieldError(CsiParseError):
    """Too few fields on the line."""


class CsiMalformedFieldError(CsiParseError):
    """A field failed to parse or violates a message invariant."""


class CsiConsistencyError(CsiParseError):
    """Carried SNR disagrees with rx - noise beyond tolerance."""


class CsiSeqRegressionError(CsiParseError):
    """Sequence number did not increase."""


class StaleCsiError(ValueError):
    """Message timestamp is older than the configured freshness window."""


class NoRelayError(ValueError):
    """Relay selection was invoked with no candidates."""


class _CsiFields(NamedTuple):
    sender_id: str
    seq: int
    timestamp_ms: int
    tx_power_dbm: float
    rx_power_dbm: float
    noise_floor_dbm: float
    snr_db: float
    speed_mps: float


class CsiMessage(_CsiFields):
    """One channel-state report; snr_db is always exactly rx - noise.

    An immutable named tuple whose ``__new__`` validates; ``_make`` and
    ``_replace`` go through it, so every construction path is checked.
    """

    __slots__ = ()

    def __new__(
        cls,
        sender_id: str,
        seq: int,
        timestamp_ms: int,
        tx_power_dbm: float,
        rx_power_dbm: float,
        noise_floor_dbm: float,
        snr_db: float,
        speed_mps: float,
    ) -> "CsiMessage":
        if not sender_id:
            raise ValueError("sender_id must be nonempty")
        if "|" in sender_id:
            raise ValueError(f"sender_id must not contain '|', got {sender_id!r}")
        if not LINE_BREAKS.isdisjoint(sender_id):
            raise ValueError(f"sender_id must not contain a line break, got {sender_id!r}")
        if seq < 0:
            raise ValueError(f"seq must be >= 0, got {seq!r}")
        if timestamp_ms < 0:
            raise ValueError(f"timestamp_ms must be >= 0, got {timestamp_ms!r}")
        if not (
            math.isfinite(tx_power_dbm)
            and math.isfinite(rx_power_dbm)
            and math.isfinite(noise_floor_dbm)
            and math.isfinite(snr_db)
        ):
            raise ValueError(
                f"power fields must be finite, got tx={tx_power_dbm!r} "
                f"rx={rx_power_dbm!r} noise={noise_floor_dbm!r} snr={snr_db!r}"
            )
        if snr_db != rx_power_dbm - noise_floor_dbm:
            raise ValueError(
                f"snr_db={snr_db!r} must equal rx - noise = "
                f"{rx_power_dbm - noise_floor_dbm!r}"
            )
        if not (math.isfinite(speed_mps) and speed_mps >= 0):
            raise ValueError(f"speed_mps must be >= 0, got {speed_mps!r}")
        return tuple.__new__(cls, (sender_id, seq, timestamp_ms, tx_power_dbm, rx_power_dbm,
                                   noise_floor_dbm, snr_db, speed_mps))

    @classmethod
    def _make(cls, iterable) -> "CsiMessage":
        return cls(*iterable)

    @classmethod
    def build(
        cls,
        sender_id: str,
        seq: int,
        timestamp_ms: int,
        tx_power_dbm: float,
        rx_power_dbm: float,
        noise_floor_dbm: float,
        speed_mps: float,
    ) -> "CsiMessage":
        """Construct with the SNR derived from the power fields."""
        return cls(
            sender_id=sender_id,
            seq=seq,
            timestamp_ms=timestamp_ms,
            tx_power_dbm=tx_power_dbm,
            rx_power_dbm=rx_power_dbm,
            noise_floor_dbm=noise_floor_dbm,
            snr_db=rx_power_dbm - noise_floor_dbm,
            speed_mps=speed_mps,
        )


def _fmt4(x: float) -> str:
    """Decimal with at most 4 fractional digits, trailing zeros trimmed."""
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def encode_csi(msg: CsiMessage) -> str:
    """One wire line for the message (no trailing newline)."""
    return "|".join(
        (
            WIRE_VERSION,
            msg.sender_id,
            str(msg.seq),
            str(msg.timestamp_ms),
            _fmt4(msg.tx_power_dbm),
            _fmt4(msg.rx_power_dbm),
            _fmt4(msg.noise_floor_dbm),
            _fmt4(msg.snr_db),
            _fmt4(msg.speed_mps),
        )
    )


def parse_csi(line: str) -> CsiMessage:
    """Parse one wire line, re-deriving the SNR from the power fields.

    The carried snr_db must agree with rx - noise to within 0.01 dB; the
    stored value is the recomputed one so the message invariant is exact.
    Sequence order is a property of a stream, checked by
    :class:`ProtocolSession`, through which the scenario loader checks too.
    """
    line = line.rstrip("\r\n")
    match = _WIRE_LINE.fullmatch(line)
    if match is None:
        parts = line.split("|")
        if len(parts) < _WIRE_FIELDS:
            raise CsiMissingFieldError(f"expected {_WIRE_FIELDS} fields, got {len(parts)}")
        if len(parts) > _WIRE_FIELDS:
            raise CsiMalformedFieldError(f"expected {_WIRE_FIELDS} fields, got {len(parts)}")
        if parts[0] != WIRE_VERSION:
            raise CsiVersionError(f"unknown version tag {parts[0]!r}")
        if not LINE_BREAKS.isdisjoint(parts[1]):
            raise CsiMalformedFieldError(f"sender_id holds a line break: {parts[1]!r}")
        raise CsiMalformedFieldError(f"numeric fields break the wire grammar: {parts[2:]!r}")
    sender_id, seq, timestamp_ms, tx, rx, noise, snr, speed = match.groups()
    try:
        seq, timestamp_ms = int(seq), int(timestamp_ms)
    except ValueError as exc:  # more digits than int() converts from text
        raise CsiMalformedFieldError(f"bad integer field: {exc}") from None
    tx, rx, noise, snr, speed = float(tx), float(rx), float(noise), float(snr), float(speed)
    if abs(snr - (rx - noise)) > SNR_TOLERANCE_DB:
        raise CsiConsistencyError(
            f"carried snr_db={snr!r} disagrees with rx - noise = {rx - noise!r}"
        )
    try:
        return CsiMessage(sender_id, seq, timestamp_ms, tx, rx, noise, rx - noise, speed)
    except ValueError as exc:
        raise CsiMalformedFieldError(str(exc)) from None


@dataclass(frozen=True)
class ThresholdSchedule:
    """Speed bands [low, high) mapped to secrecy-capacity thresholds.

    Bands must partition [0, inf) with no gap or overlap.
    """

    bands: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.bands:
            raise ValueError("schedule needs at least one band")
        expected_low = 0.0
        for i, (low, high, threshold) in enumerate(self.bands):
            if low != expected_low:
                raise ValueError(f"band {i} starts at {low!r}, expected {expected_low!r}")
            if not high > low:
                raise ValueError(f"band {i} is empty: [{low!r}, {high!r})")
            if not (math.isfinite(threshold) and threshold >= 0):
                raise ValueError(f"band {i} threshold must be >= 0, got {threshold!r}")
            expected_low = high
        if self.bands[-1][1] != math.inf:
            raise ValueError("last band must extend to infinity")


DEFAULT_THRESHOLDS = ThresholdSchedule(bands=((0.0, 25.0, 2.0), (25.0, math.inf, 1.0)))


def derive_threshold(speed: float, schedule: ThresholdSchedule) -> float:
    """Threshold of the unique band containing the speed."""
    if not (math.isfinite(speed) and speed >= 0):
        raise ValueError(f"speed must be >= 0, got {speed!r}")
    for low, high, threshold in schedule.bands:
        if low <= speed < high:
            return threshold
    raise AssertionError("schedule bands do not cover the speed axis")


@dataclass(frozen=True)
class RelayCandidate:
    """A relay node's power-domain gains toward target and eavesdropper."""

    relay_id: str
    h_rb: float
    h_re: float
    p_max: float

    def __post_init__(self) -> None:
        if not self.relay_id:
            raise ValueError("relay_id must be nonempty")
        for name in ("h_rb", "h_re"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be >= 0, got {v!r}")
        if not (math.isfinite(self.p_max) and self.p_max >= 0):
            raise ValueError(f"p_max must be >= 0, got {self.p_max!r}")


@dataclass(frozen=True)
class LinkScenario:
    """Static link parameters the decision engine needs besides the CSI."""

    r: float
    alpha: float
    tau: float
    budget: PowerBudget

    def __post_init__(self) -> None:
        for name in ("r", "alpha", "tau"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be > 0, got {v!r}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Thresholds, boost policy, relay candidates and strategy ordering."""

    thresholds: ThresholdSchedule = DEFAULT_THRESHOLDS
    boost_step_db: float = 2.0
    boost_cap_db: float = 10.0
    max_boost_iterations: int = 5
    relay_candidates: tuple[RelayCandidate, ...] = ()
    strategy_order: tuple[str, ...] = ("relay", "power_boost", "v2i_fallback")
    freshness_ms: float = 500.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.boost_step_db) and self.boost_step_db > 0):
            raise ValueError(f"boost_step_db must be > 0, got {self.boost_step_db!r}")
        if not (math.isfinite(self.boost_cap_db) and self.boost_cap_db >= 0):
            raise ValueError(f"boost_cap_db must be >= 0, got {self.boost_cap_db!r}")
        n = self.max_boost_iterations
        if isinstance(n, bool) or not hasattr(n, "__index__"):  # int, numpy integers
            raise ValueError(f"max_boost_iterations must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"max_boost_iterations must be >= 1, got {n!r}")
        valid = {"relay", "power_boost", "v2i_fallback"}
        if not self.strategy_order:
            raise ValueError("strategy_order must be nonempty")
        if len(set(self.strategy_order)) != len(self.strategy_order):
            raise ValueError("strategy_order must not repeat strategies")
        for s in self.strategy_order:
            if s not in valid:
                raise ValueError(f"unknown strategy {s!r}")
        if not (math.isfinite(self.freshness_ms) and self.freshness_ms > 0):
            raise ValueError(f"freshness_ms must be > 0, got {self.freshness_ms!r}")


class LinkDecision(NamedTuple):
    """Outcome of one protocol pass over a CSI message.

    ``mode`` is one of direct, relay, power_boost, v2i_fallback.
    ``cs_achieved`` is the clamped capacity that justified the mode (for
    v2i_fallback: the direct-link capacity that failed). ``boost_iterations``
    counts the 2-dB-style steps applied, nonzero only for power_boost.
    """

    mode: str
    cs_achieved: float
    threshold_used: float
    boost_iterations: int = 0
    relay_id: str | None = None
    relay_power: float | None = None
    new_power: float | None = None


@dataclass(frozen=True)
class RelaySelection:
    relay_id: str
    relay_power: float
    capacity: float


def _coarse_grid(p_max: float) -> list[float]:
    """``np.linspace(0.0, p_max, COARSE_GRID_POINTS)`` bit for bit, on plain floats.

    numpy scales ``i`` by the step p_max/(n-1), or by ``i/(n-1)`` then p_max
    when that step underflows to 0 (a subnormal p_max), and sets the last
    point to p_max exactly.
    """
    div = COARSE_GRID_POINTS - 1
    step = p_max / div
    if step == 0.0:
        points = [i / div * p_max for i in range(div)]
    else:
        points = [i * step for i in range(div)]
    points.append(p_max)
    return points


def optimize_relay_power(
    scenario: LinkScenario, candidate: RelayCandidate, speed_mps: float
) -> tuple[float, float]:
    """Best relay power on [0, p_max] and the capacity it achieves.

    Seeds a 32-point coarse grid (the points of ``np.linspace(0, p_max,
    32)``, built on plain floats), golden-section-refines around every grid
    local maximum (unimodality is not guaranteed), and returns the best
    point ever evaluated, so the result dominates all probes by
    construction. Capacity ties prefer the lower relay power.

    Every probe is ``max(0.0, _relay_raw(...))`` on plain floats, which
    equals ``relay_secrecy(RelayConfig(...)).clamped`` at that power bit
    for bit. ``RelayConfig``'s checks are not repeated: ``PowerBudget``,
    ``RelayCandidate`` and ``LinkScenario`` already hold them for their
    fields, and the two path-loss gains, computed once per call, lie in
    [0, max float] or raise ``_geometric_raw``'s path-loss ``ValueError``.
    """
    if not (math.isfinite(speed_mps) and speed_mps > 0):
        raise ValueError(f"speed_mps must be > 0, got {speed_mps!r}")
    d, exp = speed_mps * scenario.tau, 2.0 * scenario.alpha
    try:
        h_ab, h_ae = d**-exp, scenario.r**-exp
    except (OverflowError, ZeroDivisionError):
        raise _path_loss_range_error(d, scenario.r, scenario.alpha) from None
    p_a, n0 = scenario.budget.p_linear, scenario.budget.n0_linear
    h_rb, h_re = candidate.h_rb, candidate.h_re

    def capacity(p_r: float) -> float:
        return max(0.0, _relay_raw(p_a, p_r, h_ab, h_rb, h_ae, h_re, n0, n0, 1.0))

    if candidate.p_max == 0.0:
        return 0.0, capacity(0.0)

    grid = _coarse_grid(candidate.p_max)
    values = [capacity(p) for p in grid]
    best_p, best_c = 0.0, values[0]
    for p, c in zip(grid[1:], values[1:]):
        if c > best_c:
            best_p, best_c = p, c

    for i in range(COARSE_GRID_POINTS):
        left = values[i - 1] if i > 0 else -math.inf
        right = values[i + 1] if i < COARSE_GRID_POINTS - 1 else -math.inf
        if values[i] < left or values[i] < right:
            continue
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, COARSE_GRID_POINTS - 1)]
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1 = capacity(x1)
        f2 = capacity(x2)
        while hi - lo > 1e-10 * candidate.p_max:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = capacity(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = capacity(x1)
            for p, c in ((x1, f1), (x2, f2)):
                if c > best_c or (c == best_c and p < best_p):
                    best_p, best_c = p, c
    return best_p, best_c


def select_relay(
    candidates: tuple[RelayCandidate, ...] | list[RelayCandidate],
    scenario: LinkScenario,
    speed_mps: float,
) -> RelaySelection:
    """Argmax candidate over per-candidate optimized relay power.

    Ties break toward lower relay power, then lexicographic relay_id.
    """
    if not candidates:
        raise NoRelayError("no relay candidates configured")
    best: RelaySelection | None = None
    for cand in candidates:
        p_r, cap = optimize_relay_power(scenario, cand, speed_mps)
        if (
            best is None
            or cap > best.capacity
            or (cap == best.capacity and p_r < best.relay_power)
            or (cap == best.capacity and p_r == best.relay_power and cand.relay_id < best.relay_id)
        ):
            best = RelaySelection(relay_id=cand.relay_id, relay_power=p_r, capacity=cap)
    return best


def decide(csi: CsiMessage, scenario: LinkScenario, config: ProtocolConfig) -> LinkDecision:
    """Run the decision ladder for one CSI message.

    Direct when the clamped capacity clears the speed band's threshold at
    the original power; otherwise the configured strategies are tried in
    order; v2i_fallback is the terminal outcome when everything fails.

    The direct link and each power-boost step are evaluated on plain floats
    as ``max(0.0, _velocity_raw(...))``, which equals
    ``velocity_secrecy(...).clamped`` bit for bit; an input that function
    refuses (a standstill report, whose d = v*tau is 0, a boosted power
    that overflows, or an SNR p/(n0*d^(2*alpha)) beyond the float range)
    raises its own ``ValueError``.
    """
    threshold = derive_threshold(csi.speed_mps, config.thresholds)
    p = scenario.budget.p_linear
    n0 = scenario.budget.n0_linear
    v, tau, r, alpha = csi.speed_mps, scenario.tau, scenario.r, scenario.alpha
    base = max(0.0, _velocity_raw(p, n0, v, tau, r, alpha))
    if base >= threshold:
        return LinkDecision("direct", base, threshold)

    for strategy in config.strategy_order:
        if strategy == "relay":
            if not config.relay_candidates:
                continue
            sel = select_relay(config.relay_candidates, scenario, csi.speed_mps)
            if sel.capacity >= threshold:
                return LinkDecision(
                    mode="relay",
                    cs_achieved=sel.capacity,
                    threshold_used=threshold,
                    relay_id=sel.relay_id,
                    relay_power=sel.relay_power,
                )
        elif strategy == "power_boost":
            k = 0
            while k < config.max_boost_iterations:
                k += 1
                total_db = k * config.boost_step_db
                if total_db > config.boost_cap_db + 1e-12:
                    break
                boosted = p * db_to_linear(total_db)
                cs = max(0.0, _velocity_raw(boosted, n0, v, tau, r, alpha))
                if cs >= threshold:
                    return LinkDecision(
                        mode="power_boost",
                        cs_achieved=cs,
                        threshold_used=threshold,
                        boost_iterations=k,
                        new_power=boosted,
                    )
        else:  # v2i_fallback is terminal
            break

    return LinkDecision("v2i_fallback", base, threshold)


@dataclass
class ProtocolSession:
    """Per-link session enforcing CSI ordering and freshness around decide().

    Per sender, sequence numbers must strictly increase, and a message whose
    timestamp lags the newest one seen from that sender by more than the
    freshness window is rejected; the scenario loader checks ``[csi]`` by
    these rules too. ``last_seq`` and ``newest_ts`` map each sender_id to
    the values of its accepted messages.
    """

    scenario: LinkScenario
    config: ProtocolConfig
    last_seq: dict[str, int] = field(default_factory=dict, init=False)
    newest_ts: dict[str, int] = field(default_factory=dict, init=False)

    def check(self, csi: CsiMessage) -> None:
        """Raise CsiSeqRegressionError or StaleCsiError unless csi may come next."""
        sender = csi.sender_id
        last = self.last_seq.get(sender)
        if last is not None and csi.seq <= last:
            raise CsiSeqRegressionError(
                f"seq {csi.seq} from {sender!r} does not increase past {last}"
            )
        newest = self.newest_ts.get(sender, csi.timestamp_ms)
        if csi.timestamp_ms < newest - self.config.freshness_ms:
            raise StaleCsiError(
                f"timestamp {csi.timestamp_ms} ms from {sender!r} is older than the "
                f"freshness window ({self.config.freshness_ms} ms behind {newest} ms)"
            )

    def accept(self, csi: CsiMessage) -> None:
        """Record csi as its sender's latest message; ``check`` it first."""
        sender = csi.sender_id
        self.last_seq[sender] = csi.seq
        self.newest_ts[sender] = max(self.newest_ts.get(sender, csi.timestamp_ms), csi.timestamp_ms)

    def process(self, csi: CsiMessage) -> LinkDecision:
        """check, decide, then accept: a message whose decision raises is not recorded."""
        self.check(csi)
        decision = decide(csi, self.scenario, self.config)
        self.accept(csi)
        return decision
