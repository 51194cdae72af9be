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

Every record here (messages, decisions, schedules, relay candidates and
selections, link and protocol configuration) is an immutable named
tuple: besides field access it unpacks, indexes, orders and compares
equal to tuples of equal values. A record with rules is one
``@validated`` named tuple: its constructor, ``_make`` and ``_replace``
store the fields as its ``_check`` returns them. The one other path to a
``CsiMessage`` is ``parse_csi``, which builds one per report. It skips
the constructor only when the wire grammar has settled every rule but
three and it has checked those three itself: a nonempty sender; finite
tx, rx, noise, rx - noise and speed; speed >= 0. Its fields are then
already what the rules return: a str, two ints and five floats.
Otherwise it goes through the constructor. A Hypothesis test holds
``parse_csi`` to a reference parser that always calls the constructor.
``decide`` builds a direct ``LinkDecision``, which has no rules, the same
way. Named tuples are the package's one record idiom, the
array layers' records included: a named tuple is cheap to create, class
and instance alike, and needs nothing imported beyond ``typing``.
:class:`ProtocolSession`, which changes as messages arrive, is a plain
class.

The records are also why a link's fixed decision terms can be computed
once: a scenario and a config cannot change, so ``decide`` computes the
terms that depend on them alone (the band table, 2*alpha, the
eavesdropper term) for the first report and reuses them as long as it is
handed the identical objects, as a session hands it. The terms
that depend on a report follow ``_geometric_raw``'s operation order, so
decisions are bit for bit those of the per-report formula. The records
refuse a field of the wrong type through the one rule per field kind in
``_common`` (README, "Record fields"), and ``ProtocolConfig`` refuses two
relay candidates with one relay_id.
"""

from __future__ import annotations

import math
import re
from math import log1p
from typing import NamedTuple

from ._common import instance, integer, real, text, validated
from .channel import PowerBudget, db_to_linear
from .secrecy import (
    _LN2,
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

_INF, _NAN = math.inf, math.nan
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
COARSE_GRID_POINTS = 32

# Builds a record from its field values without the Python-level __new__;
# used only where the values are known to satisfy the record's rules.
_tuple_new = tuple.__new__


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


@validated
class CsiMessage(NamedTuple):
    """One channel-state report; snr_db is always exactly rx - noise.

    Its constructor, ``_make`` and ``_replace`` store the fields as
    ``_check`` returns them. ``parse_csi`` alone builds one without
    ``_check``, and only after the wire grammar and its own checks of the
    three rules the grammar leaves open (nonempty sender, finite fields,
    speed >= 0); a parity test against a parser that always calls the
    constructor pins that. So every construction path is checked.
    """

    sender_id: str
    seq: int
    timestamp_ms: int
    tx_power_dbm: float
    rx_power_dbm: float
    noise_floor_dbm: float
    snr_db: float
    speed_mps: float

    def _check(self) -> tuple:
        sender_id = text("sender_id", self.sender_id)
        if "|" in sender_id:
            raise ValueError(f"sender_id must not contain '|', got {sender_id!r}")
        if not LINE_BREAKS.isdisjoint(sender_id):
            raise ValueError(f"sender_id must not contain a line break, got {sender_id!r}")
        seq, timestamp_ms = (integer(name, value, ">= 0")
                             for name, value in zip(self._fields[1:3], self[1:3]))
        tx, rx, noise, snr = (real(name, value, None)
                              for name, value in zip(self._fields[3:7], self[3:7]))
        if not all(-_INF < value < _INF for value in (tx, rx, noise, snr)):
            raise ValueError(f"power fields must be finite, got tx={tx!r} rx={rx!r} "
                             f"noise={noise!r} snr={snr!r}")
        if snr != rx - noise:
            raise ValueError(f"snr_db={snr!r} must equal rx - noise = {rx - noise!r}")
        return (sender_id, seq, timestamp_ms, tx, rx, noise, snr,
                real("speed_mps", self.speed_mps, ">= 0"))

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
    snr_db = rx - noise
    if abs(snr - snr_db) > SNR_TOLERANCE_DB:
        raise CsiConsistencyError(f"carried snr_db={snr!r} disagrees with rx - noise = {snr_db!r}")
    # The match settles every CsiMessage rule but three: seq and timestamp are
    # digits, the sender holds no '|' or line break, and snr_db is rx - noise.
    # The other three are checked here. A digit string past the float range
    # parses to +-inf, so a finite sum means finite fields (a finite sum that
    # overflows only takes the checked path).
    if sender_id and speed >= 0.0 and math.isfinite(tx + rx + noise + snr_db + speed):
        return _tuple_new(CsiMessage, (sender_id, seq, timestamp_ms, tx, rx, noise, snr_db, speed))
    try:
        return CsiMessage(sender_id, seq, timestamp_ms, tx, rx, noise, snr_db, speed)
    except ValueError as exc:
        raise CsiMalformedFieldError(str(exc)) from None


@validated
class ThresholdSchedule(NamedTuple):
    """Speed bands [low, high) mapped to secrecy-capacity thresholds.

    Bands must partition [0, inf) with no gap or overlap.
    """

    bands: tuple[tuple[float, float, float], ...]

    def _check(self) -> tuple:
        if not isinstance(self.bands, tuple):
            raise ValueError(f"bands must be a tuple of (low, high, threshold) tuples, "
                             f"got {self.bands!r}")
        if not self.bands:
            raise ValueError("schedule needs at least one band")
        bands, high = [], 0.0
        for i, band in enumerate(self.bands):
            if not (isinstance(band, tuple) and len(band) == 3):
                raise ValueError(f"band {i} must be a (low, high, threshold) tuple, got {band!r}")
            low = real(f"band {i} low", band[0], None)
            if low != high:  # the previous band's high, or 0.0
                raise ValueError(f"band {i} starts at {low!r}, expected {high!r}")
            high = real(f"band {i} high", band[1], None)
            if not high > low:
                raise ValueError(f"band {i} is empty: [{low!r}, {high!r})")
            bands.append((low, high, real(f"band {i} threshold", band[2], ">= 0")))
        if high != math.inf:
            raise ValueError("last band must extend to infinity")
        return (tuple(bands),)


DEFAULT_THRESHOLDS = ThresholdSchedule(bands=((0.0, 25.0, 2.0), (25.0, math.inf, 1.0)))


def derive_threshold(speed: float, schedule: ThresholdSchedule) -> float:
    """Threshold of the unique band containing the speed."""
    real("speed", speed, ">= 0")
    return _band_threshold(schedule.bands, speed)


def _band_threshold(bands: tuple[tuple[float, float, float], ...], speed: float) -> float:
    """Threshold of the band [low, high) holding a finite speed >= 0."""
    for low, high, threshold in bands:
        if low <= speed < high:
            return threshold
    raise AssertionError("schedule bands do not cover the speed axis")


@validated
class RelayCandidate(NamedTuple):
    """A relay node's power-domain gains toward target and eavesdropper."""

    relay_id: str
    h_rb: float
    h_re: float
    p_max: float

    def _check(self) -> tuple:
        return (text("relay_id", self.relay_id),
                *(real(name, value, ">= 0") for name, value in zip(self._fields[1:], self[1:])))


@validated
class LinkScenario(NamedTuple):
    """Static link parameters the decision engine needs besides the CSI."""

    r: float
    alpha: float
    tau: float
    budget: PowerBudget

    def _check(self) -> tuple:
        return (*(real(name, value, "> 0") for name, value in zip(self._fields[:3], self)),
                instance("budget", self.budget, PowerBudget))


@validated
class ProtocolConfig(NamedTuple):
    """Thresholds, boost policy, relay candidates and strategy ordering."""

    thresholds: ThresholdSchedule = DEFAULT_THRESHOLDS
    boost_step_db: float = 2.0
    boost_cap_db: float = 10.0
    max_boost_iterations: int = 5
    relay_candidates: tuple[RelayCandidate, ...] = ()
    strategy_order: tuple[str, ...] = ("relay", "power_boost", "v2i_fallback")
    freshness_ms: float = 500.0

    def _check(self) -> tuple:
        thresholds = instance("thresholds", self.thresholds, ThresholdSchedule)
        boost_step_db = real("boost_step_db", self.boost_step_db, "> 0")
        boost_cap_db = real("boost_cap_db", self.boost_cap_db, ">= 0")
        max_boost_iterations = integer("max_boost_iterations", self.max_boost_iterations, ">= 1")
        relay_candidates = instance("relay_candidates", self.relay_candidates, tuple)
        relay_ids = set()
        for i, candidate in enumerate(relay_candidates):
            instance(f"relay_candidates[{i}]", candidate, RelayCandidate)
            if candidate.relay_id in relay_ids:
                raise ValueError(f"relay_candidates repeat relay_id {candidate.relay_id!r}")
            relay_ids.add(candidate.relay_id)
        strategy_order = instance("strategy_order", self.strategy_order, tuple)
        if not strategy_order:
            raise ValueError("strategy_order must be nonempty")
        for s in strategy_order:  # compared, not hashed: a list entry is unknown too
            if s not in ("relay", "power_boost", "v2i_fallback"):
                raise ValueError(f"unknown strategy {s!r}")
        if len(set(strategy_order)) != len(strategy_order):
            raise ValueError("strategy_order must not repeat strategies")
        return (thresholds, boost_step_db, boost_cap_db, max_boost_iterations, relay_candidates,
                strategy_order, real("freshness_ms", self.freshness_ms, "> 0"))


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


class RelaySelection(NamedTuple):
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
    [0, max float] or raise ``_geometric_raw``'s path-loss ``ValueError``;
    a d = speed*tau that underflows to 0 or overflows raises
    ``velocity_secrecy``'s error for d.
    """
    real("speed_mps", speed_mps, "> 0")
    d, exp = speed_mps * scenario.tau, 2.0 * scenario.alpha
    if not 0.0 < d < math.inf:  # the product underflowed to 0 or overflowed
        real("d", d, "positive and finite")  # raises, with the message velocity_secrecy gives
    try:
        h_ab, h_ae = d**-exp, scenario.r**-exp
    except (OverflowError, ZeroDivisionError):
        raise _path_loss_range_error(d, scenario.r, scenario.alpha) from None
    budget = scenario.budget
    p_a, n0 = budget.p_linear, budget.n0_linear
    # locals, since a named tuple's field is a descriptor lookup on every read
    h_rb, h_re, p_max = candidate.h_rb, candidate.h_re, candidate.p_max

    def capacity(p_r: float) -> float:
        return max(0.0, _relay_raw(p_a, p_r, h_ab, h_rb, h_ae, h_re, n0, n0, 1.0))

    if p_max == 0.0:
        return 0.0, capacity(0.0)

    grid = _coarse_grid(p_max)
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
        while hi - lo > 1e-10 * p_max:
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


def _plan(scenario: LinkScenario, config: ProtocolConfig) -> tuple:
    """What ``decide`` needs of one (scenario, config) pair, computed once.

    A plain tuple, since ``decide`` unpacks it per report and an exact
    tuple unpacks in one step where a named tuple iterates: (scenario,
    config, bands, p, n0, tau, r, alpha, exp, eaves). ``exp`` is 2*alpha,
    and ``eaves`` is ``_geometric_raw``'s eavesdropper term
    log2(1 + p/(n0*r**exp)), or nan where r**exp leaves the float range,
    so that every report goes to ``_velocity_raw`` and raises its error
    there, not here.
    """
    instance("scenario", scenario, LinkScenario)
    instance("config", config, ProtocolConfig)
    r, alpha, tau, (p, n0) = scenario  # positive and finite by the records' rules
    exp = 2.0 * alpha
    try:
        eaves = log1p(p / (n0 * r**exp)) / _LN2
    except (OverflowError, ZeroDivisionError):  # r**(2*alpha) left the float range
        eaves = _NAN
    return scenario, config, config.thresholds.bands, p, n0, tau, r, alpha, exp, eaves


# The plan decide used last (none yet: it matches no objects).
_last_plan = (object(),) * 10


def decide(csi: CsiMessage, scenario: LinkScenario, config: ProtocolConfig) -> LinkDecision:
    """Run the decision ladder for one CSI message.

    Direct when the clamped capacity clears the speed band's threshold at
    the original power; otherwise the configured strategies are tried in
    order; v2i_fallback is the terminal outcome when everything fails.

    The terms that depend only on ``scenario`` and ``config`` (the band
    table, 2*alpha and the eavesdropper term log2(1 + p/(n0*r^(2*alpha))))
    come from a plan that is computed once: ``decide`` keeps the last plan
    it built and reuses it while it is handed the identical ``scenario``
    and ``config`` objects, as a :class:`ProtocolSession` hands it with
    every message; other objects, even equal ones, get a new plan. A
    report's separation d = v*tau and its direct term
    log2(1 + p/(n0*d^(2*alpha))) follow ``_geometric_raw``'s operation
    order, so the direct capacity is ``max(0.0, _velocity_raw(...))``,
    which is ``velocity_secrecy(...).clamped``, bit for bit. A direct link
    this cannot evaluate goes to ``_velocity_raw``, which raises its
    ``ValueError``: a standstill report, whose d is 0, a path-loss power
    or an SNR p/(n0*d^(2*alpha)) beyond the float range. Each power-boost
    step is evaluated as ``max(0.0, _velocity_raw(...))`` at the boosted
    power; a step it cannot evaluate (the step's power ratio, the boosted
    power or its SNR left the float range) ends the power-boost strategy,
    and the ladder goes on to the next one.
    """
    global _last_plan
    plan = _last_plan
    if plan[0] is not scenario or plan[1] is not config:
        plan = _last_plan = _plan(scenario, config)
    _, _, bands, p, n0, tau, r, alpha, exp, eaves = plan
    try:
        v = csi.speed_mps  # finite and >= 0 by CsiMessage's rule: derive_threshold's check holds
    except AttributeError:
        instance("csi", csi, CsiMessage)
        raise
    threshold = _band_threshold(bands, v)
    d = v * tau
    raw = _NAN
    if 0.0 < d < _INF:  # so v is in (0, inf) too, as tau is: _velocity_raw's guard holds
        try:
            raw = log1p(p / (n0 * d**exp)) / _LN2 - eaves
        except (OverflowError, ZeroDivisionError):
            pass  # d**(2*alpha) left the float range
    if not -_INF < raw < _INF:
        raw = _velocity_raw(p, n0, v, tau, r, alpha)  # raises the report's error
    base = raw if raw > 0.0 else 0.0  # max(0.0, raw), without the call
    if base >= threshold:
        return _tuple_new(LinkDecision, ("direct", base, threshold, 0, None, None, None))

    for strategy in config.strategy_order:
        if strategy == "relay":
            if not config.relay_candidates:
                continue
            sel = select_relay(config.relay_candidates, scenario, v)
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
                try:
                    boosted = p * db_to_linear(total_db)
                    cs = max(0.0, _velocity_raw(boosted, n0, v, tau, r, alpha))
                except ValueError:  # the step's ratio, boosted or its SNR left the float range
                    break
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


class ProtocolSession:
    """Per-link session enforcing CSI ordering and freshness around decide().

    Per sender, sequence numbers must strictly increase, and a message whose
    timestamp lags the newest one seen from that sender by more than the
    freshness window is rejected; the scenario loader checks ``[csi]`` by
    these rules too. ``last_seq`` and ``newest_ts`` map each sender_id to
    the values of its accepted messages.

    ``process`` hands ``decide`` the session's own ``scenario`` and
    ``config`` objects with each message, so ``decide`` computes their
    fixed decision terms once and reuses them for every later message.
    """

    def __init__(self, scenario: LinkScenario, config: ProtocolConfig) -> None:
        self.scenario = scenario
        self.config = config
        self.last_seq: dict[str, int] = {}
        self.newest_ts: dict[str, int] = {}

    def check(self, csi: CsiMessage) -> None:
        """Raise CsiSeqRegressionError or StaleCsiError unless csi may come next."""
        sender, seq, ts = csi.sender_id, csi.seq, csi.timestamp_ms
        last = self.last_seq.get(sender)
        if last is not None and seq <= last:
            raise CsiSeqRegressionError(f"seq {seq} from {sender!r} does not increase past {last}")
        newest = self.newest_ts.get(sender, ts)
        if ts < newest - self.config.freshness_ms:
            raise StaleCsiError(
                f"timestamp {ts} ms from {sender!r} is older than the "
                f"freshness window ({self.config.freshness_ms} ms behind {newest} ms)"
            )

    def accept(self, csi: CsiMessage) -> None:
        """Record csi as its sender's latest message; ``check`` it first."""
        sender, seq, ts = csi.sender_id, csi.seq, csi.timestamp_ms
        self.last_seq[sender] = seq
        if ts > self.newest_ts.get(sender, -1):  # timestamps are >= 0
            self.newest_ts[sender] = ts

    def process(self, csi: CsiMessage) -> LinkDecision:
        """check, decide, then accept: a message whose decision raises is not recorded."""
        self.check(csi)
        decision = decide(csi, self.scenario, self.config)
        self.accept(csi)
        return decision
