"""Declarative protocol scenarios: INI-style files driving decision traces.

Schema (key-value with nested sections; unknown sections or keys are
rejected at load time):

    [scenario]            ; optional
    name = accel-crossing
    seed = 7

    [link]                ; required
    r_m = 1000
    alpha = 1.4
    tau_s = 0.2
    pn0_db = 70

    [protocol]            ; optional, defaults apply
    boost_step_db = 2
    boost_cap_db = 10
    max_boost_iterations = 5
    strategy_order = relay, power_boost, v2i_fallback
    freshness_ms = 500

    [thresholds]          ; optional; bands must start at 0 and end at inf
    band.0 = 0, 25, 2.0
    band.1 = 25, inf, 1.0

    [relay.<id>]          ; zero or more relay candidates
    h_rb = 1e-9
    h_re = 1e-7
    p_max = 2.0

    [csi]                 ; required; wire-format lines, replayed in order
    line.0 = CSI1|B|1|0|23|-60|-90|30|22.22
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .channel import PowerBudget
from .protocol import (
    CsiMessage,
    CsiParseError,
    CsiSeqRegressionError,
    LinkDecision,
    LinkScenario,
    ProtocolConfig,
    ProtocolSession,
    RelayCandidate,
    ThresholdSchedule,
    parse_csi,
)
from .secrecy import velocity_secrecy
from .sweeps import fmt_num

__all__ = [
    "ScenarioError",
    "Scenario",
    "TraceRecord",
    "TRACE_HEADER",
    "load_scenario",
    "run_protocol_trace",
    "trace_to_csv",
]

TRACE_HEADER = (
    "seq,timestamp_ms,speed_mps,cs_raw,cs_clamped,threshold,mode,cs_achieved,"
    "relay_id,relay_power,new_power,boost_iterations"
)

_LINK_KEYS = {"r_m", "alpha", "tau_s", "pn0_db"}
_PROTOCOL_KEYS = {
    "boost_step_db",
    "boost_cap_db",
    "max_boost_iterations",
    "strategy_order",
    "freshness_ms",
}
_RELAY_KEYS = {"h_rb", "h_re", "p_max"}
_SCENARIO_KEYS = {"name", "seed"}


class ScenarioError(ValueError):
    """Schema violation, reported with the offending field path."""


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    link: LinkScenario
    config: ProtocolConfig
    messages: tuple[CsiMessage, ...]


@dataclass(frozen=True)
class TraceRecord:
    """One decision with the direct-link capacity context it was made in."""

    seq: int
    timestamp_ms: int
    speed_mps: float
    cs_raw: float
    cs_clamped: float
    decision: LinkDecision

    def to_csv(self) -> str:
        d = self.decision
        return ",".join(
            (
                str(self.seq),
                str(self.timestamp_ms),
                fmt_num(self.speed_mps),
                fmt_num(self.cs_raw),
                fmt_num(self.cs_clamped),
                fmt_num(d.threshold_used),
                d.mode,
                fmt_num(d.cs_achieved),
                d.relay_id if d.relay_id is not None else "",
                fmt_num(d.relay_power) if d.relay_power is not None else "",
                fmt_num(d.new_power) if d.new_power is not None else "",
                str(d.boost_iterations),
            )
        )


def _getfloat(section, section_name: str, key: str) -> float:
    raw = section.get(key)
    if raw is None:
        raise ScenarioError(f"{section_name}.{key}: missing")
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"{section_name}.{key}: not a number: {raw!r}") from None


def _getint(section, section_name: str, key: str, default: int) -> int:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{section_name}.{key}: not an integer: {raw!r}") from None


def _check_keys(section, section_name: str, allowed: set[str]) -> None:
    for key in section:
        if key not in allowed:
            raise ScenarioError(f"{section_name}.{key}: unknown key")


def _indexed_values(section, section_name: str, prefix: str) -> list[str]:
    """Values of prefix.0, prefix.1, ... which must be dense from zero."""
    items = {}
    for key, value in section.items():
        head, _, tail = key.partition(".")
        if head != prefix or not tail.isdigit():
            raise ScenarioError(f"{section_name}.{key}: expected keys like {prefix}.0")
        items[int(tail)] = value
    if sorted(items) != list(range(len(items))):
        raise ScenarioError(f"{section_name}: {prefix} indices must be 0..{len(items) - 1}")
    return [items[i] for i in range(len(items))]


def _parse_thresholds(section) -> ThresholdSchedule:
    bands = []
    for i, value in enumerate(_indexed_values(section, "thresholds", "band")):
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 3:
            raise ScenarioError(f"thresholds.band.{i}: expected low,high,threshold")
        try:
            low, high, threshold = (float(p) for p in parts)
        except ValueError:
            raise ScenarioError(f"thresholds.band.{i}: not numeric: {value!r}") from None
        bands.append((low, high, threshold))
    try:
        return ThresholdSchedule(bands=tuple(bands))
    except ValueError as exc:
        raise ScenarioError(f"thresholds: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario file; all errors carry field paths."""
    parser = configparser.ConfigParser(interpolation=None)
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"not parseable as INI: {exc}") from None

    known = {"scenario", "link", "protocol", "thresholds", "csi"}
    for section_name in parser.sections():
        if section_name not in known and not section_name.startswith("relay."):
            raise ScenarioError(f"{section_name}: unknown section")

    name = "scenario"
    seed = 0
    if parser.has_section("scenario"):
        _check_keys(parser["scenario"], "scenario", _SCENARIO_KEYS)
        name = parser["scenario"].get("name", name)
        seed = _getint(parser["scenario"], "scenario", "seed", 0)

    if not parser.has_section("link"):
        raise ScenarioError("link: missing section")
    _check_keys(parser["link"], "link", _LINK_KEYS)
    try:
        link = LinkScenario(
            r=_getfloat(parser["link"], "link", "r_m"),
            alpha=_getfloat(parser["link"], "link", "alpha"),
            tau=_getfloat(parser["link"], "link", "tau_s"),
            budget=PowerBudget.from_db(_getfloat(parser["link"], "link", "pn0_db")),
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"link: {exc}") from None

    kwargs = {}
    if parser.has_section("protocol"):
        sec = parser["protocol"]
        _check_keys(sec, "protocol", _PROTOCOL_KEYS)
        if "boost_step_db" in sec:
            kwargs["boost_step_db"] = _getfloat(sec, "protocol", "boost_step_db")
        if "boost_cap_db" in sec:
            kwargs["boost_cap_db"] = _getfloat(sec, "protocol", "boost_cap_db")
        if "max_boost_iterations" in sec:
            kwargs["max_boost_iterations"] = _getint(sec, "protocol", "max_boost_iterations", 5)
        if "freshness_ms" in sec:
            kwargs["freshness_ms"] = _getfloat(sec, "protocol", "freshness_ms")
        if "strategy_order" in sec:
            kwargs["strategy_order"] = tuple(
                s.strip() for s in sec["strategy_order"].split(",") if s.strip()
            )
    if parser.has_section("thresholds"):
        kwargs["thresholds"] = _parse_thresholds(parser["thresholds"])

    candidates = []
    for section_name in parser.sections():
        if not section_name.startswith("relay."):
            continue
        relay_id = section_name[len("relay.") :]
        if not relay_id:
            raise ScenarioError(f"{section_name}: empty relay id")
        sec = parser[section_name]
        _check_keys(sec, section_name, _RELAY_KEYS)
        try:
            candidates.append(
                RelayCandidate(
                    relay_id=relay_id,
                    h_rb=_getfloat(sec, section_name, "h_rb"),
                    h_re=_getfloat(sec, section_name, "h_re"),
                    p_max=_getfloat(sec, section_name, "p_max"),
                )
            )
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"{section_name}: {exc}") from None
    candidates.sort(key=lambda c: c.relay_id)
    kwargs["relay_candidates"] = tuple(candidates)

    try:
        config = ProtocolConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"protocol: {exc}") from None

    if not parser.has_section("csi"):
        raise ScenarioError("csi: missing section")
    messages = []
    last_seq: dict[str, int] = {}  # per sender_id
    for i, line in enumerate(_indexed_values(parser["csi"], "csi", "line")):
        try:
            msg = parse_csi(line)
            if msg.seq <= last_seq.get(msg.sender_id, -1):
                raise CsiSeqRegressionError(
                    f"seq {msg.seq} from {msg.sender_id!r} does not increase past "
                    f"{last_seq[msg.sender_id]}"
                )
        except CsiParseError as exc:
            raise ScenarioError(f"csi.line.{i}: {exc}") from None
        messages.append(msg)
        last_seq[msg.sender_id] = msg.seq
    if not messages:
        raise ScenarioError("csi: needs at least one line")

    return Scenario(
        name=name, seed=seed, link=link, config=config, messages=tuple(messages)
    )


def run_protocol_trace(scenario: Scenario) -> list[TraceRecord]:
    """Replay the CSI script through a session; deterministic given the file."""
    session = ProtocolSession(scenario=scenario.link, config=scenario.config)
    records = []
    for msg in scenario.messages:
        budget = scenario.link.budget
        direct = velocity_secrecy(
            budget.p_linear,
            budget.n0_linear,
            msg.speed_mps,
            scenario.link.tau,
            scenario.link.r,
            scenario.link.alpha,
        )
        decision = session.process(msg)
        records.append(
            TraceRecord(
                seq=msg.seq,
                timestamp_ms=msg.timestamp_ms,
                speed_mps=msg.speed_mps,
                cs_raw=direct.raw,
                cs_clamped=direct.clamped,
                decision=decision,
            )
        )
    return records


def trace_to_csv(records: list[TraceRecord]) -> str:
    return "\n".join([TRACE_HEADER] + [r.to_csv() for r in records]) + "\n"
