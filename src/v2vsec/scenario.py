"""Declarative protocol scenarios: INI-style files driving decision traces.

Schema (key-value with nested sections; unknown sections or keys are
rejected at load time, and names are case-sensitive):

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
from pathlib import Path
from typing import NamedTuple

from ._common import fmt_num
from .channel import PowerBudget
from .protocol import (
    CsiMessage,
    CsiParseError,
    LinkDecision,
    LinkScenario,
    ProtocolConfig,
    ProtocolSession,
    RelayCandidate,
    StaleCsiError,
    ThresholdSchedule,
    parse_csi,
)
from .secrecy import velocity_secrecy

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


class ScenarioError(ValueError):
    """Schema violation, reported with the offending field path."""


class Scenario(NamedTuple):
    link: LinkScenario
    config: ProtocolConfig
    messages: tuple[CsiMessage, ...]
    name: str = "scenario"
    seed: int = 0  # stored, but nothing reads it


class TraceRecord(NamedTuple):
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


def _strategy_list(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


# Keyed sections: INI key -> converter. [protocol] and [relay.<id>] keys are
# the ProtocolConfig and RelayCandidate field names; [link] keys are in
# LinkScenario's field order, with the dB power ratio becoming its budget.
_SCHEMA = {
    "scenario": {"name": str, "seed": int},
    "link": {"r_m": float, "alpha": float, "tau_s": float, "pn0_db": float},
    "protocol": {
        "boost_step_db": float,
        "boost_cap_db": float,
        "max_boost_iterations": int,
        "strategy_order": _strategy_list,
        "freshness_ms": float,
    },
    "relay": {"h_rb": float, "h_re": float, "p_max": float},
}
_NOT_A = {float: "a number", int: "an integer"}


def _read_section(parser, section_name: str, required: bool = False) -> dict:
    """Converted values of one section, in schema order.

    A key absent from the file is an error when ``required``; otherwise it
    is left out, so the record's default applies.
    """
    schema = _SCHEMA[section_name.partition(".")[0]]
    section = parser[section_name] if parser.has_section(section_name) else {}
    values = {}
    for key, raw in section.items():
        convert = schema.get(key)
        if convert is None:
            raise ScenarioError(f"{section_name}.{key}: unknown key")
        try:
            values[key] = convert(raw)
        except ValueError:
            raise ScenarioError(f"{section_name}.{key}: not {_NOT_A[convert]}: {raw!r}") from None
    missing = [key for key in schema if key not in values]
    if required and missing:
        raise ScenarioError(f"{section_name}.{missing[0]}: missing")
    return {key: values[key] for key in schema if key in values}


def _build(section_name: str, make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError reported against the section."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{section_name}: {exc}") from None


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
    return _build("thresholds", ThresholdSchedule, bands=tuple(bands))


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario file; all errors carry field paths."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive, like section names
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"not parseable as INI: {exc}") from None

    known = {"scenario", "link", "protocol", "thresholds", "csi"}
    for section_name in parser.sections():
        if section_name not in known and not section_name.startswith("relay."):
            raise ScenarioError(f"{section_name}: unknown section")

    meta = _read_section(parser, "scenario")

    if not parser.has_section("link"):
        raise ScenarioError("link: missing section")
    *geometry, budget_db = _read_section(parser, "link", required=True).values()
    budget = _build("link", PowerBudget.from_db, budget_db)
    link = _build("link", LinkScenario, *geometry, budget)

    kwargs = _read_section(parser, "protocol")
    if parser.has_section("thresholds"):
        kwargs["thresholds"] = _parse_thresholds(parser["thresholds"])

    candidates = []
    for section_name in parser.sections():
        if not section_name.startswith("relay."):
            continue
        relay_id = section_name[len("relay.") :]
        if not relay_id:
            raise ScenarioError(f"{section_name}: empty relay id")
        values = _read_section(parser, section_name, required=True)
        candidates.append(_build(section_name, RelayCandidate, relay_id=relay_id, **values))
    candidates.sort(key=lambda c: c.relay_id)
    config = _build("protocol", ProtocolConfig, relay_candidates=tuple(candidates), **kwargs)

    if not parser.has_section("csi"):
        raise ScenarioError("csi: missing section")
    messages = []
    session = ProtocolSession(link, config)  # owns the stream-order rules
    for i, line in enumerate(_indexed_values(parser["csi"], "csi", "line")):
        try:
            msg = parse_csi(line)
            session.check(msg)
        except (CsiParseError, StaleCsiError) as exc:
            raise ScenarioError(f"csi.line.{i}: {exc}") from None
        session.accept(msg)
        messages.append(msg)
    if not messages:
        raise ScenarioError("csi: needs at least one line")

    return Scenario(link=link, config=config, messages=tuple(messages), **meta)


def run_protocol_trace(scenario: Scenario) -> list[TraceRecord]:
    """Replay the CSI script through a session; deterministic given the file."""
    link = scenario.link
    p, n0 = link.budget.p_linear, link.budget.n0_linear
    session = ProtocolSession(scenario=link, config=scenario.config)
    records = []
    for msg in scenario.messages:
        direct = velocity_secrecy(p, n0, msg.speed_mps, link.tau, link.r, link.alpha)
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
