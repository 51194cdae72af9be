"""A stateful model of the CSI stream.

Hypothesis drives interleaved senders through parse_csi -> ProtocolSession
(check, decide, accept) and checks the session against a plain model of
each sender's last seq and newest timestamp. Seq steps may repeat or
regress, timestamps may go stale, and a speed of 0 makes ``decide`` raise.
The script sent so far is also loaded as a scenario's ``[csi]`` section,
which must load exactly when every line passes the order rules.
"""

import os
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from v2vsec.channel import PowerBudget
from v2vsec.protocol import (
    CsiMessage,
    CsiSeqRegressionError,
    LinkScenario,
    ProtocolConfig,
    ProtocolSession,
    StaleCsiError,
    encode_csi,
    parse_csi,
)
from v2vsec.scenario import ScenarioError, load_scenario

LINK = LinkScenario(r=1000.0, alpha=1.4, tau=0.2, budget=PowerBudget.from_db(70.0))
CONFIG = ProtocolConfig(freshness_ms=500.0)
SCENARIO_HEAD = (
    "[link]\nr_m = 1000\nalpha = 1.4\ntau_s = 0.2\npn0_db = 70\n"
    "[protocol]\nfreshness_ms = 500\n[csi]\n"
)


class StreamModel:
    """Each sender's last seq and newest timestamp, by the documented order rules."""

    def __init__(self):
        self.last_seq, self.newest_ts = {}, {}

    def admits(self, msg):
        last = self.last_seq.get(msg.sender_id)
        if last is not None and msg.seq <= last:
            return False
        newest = self.newest_ts.get(msg.sender_id, msg.timestamp_ms)
        return msg.timestamp_ms >= newest - CONFIG.freshness_ms

    def record(self, msg):
        self.last_seq[msg.sender_id] = msg.seq
        newest = self.newest_ts.get(msg.sender_id, msg.timestamp_ms)
        self.newest_ts[msg.sender_id] = max(newest, msg.timestamp_ms)


class CsiStream(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.session = ProtocolSession(LINK, CONFIG)
        self.model = StreamModel()  # what process() has recorded
        self.script = StreamModel()  # what the loader's check/accept has recorded
        self.script_ok = True
        self.lines = []
        self.cursor = {}  # per sender: the seq and timestamp last sent

    @rule(
        sender=st.sampled_from(["A", "B", "C"]),
        seq_step=st.integers(-2, 3),
        ts_step=st.integers(-900, 400),
        speed=st.sampled_from([0.0, 5.0, 12.5, 22.22, 30.0, 40.0]),
    )
    def send(self, sender, seq_step, ts_step, speed):
        seq, ts = self.cursor.get(sender, (0, 1000))
        seq, ts = max(0, seq + seq_step), max(0, ts + ts_step)
        self.cursor[sender] = (seq, ts)
        msg = CsiMessage.build(sender, seq, ts, 23.0, -60.0, -90.0, speed)
        line = encode_csi(msg)
        assert parse_csi(line) == msg

        self.lines.append(line)
        if self.script_ok and self.script.admits(msg):
            self.script.record(msg)
        else:
            self.script_ok = False

        admitted = self.model.admits(msg)
        try:
            self.session.process(msg)
        except (CsiSeqRegressionError, StaleCsiError):
            assert not admitted
        except ValueError as exc:
            # decide raised: only a standstill report, whose d = v*tau is 0
            assert admitted and speed == 0.0, exc
        else:
            assert admitted and speed > 0.0
            self.model.record(msg)

    @invariant()
    def session_matches_model(self):
        assert self.session.last_seq == self.model.last_seq
        assert self.session.newest_ts == self.model.newest_ts

    @precondition(lambda self: self.lines)
    @rule()
    def load_script(self):
        body = "".join(f"line.{i} = {line}\n" for i, line in enumerate(self.lines))
        fd, path = tempfile.mkstemp(suffix=".ini")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(SCENARIO_HEAD + body)
            try:
                scenario = load_scenario(path)
            except ScenarioError:
                assert not self.script_ok
            else:
                assert self.script_ok
                assert [encode_csi(m) for m in scenario.messages] == self.lines
        finally:
            os.unlink(path)


CsiStream.TestCase.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
TestCsiStream = CsiStream.TestCase
