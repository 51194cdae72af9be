"""csi-replay: CSI wire lines through ``parse_csi`` and ``ProtocolSession.process``.

A seeded scenario file (one link at r = 150 m, alpha = 1.4, tau = 0.2 s,
60 dB; two speed bands; 8 relay candidates with log-uniform gains) is loaded
with ``load_scenario``. Each pass then replays a fresh single-sender stream:
a 0-45 m/s speed random walk restarted at stratified speeds (so the mode
mix hardly depends on the seed), standstill stretches, and a small fixed
share of lines of every kind the README grammar rejects. About two thirds
of reports stay direct at microseconds each; the rest run the relay ladder
at milliseconds each, so a parser change moves the median and a relay
power change moves the tail and the throughput.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from v2vsec import protocol, scenario
from v2vsec.protocol import CsiParseError, LinkDecision

from .base import BaseWorkload, PassResult, close, closed_form_secrecy

NAME = "csi-replay"

R_M, ALPHA, TAU_S, PN0_DB = 150.0, 1.4, 0.2, 60.0
# (low, high, threshold) in m/s and bits/s/Hz; tuned so ~2/3 of moving
# reports clear the threshold directly and every ladder outcome occurs.
BANDS = ((0.0, 25.0, 14.0), (25.0, math.inf, 10.9))
BOOST_STEP_DB, BOOST_CAP_DB, MAX_BOOSTS = 2.0, 10.0, 5
N_RELAYS = 8
SEGMENTS, SEGMENT_LEN = 100, 12  # 1200 moving reports per pass
STANDSTILLS, STANDSTILL_LEN = 4, 6
COPIES_PER_KIND = 2
SPEED_MIN, SPEED_MAX = 0.5, 45.0


def _num(x: float) -> str:
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("", "-0") else s


# Each malformed kind edits the fields of a well-formed line
# [tag, sender, seq, ts, tx, rx, noise, snr, speed]. All are forbidden by
# the README grammar. The last four are accepted by the parser this
# benchmark was first written against, and so count as failed operations.
def _edit(i, value):
    def apply(f):
        f = list(f)
        f[i] = value(f[i])
        return f
    return apply


MALFORMED = {
    "version": _edit(0, lambda _: "CSI2"),
    "missing_field": lambda f: f[:-1],
    "extra_field": lambda f: f + ["0"],
    "non_numeric": _edit(5, lambda _: "n/a"),
    "snr_mismatch": _edit(7, lambda s: _num(float(s) + 0.5)),
    "empty_sender": _edit(1, lambda _: ""),
    "negative_seq": _edit(2, lambda s: "-" + s),
    "negative_speed": _edit(8, lambda s: "-" + s),
    "nan_power": _edit(5, lambda _: "nan"),
    "exponent_integer": _edit(3, lambda s: f"{int(s) / 100:g}e2"),
    "seq_regression": None,  # repeats the previous line's seq and timestamp
    "inf_power": lambda f: _edit(7, lambda _: "inf")(_edit(5, lambda _: "inf")(f)),
    "exponent_speed": _edit(8, lambda s: f"{float(s) / 10:.5g}e1"),
    "long_fraction": _edit(8, lambda s: f"{float(s) + 0.000001:.6f}"),
    "negative_timestamp": _edit(3, lambda _: "-100"),
}


class Workload(BaseWorkload):
    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        self.path = Path(workdir) / f"csi-replay-{seed}.ini"
        self.path.write_text(self._scenario_text(), encoding="utf-8")
        self.setup_code = (
            f"from v2vsec.scenario import load_scenario; load_scenario({str(self.path)!r})"
        )

    def load(self) -> None:
        self.scenario = scenario.load_scenario(self.path)
        self.p_max = {c.relay_id: c.p_max for c in self.scenario.config.relay_candidates}

    def _scenario_text(self) -> str:
        rng = np.random.default_rng([self.seed, 2**32 - 1])

        def stratified(lo, hi):  # one log-uniform draw per stratum, shuffled
            u = (rng.permutation(N_RELAYS) + rng.uniform(size=N_RELAYS)) / N_RELAYS
            return 10.0 ** (lo + (hi - lo) * u)

        # relay near the eavesdropper: weak toward the target, strong toward Eve
        h_rb, h_re = stratified(-9.0, -7.0), stratified(-7.0, -5.0)
        p_max = stratified(5.5, 6.5)
        lines = [
            "[scenario]", f"name = csi-replay-{self.seed}", f"seed = {self.seed}", "",
            "[link]", f"r_m = {R_M:g}", f"alpha = {ALPHA:g}", f"tau_s = {TAU_S:g}",
            f"pn0_db = {PN0_DB:g}", "",
            "[protocol]", f"boost_step_db = {BOOST_STEP_DB:g}",
            f"boost_cap_db = {BOOST_CAP_DB:g}", f"max_boost_iterations = {MAX_BOOSTS}", "",
            "[thresholds]",
        ]
        lines += [f"band.{i} = {lo:g}, {hi:g}, {t:g}" for i, (lo, hi, t) in enumerate(BANDS)]
        for i in range(N_RELAYS):
            lines += ["", f"[relay.r{i}]", f"h_rb = {h_rb[i]:.6g}", f"h_re = {h_re[i]:.6g}",
                      f"p_max = {p_max[i]:.6g}"]
        lines += ["", "[csi]"]
        moving = [line for kind, line in self.inputs(-1) if kind == "moving"]
        lines += [f"line.{i} = {line}" for i, line in enumerate(moving[:8])]
        return "\n".join(lines) + "\n"

    def inputs(self, index: int) -> list[tuple[str, str]]:
        """(kind, wire line) pairs; kind is 'moving', 'standstill' or a malformed kind."""
        rng = np.random.default_rng([self.seed, index + 1])
        starts = SPEED_MIN + (SPEED_MAX - SPEED_MIN) * (
            rng.permutation(SEGMENTS) + rng.uniform(size=SEGMENTS)) / SEGMENTS
        speeds = []
        for v in starts:
            for _ in range(SEGMENT_LEN):
                speeds.append(round(float(v), 2))
                v += rng.normal(0.0, 0.3)
                if not SPEED_MIN <= v <= SPEED_MAX:  # reflect at the ends of the range
                    v = 2 * (SPEED_MIN if v < SPEED_MIN else SPEED_MAX) - v
        kinds = ["moving"] * len(speeds)
        for at in sorted(rng.choice(SEGMENTS, STANDSTILLS, replace=False), reverse=True):
            pos = int(at) * SEGMENT_LEN
            speeds[pos:pos] = [0.0] * STANDSTILL_LEN
            kinds[pos:pos] = ["standstill"] * STANDSTILL_LEN
        # malformed lines go right after a moving report, so a repeated seq
        # really regresses past one the session accepted
        slots = [i + 1 for i, k in enumerate(kinds[:-1]) if k == "moving"]
        bad = [k for k in MALFORMED for _ in range(COPIES_PER_KIND)]
        chosen = rng.choice(len(slots), len(bad), replace=False)
        insert = dict(zip((slots[i] for i in chosen), rng.permutation(bad)))

        out, seq, ts, prev = [], 0, 0, None
        for i, (kind, speed) in enumerate(zip(kinds, speeds)):
            if i in insert:
                k = str(insert[i])
                if k == "seq_regression":
                    fields = prev
                else:
                    seq, ts = seq + 1, ts + 100
                    fields = MALFORMED[k](self._fields(rng, seq, ts, prev[8]))
                out.append((k, "|".join(fields)))
            seq, ts = seq + 1, ts + 100
            prev = self._fields(rng, seq, ts, _num(speed))
            out.append((kind, "|".join(prev)))
        return out

    @staticmethod
    def _fields(rng, seq: int, ts: int, speed: str) -> list[str]:
        rx = -round(float(rng.uniform(50.0, 80.0)), 1)
        noise = -float(rng.integers(88, 96))
        return ["CSI1", "B", str(seq), str(ts), "23", _num(rx), _num(noise),
                _num(rx - noise), speed]

    def run(self, inputs, tracer) -> PassResult:
        session = protocol.ProtocolSession(scenario=self.scenario.link, config=self.scenario.config)
        latencies, outcomes, failed = [], [], 0
        for kind, line in inputs:
            tracer.unit += 1
            t0 = time.perf_counter_ns()
            try:
                outcome = session.process(protocol.parse_csi(line))
            except Exception as exc:  # the outcome under test; judged below
                outcome = type(exc)
            latencies.append(time.perf_counter_ns() - t0)
            outcomes.append(outcome)
            with tracer.paused():
                failed += not self._outcome_ok(kind, line, outcome)
        return PassResult(latencies, len(inputs), failed, outcomes)

    def _outcome_ok(self, kind: str, line: str, outcome) -> bool:
        if kind not in ("moving", "standstill"):
            return isinstance(outcome, type) and issubclass(outcome, CsiParseError)
        # a well-formed report, standstill included, must yield a defined decision
        if not isinstance(outcome, LinkDecision):
            return False
        return self._decision_ok(float(line.rsplit("|", 1)[1]), outcome)

    def _decision_ok(self, speed: float, d: LinkDecision) -> bool:
        """Acceptance criterion 6 invariants, from the closed form."""
        threshold = next(t for lo, hi, t in BANDS if lo <= speed < hi)
        p = self.scenario.link.budget.p_linear

        def cs(power: float) -> float:
            return max(0.0, closed_form_secrecy(power, 1.0, speed * TAU_S, R_M, ALPHA))

        tol = 1e-9
        base = cs(p)
        if d.threshold_used != threshold:
            return False
        if d.mode == "direct":
            return base >= threshold - tol and close(d.cs_achieved, base, tol)
        if base >= threshold + tol:
            return False
        if d.mode == "relay":
            return (d.cs_achieved >= threshold and d.relay_id in self.p_max
                    and 0.0 <= d.relay_power <= self.p_max[d.relay_id])
        if d.mode == "power_boost":
            k = d.boost_iterations
            return (1 <= k <= MAX_BOOSTS and k * BOOST_STEP_DB <= BOOST_CAP_DB
                    and close(d.new_power, p * 10 ** (k * BOOST_STEP_DB / 10), tol)
                    and d.cs_achieved >= threshold and close(d.cs_achieved, cs(d.new_power), tol)
                    and cs(p * 10 ** ((k - 1) * BOOST_STEP_DB / 10)) < threshold + tol)
        return d.mode == "v2i_fallback" and close(d.cs_achieved, base, tol)
