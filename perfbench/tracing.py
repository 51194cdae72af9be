"""Opt-in tracing of the v2vsec layers, installed from outside the package.

Each public function is wrapped at the name its caller resolves (for
example ``v2vsec._kernels.gamma_allocation`` as looked up by ``ergodic``),
so no code under ``src/`` changes. Layer boundaries record spans (name,
start, end, parent, unit id) kept in memory until the run ends; the
innermost per-point formulas only bump a counter, because a span per call
would dominate the run (``relay_secrecy`` runs ~600 times per relay-ladder
decision, ``geometric_secrecy`` ~40k times per sweep pass).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

import v2vsec._kernels
from v2vsec import csenc, ergodic, protocol, scenario, secrecy, sweeps


class Tracer:
    """Spans and counters for one traced run; wrappers are inert until installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.unit = 0  # id of the operation being timed; spans of one op share it
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def paused(self):
        """Leave the output checks out of the trace."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def _span(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.unit)
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced name; :meth:`uninstall` puts the originals back."""
        for owner, attr, name, observe in _SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), observe))
        for owner, attr, name in _COUNTERS:
            self._patch(owner, attr, self._counter(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> "Aggregate":
        return Aggregate(self.spans, self.counts)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps([name, start, end, parent, unit]) + "\n")


class Aggregate:
    """Per-name totals: calls, busy time and self time (busy minus child spans)."""

    def __init__(self, spans, counts) -> None:
        self.counts = counts
        self.calls: Counter[str] = Counter()
        self.busy_ns: defaultdict[str, int] = defaultdict(int)
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in spans:
            self.calls[name] += 1
            self.busy_ns[name] += end - start
            self.self_ns[name] += end - start
            if parent >= 0:
                self.self_ns[spans[parent][0]] -= end - start

    def ms(self, name: str) -> float:
        return self.busy_ns[name] / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def errors(self, name: str) -> int:
        prefix = f"{name}.raised."
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))


def _observe_allocation(counts, result) -> None:
    counts["kernels.gamma_allocation.states"] += len(result)
    counts["kernels.gamma_allocation.useful"] += int(np.count_nonzero(result))


def _observe_decide(counts, result) -> None:
    counts[f"protocol.decide.mode.{result.mode}"] += 1


def _observe_csv(counts, result) -> None:
    counts["sweeps.rows_to_csv.bytes"] += len(result)


def _observe_keygen(counts, result) -> None:
    counts["csenc.keygen.bytes_computed"] += result.size * result.itemsize


# (owner, attribute the caller resolves, layer name, observer)
_SPANS = (
    (ergodic, "sample_fading", "channel.sample_fading", None),
    (ergodic, "draw_channel_states", "ergodic.draw_channel_states", None),
    (ergodic, "estimate_on_states", "ergodic.estimate_on_states", None),
    (v2vsec._kernels, "gamma_allocation", "kernels.gamma_allocation", _observe_allocation),
    (v2vsec._kernels, "secrecy_rate", "kernels.secrecy_rate", None),
    (protocol, "parse_csi", "protocol.parse_csi", None),
    (protocol.ProtocolSession, "process", "protocol.process", None),
    (protocol, "decide", "protocol.decide", _observe_decide),
    (protocol, "select_relay", "protocol.select_relay", None),
    (protocol, "optimize_relay_power", "protocol.optimize_relay_power", None),
    (scenario, "load_scenario", "scenario.load_scenario", None),
    (sweeps, "run_sweep", "sweeps.run_sweep", None),
    (sweeps, "check_sweep_orderings", "sweeps.check_sweep_orderings", None),
    (sweeps, "rows_to_csv", "sweeps.rows_to_csv", _observe_csv),
    (sweeps, "read_sweep_csv", "sweeps.read_sweep_csv", None),
    (sweeps, "run_relay_compare", "sweeps.run_relay_compare", None),
    (sweeps, "run_cs_demo", "sweeps.run_cs_demo", None),
    (sweeps, "encrypt", "csenc.encrypt", None),
    (sweeps, "decrypt", "csenc.decrypt", None),
    (sweeps, "random_sparse_signal", "csenc.random_sparse_signal", None),
    (csenc, "keygen", "csenc.keygen", _observe_keygen),
)

# Innermost formulas: counted at every caller's lookup, never spanned.
_COUNTERS = (
    (protocol, "relay_secrecy", "secrecy.relay_secrecy"),
    (sweeps, "relay_secrecy", "secrecy.relay_secrecy"),
    (protocol, "velocity_secrecy", "secrecy.velocity_secrecy"),
    (sweeps, "velocity_secrecy", "secrecy.velocity_secrecy"),
    (secrecy, "geometric_secrecy", "secrecy.geometric_secrecy"),
    (sweeps, "geometric_secrecy", "secrecy.geometric_secrecy"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: Aggregate, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass; a layer the workload never reaches reads 0."""
    c = agg.counts
    per = 1.0 / passes
    out = {
        "channel.sample_fading.ms": (agg.ms("channel.sample_fading") * per, "ms"),
        "ergodic.draw_channel_states.ms": (agg.ms("ergodic.draw_channel_states") * per, "ms"),
        "ergodic.estimate_on_states.self_ms": (
            agg.self_ms("ergodic.estimate_on_states") * per, "ms"),
        "kernels.gamma_allocation.calls": (agg.calls["kernels.gamma_allocation"] * per, "count"),
        "kernels.gamma_allocation.ms": (agg.ms("kernels.gamma_allocation") * per, "ms"),
        "kernels.gamma_allocation.states": (c["kernels.gamma_allocation.states"] * per, "count"),
        # labelled as computed: three float64 arrays (a, b, gamma) per state
        "kernels.gamma_allocation.bytes_computed": (
            c["kernels.gamma_allocation.states"] * 3 * 8 * per, "B"),
        "kernels.gamma_allocation.useful_ratio": (
            _ratio(c["kernels.gamma_allocation.useful"], c["kernels.gamma_allocation.states"]),
            "ratio"),
        "kernels.secrecy_rate.calls": (agg.calls["kernels.secrecy_rate"] * per, "count"),
        "kernels.secrecy_rate.ms": (agg.ms("kernels.secrecy_rate") * per, "ms"),
        "protocol.parse_csi.calls": (agg.calls["protocol.parse_csi"] * per, "count"),
        "protocol.parse_csi.ms": (agg.ms("protocol.parse_csi") * per, "ms"),
    }
    for cls in ("CsiVersionError", "CsiMissingFieldError", "CsiMalformedFieldError",
                "CsiConsistencyError"):
        out[f"protocol.parse_csi.rejected.{cls}"] = (
            c[f"protocol.parse_csi.raised.{cls}"] * per, "count")
    for cls in ("CsiSeqRegressionError", "StaleCsiError"):
        out[f"protocol.process.rejected.{cls}"] = (
            c[f"protocol.process.raised.{cls}"] * per, "count")
    out.update({
        "protocol.decide.calls": (agg.calls["protocol.decide"] * per, "count"),
        "protocol.decide.self_ms": (agg.self_ms("protocol.decide") * per, "ms"),
        "protocol.decide.errors": (agg.errors("protocol.decide") * per, "count"),
    })
    for mode in ("direct", "relay", "power_boost", "v2i_fallback"):
        out[f"protocol.decide.mode.{mode}"] = (c[f"protocol.decide.mode.{mode}"] * per, "count")
    selections = agg.calls["protocol.select_relay"]
    out.update({
        "protocol.select_relay.calls": (selections * per, "count"),
        "protocol.select_relay.ms": (agg.ms("protocol.select_relay") * per, "ms"),
        # a selection is useful when it cleared the threshold, i.e. decide chose relay
        "protocol.select_relay.useful_ratio": (
            _ratio(c["protocol.decide.mode.relay"], selections), "ratio"),
        "protocol.optimize_relay_power.calls": (
            agg.calls["protocol.optimize_relay_power"] * per, "count"),
        "protocol.optimize_relay_power.ms": (agg.ms("protocol.optimize_relay_power") * per, "ms"),
        "secrecy.relay_secrecy.calls": (c["secrecy.relay_secrecy.calls"] * per, "count"),
        "secrecy.velocity_secrecy.calls": (c["secrecy.velocity_secrecy.calls"] * per, "count"),
        "secrecy.geometric_secrecy.calls": (c["secrecy.geometric_secrecy.calls"] * per, "count"),
        # one-off loading, so per call rather than per pass
        "scenario.load_scenario.ms": (
            _ratio(agg.ms("scenario.load_scenario"), agg.calls["scenario.load_scenario"]), "ms"),
        "sweeps.run_sweep.ms": (agg.ms("sweeps.run_sweep") * per, "ms"),
        "sweeps.check_sweep_orderings.ms": (agg.ms("sweeps.check_sweep_orderings") * per, "ms"),
        "sweeps.rows_to_csv.ms": (agg.ms("sweeps.rows_to_csv") * per, "ms"),
        "sweeps.rows_to_csv.bytes": (c["sweeps.rows_to_csv.bytes"] * per, "B"),
        "sweeps.read_sweep_csv.ms": (agg.ms("sweeps.read_sweep_csv") * per, "ms"),
        "sweeps.run_relay_compare.ms": (agg.ms("sweeps.run_relay_compare") * per, "ms"),
        "csenc.keygen.calls": (agg.calls["csenc.keygen"] * per, "count"),
        "csenc.keygen.ms": (agg.ms("csenc.keygen") * per, "ms"),
        "csenc.keygen.bytes_computed": (c["csenc.keygen.bytes_computed"] * per, "B"),
        "csenc.decrypt.calls": (agg.calls["csenc.decrypt"] * per, "count"),
        "csenc.decrypt.self_ms": (agg.self_ms("csenc.decrypt") * per, "ms"),
        "csenc.encrypt.ms": (agg.ms("csenc.encrypt") * per, "ms"),
        "csenc.random_sparse_signal.ms": (agg.ms("csenc.random_sparse_signal") * per, "ms"),
    })
    return out
