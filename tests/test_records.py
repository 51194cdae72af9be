"""Every record is an immutable named tuple with a pinned contract.

A record with rules refuses each invalid field with the same ValueError
text on every construction path: the constructor, ``_make`` and
``_replace``. Every record keeps the repr it had as a frozen dataclass,
survives pickling and refuses field assignment; every record but
``SparseSignal``, which holds an array, hashes by value. A Hypothesis
contract draws odd values into every field of every record with rules
and into the arguments of the numeric entry points: each draw gives a
result or a ValueError that names the field, never a TypeError or an
AttributeError. Another builds every record with rules from numpy
scalars, ints and Fractions: each field is stored as the float, int, str
or record its rule returns, and the entry points answer as on records
built from those values.
"""

import inspect
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from v2vsec.channel import FadingModel, PowerBudget, awgn_capacity, db_to_linear, path_loss_amplitude
from v2vsec.csenc import CsKey, SparseSignal
from v2vsec.ergodic import ErgodicResult, ErgodicSpec
from v2vsec.kinematics import VehicleState
from v2vsec.protocol import (
    DEFAULT_THRESHOLDS,
    CsiMessage,
    LinkDecision,
    LinkScenario,
    ProtocolConfig,
    ProtocolSession,
    RelayCandidate,
    RelaySelection,
    ThresholdSchedule,
    decide,
    optimize_relay_power,
    select_relay,
)
from v2vsec.scenario import Scenario, TraceRecord
from v2vsec.secrecy import (
    LinkGeometry,
    RelayConfig,
    SecrecyResult,
    WiretapNoise,
    fading_secrecy,
    gaussian_wiretap,
    geometric_secrecy,
    velocity_secrecy,
)
from v2vsec.sweeps import SweepSpec, SweepTable, run_relay_compare, run_sweep

BUDGET = PowerBudget(p_linear=1000000.0, n0_linear=1.0)
LINK = LinkScenario(r=150.0, alpha=1.4, tau=0.2, budget=BUDGET)
CANDIDATE = RelayCandidate(relay_id="a", h_rb=2e-09, h_re=8e-06, p_max=3000000000.0)
SCHEDULE = ThresholdSchedule(bands=((0.0, 25.0, 14.0), (25.0, math.inf, 10.9)))
CONFIG = ProtocolConfig(thresholds=SCHEDULE, relay_candidates=(CANDIDATE,))
MESSAGE = CsiMessage.build("B", 1, 0, 23.0, -60.0, -90.0, 5.0)
RELAY = RelayConfig(p_a=1.0, p_r=0.5, h_ab=1.0, h_rb=0.1, h_ae=0.5, h_re=1.0,
                    sigma_b2=1.0, sigma_e2=2.0)
SWEEP = SweepSpec(axis="speed", start=5.0, stop=20.0, step=2.5, alpha=3.5, theta=0.1)
ERGODIC = ErgodicSpec(legit_fading=FadingModel.rayleigh(), p_budget=10.0,
                      eaves_fading=FadingModel.rician(3.0), n_samples=5000, seed=7)
RESULT = ErgodicResult(1.5, 10.0, 0.01, 0.25, 4000, 6, -1e-10)
KEY = CsKey(seed=424242, n=256, m=64)
SIGNAL = SparseSignal(values=[1, 0, 2], k=2)

# (valid record, fields to change, the ValueError text the change must raise)
INVALID = [
    (BUDGET, {"p_linear": 0.0}, "p_linear must be positive and finite, got 0.0"),
    (BUDGET, {"p_linear": math.nan}, "p_linear must be positive and finite, got nan"),
    (BUDGET, {"n0_linear": math.inf}, "n0_linear must be positive and finite, got inf"),
    (FadingModel.rician(3.0), {"kind": "weibull"}, "unknown fading kind 'weibull'"),
    (FadingModel.rician(3.0), {"k_factor": -1.0}, "Rician K-factor must be >= 0, got -1.0"),
    (FadingModel.nakagami(2.0), {"m": 0.25}, "Nakagami shape m must be >= 0.5, got 0.25"),
    (VehicleState(speed=20.0, accel=5.0), {"speed": -1.0}, "speed must be >= 0, got -1.0"),
    (VehicleState(speed=20.0, accel=5.0), {"accel": 0.0}, "accel must be > 0, got 0.0"),
    (WiretapNoise(n_m=1.0, n_w=2.0), {"n_m": 0.0}, "n_m must be positive and finite, got 0.0"),
    (WiretapNoise(n_m=1.0, n_w=2.0), {"n_w": -math.inf},
     "n_w must be positive and finite, got -inf"),
    (LinkGeometry(r=100.0, theta=0.5), {"r": 0.0}, "r must be positive and finite, got 0.0"),
    (LinkGeometry(r=100.0, theta=0.5), {"theta": None, "d": None},
     "one of theta or d is required"),
    (LinkGeometry(r=100.0, theta=0.5), {"theta": -1.0, "d": None},
     "theta must be positive and finite, got -1.0"),
    (LinkGeometry(r=100.0, theta=0.5), {"theta": None, "d": math.nan},
     "d must be positive and finite, got nan"),
    (LinkGeometry(r=100.0, theta=0.5), {"d": 60.0},
     "inconsistent geometry: d=60.0 but r*theta=50.0"),
    (RELAY, {"p_a": 0.0}, "p_a must be positive and finite, got 0.0"),
    (RELAY, {"p_r": -1.0}, "p_r must be >= 0, got -1.0"),
    (RELAY, {"h_ab": -1.0}, "h_ab must be >= 0, got -1.0"),
    (RELAY, {"h_rb": math.inf}, "h_rb must be >= 0, got inf"),
    (RELAY, {"h_ae": math.nan}, "h_ae must be >= 0, got nan"),
    (RELAY, {"h_re": -0.5}, "h_re must be >= 0, got -0.5"),
    (RELAY, {"sigma_b2": 0.0}, "sigma_b2 must be positive and finite, got 0.0"),
    (RELAY, {"sigma_e2": math.inf}, "sigma_e2 must be positive and finite, got inf"),
    (RELAY, {"w": -1.0}, "w must be positive and finite, got -1.0"),
    (SCHEDULE, {"bands": ()}, "schedule needs at least one band"),
    (SCHEDULE, {"bands": ((1.0, math.inf, 1.0),)}, "band 0 starts at 1.0, expected 0.0"),
    (SCHEDULE, {"bands": ((0.0, 0.0, 1.0),)}, "band 0 is empty: [0.0, 0.0)"),
    (SCHEDULE, {"bands": ((0.0, math.inf, -1.0),)}, "band 0 threshold must be >= 0, got -1.0"),
    (SCHEDULE, {"bands": ((0.0, 25.0, 1.0),)}, "last band must extend to infinity"),
    (SCHEDULE, {"bands": [[0.0, math.inf, 1.0]]},
     "bands must be a tuple of (low, high, threshold) tuples, got [[0.0, inf, 1.0]]"),
    (SCHEDULE, {"bands": ([0.0, math.inf, 1.0],)},
     "band 0 must be a (low, high, threshold) tuple, got [0.0, inf, 1.0]"),
    (SCHEDULE, {"bands": ((0.0, math.inf),)},
     "band 0 must be a (low, high, threshold) tuple, got (0.0, inf)"),
    (CANDIDATE, {"relay_id": ""}, "relay_id must be nonempty"),
    (CANDIDATE, {"relay_id": 5}, "relay_id must be a str, got 5"),
    (CANDIDATE, {"relay_id": None}, "relay_id must be a str, got None"),
    (CANDIDATE, {"h_rb": -1.0}, "h_rb must be >= 0, got -1.0"),
    (CANDIDATE, {"h_re": math.nan}, "h_re must be >= 0, got nan"),
    (CANDIDATE, {"p_max": math.inf}, "p_max must be >= 0, got inf"),
    (LINK, {"r": 0.0}, "r must be > 0, got 0.0"),
    (LINK, {"alpha": -1.4}, "alpha must be > 0, got -1.4"),
    (LINK, {"tau": math.inf}, "tau must be > 0, got inf"),
    (LINK, {"budget": (1000000.0, 1.0)}, "budget must be a PowerBudget, got (1000000.0, 1.0)"),
    (LINK, {"budget": [1000000.0, 1.0]}, "budget must be a PowerBudget, got [1000000.0, 1.0]"),
    (CONFIG, {"thresholds": ((0.0, math.inf, 14.0),)},
     "thresholds must be a ThresholdSchedule, got ((0.0, inf, 14.0),)"),
    (CONFIG, {"boost_step_db": 0.0}, "boost_step_db must be > 0, got 0.0"),
    (CONFIG, {"boost_cap_db": -1.0}, "boost_cap_db must be >= 0, got -1.0"),
    (CONFIG, {"max_boost_iterations": 2.5}, "max_boost_iterations must be an integer, got 2.5"),
    (CONFIG, {"max_boost_iterations": True},
     "max_boost_iterations must be an integer, got True"),
    (CONFIG, {"max_boost_iterations": 0}, "max_boost_iterations must be >= 1, got 0"),
    (CONFIG, {"relay_candidates": [CANDIDATE]},
     "relay_candidates must be a tuple, got [RelayCandidate(relay_id='a', h_rb=2e-09, "
     "h_re=8e-06, p_max=3000000000.0)]"),
    (CONFIG, {"relay_candidates": (("a", 2e-09, 8e-06, 3e9),)},
     "relay_candidates[0] must be a RelayCandidate, got ('a', 2e-09, 8e-06, 3000000000.0)"),
    (CONFIG, {"relay_candidates": (CANDIDATE, CANDIDATE._replace(h_rb=0.0))},
     "relay_candidates repeat relay_id 'a'"),
    (CONFIG, {"strategy_order": ["relay", "v2i_fallback"]},
     "strategy_order must be a tuple, got ['relay', 'v2i_fallback']"),
    (CONFIG, {"strategy_order": ()}, "strategy_order must be nonempty"),
    (CONFIG, {"strategy_order": ("relay", "relay")}, "strategy_order must not repeat strategies"),
    (CONFIG, {"strategy_order": ("relay", "teleport")}, "unknown strategy 'teleport'"),
    (CONFIG, {"strategy_order": (["relay"],)}, "unknown strategy ['relay']"),
    (CONFIG, {"freshness_ms": 0.0}, "freshness_ms must be > 0, got 0.0"),
    (SWEEP, {"axis": "warp"},
     "axis must be one of ('speed', 'power_db', 'tau', 'alpha'), got 'warp'"),
    (SWEEP, {"step": 0.0}, "step must be > 0, got 0.0"),
    (SWEEP, {"start": math.inf}, "range [inf, 20.0] must be finite"),
    (SWEEP, {"stop": 1.0}, "empty range [5.0, 1.0]"),
    (SWEEP, {"start": -1e308, "stop": 1e308, "step": 1e-300},
     "range [-1e+308, 1e+308] with step 1e-300 has no finite point count"),
    (SWEEP, {"axis": "tau"}, "theta variant applies to the speed axis only"),
    (ERGODIC, {"p_budget": 0.0}, "p_budget must be > 0, got 0.0"),
    (ERGODIC, {"p_budget": math.nan}, "p_budget must be > 0, got nan"),
    (ERGODIC, {"n_samples": 2500.0}, "n_samples must be an integer, got 2500.0"),
    (ERGODIC, {"n_samples": True}, "n_samples must be an integer, got True"),
    (ERGODIC, {"n_samples": 999}, "n_samples must be >= 1000, got 999"),
    (ERGODIC, {"sigma_b2": 0.0}, "sigma_b2 must be > 0, got 0.0"),
    (ERGODIC, {"sigma_e2": math.inf}, "sigma_e2 must be > 0, got inf"),
    (ERGODIC, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    (ERGODIC, {"seed": True}, "seed must be an integer, got True"),
    (ERGODIC, {"seed": -1}, "seed must be >= 0, got -1"),
    (ERGODIC, {"legit_fading": None}, "legit_fading must be a FadingModel, got None"),
    (ERGODIC, {"legit_fading": ("rayleigh", 0.0, 1.0)},
     "legit_fading must be a FadingModel, got ('rayleigh', 0.0, 1.0)"),
    (ERGODIC, {"eaves_fading": "rayleigh"},
     "eaves_fading must be None or a FadingModel, got 'rayleigh'"),
    (KEY, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    (KEY, {"seed": True}, "seed must be an integer, got True"),
    (KEY, {"n": 256.0}, "n must be an integer, got 256.0"),
    (KEY, {"m": False}, "m must be an integer, got False"),
    (KEY, {"seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
    (KEY, {"seed": 2**64}, "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
    (KEY, {"m": 256}, "need 0 < m < n, got m=256, n=256"),
    (KEY, {"m": 0}, "need 0 < m < n, got m=0, n=256"),
    (SIGNAL, {"k": 2.0}, "k must be an integer, got 2.0"),
    (SIGNAL, {"k": True}, "k must be an integer, got True"),
    (SIGNAL, {"k": 3}, "signal has 2 nonzero entries, declared k=3"),
    (SIGNAL, {"values": [0.0, 0.0, 0.0], "k": 0}, "k must be >= 1, got 0"),
    (SIGNAL, {"values": "x"}, "values must be a 1-d array of real numbers, got 'x'"),
    (SIGNAL, {"values": [[1.0, 2.0]]},
     "values must be a 1-d array of real numbers, got [[1.0, 2.0]]"),
]


def _build(record, changes):
    return type(record)(**{**record._asdict(), **changes})


def _make(record, changes):
    return type(record)._make({**record._asdict(), **changes}.values())


def _replace(record, changes):
    return record._replace(**changes)


@pytest.mark.parametrize("path", [_build, _make, _replace], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "record, changes, message", INVALID,
    ids=[f"{type(r).__name__}-{'-'.join(c)}" for r, c, _ in INVALID],
)
def test_every_path_refuses_an_invalid_field(path, record, changes, message):
    with pytest.raises(ValueError) as info:
        path(record, changes)
    assert str(info.value) == message


@pytest.mark.parametrize("path", [_build, _make, _replace], ids=lambda f: f.__name__)
def test_every_path_returns_the_record_type(path):
    for record, changes, _ in INVALID:
        field = next(iter(changes))
        rebuilt = path(record, {field: getattr(record, field)})
        # a SparseSignal compares equal only through its identical values array
        assert type(rebuilt) is type(record) and rebuilt == record


# The reprs of the frozen dataclasses these records replaced.
REPRS = [
    (BUDGET, "PowerBudget(p_linear=1000000.0, n0_linear=1.0)"),
    (FadingModel.rician(3.0), "FadingModel(kind='rician', k_factor=3.0, m=1.0)"),
    (VehicleState(speed=20.0, accel=5.0), "VehicleState(speed=20.0, accel=5.0)"),
    (SecrecyResult.from_raw(-0.5), "SecrecyResult(raw=-0.5, clamped=0.0)"),
    (WiretapNoise(n_m=1.0, n_w=2.0), "WiretapNoise(n_m=1.0, n_w=2.0)"),
    (LinkGeometry(r=100.0, d=20.0), "LinkGeometry(r=100.0, theta=0.2, d=20.0)"),
    (RELAY, "RelayConfig(p_a=1.0, p_r=0.5, h_ab=1.0, h_rb=0.1, h_ae=0.5, h_re=1.0, "
            "sigma_b2=1.0, sigma_e2=2.0, w=1.0)"),
    (DEFAULT_THRESHOLDS, "ThresholdSchedule(bands=((0.0, 25.0, 2.0), (25.0, inf, 1.0)))"),
    (CANDIDATE, "RelayCandidate(relay_id='a', h_rb=2e-09, h_re=8e-06, p_max=3000000000.0)"),
    (LINK, "LinkScenario(r=150.0, alpha=1.4, tau=0.2, "
           "budget=PowerBudget(p_linear=1000000.0, n0_linear=1.0))"),
    (ProtocolConfig(), "ProtocolConfig(thresholds=ThresholdSchedule(bands=((0.0, 25.0, 2.0), "
                       "(25.0, inf, 1.0))), boost_step_db=2.0, boost_cap_db=10.0, "
                       "max_boost_iterations=5, relay_candidates=(), "
                       "strategy_order=('relay', 'power_boost', 'v2i_fallback'), "
                       "freshness_ms=500.0)"),
    (MESSAGE, "CsiMessage(sender_id='B', seq=1, timestamp_ms=0, tx_power_dbm=23.0, "
              "rx_power_dbm=-60.0, noise_floor_dbm=-90.0, snr_db=30.0, speed_mps=5.0)"),
    (RelaySelection(relay_id="a", relay_power=0.5, capacity=1.25),
     "RelaySelection(relay_id='a', relay_power=0.5, capacity=1.25)"),
    (Scenario(link=LINK, config=ProtocolConfig(), messages=(MESSAGE,)),
     "Scenario(link=LinkScenario(r=150.0, alpha=1.4, tau=0.2, "
     "budget=PowerBudget(p_linear=1000000.0, n0_linear=1.0)), "
     "config=ProtocolConfig(thresholds=ThresholdSchedule(bands=((0.0, 25.0, 2.0), "
     "(25.0, inf, 1.0))), boost_step_db=2.0, boost_cap_db=10.0, max_boost_iterations=5, "
     "relay_candidates=(), strategy_order=('relay', 'power_boost', 'v2i_fallback'), "
     "freshness_ms=500.0), messages=(CsiMessage(sender_id='B', seq=1, timestamp_ms=0, "
     "tx_power_dbm=23.0, rx_power_dbm=-60.0, noise_floor_dbm=-90.0, snr_db=30.0, "
     "speed_mps=5.0),), name='scenario', seed=0)"),
    (TraceRecord(seq=1, timestamp_ms=0, speed_mps=5.0, cs_raw=3.5, cs_clamped=3.5,
                 decision=LinkDecision("direct", 3.5, 2.0)),
     "TraceRecord(seq=1, timestamp_ms=0, speed_mps=5.0, cs_raw=3.5, cs_clamped=3.5, "
     "decision=LinkDecision(mode='direct', cs_achieved=3.5, threshold_used=2.0, "
     "boost_iterations=0, relay_id=None, relay_power=None, new_power=None))"),
    (SWEEP, "SweepSpec(axis='speed', start=5.0, stop=20.0, step=2.5, r=1000.0, alpha=3.5, "
            "tau=0.2, pn0_db=70.0, v_mps=22.22222222222222, theta=0.1)"),
    (ERGODIC, "ErgodicSpec(legit_fading=FadingModel(kind='rayleigh', k_factor=0.0, m=1.0), "
              "p_budget=10.0, eaves_fading=FadingModel(kind='rician', k_factor=3.0, m=1.0), "
              "sigma_b2=1.0, sigma_e2=1.0, n_samples=5000, seed=7)"),
    (ErgodicSpec(legit_fading=FadingModel.rayleigh(), p_budget=10.0),
     "ErgodicSpec(legit_fading=FadingModel(kind='rayleigh', k_factor=0.0, m=1.0), "
     "p_budget=10.0, eaves_fading=None, sigma_b2=1.0, sigma_e2=1.0, n_samples=100000, "
     "seed=12345)"),
    (RESULT, "ErgodicResult(capacity=1.5, achieved_avg_power=10.0, ci_halfwidth=0.01, "
             "multiplier=0.25, n_active=4000, iterations=6, power_residual=-1e-10)"),
    (KEY, "CsKey(seed=424242, n=256, m=64)"),
    (SIGNAL, "SparseSignal(values=array([1., 0., 2.]), k=2)"),
]
RECORDS = [record for record, _ in REPRS]
RECORD_IDS = [type(record).__name__ for record in RECORDS]
# SparseSignal holds an array: it neither hashes nor compares by value (TestSparseSignal)
BY_VALUE = [record for record in RECORDS if not isinstance(record, SparseSignal)]
BY_VALUE_IDS = [type(record).__name__ for record in BY_VALUE]


@pytest.mark.parametrize("record, text", REPRS, ids=RECORD_IDS)
def test_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", BY_VALUE, ids=BY_VALUE_IDS)
def test_equal_records_hash_equal(record):
    twin = type(record)(**record._asdict())
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)


@pytest.mark.parametrize("record", BY_VALUE, ids=BY_VALUE_IDS)
def test_pickle_round_trip(record):
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_one_class_whose_signature_names_its_fields(record):
    cls = type(record)
    assert cls.__mro__ == (cls, tuple, object)
    parameters = inspect.signature(cls).parameters.values()
    assert [p.name for p in parameters] == list(cls._fields)
    defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
    assert defaults == cls._field_defaults


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0  # no instance __dict__ either


def test_records_are_tuples_of_their_fields():
    assert BUDGET == (1000000.0, 1.0)
    r, alpha, tau, budget = LINK
    assert (r, alpha, tau, budget.p_linear) == (150.0, 1.4, 0.2, 1000000.0)
    assert LINK[3] is BUDGET
    assert PowerBudget(1.0, 2.0) < PowerBudget(2.0, 1.0)
    seed, n, m = KEY
    assert (seed, n, m) == (424242, 256, 64) and KEY == (424242, 256, 64)


class TestSparseSignal:
    """The record that holds an array: float64 values on every path, no value equality."""

    @pytest.mark.parametrize("path", [_build, _make, _replace], ids=lambda f: f.__name__)
    def test_every_path_stores_float64_values(self, path):
        rebuilt = path(SIGNAL, {"values": [0, 3, 0], "k": 1})
        assert type(rebuilt) is SparseSignal
        assert rebuilt.values.dtype == np.float64
        assert rebuilt.values.tolist() == [0.0, 3.0, 0.0] and rebuilt.k == 1

    def test_float64_array_is_kept_not_copied(self):
        values = np.array([1.0, 0.0, 2.0])
        assert SparseSignal(values, 2).values is values

    def test_equality_is_numpys_ambiguous_truth_error(self):
        twin = SparseSignal(values=np.array([1.0, 0.0, 2.0]), k=2)
        with pytest.raises(ValueError, match="truth value of an array"):
            twin == SIGNAL  # noqa: B015
        assert SIGNAL == SIGNAL  # the same array object compares by identity

    def test_is_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(SIGNAL)

    def test_pickle_round_trip(self):
        copy = pickle.loads(pickle.dumps(SIGNAL))
        assert type(copy) is SparseSignal and copy.k == SIGNAL.k
        assert copy.values.dtype == np.float64
        assert np.array_equal(copy.values, SIGNAL.values)


class TestProtocolSession:
    def test_keyword_constructor_and_attributes(self):
        session = ProtocolSession(scenario=LINK, config=CONFIG)
        assert session.scenario is LINK and session.config is CONFIG
        assert session.last_seq == {} and session.newest_ts == {}

    def test_sessions_keep_their_own_state(self):
        first, second = ProtocolSession(LINK, CONFIG), ProtocolSession(LINK, CONFIG)
        assert first.process(MESSAGE).mode == "direct"
        assert first.last_seq == {"B": 1} and first.newest_ts == {"B": 0}
        assert second.last_seq == {} and second.newest_ts == {}

    def test_process_can_be_wrapped_on_the_class(self, monkeypatch):
        calls = []
        process = ProtocolSession.process

        def traced(self, csi):
            calls.append(csi.seq)
            return process(self, csi)

        monkeypatch.setattr(ProtocolSession, "process", traced)
        ProtocolSession(LINK, CONFIG).process(MESSAGE)
        assert calls == [1]


# The field contract. Each field of every record with rules, and each argument of
# the numeric entry points, is drawn from values of the wrong type or out of range
# as well as ordinary ones; every draw must give a result or a ValueError (or a
# subclass) whose message names the drawn field. A TypeError or an AttributeError
# fails the test, since it escapes the ValueError a caller reports.

NUMPY_SCALARS = [np.float64(1.5), np.float64(math.nan), np.float64(-math.inf), np.float32(0.25),
                 np.int64(7), np.int64(-3), np.uint64(2**63), np.int8(0), np.bool_(True)]
ODD = st.one_of(
    st.sampled_from(["", "1", "1e6", "inf", "x|y", True, False, None, math.nan, math.inf,
                     -math.inf, 0, -1, 0.0, -0.0, 2**64, [], [1.0], (), (1.0,),
                     (0.0, math.inf, 1.0)]),
    st.sampled_from(NUMPY_SCALARS),
    st.text(max_size=3),
    st.floats(),
    st.integers(min_value=-10, max_value=10**6),
    st.lists(st.floats(allow_nan=False), max_size=3),
    st.tuples(st.sampled_from([0.0, 1.0, "0", None, math.inf]), st.floats()),
)
BANDS_ODD = st.one_of(ODD, st.tuples(st.tuples(ODD, ODD, ODD)),
                      st.tuples(st.tuples(st.just(0.0), ODD, ODD)),
                      st.tuples(st.just((0.0, 25.0, 1.0)), st.tuples(st.just(25.0), ODD, ODD)))


def _sweep_table(**fixed):
    """run_sweep over a short speed axis; the fixed parameters are the drawn fields."""
    from v2vsec.sweeps import run_sweep

    return run_sweep(SweepSpec(axis="speed", start=5.0, stop=6.0, step=0.5, **fixed))


# (target, valid keyword arguments, the fields drawn from ODD)
CONTRACT = [
    (PowerBudget, BUDGET._asdict(), None),
    (FadingModel, FadingModel.rician(3.0)._asdict(), None),
    (FadingModel, FadingModel.nakagami(2.0)._asdict(), None),
    (VehicleState, {"speed": 20.0, "accel": 5.0}, None),
    (WiretapNoise, {"n_m": 1.0, "n_w": 2.0}, None),
    (LinkGeometry, {"r": 100.0, "theta": 0.5}, ["r", "theta", "d"]),
    (LinkGeometry, {"r": 100.0, "d": 50.0}, ["r", "theta", "d"]),
    (RelayConfig, RELAY._asdict(), None),
    (ThresholdSchedule, SCHEDULE._asdict(), None),
    (RelayCandidate, CANDIDATE._asdict(), None),
    (LinkScenario, LINK._asdict(), None),
    (ProtocolConfig, CONFIG._asdict(), None),
    (CsiMessage, MESSAGE._asdict(), None),
    (SweepSpec, SWEEP._asdict(), None),
    (ErgodicSpec, ERGODIC._asdict(), None),
    (CsKey, KEY._asdict(), None),
    (SparseSignal, {"values": [1.0, 0.0, 2.0], "k": 2}, None),
    (_sweep_table, {"r": 1000.0, "alpha": 1.4, "tau": 0.2, "pn0_db": 70.0, "v_mps": 5.0,
                    "theta": 0.01}, None),
    (decide, {"csi": MESSAGE, "scenario": LINK, "config": CONFIG}, None),
    (velocity_secrecy, {"p": 1e6, "n0": 1.0, "v": 20.0, "tau": 0.2, "r": 150.0, "alpha": 1.4},
     None),
    (geometric_secrecy, {"p": 1e6, "n0": 1.0, "geom": LinkGeometry(r=100.0, theta=0.5),
                         "alpha": 1.4}, None),
    (fading_secrecy, {"p": 10.0, "n0": 1.0, "h_ab": 1.0, "h_ae": 0.5}, None),
    (gaussian_wiretap, {"p": 10.0, "noise": WiretapNoise(n_m=1.0, n_w=2.0)}, None),
    (db_to_linear, {"x": 3.0}, None),
    (path_loss_amplitude, {"distance": 10.0, "alpha": 2.0}, None),
    (awgn_capacity, {"budget": BUDGET, "gain_power": 0.5}, None),
]
CONTRACT_IDS = [f"{getattr(t, '__name__', t)}-{i}" for i, (t, _, _) in enumerate(CONTRACT)]

# Words a message may name a field by, where it does not spell the field's name.
ALIASES = {
    "k_factor": ["K-factor"],
    "bands": ["band"],
    "strategy_order": ["strategy"],
    "tx_power_dbm": ["tx"],
    "rx_power_dbm": ["rx"],
    "noise_floor_dbm": ["noise"],
    "snr_db": ["snr"],
    "start": ["range"],
    "stop": ["range"],
    "x": ["dB"],
    # a sweep's power p = db_to_linear(pn0_db): refused as a dB overflow, or as p
    "pn0_db": ["dB", "p"],
    "values": ["entries"],
    "v": ["d"],  # d = v*tau, or d = r*theta, refused as itself
    "tau": ["d"],
    "theta": ["d"],
}


def _names(message: str, field: str) -> bool:
    return any(re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", message)
               for word in [field, *ALIASES.get(field, [])])


def _outcome(target, **kwargs):
    """What the call gives: its result, or the exception it raises."""
    try:
        return target(**kwargs)
    except Exception as exc:  # noqa: BLE001  every exception is judged by the test
        return exc


def _odd_call(target, valid, drawn, every=False):
    """A strategy for (target, keyword arguments, drawn fields): one field odd, or every one."""
    fields = drawn or list(valid)

    def odd(name):
        return BANDS_ODD if name == "bands" else ODD

    if every:
        return st.builds(lambda **kw: (target, kw, fields), **{name: odd(name) for name in fields})
    return st.sampled_from(fields).flatmap(lambda field: st.builds(
        lambda **kw: (target, kw, [field]),
        **{**{name: st.just(value) for name, value in valid.items()}, field: odd(field)}))


def _assert_contract(case) -> None:
    target, kwargs, fields = case
    outcome = _outcome(target, **kwargs)
    if isinstance(outcome, Exception):
        assert isinstance(outcome, ValueError), repr(outcome)
        assert any(_names(str(outcome), field) for field in fields), (str(outcome), fields)


# Each a wrong-typed value that used to be accepted or to raise a TypeError:
# (target, keyword arguments, the field, the message it gives now)
REPRODUCTIONS = [
    (WiretapNoise, {"n_m": "1", "n_w": 1.0}, "n_m", "n_m must be a real number, got '1'"),
    (RelayConfig, {**RELAY._asdict(), "p_a": "1"}, "p_a", "p_a must be a real number, got '1'"),
    (SweepSpec, {**SWEEP._asdict(), "r": "1"}, "r", "r must be a real number, got '1'"),
    (db_to_linear, {"x": "3"}, "x", "x must be a real number, got '3'"),
    (path_loss_amplitude, {"distance": "10", "alpha": 2}, "distance",
     "distance must be a real number, got '10'"),
    (PowerBudget, {"p_linear": True, "n0_linear": 1.0}, "p_linear",
     "p_linear must be a real number, got True"),
    (RelayCandidate, {**CANDIDATE._asdict(), "h_rb": True}, "h_rb",
     "h_rb must be a real number, got True"),
    (CsiMessage, {**MESSAGE._asdict(), "tx_power_dbm": True}, "tx_power_dbm",
     "tx_power_dbm must be a real number, got True"),
    (ErgodicSpec, {"legit_fading": FadingModel.rayleigh(), "p_budget": True}, "p_budget",
     "p_budget must be a real number, got True"),
    (velocity_secrecy, {"p": True, "n0": 1.0, "v": 20.0, "tau": 0.2, "r": 150.0, "alpha": 1.4},
     "p", "p must be a real number, got True"),
    (ThresholdSchedule, {"bands": ((0.0, "inf", 1.0),)}, "bands",
     "band 0 high must be a real number, got 'inf'"),
    (LinkScenario, {**LINK._asdict(), "r": "1"}, "r", "r must be a real number, got '1'"),
    (ProtocolConfig, {"boost_step_db": "2"}, "boost_step_db",
     "boost_step_db must be a real number, got '2'"),
    (LinkGeometry, {"r": "1", "theta": 0.1}, "r", "r must be a real number, got '1'"),
    (CsiMessage, {**MESSAGE._asdict(), "sender_id": 5}, "sender_id",
     "sender_id must be a str, got 5"),
    (velocity_secrecy, {"p": "1e6", "n0": 1.0, "v": 20.0, "tau": 0.2, "r": 150.0, "alpha": 1.4},
     "p", "p must be a real number, got '1e6'"),
    (PowerBudget.from_db, {"pn0_db": 70.0, "n0_linear": "1"}, "n0_linear",
     "n0_linear must be a real number, got '1'"),
    (PowerBudget.from_db, {"pn0_db": 70.0, "n0_linear": None}, "n0_linear",
     "n0_linear must be a real number, got None"),
    (PowerBudget.from_db, {"pn0_db": 70.0, "n0_linear": math.inf}, "n0_linear",
     "n0_linear must be positive and finite, got inf"),
    (SparseSignal.from_dense, {"values": "x"}, "values",
     "values must be a 1-d array of real numbers, got 'x'"),
]


@pytest.mark.parametrize("target, kwargs, field, message", REPRODUCTIONS,
                         ids=[f"{t.__name__}-{f}" for t, _, f, _ in REPRODUCTIONS])
def test_reproduction_gives_its_field_named_error(target, kwargs, field, message):
    with pytest.raises(ValueError) as info:
        target(**kwargs)
    assert str(info.value) == message


def _with_reproductions(test):
    for target, kwargs, field, _ in REPRODUCTIONS:
        test = example(case=(target, kwargs, [field]))(test)
    return test


@_with_reproductions
@settings(max_examples=300, deadline=None)
@given(case=st.one_of([_odd_call(*contract) for contract in CONTRACT]))
def test_any_entry_point_gives_a_result_or_a_field_named_error(case):
    _assert_contract(case)


@pytest.mark.parametrize("target, valid, drawn", CONTRACT, ids=CONTRACT_IDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_odd_field_gives_a_result_or_a_field_named_error(target, valid, drawn, data):
    _assert_contract(data.draw(_odd_call(target, valid, drawn)))


@pytest.mark.parametrize("target, valid, drawn", CONTRACT, ids=CONTRACT_IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_odd_field_gives_a_result_or_a_field_named_error(target, valid, drawn, data):
    _assert_contract(data.draw(_odd_call(target, valid, drawn, every=True)))


# A record stores a field as its rule returns it: a float (+-inf beyond the float
# range), an int, the str or the record. Each number below was once stored as it
# was handed in, so the record computed otherwise than the float it stands for;
# now it gives the float field's outcome: (call, the odd number, its float, message)
def _link(**changes):
    return LinkScenario(**{**LINK._asdict(), **changes})


STORED_AS_FLOAT = [
    (lambda r: decide(MESSAGE, _link(r=r, alpha=2.0, budget=PowerBudget(1e7, 1.0)), CONFIG),
     np.float64(1e300), 1e300, "path-loss power out of float range: d=1.0, r=1e+300, alpha=2.0"),
    (lambda tau: optimize_relay_power(_link(tau=tau), CANDIDATE, 5.0), np.float64(1e-150), 1e-150,
     "path-loss power out of float range: d=5e-150, r=150.0, alpha=1.4"),
    (lambda tx: CsiMessage("B", 1, 0, tx, -60.0, -90.0, 30.0, 5.0), 10**400, math.inf,
     "power fields must be finite, got tx=inf rx=-60.0 noise=-90.0 snr=30.0"),
    (lambda r: run_sweep(SweepSpec("speed", 5.0, 6.0, 1.0, r=r)), 10**400, math.inf,
     "axis point speed=5: r must be positive and finite, got inf"),
    (lambda stop: SweepSpec("speed", 5.0, stop, 1.0), 10**400, math.inf,
     "range [5.0, inf] must be finite"),
]


@pytest.mark.parametrize("call, odd, number, message", STORED_AS_FLOAT,
                         ids=["decide-r", "optimize_relay_power-tau", "CsiMessage-tx",
                              "run_sweep-r", "SweepSpec-stop"])
def test_an_odd_number_gives_the_outcome_of_its_float(call, odd, number, message):
    for value in (odd, number):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message


def test_negative_int_beyond_the_float_range_counts_as_minus_inf():
    assert SweepSpec("speed", 5.0, 6.0, 1.0, pn0_db=-10**400).pn0_db == -math.inf


# Every number of a valid record handed in as a numpy scalar, an int or a
# Fraction. A recipe is a record type or tuple with the recipes of its fields,
# or a leaf: ("leaf", kind, value), the kind being the valid value's type.

def _recipe(value):
    if hasattr(value, "_check") or type(value) is tuple:
        return type(value), [_recipe(field) for field in value]
    return "leaf", type(value), value


def _forms(kind, value):
    """The ways a valid value may be handed in; the first is the value itself."""
    if kind is float:
        forms = [value, np.float64(value)]
        if abs(value) < 3e38 or math.isinf(value):  # float32 holds it, or its infinity
            forms.append(np.float32(value))
        if math.isfinite(value):
            forms.append(Fraction(value))
            if value.is_integer():
                forms += [int(value), np.int64(value)] if abs(value) < 2**63 else [int(value)]
                forms += [np.uint64(value)] if 0 <= value < 2**64 else []
        else:
            forms.append(10**400 if value > 0 else -10**400)
        return forms
    if kind is int:
        return [value, np.int64(value) if abs(value) < 2**63 else value,
                np.uint64(value) if 0 <= value < 2**64 else value]
    if kind is np.ndarray:
        return [value, value.tolist(), [int(x) if x.is_integer() else x for x in value.tolist()]]
    return [value]


def _returned(kind, value):
    """What the field's rule returns for ``value``."""
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    if kind is int:
        return int(value)
    if kind is np.ndarray:
        return np.asarray(value, dtype=np.float64)
    return value


def _odd_recipe(draw, recipe):
    """The recipe with each leaf's value drawn from its forms."""
    if recipe[0] == "leaf":
        _, kind, value = recipe
        return "leaf", kind, draw(st.sampled_from(_forms(kind, value)))
    kind, fields = recipe
    return kind, [_odd_recipe(draw, field) for field in fields]


def _build_from(recipe, as_returned: bool):
    """The value a recipe builds: from its odd leaves, or from what their rules return."""
    if recipe[0] == "leaf":
        _, kind, value = recipe
        return _returned(kind, value) if as_returned else value
    kind, fields = recipe
    values = [_build_from(field, as_returned) for field in fields]
    return tuple(values) if kind is tuple else kind(*values)


def _assert_stored(recipe, stored):
    """Each field stored is the float, int, str, array or record that its rule returns."""
    if recipe[0] == "leaf":
        kind = recipe[1]
        assert type(stored) is kind, (stored, kind)
        if kind is np.ndarray:
            assert stored.dtype == np.float64
        return
    assert type(stored) is recipe[0]
    for field, value in zip(recipe[1], stored):
        _assert_stored(field, value)


def _result(call, *args):
    """A call's outcome, comparable across calls: its repr, or its error type and text."""
    try:
        result = call(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, SweepTable):
        result = result.columns
    return repr(result)  # numpy 2 spells a numpy scalar as np.float64(...), so one shows


TYPED_RECORDS = [
    BUDGET, FadingModel.rician(3.0), FadingModel.nakagami(2.0),
    VehicleState(speed=20.0, accel=5.0), WiretapNoise(n_m=1.0, n_w=2.0),
    LinkGeometry(r=100.0, theta=0.5), LinkGeometry(r=150.0, d=20.0), RELAY, SCHEDULE,
    CANDIDATE, LINK, CONFIG, MESSAGE, SWEEP, ERGODIC, ERGODIC._replace(eaves_fading=None),
    KEY, SIGNAL,
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(record=st.sampled_from(TYPED_RECORDS), data=st.data())
def test_a_record_stores_each_field_as_its_rule_returns_it(record, data):
    recipe = _odd_recipe(data.draw, _recipe(record))
    odd, plain = _result(_build_from, recipe, False), _result(_build_from, recipe, True)
    assert odd == plain
    if isinstance(odd, str):  # built: the same record, each field of the kind its rule returns
        _assert_stored(_recipe(record), _build_from(recipe, False))


def _numbers(low, high):
    """Floats in [low, high], whole numbers among them, so that int forms are drawn too."""
    return st.one_of(st.integers(math.ceil(low), math.floor(high)).map(float),
                     st.floats(low, high))


@st.composite
def _linked_records(draw):
    """The records the entry points take, valid, with their numbers drawn."""
    link = LinkScenario(r=draw(_numbers(20.0, 2000.0)), alpha=draw(st.sampled_from([1.4, 2.0, 3.0])),
                        tau=draw(st.sampled_from([0.1, 0.2, 0.25])),
                        budget=PowerBudget(draw(_numbers(1.0, 1e8)), 1.0))
    candidates = (CANDIDATE, RelayCandidate("b", draw(_numbers(0.0, 1e-6)),
                                            draw(_numbers(0.0, 1e-4)), draw(_numbers(0.0, 1e9))))
    low = draw(_numbers(1.0, 40.0))
    schedule = ThresholdSchedule(((0.0, low, draw(_numbers(0.0, 20.0))),
                                  (low, math.inf, draw(_numbers(0.0, 20.0)))))
    config = ProtocolConfig(thresholds=schedule, boost_step_db=draw(_numbers(0.5, 5.0)),
                            boost_cap_db=draw(_numbers(0.0, 20.0)),
                            max_boost_iterations=draw(st.integers(1, 5)),
                            relay_candidates=candidates)
    csi = CsiMessage.build("B", draw(st.integers(0, 2**40)), draw(st.integers(0, 2**40)), 23.0,
                           -60.0, -90.0, draw(_numbers(0.5, 60.0)))
    relay = RELAY._replace(p_r=draw(_numbers(0.0, 4.0)), h_rb=draw(_numbers(0.0, 1.0)))
    sweep = SweepSpec("speed", 5.0, 8.0, 1.0, r=link.r, alpha=link.alpha, tau=link.tau,
                      pn0_db=draw(_numbers(0.0, 90.0)), theta=draw(st.sampled_from([None, 0.01])))
    return link, config, csi, relay, sweep


def _entry_point_results(link, config, csi, relay, sweep):
    speed = csi.speed_mps
    return [
        _result(decide, csi, link, config),
        _result(select_relay, config.relay_candidates, link, speed),
        _result(optimize_relay_power, link, config.relay_candidates[1], speed),
        _result(run_relay_compare, "pa_db", 0.0, 3.0, 1.0, relay),
        _result(run_sweep, sweep),
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(records=_linked_records(), data=st.data())
def test_entry_points_give_the_outcome_of_the_returned_values(records, data):
    recipe = _odd_recipe(data.draw, _recipe(records))
    odd, plain = _result(_build_from, recipe, False), _result(_build_from, recipe, True)
    assert odd == plain
    if isinstance(odd, str):
        assert (_entry_point_results(*_build_from(recipe, False))
                == _entry_point_results(*_build_from(recipe, True)))
