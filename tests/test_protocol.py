import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vsec import protocol
from v2vsec.channel import PowerBudget, db_to_linear
from v2vsec.protocol import (
    COARSE_GRID_POINTS,
    CsiConsistencyError,
    CsiMalformedFieldError,
    CsiMessage,
    CsiMissingFieldError,
    CsiParseError,
    CsiSeqRegressionError,
    CsiVersionError,
    DEFAULT_THRESHOLDS,
    LINE_BREAKS,
    SNR_TOLERANCE_DB,
    WIRE_VERSION,
    LinkDecision,
    LinkScenario,
    NoRelayError,
    ProtocolConfig,
    ProtocolSession,
    RelayCandidate,
    StaleCsiError,
    ThresholdSchedule,
    _GOLDEN,
    _WIRE_FIELDS,
    _WIRE_LINE,
    _coarse_grid,
    decide,
    derive_threshold,
    encode_csi,
    optimize_relay_power,
    parse_csi,
    select_relay,
)
from v2vsec.secrecy import RelayConfig, _velocity_raw, relay_secrecy, velocity_secrecy


NINES = "9" * 400  # grammar-valid digits that parse to inf
BIG = "1" + "0" * 308  # 1e308: finite, but the sum of two overflows


def make_csi(speed=30.0, seq=1, ts=0, sender="B"):
    return CsiMessage.build(
        sender_id=sender,
        seq=seq,
        timestamp_ms=ts,
        tx_power_dbm=23.0,
        rx_power_dbm=-60.0,
        noise_floor_dbm=-90.0,
        speed_mps=speed,
    )


SCENARIO = LinkScenario(r=1000.0, alpha=1.4, tau=0.2, budget=PowerBudget.from_db(70.0))
NEAR_EVE = LinkScenario(r=50.0, alpha=1.4, tau=0.2, budget=PowerBudget.from_db(70.0))
# eavesdropper at 200 m: both jamming relays and power boosts can rescue
MID_EVE = LinkScenario(r=200.0, alpha=1.4, tau=0.2, budget=PowerBudget.from_db(70.0))


def single_band(threshold):
    return ThresholdSchedule(bands=((0.0, math.inf, threshold),))


class TestCsiCodec:
    def test_round_trip(self):
        msg = make_csi()
        assert parse_csi(encode_csi(msg)) == msg

    def test_wire_line_shape(self):
        line = encode_csi(make_csi())
        assert line == "CSI1|B|1|0|23|-60|-90|30|30"

    def test_snr_is_rx_minus_noise(self):
        msg = parse_csi("CSI1|B|1|0|23|-60|-90|30|22.22")
        assert msg.snr_db == 30.0

    def test_inconsistent_snr_rejected(self):
        with pytest.raises(CsiConsistencyError):
            parse_csi("CSI1|B|1|0|23|-60|-90|25|22.22")

    def test_unknown_version_rejected(self):
        with pytest.raises(CsiVersionError):
            parse_csi("CSI9|B|1|0|23|-60|-90|30|22.22")

    def test_missing_field_rejected(self):
        with pytest.raises(CsiMissingFieldError):
            parse_csi("CSI1|B|1|0|23|-60|-90|30")

    def test_extra_field_rejected(self):
        with pytest.raises(CsiMalformedFieldError):
            parse_csi("CSI1|B|1|0|23|-60|-90|30|22.22|junk")

    def test_malformed_number_rejected(self):
        with pytest.raises(CsiMalformedFieldError):
            parse_csi("CSI1|B|one|0|23|-60|-90|30|22.22")

    def test_negative_speed_rejected(self):
        # the grammar admits "-5"; CsiMessage's ValueError becomes the parse error
        with pytest.raises(CsiMalformedFieldError, match="speed_mps must be >= 0"):
            parse_csi("CSI1|B|1|0|23|-60|-90|30|-5")

    def test_empty_sender_rejected(self):
        with pytest.raises(CsiMalformedFieldError, match="sender_id must be nonempty"):
            parse_csi("CSI1||1|0|23|-60|-90|30|22.22")

    def test_non_finite_power_rejected(self):
        # abs(inf - inf) is NaN, which no tolerance comparison catches
        with pytest.raises(CsiMalformedFieldError):
            parse_csi("CSI1|B|1|0|23|inf|-90|inf|22.22")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(CsiMalformedFieldError):
            parse_csi("CSI1|B|1|-100|23|-60|-90|30|22.22")

    def test_fractional_fields_round_trip(self):
        msg = CsiMessage.build("car-7", 12, 345, 23.5, -61.1234, -90.25, 22.2222)
        assert parse_csi(encode_csi(msg)) == msg

    @pytest.mark.parametrize(
        "field, text",
        [
            (8, "2.5e1"),  # exponent notation
            (3, "1e2"),
            (8, "22.22221"),  # a 5th fractional digit
            (5, "+5"),  # what float()/int() also accept
            (2, "+1"),
            (4, "2_3"),
            (3, "1_0"),
            (4, " 23"),
            (2, "1 "),
            (4, "inf"),
            (5, "nan"),
            (4, "Infinity"),
            (8, ".5"),  # a radix point needs digits on both sides
            (8, "5."),
            (2, "1.0"),  # integer fields take digits only
            (2, "-1"),
            (3, "\u0661"),  # a non-ASCII digit
        ],
    )
    def test_wire_grammar_enforced(self, field, text):
        fields = "CSI1|B|1|0|23|-60|-90|30|22.22".split("|")
        fields[field] = text
        with pytest.raises(CsiMalformedFieldError):
            parse_csi("|".join(fields))

    @pytest.mark.parametrize("brk", sorted(LINE_BREAKS))
    def test_sender_line_break_rejected(self, brk):
        with pytest.raises(CsiMalformedFieldError, match="line break"):
            parse_csi(f"CSI1|B{brk}C|1|0|23|-60|-90|30|22.22")
        with pytest.raises(ValueError, match="line break"):
            make_csi(sender=f"B{brk}C")

    def test_sender_with_separator_cannot_be_built(self):
        with pytest.raises(ValueError, match=r"must not contain '\|'"):
            make_csi(sender="a|b")

    def test_line_breaks_are_splitlines_breaks(self):
        assert LINE_BREAKS == {chr(c) for c in range(0x110000)
                               if len(f"a{chr(c)}b".splitlines()) == 2}

    # A digit string past the float range is grammar-valid and parses to +-inf
    @pytest.mark.parametrize("line, error, message", [
        (f"CSI1|B|1|0|23|-{NINES}|-90|30|22.22", CsiConsistencyError,
         "carried snr_db=30.0 disagrees with rx - noise = -inf"),
        (f"CSI1|B|1|0|23|-60|-90|30|{NINES}", CsiMalformedFieldError,
         "speed_mps must be >= 0, got inf"),
        (f"CSI1|B|1|0|{NINES}|-60|-90|30|22.22", CsiMalformedFieldError,
         "power fields must be finite, got tx=inf rx=-60.0 noise=-90.0 snr=30.0"),
        # finite rx and noise whose difference overflows, carried as an infinite SNR
        (f"CSI1|B|1|0|23|{BIG}|-{BIG}|{NINES}|22.22", CsiMalformedFieldError,
         "power fields must be finite, got tx=23.0 rx=1e+308 noise=-1e+308 snr=inf"),
    ], ids=["rx", "speed", "tx", "rx-noise"])
    def test_digits_past_the_float_range(self, line, error, message):
        with pytest.raises(error) as exc:
            parse_csi(line)
        assert str(exc.value) == message

    def test_seq_beyond_the_int_digit_limit(self):
        # the grammar takes any run of digits; int() refuses more than 4,300 of them
        with pytest.raises(CsiMalformedFieldError) as exc:
            parse_csi(f"CSI1|B|{'1' * 4301}|0|23|-60|-90|30|22.22")
        assert str(exc.value) == (
            "bad integer field: Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit")

    def test_finite_fields_whose_sum_overflows(self):
        msg = parse_csi(f"CSI1|B|1|0|{BIG}|{BIG}|{BIG}|0|22.22")
        assert msg == CsiMessage("B", 1, 0, 1e308, 1e308, 1e308, 0.0, 22.22)

    def test_message_invariant_enforced(self):
        with pytest.raises(ValueError):
            CsiMessage(
                sender_id="B", seq=1, timestamp_ms=0, tx_power_dbm=23.0,
                rx_power_dbm=-60.0, noise_floor_dbm=-90.0, snr_db=29.0, speed_mps=1.0,
            )


class TestPerMessageRecords:
    """CsiMessage and LinkDecision are immutable named tuples."""

    def test_link_decision_repr_is_pinned(self):
        # benchmark records hash repr() of decisions, so its text is part of the contract
        assert repr(LinkDecision("direct", 1.5, 1.0)) == (
            "LinkDecision(mode='direct', cs_achieved=1.5, threshold_used=1.0, "
            "boost_iterations=0, relay_id=None, relay_power=None, new_power=None)"
        )

    @pytest.mark.parametrize("record, name", [
        (make_csi(), "speed_mps"),
        (LinkDecision("direct", 1.5, 1.0), "mode"),
    ])
    def test_fields_cannot_be_assigned(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)

    def test_records_are_tuples_of_their_fields(self):
        decision = LinkDecision("power_boost", 2.5, 2.0, 1, None, None, 7.0)
        assert decision == ("power_boost", 2.5, 2.0, 1, None, None, 7.0)
        mode, cs, threshold, *_ = decision
        assert (mode, cs, threshold) == ("power_boost", 2.5, 2.0)
        assert tuple(make_csi()) == ("B", 1, 0, 23.0, -60.0, -90.0, 30.0, 30.0)

    def test_replace_validates(self):
        msg = make_csi()
        assert msg._replace(speed_mps=5.0) == make_csi(speed=5.0)
        assert type(msg._replace(speed_mps=5.0)) is CsiMessage
        with pytest.raises(ValueError, match="speed_mps must be >= 0"):
            msg._replace(speed_mps=-1.0)

    def test_make_validates(self):
        msg = make_csi()
        assert CsiMessage._make(tuple(msg)) == msg
        with pytest.raises(ValueError, match="snr_db=29.0 must equal rx - noise"):
            CsiMessage._make(("B", 1, 0, 23.0, -60.0, -90.0, 29.0, 1.0))
        with pytest.raises(TypeError):
            CsiMessage._make(tuple(msg)[:-1])

    @pytest.mark.parametrize("field", ["seq", "timestamp_ms"])
    @pytest.mark.parametrize("value, message", [
        (True, "must be an integer, got True"),
        (math.nan, "must be an integer, got nan"),
        (math.inf, "must be an integer, got inf"),
        (2.5, "must be an integer, got 2.5"),
        (-1, "must be >= 0, got -1"),
    ], ids=["bool", "nan", "inf", "fraction", "negative"])
    def test_seq_and_timestamp_are_nonnegative_integers(self, field, value, message):
        fields = make_csi()._asdict()
        fields[field] = value
        with pytest.raises(ValueError) as info:
            CsiMessage(**fields)
        assert str(info.value) == f"{field} {message}"
        fields[field] = np.int64(7)  # numpy integers are integers
        assert getattr(CsiMessage(**fields), field) == 7

    def test_pickle_round_trip_keeps_the_type(self):
        msg = make_csi()
        again = pickle.loads(pickle.dumps(msg))
        assert again == msg and type(again) is CsiMessage


def _wire_decimal(min_value=-10**9):
    """Values that a wire decimal field holds exactly: k / 10^4."""
    return st.integers(min_value, 10**9).map(lambda k: k / 10_000)


_MESSAGES = st.builds(
    CsiMessage.build,
    sender_id=st.text(st.characters(blacklist_characters="|" + "".join(LINE_BREAKS)),
                      min_size=1),
    seq=st.integers(0, 10**12),
    timestamp_ms=st.integers(0, 10**15),
    tx_power_dbm=_wire_decimal(),
    rx_power_dbm=_wire_decimal(),
    noise_floor_dbm=_wire_decimal(),
    speed_mps=_wire_decimal(min_value=0),
)
# pieces that float() or int() accept but the wire grammar does not, among others
_FIELD_TEXT = st.one_of(
    st.text(max_size=8),
    st.text("0123456789.-+eE_ nainf", max_size=8),
    st.sampled_from(["1e1", "+5", "1_0", " 1", "nan", "inf", "-0", "0.12345", "007", ""]),
)


@st.composite
def _edited_lines(draw):
    """A well-formed line with one field replaced by arbitrary text."""
    fields = encode_csi(draw(_MESSAGES)).split("|")
    fields[draw(st.integers(0, len(fields) - 1))] = draw(_FIELD_TEXT)
    return "|".join(fields)


def _is_wire_number(text, integer):
    """The README grammar, spelled out with string methods."""
    whole, dot, frac = (text if integer else text.removeprefix("-")).partition(".")
    if not (whole.isascii() and whole.isdigit()):
        return False
    return not dot or (not integer and frac.isascii() and frac.isdigit() and len(frac) <= 4)


_EXTREME_FIELD = st.tuples(st.sampled_from(["", "-"]), st.sampled_from([NINES, BIG])).map("".join)


@st.composite
def _open_rule_lines(draw):
    """A grammar-valid line that may break a rule the grammar leaves to CsiMessage.

    The sender may be empty, the speed negative, and up to three numeric
    fields may hold extreme digit strings; a carried SNR equal to rx over a
    zero noise floor lets an extreme rx pass the SNR consistency check.
    """
    fields = encode_csi(draw(_MESSAGES)).split("|")
    if draw(st.booleans()):
        fields[1] = ""
    if draw(st.booleans()):
        fields[8] = "-" + fields[8].removeprefix("-")
    for i in draw(st.sets(st.integers(4, 8), max_size=3)):
        fields[i] = draw(_EXTREME_FIELD)
    if draw(st.booleans()):
        fields[6], fields[7] = "0", fields[5]
    return "|".join(fields)


def _reference_parse_csi(line):
    """parse_csi with every message built by CsiMessage(...): the oracle of its unchecked path."""
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
    except ValueError as exc:
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


def _parse_outcome(parse, line):
    """The message's type and repr (bit-exact, -0.0 included), or the error's type and text."""
    try:
        msg = parse(line)
    except CsiParseError as exc:
        return type(exc), str(exc)
    return type(msg), repr(msg)


class TestCsiGrammarProperties:
    @given(_MESSAGES)
    def test_encode_parse_round_trip(self, msg):
        assert parse_csi(encode_csi(msg)) == msg

    @settings(max_examples=400)
    @given(st.one_of(st.text(), _edited_lines(),
                     st.lists(_FIELD_TEXT, min_size=7, max_size=7)
                     .map(lambda f: "CSI1|" + "|".join(f))))
    def test_arbitrary_text_raises_only_parse_errors(self, line):
        try:
            msg = parse_csi(line)
        except CsiParseError:
            return
        numbers = line.rstrip("\r\n").split("|")[2:]
        assert all(_is_wire_number(t, integer=i < 2) for i, t in enumerate(numbers))
        assert parse_csi(encode_csi(msg)) == msg

    @settings(max_examples=400)
    @given(st.one_of(_open_rule_lines(), _edited_lines()))
    def test_unchecked_construction_matches_checked(self, line):
        # parse_csi skips CsiMessage's checks when the grammar and its own
        # three checks already hold; the message or error must not change
        outcome = _parse_outcome(parse_csi, line)
        assert outcome == _parse_outcome(_reference_parse_csi, line)
        if outcome[0] is CsiMessage:
            msg = parse_csi(line)
            assert CsiMessage._make(msg) == msg


class TestThresholdSchedule:
    def test_band_lookup(self):
        assert derive_threshold(10.0, DEFAULT_THRESHOLDS) == 2.0

    def test_half_open_boundary(self):
        assert derive_threshold(25.0, DEFAULT_THRESHOLDS) == 1.0

    def test_constant_schedule(self):
        sched = single_band(3.0)
        for speed in (0.0, 10.0, 200.0):
            assert derive_threshold(speed, sched) == 3.0

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(bands=((0.0, 25.0, 2.0), (26.0, math.inf, 1.0)))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(bands=((0.0, 25.0, 2.0), (20.0, math.inf, 1.0)))

    def test_finite_end_rejected(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(bands=((0.0, 25.0, 2.0),))

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(bands=((5.0, math.inf, 2.0),))


class TestDecide:
    def test_direct_when_capacity_clears(self):
        config = ProtocolConfig()
        decision = decide(make_csi(speed=30.0), SCENARIO, config)
        assert decision.mode == "direct"
        assert decision.boost_iterations == 0
        assert decision.cs_achieved >= decision.threshold_used

    def test_relay_rescues_when_direct_fails(self):
        config = ProtocolConfig(
            thresholds=single_band(10.0),
            relay_candidates=(RelayCandidate("r1", h_rb=0.0, h_re=1.0, p_max=10.0),),
        )
        decision = decide(make_csi(speed=30.0), NEAR_EVE, config)
        assert decision.mode == "relay"
        assert decision.relay_id == "r1"
        assert decision.cs_achieved >= 10.0
        assert decision.relay_power > 0

    def test_power_boost_minimal_steps(self):
        config = ProtocolConfig(thresholds=single_band(17.2))
        decision = decide(make_csi(speed=30.0), SCENARIO, config)
        assert decision.mode == "power_boost"
        assert decision.cs_achieved >= 17.2
        assert decision.boost_iterations >= 1
        # one step fewer must miss the threshold
        prev_db = (decision.boost_iterations - 1) * config.boost_step_db
        prev = velocity_secrecy(
            SCENARIO.budget.p_linear * db_to_linear(prev_db), 1.0, 30.0, 0.2, 1000.0, 1.4
        ).clamped
        assert prev < 17.2

    def test_v2i_fallback_when_everything_fails(self):
        config = ProtocolConfig(thresholds=single_band(30.0))
        decision = decide(make_csi(speed=30.0), SCENARIO, config)
        assert decision.mode == "v2i_fallback"
        assert decision.cs_achieved < 30.0

    def test_strategy_order_is_respected(self):
        relay = RelayCandidate("r1", h_rb=0.0, h_re=1.0, p_max=10.0)
        boost_first = ProtocolConfig(
            thresholds=single_band(13.9),
            relay_candidates=(relay,),
            strategy_order=("power_boost", "relay", "v2i_fallback"),
        )
        decision = decide(make_csi(speed=30.0), MID_EVE, boost_first)
        assert decision.mode == "power_boost"
        relay_first = ProtocolConfig(thresholds=single_band(13.9), relay_candidates=(relay,))
        assert decide(make_csi(speed=30.0), MID_EVE, relay_first).mode == "relay"

    def test_deterministic(self):
        config = ProtocolConfig(
            thresholds=single_band(10.0),
            relay_candidates=(RelayCandidate("r1", h_rb=0.01, h_re=1.0, p_max=10.0),),
        )
        first = decide(make_csi(speed=30.0), NEAR_EVE, config)
        second = decide(make_csi(speed=30.0), NEAR_EVE, config)
        assert first == second

    def test_direct_never_consults_strategies(self):
        # relay would beat the threshold too, but step 4 already passed
        config = ProtocolConfig(
            thresholds=single_band(1.0),
            relay_candidates=(RelayCandidate("r1", h_rb=0.0, h_re=1.0, p_max=10.0),),
        )
        assert decide(make_csi(speed=30.0), NEAR_EVE, config).mode == "direct"


def _public_clamped(power, n0, v, tau, r, alpha):
    """velocity_secrecy's clamped value, or the type and message of its error."""
    try:
        return velocity_secrecy(power, n0, v, tau, r, alpha).clamped
    except ValueError as exc:
        return type(exc), str(exc)


class TestDecideMatchesPublicFormula:
    """decide evaluates on plain floats; every capacity is velocity_secrecy's, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        r=st.floats(min_value=1.0, max_value=1e4),
        alpha=st.floats(min_value=0.5, max_value=4.0),
        tau=st.floats(min_value=0.01, max_value=1.0),
        pn0_db=st.floats(min_value=0.0, max_value=150.0),
        # standstill, ordinary speeds, and log-uniform ones out to where
        # d^(2*alpha) overflows or underflows (or d itself underflows to 0)
        speed=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.1, max_value=100.0),
            st.builds(lambda m, e: m * 10.0**e, st.floats(min_value=1.0, max_value=9.99),
                      st.integers(min_value=-323, max_value=300)),
        ),
        threshold=st.floats(min_value=0.0, max_value=40.0),
        boost_gap=st.none() | st.floats(min_value=0.0, max_value=1.5),
    )
    def test_capacities_equal_velocity_secrecy(
        self, r, alpha, tau, pn0_db, speed, threshold, boost_gap
    ):
        scenario = LinkScenario(r=r, alpha=alpha, tau=tau, budget=PowerBudget.from_db(pn0_db))
        p, n0 = scenario.budget.p_linear, scenario.budget.n0_linear
        base = _public_clamped(p, n0, speed, tau, r, alpha)
        if boost_gap is not None and isinstance(base, float) and math.isfinite(base):
            threshold = base + boost_gap  # just above the direct link: boost steps can reach it
        config = ProtocolConfig(thresholds=single_band(threshold))
        try:
            decision = decide(make_csi(speed=speed), scenario, config)
        except ValueError as exc:
            assert (type(exc), str(exc)) == base
            return
        if decision.mode == "power_boost":
            want = _public_clamped(decision.new_power, n0, speed, tau, r, alpha)
        else:
            assert decision.mode in ("direct", "v2i_fallback")
            want = base
        assert decision.cs_achieved == want

    def test_standstill_raises_velocity_secrecy_error(self):
        p = SCENARIO.budget.p_linear
        want = _public_clamped(p, 1.0, 0.0, SCENARIO.tau, SCENARIO.r, SCENARIO.alpha)
        assert want == (ValueError, "v must be positive and finite, got 0.0")
        with pytest.raises(ValueError) as exc:
            decide(make_csi(speed=0.0), SCENARIO, ProtocolConfig())
        assert (type(exc.value), str(exc.value)) == want

    def test_boost_step_beyond_float_range_falls_back(self):
        # d = 1e-302 m/s * 0.01 s = 1e-304 m: the direct link is finite (~1009.87 bits),
        # and the 2-8 dB boosts gain under 0.001 bits; the 10 dB boost puts p/(n0*d)
        # beyond the float range
        scenario = LinkScenario(r=1.0, alpha=0.5, tau=0.01, budget=PowerBudget.from_db(33.0))
        p = scenario.budget.p_linear
        base = velocity_secrecy(p, 1.0, 1e-302, 0.01, 1.0, 0.5).clamped
        assert math.isfinite(base)
        with pytest.raises(ValueError, match="signal-to-noise ratio out of float range"):
            velocity_secrecy(p * db_to_linear(10.0), 1.0, 1e-302, 0.01, 1.0, 0.5)
        config = ProtocolConfig(thresholds=single_band(base + 1.0))
        decision = decide(make_csi(speed=1e-302), scenario, config)
        assert decision == LinkDecision("v2i_fallback", base, base + 1.0)

    @pytest.mark.parametrize("r", [1e-3, 10.0], ids=["both-snrs-overflow", "direct-snr-overflows"])
    def test_overflowing_snr_raises(self, r):
        # d = 1e-4 m/s * 0.01 s = 1e-6 m, so p/(n0*d^8) = 1e300/1e-48 leaves the float
        # range; unchecked, the capacity would be nan (a v2i_fallback clamped to 0) at
        # r = 1e-3 and inf (a direct link) at r = 10
        scenario = LinkScenario(r=r, alpha=4.0, tau=0.01, budget=PowerBudget.from_db(3000.0))
        with pytest.raises(ValueError, match="signal-to-noise ratio out of float range"):
            decide(make_csi(speed=1e-4), scenario, ProtocolConfig())


def _oracle_decide(csi, scenario, config):
    """decide as it was before decision plans: every term recomputed per report."""
    v = csi.speed_mps
    threshold = derive_threshold(v, config.thresholds)
    r, alpha, tau, (p, n0) = scenario
    base = max(0.0, _velocity_raw(p, n0, v, tau, r, alpha))
    if base >= threshold:
        return LinkDecision("direct", base, threshold)
    for strategy in config.strategy_order:
        if strategy == "relay":
            if not config.relay_candidates:
                continue
            sel = select_relay(config.relay_candidates, scenario, v)
            if sel.capacity >= threshold:
                return LinkDecision(mode="relay", cs_achieved=sel.capacity,
                                    threshold_used=threshold, relay_id=sel.relay_id,
                                    relay_power=sel.relay_power)
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
                except ValueError:
                    break
                if cs >= threshold:
                    return LinkDecision(mode="power_boost", cs_achieved=cs,
                                        threshold_used=threshold, boost_iterations=k,
                                        new_power=boosted)
        else:
            break
    return LinkDecision("v2i_fallback", base, threshold)


def _outcome(call, *args):
    """A decision as (type, repr, fields), or an error as (type, message)."""
    try:
        decision = call(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return type(decision), repr(decision), tuple(decision)


def _mostly(common, extreme):
    """``common`` in about three draws of four, else ``extreme``."""
    return st.integers(min_value=0, max_value=3).flatmap(lambda i: common if i else extreme)


def _decades(lo, hi):
    """Log-uniform floats over the decades 10**lo to 10**(hi + 1)."""
    return st.builds(lambda m, e: m * 10.0**e, st.floats(min_value=1.0, max_value=9.99),
                     st.integers(min_value=lo, max_value=hi))


# ordinary links, around the paper's, where every mode occurs
_ORDINARY_LINKS = st.builds(
    lambda r, alpha, tau, pn0_db, n0: LinkScenario(r, alpha, tau,
                                                   PowerBudget.from_db(pn0_db, n0)),
    _decades(1, 3), st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=0.05, max_value=0.5), st.floats(min_value=30.0, max_value=90.0),
    st.floats(min_value=1e-3, max_value=1e3),
)
# extreme ones, out to where the SNR or a path-loss power leaves the float range
_EXTREME_LINKS = st.builds(
    lambda r, alpha, tau, pn0_db, n0: LinkScenario(r, alpha, tau,
                                                   PowerBudget.from_db(pn0_db, n0)),
    _decades(-3, 4), st.floats(min_value=0.5, max_value=60.0),
    st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=0.0, max_value=3000.0),
    st.sampled_from([1.0, 1e-3, 1e3]),
)


@st.composite
def _configs(draw, link, speed):
    """A config whose band thresholds sit near the link's capacity at ``speed``, or anywhere."""
    try:
        near = velocity_secrecy(link.budget.p_linear, link.budget.n0_linear, speed, link.tau,
                                link.r, link.alpha).clamped
    except ValueError:
        near = 10.0
    threshold = _mostly(st.floats(min_value=-1.0, max_value=2.5).map(lambda g: max(0.0, near + g)),
                        st.floats(min_value=0.0, max_value=60.0))
    edges = sorted(set(draw(st.lists(st.floats(min_value=0.01, max_value=100.0), max_size=2))))
    lows, highs = [0.0] + edges, edges + [math.inf]
    bands = tuple((lo, hi, draw(threshold)) for lo, hi in zip(lows, highs))
    order = draw(st.permutations(["relay", "power_boost", "v2i_fallback"]))
    order = tuple(order[: draw(st.integers(min_value=1, max_value=3))])
    candidates = tuple(
        RelayCandidate(relay_id=relay_id, h_rb=draw(_decades(-9, -3) | st.just(0.0)),
                       h_re=draw(_decades(-2, -1) | st.just(0.0)),
                       p_max=draw(st.floats(min_value=0.0, max_value=10.0)))
        for relay_id in ("a", "b")[: draw(st.integers(min_value=0, max_value=2))]
    )
    return ProtocolConfig(
        thresholds=ThresholdSchedule(bands=bands),
        boost_step_db=draw(_mostly(st.floats(min_value=0.5, max_value=5.0),
                                   st.floats(min_value=100.0, max_value=2000.0))),
        boost_cap_db=draw(_mostly(st.floats(min_value=0.0, max_value=20.0),
                                  st.floats(min_value=20.0, max_value=5000.0))),
        max_boost_iterations=draw(st.integers(min_value=1, max_value=8)),
        relay_candidates=candidates,
        strategy_order=order,
    )


@st.composite
def _streams(draw):
    """(link, config, speeds): reports near one speed, plus standstills and extremes."""
    link = draw(_mostly(_ORDINARY_LINKS, _EXTREME_LINKS))
    speed = draw(_mostly(st.floats(min_value=0.1, max_value=100.0), _decades(-323, 300)))
    config = draw(_configs(link, speed))
    speeds = draw(st.lists(
        _mostly(st.floats(min_value=0.8, max_value=1.25).map(lambda f: speed * f),
                st.sampled_from([0.0, 5e-324, 1e-310]) | _decades(-323, 300)),
        min_size=1, max_size=5,
    ))
    return link, config, speeds


def _fresh(link, config):
    """Equal records that are not the same objects."""
    budget = PowerBudget(*link.budget)
    return LinkScenario(link.r, link.alpha, link.tau, budget), ProtocolConfig(*config)


class TestDecisionPlanParity:
    """Decisions through a session, bare calls on fresh records or interleaved
    sessions equal the per-report oracle's, field for field and error for error."""

    @settings(max_examples=200, deadline=None)
    @given(stream=_streams())
    def test_session_stream(self, stream):
        link, config, speeds = stream
        session = ProtocolSession(scenario=link, config=config)
        for i, speed in enumerate(speeds):
            csi = make_csi(speed=speed, seq=i + 1, ts=100 * i)
            assert _outcome(session.process, csi) == _outcome(_oracle_decide, csi, link, config)

    @settings(max_examples=200, deadline=None)
    @given(stream=_streams())
    def test_bare_decide_on_fresh_records(self, stream):
        link, config, speeds = stream
        for speed in speeds:
            csi = make_csi(speed=speed)
            scenario, cfg = _fresh(link, config)
            assert scenario == link and scenario is not link and cfg is not config
            assert _outcome(decide, csi, scenario, cfg) == _outcome(_oracle_decide, csi, link,
                                                                    config)

    @settings(max_examples=100, deadline=None)
    @given(first=_streams(), second=_streams())
    def test_sessions_interleaved(self, first, second):
        (link, config, speeds), (other_link, other_config, other_speeds) = first, second
        # a second link with its own config, and with the first one's config object
        streams = [(link, config, speeds), (other_link, other_config, other_speeds),
                   (other_link, config, other_speeds)]
        sessions = [ProtocolSession(link, config) for link, config, _ in streams]
        reports = max(len(speeds), len(other_speeds))
        for i in range(reports):
            for session, (scenario, cfg, stream) in zip(sessions, streams):
                if i < len(stream):
                    csi = make_csi(speed=stream[i], seq=i + 1, ts=100 * i)
                    want = _outcome(_oracle_decide, csi, scenario, cfg)
                    assert _outcome(session.process, csi) == want
                    # a bare call in between leaves the last plan on other records
                    assert _outcome(decide, csi, *_fresh(scenario, cfg)) == want
        # bare calls alone: consecutive pairs share a link or the config object
        for i in range(reports):
            for scenario, cfg, stream in streams:
                if i < len(stream):
                    csi = make_csi(speed=stream[i])
                    assert _outcome(decide, csi, scenario, cfg) == _outcome(
                        _oracle_decide, csi, scenario, cfg)

    def test_decide_reuses_the_plan_for_identical_records(self, monkeypatch):
        builds = []
        build = protocol._plan
        monkeypatch.setattr(protocol, "_plan", lambda *args: builds.append(args) or build(*args))
        config = ProtocolConfig()
        for _ in range(3):
            decide(make_csi(), SCENARIO, config)
        assert len(builds) == 1
        decide(make_csi(), SCENARIO, ProtocolConfig())  # equal, but not the same object
        assert len(builds) == 2

    def test_sessions_in_threads(self):
        # sessions on four links share decide's last-plan slot from four threads;
        # a plan read by one thread and replaced by another only costs a rebuild
        links = [LinkScenario(r=r, alpha=1.4, tau=0.2, budget=PowerBudget.from_db(70.0))
                 for r in (50.0, 200.0, 1000.0, 5000.0)]
        config = ProtocolConfig(
            thresholds=ThresholdSchedule(bands=((0.0, 25.0, 15.0), (25.0, math.inf, 13.0))),
            relay_candidates=(RelayCandidate("r1", h_rb=0.0, h_re=1.0, p_max=10.0),),
            strategy_order=("power_boost", "relay", "v2i_fallback"),
        )
        speeds = [0.5 + 0.37 * i for i in range(120)]
        want = [[_outcome(_oracle_decide, make_csi(speed=v), link, config) for v in speeds]
                for link in links]
        got = [None] * len(links)

        def run(i):
            session = ProtocolSession(links[i], config)
            got[i] = [_outcome(session.process, make_csi(speed=v, seq=n + 1, ts=100 * n))
                      for n, v in enumerate(speeds)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(links))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    def test_path_loss_overflow_raises_per_report(self):
        # r**(2*alpha) = 1e4**120 leaves the float range: the session is built,
        # and each report raises _velocity_raw's path-loss error
        link = LinkScenario(r=1e4, alpha=60.0, tau=0.2, budget=PowerBudget.from_db(60.0))
        session = ProtocolSession(link, ProtocolConfig())
        for seq in (1, 2):
            with pytest.raises(ValueError, match="path-loss power out of float range"):
                session.process(make_csi(speed=30.0, seq=seq, ts=100 * seq))
        assert session.last_seq == {}

    def test_a_refused_boost_step_ends_the_strategy(self):
        # the third 1000 dB step puts the boosted power beyond the float range, which
        # ends the power-boost strategy before the fourth step's ratio overflows
        link = LinkScenario(r=1000.0, alpha=1.4, tau=0.2, budget=PowerBudget.from_db(100.0))
        config = ProtocolConfig(thresholds=single_band(40.0), boost_step_db=1000.0,
                                boost_cap_db=5000.0, max_boost_iterations=5)
        csi = make_csi(speed=30.0)
        want = _outcome(_oracle_decide, csi, link, config)
        assert want[0] is LinkDecision and want[2][0] == "v2i_fallback"
        session = ProtocolSession(link, config)
        for seq in (1, 2):
            assert _outcome(session.process, make_csi(speed=30.0, seq=seq, ts=100 * seq)) == want

    def test_boost_beyond_the_float_power_ratio_ends_the_strategy(self):
        # a 4000 dB boost overflows db_to_linear; like a boosted power beyond the
        # float range, that step ends the power-boost strategy
        config = ProtocolConfig(thresholds=single_band(40.0), boost_step_db=4000.0,
                                boost_cap_db=5000.0, strategy_order=("power_boost",))
        csi = make_csi(speed=30.0)
        want = _outcome(_oracle_decide, csi, SCENARIO, config)
        assert want[0] is LinkDecision and want[2][0] == "v2i_fallback"
        session = ProtocolSession(SCENARIO, config)
        assert _outcome(session.process, csi) == want
        assert _outcome(session.process, make_csi(speed=30.0, seq=2, ts=100)) == want


class TestSelectRelay:
    def test_empty_candidates_rejected(self):
        with pytest.raises(NoRelayError):
            select_relay((), NEAR_EVE, 30.0)

    def test_relay_off_candidate_reduces_to_direct(self):
        sel = select_relay((RelayCandidate("r1", h_rb=0.5, h_re=0.5, p_max=0.0),), SCENARIO, 30.0)
        direct = velocity_secrecy(
            SCENARIO.budget.p_linear, 1.0, 30.0, SCENARIO.tau, SCENARIO.r, SCENARIO.alpha
        ).clamped
        assert sel.relay_power == 0.0
        assert sel.capacity == pytest.approx(direct, rel=1e-9)

    def test_identical_candidates_tie_break_on_id(self):
        cands = (
            RelayCandidate("r2", h_rb=0.0, h_re=1.0, p_max=5.0),
            RelayCandidate("r1", h_rb=0.0, h_re=1.0, p_max=5.0),
        )
        assert select_relay(cands, NEAR_EVE, 30.0).relay_id == "r1"

    def test_jammer_gets_positive_power_and_matches_grid(self):
        cand = RelayCandidate("jam", h_rb=0.01, h_re=2.0, p_max=20.0)
        sel = select_relay((cand,), NEAR_EVE, 30.0)
        assert sel.relay_power > 0

        # independent brute-force oracle over p_r
        d = 30.0 * NEAR_EVE.tau
        p_a = NEAR_EVE.budget.p_linear
        h_ab = d ** (-2.0 * NEAR_EVE.alpha)
        h_ae = NEAR_EVE.r ** (-2.0 * NEAR_EVE.alpha)
        p_r = np.linspace(0.0, cand.p_max, 10_001)
        cap = np.maximum(
            np.log2(1.0 + p_a * h_ab / (p_r * cand.h_rb + 1.0))
            - np.log2(1.0 + p_a * h_ae / (p_r * cand.h_re + 1.0)),
            0.0,
        )
        assert sel.capacity == pytest.approx(float(cap.max()), rel=1e-3)

    def test_capacity_dominates_every_coarse_grid_probe(self):
        cands = (
            RelayCandidate("a", h_rb=0.05, h_re=0.8, p_max=8.0),
            RelayCandidate("b", h_rb=0.2, h_re=0.3, p_max=4.0),
        )
        sel = select_relay(cands, NEAR_EVE, 30.0)
        d = 30.0 * NEAR_EVE.tau
        p_a = NEAR_EVE.budget.p_linear
        h_ab = d ** (-2.0 * NEAR_EVE.alpha)
        h_ae = NEAR_EVE.r ** (-2.0 * NEAR_EVE.alpha)
        for cand in cands:
            for p in np.linspace(0.0, cand.p_max, 32):
                probe = max(
                    0.0,
                    math.log2(1.0 + p_a * h_ab / (p * cand.h_rb + 1.0))
                    - math.log2(1.0 + p_a * h_ae / (p * cand.h_re + 1.0)),
                )
                assert sel.capacity >= probe - 1e-12

    def test_optimize_returns_best_probed_point(self):
        cand = RelayCandidate("a", h_rb=0.05, h_re=0.8, p_max=8.0)
        p_best, cap_best = optimize_relay_power(NEAR_EVE, cand, 30.0)
        assert 0.0 <= p_best <= cand.p_max
        assert cap_best >= 0.0


def per_probe_relay_power(scenario, candidate, speed_mps):
    """The relay search with a validated RelayConfig and relay_secrecy at every probe.

    Same grid, golden-section loop and tie rules as optimize_relay_power;
    only the per-probe evaluation differs.
    """

    def capacity(p_r):
        d = speed_mps * scenario.tau
        exp = 2.0 * scenario.alpha
        cfg = RelayConfig(
            p_a=scenario.budget.p_linear,
            p_r=p_r,
            h_ab=d**-exp,
            h_rb=candidate.h_rb,
            h_ae=scenario.r**-exp,
            h_re=candidate.h_re,
            sigma_b2=scenario.budget.n0_linear,
            sigma_e2=scenario.budget.n0_linear,
            w=1.0,
        )
        return relay_secrecy(cfg).clamped

    if not (math.isfinite(speed_mps) and speed_mps > 0):
        raise ValueError(f"speed_mps must be > 0, got {speed_mps!r}")
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
        f1, f2 = capacity(x1), capacity(x2)
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


_GAINS = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e3))


class TestRelayPowerExactness:
    """optimize_relay_power equals the per-probe search exactly, not approximately."""

    @settings(max_examples=300, deadline=None)
    @given(
        r=st.floats(min_value=1.0, max_value=1e4),
        alpha=st.floats(min_value=0.5, max_value=3.0),
        tau=st.floats(min_value=0.01, max_value=2.0),
        pn0_db=st.floats(min_value=-20.0, max_value=90.0),
        n0=st.floats(min_value=1e-6, max_value=1e3),
        h_rb=_GAINS,
        h_re=_GAINS,
        p_max=st.one_of(
            st.sampled_from([0.0, 5e-324, 1e300]), st.floats(min_value=0.0, max_value=1e9)
        ),
        speed=st.floats(min_value=1e-3, max_value=100.0),
    )
    def test_equals_per_probe_search(self, r, alpha, tau, pn0_db, n0, h_rb, h_re, p_max, speed):
        scenario = LinkScenario(r=r, alpha=alpha, tau=tau, budget=PowerBudget.from_db(pn0_db, n0))
        cand = RelayCandidate("x", h_rb=h_rb, h_re=h_re, p_max=p_max)
        got = optimize_relay_power(scenario, cand, speed)
        assert got == per_probe_relay_power(scenario, cand, speed)

    @pytest.mark.parametrize(
        "cand",
        [
            RelayCandidate("jam", h_rb=0.01, h_re=2.0, p_max=20.0),
            RelayCandidate("off", h_rb=0.5, h_re=0.5, p_max=0.0),
            RelayCandidate("deaf", h_rb=0.0, h_re=0.0, p_max=1e300),
            RelayCandidate("tiny", h_rb=0.3, h_re=0.9, p_max=5e-324),
        ],
        ids=lambda c: c.relay_id,
    )
    def test_hand_cases(self, cand):
        for scenario in (SCENARIO, NEAR_EVE, MID_EVE):
            for speed in (0.5, 30.0, 60.0):
                got = optimize_relay_power(scenario, cand, speed)
                assert got == per_probe_relay_power(scenario, cand, speed)


class TestRelaySearchErrors:
    """A path-loss gain beyond the float range is a ValueError, not a bare float error."""

    # (speed, r): d = speed * tau overflows d**-2.8, r overflows r**-2.8
    OUT_OF_RANGE = [(1e-300, 1000.0), (30.0, 1e-200)]

    @staticmethod
    def case(speed, r):
        scenario = LinkScenario(r=r, alpha=1.4, tau=0.2, budget=PowerBudget.from_db(70.0))
        cand = RelayCandidate("a", h_rb=1e-3, h_re=1e-3, p_max=1.0)
        message = f"path-loss power out of float range: d={speed * 0.2!r}, r={r!r}, alpha=1.4"
        return scenario, cand, message

    @pytest.mark.parametrize("speed,r", OUT_OF_RANGE)
    def test_optimize_relay_power(self, speed, r):
        scenario, cand, message = self.case(speed, r)
        with pytest.raises(ValueError) as info:
            optimize_relay_power(scenario, cand, speed)
        assert str(info.value) == message

    @pytest.mark.parametrize("speed,r", OUT_OF_RANGE)
    def test_select_relay(self, speed, r):
        scenario, cand, message = self.case(speed, r)
        with pytest.raises(ValueError) as info:
            select_relay([cand], scenario, speed)
        assert str(info.value) == message

    @pytest.mark.parametrize("search", [
        optimize_relay_power,
        lambda scenario, cand, speed: select_relay([cand], scenario, speed),
    ], ids=["optimize_relay_power", "select_relay"])
    def test_overflowing_separation(self, search):
        # d = 1e300 * 1e10 overflows to inf, whose path-loss gain would read 0
        scenario = LinkScenario(r=1000.0, alpha=1.4, tau=1e10, budget=PowerBudget.from_db(70.0))
        cand = RelayCandidate("a", h_rb=1e-3, h_re=1e-3, p_max=1.0)
        with pytest.raises(ValueError) as info:
            search(scenario, cand, 1e300)
        assert str(info.value) == "d must be positive and finite, got inf"
        with pytest.raises(ValueError) as public:
            velocity_secrecy(1e7, 1.0, 1e300, 1e10, 1000.0, 1.4)
        assert str(public.value) == str(info.value)

    @pytest.mark.parametrize("search", [
        optimize_relay_power,
        lambda scenario, cand, speed: select_relay([cand], scenario, speed),
    ], ids=["optimize_relay_power", "select_relay"])
    def test_underflowing_separation(self, search):
        # d = 5e-324 * 0.2 underflows to 0.0, the path-loss singularity
        scenario = LinkScenario(r=1000.0, alpha=1.4, tau=0.2, budget=PowerBudget.from_db(70.0))
        cand = RelayCandidate("a", h_rb=1e-3, h_re=1e-3, p_max=1.0)
        with pytest.raises(ValueError) as info:
            search(scenario, cand, 5e-324)
        assert str(info.value) == "d must be positive and finite, got 0.0"
        with pytest.raises(ValueError) as public:
            velocity_secrecy(1e7, 1.0, 5e-324, 0.2, 1000.0, 1.4)
        assert str(public.value) == str(info.value)


class TestCoarseGrid:
    """The relay search's plain-float grid is np.linspace's, bit for bit."""

    @staticmethod
    def assert_is_linspace(p_max):
        # near the float maximum numpy's 31*step overflows before the last
        # point is overwritten with p_max; the plain-float grid never forms it
        with np.errstate(over="ignore"):
            expected = np.linspace(0.0, p_max, COARSE_GRID_POINTS).tolist()
        got = _coarse_grid(p_max)
        assert [x.hex() for x in got] == [x.hex() for x in expected], p_max

    def test_random_magnitudes(self):
        for exponent in np.random.default_rng(2024).uniform(-323.3, 308.25, 2000):
            self.assert_is_linspace(float(10.0**exponent))

    def test_benchmark_relay_range(self):
        # csi-replay draws p_max log-uniformly over 10^5.5 .. 10^6.5
        for exponent in np.random.default_rng(7).uniform(5.5, 6.5, 2000):
            self.assert_is_linspace(float(10.0**exponent))

    @pytest.mark.parametrize(
        "p_max", [0.0, 5e-324, 1e-322, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308]
    )
    def test_edge_values(self, p_max):
        self.assert_is_linspace(p_max)

    def test_underflowing_step(self):
        # p_max / 31 == 0: numpy scales i/31 by p_max, which rounds up from i = 16
        grid = _coarse_grid(5e-324)
        assert grid[:16] == [0.0] * 16
        assert grid[16:] == [5e-324] * 16

    @given(st.floats(min_value=0.0, max_value=1.7976931348623157e308))
    def test_any_finite_p_max(self, p_max):
        self.assert_is_linspace(p_max)


class TestSession:
    def test_sequences_must_increase(self):
        session = ProtocolSession(scenario=SCENARIO, config=ProtocolConfig())
        session.process(make_csi(seq=1, ts=0))
        with pytest.raises(CsiSeqRegressionError):
            session.process(make_csi(seq=1, ts=100))

    def test_stale_timestamp_rejected(self):
        session = ProtocolSession(scenario=SCENARIO, config=ProtocolConfig())
        session.process(make_csi(seq=1, ts=1000))
        with pytest.raises(StaleCsiError):
            session.process(make_csi(seq=2, ts=400))

    def test_sequences_are_per_sender(self):
        session = ProtocolSession(scenario=SCENARIO, config=ProtocolConfig())
        session.process(make_csi(seq=5, ts=0, sender="B"))
        session.process(make_csi(seq=1, ts=100, sender="C"))
        assert session.last_seq == {"B": 5, "C": 1}
        with pytest.raises(CsiSeqRegressionError):
            session.process(make_csi(seq=5, ts=200, sender="B"))
        session.process(make_csi(seq=6, ts=200, sender="B"))

    def test_freshness_is_per_sender(self):
        session = ProtocolSession(scenario=SCENARIO, config=ProtocolConfig())
        session.process(make_csi(seq=1, ts=1000, sender="B"))
        # C's clock runs behind B's; only its own newest timestamp counts
        session.process(make_csi(seq=1, ts=100, sender="C"))
        with pytest.raises(StaleCsiError):
            session.process(make_csi(seq=2, ts=400, sender="B"))
        assert session.newest_ts == {"B": 1000, "C": 100}

    def test_fresh_messages_flow(self):
        session = ProtocolSession(scenario=SCENARIO, config=ProtocolConfig())
        for seq, ts in ((1, 0), (2, 100), (3, 250)):
            decision = session.process(make_csi(seq=seq, ts=ts))
            assert decision.mode == "direct"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(boost_step_db=0.0),
            dict(max_boost_iterations=0),
            dict(max_boost_iterations=2.5),
            dict(max_boost_iterations=True),
            dict(max_boost_iterations=math.inf),
            dict(strategy_order=("relay", "relay")),
            dict(strategy_order=("warp",)),
            dict(freshness_ms=0.0),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolConfig(**kwargs)
