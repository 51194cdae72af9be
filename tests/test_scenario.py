import numpy as np
import pytest

from v2vsec.channel import db_to_linear
from v2vsec.protocol import encode_csi, CsiMessage
from v2vsec.scenario import (
    ScenarioError,
    TRACE_HEADER,
    load_scenario,
    run_protocol_trace,
    trace_to_csv,
)
from v2vsec.secrecy import velocity_secrecy

BASE = """\
[scenario]
name = demo
seed = 7

[link]
r_m = 1000
alpha = 1.4
tau_s = 0.2
pn0_db = 70

[thresholds]
band.0 = 0, inf, 16.0

[csi]
line.0 = CSI1|B|1|0|23|-60|-90|30|25
line.1 = CSI1|B|2|100|23|-60|-90|30|30
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadScenario:
    def test_loads_base(self, tmp_path):
        scn = load_scenario(write(tmp_path, BASE))
        assert scn.name == "demo"
        assert scn.link.r == 1000.0
        assert scn.link.budget.p_linear == 1e7
        assert len(scn.messages) == 2
        assert scn.config.thresholds.bands[0][2] == 16.0

    def test_missing_link_section(self, tmp_path):
        with pytest.raises(ScenarioError, match="link: missing section"):
            load_scenario(write(tmp_path, "[csi]\nline.0 = CSI1|B|1|0|23|-60|-90|30|25\n"))

    def test_missing_link_field(self, tmp_path):
        text = BASE.replace("r_m = 1000\n", "")
        with pytest.raises(ScenarioError, match="link.r_m: missing"):
            load_scenario(write(tmp_path, text))

    def test_unknown_key_path(self, tmp_path):
        text = BASE.replace("alpha = 1.4", "alpha = 1.4\nwarp = 9")
        with pytest.raises(ScenarioError, match="link.warp: unknown key"):
            load_scenario(write(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ScenarioError, match="turbo: unknown section"):
            load_scenario(write(tmp_path, BASE + "\n[turbo]\nx = 1\n"))

    def test_bad_band_reported_with_path(self, tmp_path):
        text = BASE.replace("band.0 = 0, inf, 16.0", "band.0 = 0, 25, 2.0")
        with pytest.raises(ScenarioError, match="thresholds"):
            load_scenario(write(tmp_path, text))

    def test_bad_csi_line_reported_with_path(self, tmp_path):
        text = BASE.replace("line.1 = CSI1|B|2|100|23|-60|-90|30|30",
                            "line.1 = CSI1|B|2|100|23|-60|-90|99|30")
        with pytest.raises(ScenarioError, match="csi.line.1"):
            load_scenario(write(tmp_path, text))

    def test_script_seq_regression_rejected_at_load(self, tmp_path):
        text = BASE.replace("line.1 = CSI1|B|2|100|23|-60|-90|30|30",
                            "line.1 = CSI1|B|1|100|23|-60|-90|30|30")
        with pytest.raises(ScenarioError, match="csi.line.1"):
            load_scenario(write(tmp_path, text))

    def test_seq_checked_per_sender_at_load(self, tmp_path):
        text = BASE.replace("line.1 = CSI1|B|2|100|23|-60|-90|30|30",
                            "line.1 = CSI1|B|5|100|23|-60|-90|30|30\n"
                            "line.2 = CSI1|C|1|150|23|-60|-90|30|30")
        scn = load_scenario(write(tmp_path, text))
        assert [(m.sender_id, m.seq) for m in scn.messages] == [("B", 1), ("B", 5), ("C", 1)]
        records = run_protocol_trace(scn)
        assert [r.seq for r in records] == [1, 5, 1]
        repeated = text.replace("line.2 = CSI1|C|1|", "line.2 = CSI1|B|5|")
        with pytest.raises(ScenarioError, match="csi.line.2: seq 5 from 'B'"):
            load_scenario(write(tmp_path, repeated))

    def test_stale_script_rejected_at_load(self, tmp_path):
        # the session would raise StaleCsiError on line 1: 1000 - 0 > 500 ms
        text = BASE.replace("|1|0|23|", "|1|1000|23|").replace("|2|100|23|", "|2|0|23|")
        with pytest.raises(ScenarioError, match="csi.line.1: timestamp 0 ms from 'B'"):
            load_scenario(write(tmp_path, text))
        # within the window, or from another sender, it loads
        load_scenario(write(tmp_path, text.replace("|2|0|23|", "|2|500|23|")))
        load_scenario(write(tmp_path, text.replace("CSI1|B|2|0|", "CSI1|C|2|0|")))

    def test_sparse_indices_rejected(self, tmp_path):
        text = BASE.replace("line.1 =", "line.3 =")
        with pytest.raises(ScenarioError, match="csi"):
            load_scenario(write(tmp_path, text))

    def test_relay_sections(self, tmp_path):
        text = BASE + "\n[relay.r9]\nh_rb = 0.01\nh_re = 1.0\np_max = 10\n"
        scn = load_scenario(write(tmp_path, text))
        assert len(scn.config.relay_candidates) == 1
        assert scn.config.relay_candidates[0].relay_id == "r9"

    def test_relay_candidates_sorted_by_id(self, tmp_path):
        text = (
            BASE
            + "\n[relay.zz]\nh_rb = 0.01\nh_re = 1.0\np_max = 10\n"
            + "\n[relay.aa]\nh_rb = 0.01\nh_re = 1.0\np_max = 10\n"
        )
        scn = load_scenario(write(tmp_path, text))
        assert [c.relay_id for c in scn.config.relay_candidates] == ["aa", "zz"]

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("alpha = 1.4", "alpha = fast", "link.alpha: not a number: 'fast'"),
            ("seed = 7", "seed = 7.5", "scenario.seed: not an integer: '7.5'"),
            ("[csi]", "[protocol]\nmax_boost_iterations = 2.5\n\n[csi]",
             "protocol.max_boost_iterations: not an integer: '2.5'"),
            ("pn0_db = 70", "pn0_db = inf", "link: pn0_db must be finite, got inf"),
            ("[csi]", "[relay.r1]\nh_rb = 0.1\nh_re = 1\n\n[csi]", "relay.r1.p_max: missing"),
            ("[csi]", "[relay.r1]\nh_rb = -0.1\nh_re = 1\np_max = 2\n\n[csi]",
             "relay.r1: h_rb must be >= 0, got -0.1"),
            ("[csi]", "[relay.]\nh_rb = 0.1\nh_re = 1\np_max = 2\n\n[csi]",
             "relay.: empty relay id"),
            ("[csi]", "[protocol]\nboost_step_db = 0\n\n[csi]",
             "protocol: boost_step_db must be > 0, got 0.0"),
            ("[csi]", "[protocol]\nstrategy_order = relay, warp\n\n[csi]",
             "protocol: unknown strategy 'warp'"),
            ("[csi]", "[protocol]\nturbo = 1\n\n[csi]", "protocol.turbo: unknown key"),
            ("seed = 7", "seed = 7\nmood = calm", "scenario.mood: unknown key"),
            ("alpha = 1.4", "ALPHA = 1.4", "link.ALPHA: unknown key"),
            ("[link]", "[Link]", "Link: unknown section"),
            (BASE[BASE.index("[csi]"):], "", "csi: missing section"),
            (BASE[BASE.index("[csi]"):], "[csi]\n", "csi: needs at least one line"),
            ("line.0 =", "foo = 1\nline.0 =", "csi.foo: expected keys like line.0"),
            ("band.0 = 0, inf, 16.0", "band.0 = 0, inf",
             "thresholds.band.0: expected low,high,threshold"),
            ("band.0 = 0, inf, 16.0", "band.0 = 0, x, 1",
             "thresholds.band.0: not numeric: '0, x, 1'"),
        ],
    )
    def test_error_message_names_the_field(self, tmp_path, old, new, message):
        text = BASE.replace(old, new, 1)
        assert text != BASE
        with pytest.raises(ScenarioError) as info:
            load_scenario(write(tmp_path, text))
        assert str(info.value) == message

    def test_duplicate_relay_section(self, tmp_path):
        relay = "\n[relay.a]\nh_rb = 0.1\nh_re = 1\np_max = 2\n"
        path = write(tmp_path, BASE + relay + relay)
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == (f"not parseable as INI: While reading from {str(path)!r} "
                                   "[line 23]: section 'relay.a' already exists")

    def test_protocol_overrides(self, tmp_path):
        text = BASE + "\n[protocol]\nboost_step_db = 1.5\nstrategy_order = power_boost, v2i_fallback\n"
        scn = load_scenario(write(tmp_path, text))
        assert scn.config.boost_step_db == 1.5
        assert scn.config.strategy_order == ("power_boost", "v2i_fallback")


class TestProtocolTrace:
    def test_trace_shape_and_determinism(self, tmp_path):
        scn = load_scenario(write(tmp_path, BASE))
        records = run_protocol_trace(scn)
        assert len(records) == 2
        text1 = trace_to_csv(records)
        text2 = trace_to_csv(run_protocol_trace(scn))
        assert text1 == text2
        assert text1.split("\n")[0] == TRACE_HEADER

    def test_direct_then_fallback_across_threshold(self, tmp_path):
        # 25 m/s clears the 16 bits/s/Hz threshold, 30 m/s does not
        scn = load_scenario(write(tmp_path, BASE))
        records = run_protocol_trace(scn)
        assert records[0].decision.mode == "direct"
        assert records[1].decision.mode != "direct"
        assert records[0].cs_clamped >= 16.0 > records[1].cs_clamped

    def test_unreachable_threshold_everything_v2i(self, tmp_path):
        text = BASE.replace("band.0 = 0, inf, 16.0", "band.0 = 0, inf, 99.0")
        scn = load_scenario(write(tmp_path, text))
        assert all(r.decision.mode == "v2i_fallback" for r in run_protocol_trace(scn))

    def test_dominant_relay_rescues(self, tmp_path):
        text = BASE.replace("r_m = 1000", "r_m = 50").replace(
            "band.0 = 0, inf, 16.0", "band.0 = 0, inf, 10.0"
        )
        text += "\n[relay.jam]\nh_rb = 0\nh_re = 1\np_max = 10\n"
        scn = load_scenario(write(tmp_path, text))
        records = run_protocol_trace(scn)
        assert all(
            r.decision.mode == "relay" for r in records if r.cs_clamped < 10.0
        )

    def test_direct_capacity_columns_match_library(self, tmp_path):
        scn = load_scenario(write(tmp_path, BASE))
        for record in run_protocol_trace(scn):
            ref = velocity_secrecy(1e7, 1.0, record.speed_mps, 0.2, 1000.0, 1.4)
            assert record.cs_raw == ref.raw
            assert record.cs_clamped == ref.clamped
