import errno
import hashlib
import os

import pytest

from v2vsec.cli import main
from v2vsec.sweeps import SWEEP_HEADER, read_sweep_csv

SCENARIO_TEXT = """\
[link]
r_m = 1000
alpha = 1.4
tau_s = 0.2
pn0_db = 70

[csi]
line.0 = CSI1|B|1|0|23|-60|-90|30|20
line.1 = CSI1|B|2|100|23|-60|-90|30|28
"""

# Five relay candidates (one, e, with an interior power optimum) and speeds
# chosen so the trace reaches all four modes: direct, relay, power_boost
# and v2i_fallback.
LADDER_SCENARIO_TEXT = """\
[link]
r_m = 150
alpha = 1.4
tau_s = 0.2
pn0_db = 60

[thresholds]
band.0 = 0, 25, 14
band.1 = 25, inf, 10.9

[relay.a]
h_rb = 3e-9
h_re = 2e-6
p_max = 4e5

[relay.b]
h_rb = 1e-8
h_re = 5e-7
p_max = 1e6

[relay.c]
h_rb = 2e-9
h_re = 8e-6
p_max = 3e6

[relay.d]
h_rb = 5e-8
h_re = 3e-6
p_max = 5e5

[relay.e]
h_rb = 2e-9
h_re = 8e-6
p_max = 3e9

[csi]
line.0 = CSI1|B|1|0|23|-60|-90|30|5
line.1 = CSI1|B|2|100|23|-60|-90|30|16
line.2 = CSI1|B|3|200|23|-60|-90|30|20
line.3 = CSI1|B|4|300|23|-60|-90|30|22
line.4 = CSI1|B|5|400|23|-60|-90|30|24
line.5 = CSI1|B|6|500|23|-60|-90|30|30
line.6 = CSI1|B|7|600|23|-60|-90|30|38
line.7 = CSI1|B|8|700|23|-60|-90|30|42.5
line.8 = CSI1|B|9|800|23|-60|-90|30|19.25
line.9 = CSI1|B|10|900|23|-60|-90|30|23.1
"""


class TestSweepCommand:
    def test_writes_conformant_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--from", "5", "--to", "10", "--step", "1", "--out", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.split("\n")[0] == SWEEP_HEADER
        assert len(read_sweep_csv(text)) == 6

    def test_multi_value_flags_emit_one_curve_each(self, tmp_path):
        out = tmp_path / "fig4.csv"
        code = main(
            ["sweep", "--from", "5", "--to", "8", "--step", "1",
             "--alpha", "4,2,1.4", "--out", str(out)]
        )
        assert code == 0
        rows = read_sweep_csv(out.read_text(encoding="utf-8"))
        assert {r.alpha for r in rows} == {4.0, 2.0, 1.4}
        assert len(rows) == 12

    def test_reruns_byte_identical(self, tmp_path):
        args = ["sweep", "--from", "5", "--to", "10", "--step", "0.5", "--theta", "0.1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_speed_axis_defaults(self, tmp_path):
        out = tmp_path / "dflt.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        rows = read_sweep_csv(out.read_text(encoding="utf-8"))
        assert rows[0].axis_value == 5.0
        assert rows[-1].axis_value == 50.0

    def test_swept_flag_must_be_single_valued(self):
        assert main(["sweep", "--axis", "alpha", "--from", "1", "--to", "2", "--step", "0.5",
                     "--alpha", "1,2"]) == 1

    @pytest.mark.parametrize("flag,value", [("--alpha", ""), ("--tau-ms", ""), ("--pn0-db", ",")])
    def test_empty_float_list_is_usage_error(self, capsys, flag, value):
        assert main(["sweep", "--from", "5", "--to", "6", "--step", "1", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"v2vsec: error: argument {flag}: not a comma-separated float list: {value!r}\n"
        )

    @pytest.mark.parametrize("where,code", [("missing/x.csv", errno.ENOENT), ("", errno.EISDIR)],
                             ids=["missing-directory", "a-directory"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, where, code):
        out = tmp_path / where
        assert main(["sweep", "--from", "5", "--to", "6", "--step", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"v2vsec: error: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n"

    def test_missing_range_for_non_speed_axis(self):
        assert main(["sweep", "--axis", "tau"]) == 1

    def test_bad_axis_is_usage_error(self):
        assert main(["sweep", "--axis", "warp"]) == 1

    def test_bad_axis_point_is_config_error(self):
        assert main(["sweep", "--axis", "tau", "--from", "0", "--to", "0.2", "--step", "0.1"]) == 1


class TestReadmeOutputsPinned:
    """The README's default tables, pinned byte for byte."""

    @pytest.mark.parametrize(
        "argv,sha256",
        [
            (["sweep", "--axis", "speed", "--from", "5", "--to", "50", "--step", "0.5",
              "--alpha", "4,2,1.4", "--pn0-db", "70", "--tau-ms", "200", "--r-m", "1000"],
             "4755ac8b0d4ad6dad535347e94012b44660ed2e9b1402078bdec5e39f3b9c524"),
            (["sweep", "--axis", "speed", "--alpha", "3.5", "--theta", "0.1"],
             "0ffabd0031eeb5389a85c29c9cea556486a93747a4fb2f359cc750ec3acd9909"),
            (["relay-compare", "--axis", "pa-db", "--from", "0", "--to", "30", "--step", "2"],
             "c2611556f60cfa2e579dec546c7e7166f7ff1fcee8778da13b157dde6e89065c"),
            (["ergodic-compare", "--eaves", "none"],
             "2bf152f736d9abc2caf6cc577731787846a6e71ba4d5fd692423023e9c42ee31"),
            (["ergodic-compare", "--eaves", "rayleigh"],
             "b3a2c29693c12ea67bf4c044dd59a4154a309c3da8e83c3da3700ea4498ca9ed"),
        ],
        ids=["speed_vs_alpha", "speed_fixed_angle", "relay_onoff", "ergodic_no_eaves",
             "ergodic_rayleigh_eaves"],
    )
    def test_sha256(self, tmp_path, argv, sha256):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestProtocolTracePinned:
    """protocol-trace output, pinned byte for byte on a ladder that reaches every mode."""

    SHA256 = "957e4c8838425de93afc089a89b77f09f7849b59bc2d2fa43c535de298b15fd5"

    def test_sha256(self, tmp_path):
        scn = tmp_path / "ladder.ini"
        scn.write_text(LADDER_SCENARIO_TEXT, encoding="utf-8")
        out = tmp_path / "trace.csv"
        assert main(["protocol-trace", "--scenario", str(scn), "--out", str(out)]) == 0
        modes = {line.split(",")[6] for line in out.read_text(encoding="utf-8").splitlines()[1:]}
        assert modes == {"direct", "relay", "power_boost", "v2i_fallback"}
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256


class TestOutOfRangeInput:
    """Overflowing or non-finite input is a configuration error, never a traceback."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--axis", "speed", "--from", "5", "--to", "inf", "--step", "1"],
             "range [5.0, inf] must be finite"),
            (["sweep", "--axis", "speed", "--from", "nan", "--to", "50", "--step", "1"],
             "range [nan, 50.0] must be finite"),
            (["sweep", "--axis", "speed", "--from", "5", "--to", "10", "--step", "1",
              "--pn0-db", "4000"],
             "axis point speed=5: 4000.0 dB overflows a float power ratio"),
            (["sweep", "--axis", "speed", "--from", "5", "--to", "10", "--step", "1",
              "--alpha", "300"],
             "axis point speed=5: path-loss power out of float range"),
            (["sweep", "--axis", "alpha", "--from", "1", "--to", "500", "--step", "100",
              "--v-mps", "30"],
             "axis point alpha=101: path-loss power out of float range"),
            (["relay-compare", "--axis", "pa-db", "--from", "0", "--to", "4000",
              "--step", "1000"],
             "axis point pa_db=4000: 4000.0 dB overflows a float power ratio"),
            (["relay-compare", "--axis", "pr", "--from", "0", "--to", "1", "--step", "1",
              "--pa-db", "4000"],
             "4000.0 dB overflows a float power ratio"),
            (["sweep", "--axis", "speed", "--from", "0", "--to", "1e300", "--step", "1e-300"],
             "range [0.0, 1e+300] with step 1e-300 has no finite point count"),
            (["relay-compare", "--axis", "pr", "--from", "0", "--to", "1e300",
              "--step", "1e-300"],
             "range [0.0, 1e+300] with step 1e-300 has no finite point count"),
            (["ergodic-compare", "--to", "inf"], "range [6.0, inf] must be finite"),
            (["ergodic-compare", "--step", "0"], "step must be > 0, got 0.0"),
            (["ergodic-compare", "--from", "nan"], "range [nan, 24.0] must be finite"),
            (["sweep", "--axis", "speed", "--from", "1e-4", "--to", "1e-4", "--step", "1",
              "--alpha", "4", "--tau-ms", "10", "--pn0-db", "3000", "--r-m", "10"],
             "axis point speed=0.0001: signal-to-noise ratio out of float range"),
        ],
        ids=["to-inf", "from-nan", "pn0-db-4000", "alpha-300", "alpha-axis-overflow",
             "relay-pa-db-4000", "relay-base-pa-db-4000", "sweep-point-count",
             "relay-point-count", "ergodic-to-inf", "ergodic-step-0", "ergodic-from-nan",
             "snr-overflow"],
    )
    def test_exits_1_with_message(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("v2vsec: error: " + message), err
        assert "Traceback" not in err


class TestOtherCommands:
    def test_relay_compare_runs(self, tmp_path):
        out = tmp_path / "relay.csv"
        assert main(["relay-compare", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("axis,")

    def test_ergodic_compare_runs(self, tmp_path):
        out = tmp_path / "erg.csv"
        code = main(["ergodic-compare", "--from", "8", "--to", "12", "--step", "2",
                     "--samples", "3000", "--out", str(out)])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").rstrip("\n").split("\n")) == 4

    def test_ergodic_low_power_assertion_exits_2(self):
        assert main(["ergodic-compare", "--from", "-20", "--to", "-20", "--step", "1",
                     "--samples", "20000"]) == 2

    def test_protocol_trace_runs(self, tmp_path):
        scn = tmp_path / "s.ini"
        scn.write_text(SCENARIO_TEXT, encoding="utf-8")
        out = tmp_path / "trace.csv"
        assert main(["protocol-trace", "--scenario", str(scn), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").rstrip("\n").split("\n")
        assert lines[0].startswith("seq,")
        assert len(lines) == 3

    def test_missing_scenario_file_is_usage_error(self, tmp_path):
        assert main(["protocol-trace", "--scenario", str(tmp_path / "nope.ini")]) == 1

    def test_invalid_scenario_is_usage_error(self, tmp_path):
        scn = tmp_path / "bad.ini"
        scn.write_text("[link]\nr_m = -5\nalpha = 1\ntau_s = 0.2\npn0_db = 70\n[csi]\n"
                       "line.0 = CSI1|B|1|0|23|-60|-90|30|20\n", encoding="utf-8")
        assert main(["protocol-trace", "--scenario", str(scn)]) == 1

    @pytest.mark.parametrize(
        "text,message",
        [
            (SCENARIO_TEXT.replace("|30|28", "|30|0"), "v must be positive and finite, got 0.0"),
            ("[link]\nr_m = 10\nalpha = 4\ntau_s = 0.01\npn0_db = 3000\n[csi]\n"
             "line.0 = CSI1|B|1|0|23|-60|-90|30|0.0001\n",
             "signal-to-noise ratio out of float range"),
        ],
        ids=["standstill", "snr-overflow"],
    )
    def test_replay_failure_exits_2(self, tmp_path, capsys, text, message):
        # the file loads; the failure comes while replaying it, so nothing is written
        scn = tmp_path / "s.ini"
        scn.write_text(text, encoding="utf-8")
        out = tmp_path / "trace.csv"
        assert main(["protocol-trace", "--scenario", str(scn), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("v2vsec: assertion failure: " + message), err
        assert not out.exists()

    def test_cs_demo_runs(self, tmp_path):
        out = tmp_path / "cs.csv"
        assert main(["cs-demo", "--n", "64", "--m", "32", "--k", "4",
                     "--trials", "20", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("arm,")

    def test_cs_demo_bad_dimensions_is_config_error(self):
        assert main(["cs-demo", "--n", "32", "--m", "64", "--k", "4", "--trials", "5"]) == 1

    def test_cs_demo_more_atoms_than_measurements_is_config_error(self, capsys):
        # both arms go through omp's own 1 <= k <= m rule, not a rank failure (exit 2)
        assert main(["cs-demo", "--n", "64", "--m", "8", "--k", "16", "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("v2vsec: error: need 1 <= k <= m, got k=16, m=8"), err

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["sweep", "--from", "5", "--to", "6", "--step", "1"]) == 0
        assert capsys.readouterr().out.startswith(SWEEP_HEADER)
