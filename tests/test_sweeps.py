import math
from dataclasses import replace

import numpy as np
import pytest

from v2vsec.channel import FadingModel, db_to_linear
from v2vsec import sweeps
from v2vsec.secrecy import (
    LinkGeometry,
    RelayConfig,
    fading_secrecy,
    geometric_secrecy,
    relay_secrecy,
    velocity_secrecy,
)
from v2vsec.sweeps import (
    ERGODIC_COMPARE_HEADER,
    RELAY_COMPARE_HEADER,
    SWEEP_HEADER,
    SweepError,
    SweepFormatError,
    SweepOrderingError,
    SweepRow,
    SweepSpec,
    axis_points,
    check_sweep_orderings,
    fmt_num,
    read_sweep_csv,
    rows_to_csv,
    run_cs_demo,
    run_ergodic_compare,
    run_relay_compare,
    run_sweep,
)


class TestFormatting:
    def test_header_contract(self):
        assert SWEEP_HEADER == (
            "axis,axis_value,v_mps,v_kmh,alpha,tau_s,r_m,pn0_db,cs_raw,cs_clamped,variant"
        )

    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0"),
            (-0.0, "0"),
            (5.0, "5"),
            (70.0, "70"),
            (17.171980443434384, "17.172"),
            (1.4028e-07, "1.4028e-07"),
            (-3.25, "-3.25"),
        ],
    )
    def test_fmt_num(self, value, expected):
        assert fmt_num(value) == expected

    def test_fmt_idempotent_through_parse(self):
        rng = np.random.default_rng(2)
        for x in rng.uniform(-1e8, 1e8, 200):
            s = fmt_num(float(x))
            assert fmt_num(float(s)) == s


class TestAxisPoints:
    def test_default_speed_grid_size(self):
        pts = axis_points(5.0, 50.0, 0.5)
        assert len(pts) == 91
        assert pts[0] == 5.0 and pts[-1] == 50.0

    def test_endpoint_not_overshot(self):
        assert axis_points(0.0, 1.0, 0.3) == pytest.approx([0.0, 0.3, 0.6, 0.9])

    @pytest.mark.parametrize(
        "start,stop,step,message",
        [
            (0.0, 1.0, 0.0, "step must be > 0, got 0.0"),
            (0.0, 1.0, math.nan, "step must be > 0, got nan"),
            (0.0, math.inf, 1.0, "range [0.0, inf] must be finite"),
            (math.nan, 1.0, 1.0, "range [nan, 1.0] must be finite"),
            (1.0, 0.0, 1.0, "empty range [1.0, 0.0]"),
            (0.0, 1e300, 1e-300, "range [0.0, 1e+300] with step 1e-300 has no finite point count"),
            (-1e308, 1e308, 1.0, "range [-1e+308, 1e+308] with step 1.0 has no finite point count"),
        ],
    )
    def test_rejects_a_range_without_finite_points(self, start, stop, step, message):
        with pytest.raises(SweepError) as info:
            axis_points(start, stop, step)
        assert str(info.value) == message
        with pytest.raises(SweepError) as info:
            SweepSpec(axis="speed", start=start, stop=stop, step=step)
        assert str(info.value) == message


class TestRunSweep:
    def test_speed_rows_ascend_and_decrease(self):
        spec = SweepSpec(axis="speed", start=5.0, stop=20.0, step=1.0)
        rows = run_sweep(spec)
        assert [r.axis_value for r in rows] == sorted(r.axis_value for r in rows)
        raws = [r.cs_raw for r in rows]
        assert all(a > b for a, b in zip(raws, raws[1:]))
        for r in rows:
            assert r.v_kmh == pytest.approx(3.6 * r.v_mps, rel=1e-12)
            assert r.variant == "vtau"
        check_sweep_orderings(spec, rows)

    def test_power_axis_increases(self):
        spec = SweepSpec(axis="power_db", start=40.0, stop=70.0, step=5.0, v_mps=30.0)
        rows = run_sweep(spec)
        raws = [r.cs_raw for r in rows]
        assert all(a < b for a, b in zip(raws, raws[1:]))
        check_sweep_orderings(spec, rows)

    def test_tau_axis_decreases(self):
        spec = SweepSpec(axis="tau", start=0.1, stop=0.4, step=0.05, v_mps=30.0)
        rows = run_sweep(spec)
        raws = [r.cs_raw for r in rows]
        assert all(a > b for a, b in zip(raws, raws[1:]))
        check_sweep_orderings(spec, rows)

    def test_alpha_axis_has_no_asserted_direction(self):
        spec = SweepSpec(axis="alpha", start=1.0, stop=4.0, step=0.5, v_mps=30.0)
        check_sweep_orderings(spec, run_sweep(spec))

    def test_theta_variant_rows_are_constant(self):
        spec = SweepSpec(axis="speed", start=20.0, stop=35.0, step=5.0, alpha=3.5, theta=0.1)
        rows = run_sweep(spec)
        vtau = [r for r in rows if r.variant == "vtau"]
        theta = [r for r in rows if r.variant == "theta"]
        assert len(vtau) == len(theta) == 4
        assert len({r.cs_raw for r in theta}) == 1
        check_sweep_orderings(spec, rows)

    def test_theta_capacity_evaluated_once_per_curve(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return geometric_secrecy(*args)

        monkeypatch.setattr(sweeps, "geometric_secrecy", counted)
        spec = SweepSpec(axis="speed", start=20.0, stop=35.0, step=5.0, alpha=3.5, theta=0.1)
        assert len(run_sweep(spec)) == 8
        assert len(calls) == 1

    def test_bad_theta_names_first_speed(self):
        spec = SweepSpec(axis="speed", start=7.5, stop=9.5, step=1.0, theta=-1.0)
        with pytest.raises(SweepError, match=r"^axis point speed=7\.5: theta"):
            run_sweep(spec)

    def test_theta_only_on_speed_axis(self):
        with pytest.raises(SweepError):
            SweepSpec(axis="tau", start=0.1, stop=0.4, step=0.1, theta=0.1)

    def test_bad_axis_point_is_named(self):
        spec = SweepSpec(axis="tau", start=0.0, stop=0.2, step=0.1, v_mps=30.0)
        with pytest.raises(SweepError, match="tau=0"):
            run_sweep(spec)

    def test_ordering_checker_detects_violation(self):
        spec = SweepSpec(axis="speed", start=5.0, stop=7.0, step=1.0)
        rows = run_sweep(spec)
        doctored = [rows[0], rows[2], rows[1]]
        with pytest.raises(SweepOrderingError):
            check_sweep_orderings(spec, doctored)

    def test_power_family_curves_ordered_pointwise(self):
        # speed sweeps at 40/50/60 dB with alpha=1.4, tau=400 ms: more power,
        # higher curve at every speed
        curves = [
            run_sweep(SweepSpec(axis="speed", start=5.0, stop=50.0, step=2.5,
                                alpha=1.4, tau=0.4, pn0_db=db))
            for db in (40.0, 50.0, 60.0)
        ]
        for low, high in zip(curves, curves[1:]):
            assert all(a.cs_raw < b.cs_raw for a, b in zip(low, high))

    def test_tau_family_curves_ordered_pointwise(self):
        # smaller cruise constant, higher curve at every speed
        curves = [
            run_sweep(SweepSpec(axis="speed", start=5.0, stop=50.0, step=2.5,
                                alpha=1.4, tau=tau, pn0_db=70.0))
            for tau in (0.1, 0.2, 0.4)
        ]
        for fast, slow in zip(curves, curves[1:]):
            assert all(a.cs_raw > b.cs_raw for a, b in zip(fast, slow))


def _assert_cells_match_public_formula(spec):
    """Every vtau row carries exactly the public velocity_secrecy value, bit for bit."""
    rows = run_sweep(spec)
    p_fixed = db_to_linear(spec.pn0_db)
    for row in rows:
        if row.variant == "theta":
            ref = geometric_secrecy(p_fixed, 1.0, LinkGeometry(r=spec.r, theta=spec.theta),
                                    spec.alpha)
        else:
            ref = velocity_secrecy(db_to_linear(row.pn0_db), 1.0, row.v_mps, row.tau_s,
                                   row.r_m, row.alpha)
        assert row.cs_raw == ref.raw and row.cs_clamped == ref.clamped, row
    return rows


class TestBitIdentity:
    """Sweep cells are the public formulas' values, not approximations of them."""

    @pytest.mark.parametrize(
        "spec,crosses_r",
        [
            (SweepSpec(axis="speed", start=0.5, stop=9000.0, step=3.7, tau=0.4), True),
            (SweepSpec(axis="power_db", start=-60.0, stop=140.0, step=0.37, v_mps=30.0), False),
            (SweepSpec(axis="power_db", start=-60.0, stop=140.0, step=0.37, v_mps=6000.0), True),
            (SweepSpec(axis="tau", start=0.01, stop=80.0, step=0.029, v_mps=30.0, alpha=2.0),
             True),
            (SweepSpec(axis="alpha", start=0.05, stop=30.0, step=0.013, v_mps=4.0), False),
            (SweepSpec(axis="alpha", start=0.05, stop=30.0, step=0.013, v_mps=9000.0), True),
        ],
        ids=["speed", "power_db", "power_db-beyond-r", "tau", "alpha", "alpha-beyond-r"],
    )
    def test_every_axis(self, spec, crosses_r):
        rows = _assert_cells_match_public_formula(spec)
        assert any(r.v_mps * r.tau_s >= r.r_m for r in rows) == crosses_r
        check_sweep_orderings(spec, rows)  # rows beyond r are exempt

    def test_rows_beyond_r_are_negative_and_exact(self):
        rows = _assert_cells_match_public_formula(
            SweepSpec(axis="speed", start=2400.0, stop=2600.0, step=5.0, tau=0.4)
        )
        beyond = [r for r in rows if r.v_mps * r.tau_s >= r.r_m]
        assert beyond and all(r.cs_raw <= 0 and r.cs_clamped == 0.0 for r in beyond)

    def test_readme_sweeps(self):
        for alpha in (4.0, 2.0, 1.4):
            _assert_cells_match_public_formula(
                SweepSpec(axis="speed", start=5.0, stop=50.0, step=0.5, alpha=alpha,
                          pn0_db=70.0, tau=0.2, r=1000.0)
            )
        _assert_cells_match_public_formula(
            SweepSpec(axis="speed", start=5.0, stop=50.0, step=0.5, alpha=3.5, theta=0.1)
        )

    def test_criterion_2_grid(self):
        for alpha in (1.4, 2.0, 4.0):
            for tau in (0.1, 0.2, 0.4):
                for pn0_db in (40.0, 50.0, 60.0, 70.0):
                    _assert_cells_match_public_formula(
                        SweepSpec(axis="speed", start=5.0, stop=50.0, step=0.5,
                                  alpha=alpha, tau=tau, pn0_db=pn0_db)
                    )
                for v in (5.0, 27.5, 50.0):
                    _assert_cells_match_public_formula(
                        SweepSpec(axis="power_db", start=40.0, stop=70.0, step=0.5,
                                  alpha=alpha, tau=tau, v_mps=v)
                    )


class TestBadAxisPoint:
    """The first point the formulas refuse is named with secrecy's own message."""

    @pytest.mark.parametrize(
        "spec,message",
        [
            (SweepSpec(axis="speed", start=5.0, stop=6.0, step=1.0, tau=0.0),
             "axis point speed=5: tau must be positive and finite, got 0.0"),
            (SweepSpec(axis="power_db", start=60.0, stop=70.0, step=5.0, tau=0.0),
             "axis point power_db=60: tau must be positive and finite, got 0.0"),
            (SweepSpec(axis="tau", start=0.0, stop=0.2, step=0.1, v_mps=30.0),
             "axis point tau=0: tau must be positive and finite, got 0.0"),
            (SweepSpec(axis="alpha", start=1.0, stop=2.0, step=0.5, tau=0.0),
             "axis point alpha=1: tau must be positive and finite, got 0.0"),
            (SweepSpec(axis="speed", start=5.0, stop=6.0, step=1.0, r=0.0),
             "axis point speed=5: r must be positive and finite, got 0.0"),
            (SweepSpec(axis="power_db", start=60.0, stop=70.0, step=5.0, r=-3.0),
             "axis point power_db=60: r must be positive and finite, got -3.0"),
            (SweepSpec(axis="tau", start=0.1, stop=0.2, step=0.1, r=-1.0),
             "axis point tau=0.1: r must be positive and finite, got -1.0"),
            (SweepSpec(axis="alpha", start=1.0, stop=2.0, step=0.5, r=0.0),
             "axis point alpha=1: r must be positive and finite, got 0.0"),
            (SweepSpec(axis="speed", start=5.0, stop=6.0, step=1.0, pn0_db=-4000.0),
             "axis point speed=5: p must be positive and finite, got 0.0"),
            (SweepSpec(axis="power_db", start=-4000.0, stop=0.0, step=1000.0),
             "axis point power_db=-4000: p must be positive and finite, got 0.0"),
            (SweepSpec(axis="tau", start=0.1, stop=0.2, step=0.1, pn0_db=-4000.0),
             "axis point tau=0.1: p must be positive and finite, got 0.0"),
            (SweepSpec(axis="alpha", start=1.0, stop=2.0, step=0.5, pn0_db=-4000.0),
             "axis point alpha=1: p must be positive and finite, got 0.0"),
        ],
    )
    def test_exact_message(self, spec, message):
        with pytest.raises(SweepError) as info:
            run_sweep(spec)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "spec,prefix",
        [
            # alpha = 1 is fine; r**(2*alpha) leaves the float range at alpha = 101
            (SweepSpec(axis="alpha", start=1.0, stop=500.0, step=100.0, v_mps=30.0),
             "axis point alpha=101: path-loss power out of float range"),
            # tau = 1 is fine; d**(2*alpha) overflows at d = 30 m/s * 5e199 s
            (SweepSpec(axis="tau", start=1.0, stop=1e200, step=5e199, v_mps=30.0),
             "axis point tau=5e+199: path-loss power out of float range"),
        ],
    )
    def test_bad_point_after_good_ones_is_named(self, spec, prefix):
        with pytest.raises(SweepError) as info:
            run_sweep(spec)
        assert str(info.value).startswith(prefix)

    @pytest.mark.parametrize(
        "kwargs",
        [{"pn0_db": 4000.0}, {"alpha": 300.0}, {"start": 1e200, "stop": 1e200},
         {"start": 1e-200, "stop": 1e-200},
         {"start": 1e-4, "stop": 1e-4, "alpha": 4.0, "tau": 0.01, "r": 10.0, "pn0_db": 3000.0}],
        ids=["power-overflow", "path-loss-overflow", "distance-overflow", "distance-underflow",
             "snr-overflow"],
    )
    def test_out_of_range_floats_are_sweep_errors(self, kwargs):
        spec = SweepSpec(**{"axis": "speed", "start": 5.0, "stop": 6.0, "step": 1.0, **kwargs})
        with pytest.raises(SweepError, match=r"^axis point speed="):
            run_sweep(spec)

    @pytest.mark.parametrize(
        "axis,value,fixed",
        [
            ("speed", 5.0, {"pn0_db": math.nan}),
            ("speed", 5.0, {"pn0_db": math.inf}),
            ("speed", 5.0, {"pn0_db": -math.inf}),
            ("power_db", -4000.0, {}),
            ("power_db", 4000.0, {}),
            ("speed", 0.0, {}),
            ("tau", 0.0, {}),
            ("alpha", 0.0, {}),
            ("speed", 5.0, {"r": 0.0}),
            # p = 1e300 over r**8 = 1e-24 overflows the eavesdropper's SNR
            ("power_db", 3000.0, {"alpha": 4.0, "r": 1e-3}),
        ],
        ids=["pn0-nan", "pn0-inf", "pn0-minus-inf", "pn0-minus-4000", "pn0-4000", "v-0",
             "tau-0", "alpha-0", "r-0", "snr-overflow"],
    )
    def test_message_is_the_public_formulas(self, axis, value, fixed):
        spec = SweepSpec(axis=axis, start=value, stop=value, step=1.0, **fixed)
        point = {"speed": "v_mps", "power_db": "pn0_db", "tau": "tau", "alpha": "alpha"}[axis]
        at = replace(spec, **{point: value})
        with pytest.raises(ValueError) as public:
            velocity_secrecy(db_to_linear(at.pn0_db), 1.0, at.v_mps, at.tau, at.r, at.alpha)
        with pytest.raises(SweepError) as info:
            run_sweep(spec)
        assert str(info.value) == f"axis point {axis}={fmt_num(value)}: {public.value}"

    @pytest.mark.parametrize("start,stop", [(5.0, math.inf), (math.nan, 5.0), (5.0, math.nan),
                                            (-math.inf, 5.0)])
    def test_non_finite_range_is_rejected(self, start, stop):
        with pytest.raises(SweepError, match=r"must be finite"):
            SweepSpec(axis="speed", start=start, stop=stop, step=1.0)


class TestSweepRow:
    def test_is_a_named_tuple_with_the_header_fields(self):
        row = run_sweep(SweepSpec(axis="speed", start=5.0, stop=5.0, step=1.0))[0]
        assert isinstance(row, tuple)
        assert ",".join(SweepRow._fields) == SWEEP_HEADER
        assert row == tuple(row)

    def test_to_csv_matches_fmt_num_cells(self):
        row = SweepRow("power_db", -0.0, 30.0, 108.0, 1.4, 0.2, 1000.0, -0.0, -3.25e-7, 0.0,
                       "vtau")
        expected = ",".join([row.axis, *(fmt_num(x) for x in row[1:10]), row.variant])
        assert row.to_csv() == expected == "power_db,0,30,108,1.4,0.2,1000,0,-3.25e-07,0,vtau"
        assert rows_to_csv([row]) == SWEEP_HEADER + "\n" + expected + "\n"


class TestCsvContract:
    def test_round_trip_is_byte_identical(self):
        spec = SweepSpec(axis="speed", start=5.0, stop=10.0, step=0.5, theta=0.1, alpha=3.5)
        text = rows_to_csv(run_sweep(spec))
        assert rows_to_csv(read_sweep_csv(text)) == text
        assert text.endswith("\n") and "\r" not in text

    def test_numeric_cells_take_any_float_spelling(self):
        # the reader checks structure, not spelling: a table it accepts
        # re-encodes byte for byte only if the writer produced it
        text = SWEEP_HEADER + "\nspeed, 5,1_0,+3,nan,inf,1e3,70,0.00000,-0,vtau\n"
        assert rows_to_csv(read_sweep_csv(text)) == (
            SWEEP_HEADER + "\nspeed,5,10,3,nan,inf,1000,70,0,0,vtau\n"
        )

    def test_rejects_bad_header(self):
        with pytest.raises(SweepFormatError):
            read_sweep_csv("axis,axis_value\nspeed,5\n")

    def test_rejects_missing_trailing_newline(self):
        text = rows_to_csv(run_sweep(SweepSpec(axis="speed", start=5.0, stop=6.0, step=1.0)))
        with pytest.raises(SweepFormatError):
            read_sweep_csv(text.rstrip("\n"))

    def test_rejects_wrong_field_count(self):
        with pytest.raises(SweepFormatError):
            read_sweep_csv(SWEEP_HEADER + "\nspeed,5,5\n")

    def test_rejects_unknown_variant(self):
        spec = SweepSpec(axis="speed", start=5.0, stop=5.0, step=1.0)
        line = run_sweep(spec)[0].to_csv().rsplit(",", 1)[0] + ",warp"
        with pytest.raises(SweepFormatError):
            read_sweep_csv(SWEEP_HEADER + "\n" + line + "\n")


class TestRelayCompare:
    BASE = RelayConfig(p_a=100.0, p_r=1.0, h_ab=1.0, h_rb=0.05, h_ae=0.5, h_re=1.0,
                       sigma_b2=1.0, sigma_e2=1.0, w=1.0)

    def test_off_arm_equals_direct_formula(self):
        lines = run_relay_compare("pa_db", 0.0, 20.0, 5.0, self.BASE)
        assert lines[0] == RELAY_COMPARE_HEADER
        for line in lines[1:]:
            fields = line.split(",")
            p_a = float(fields[2])
            ref = fading_secrecy(p_a, 1.0, math.sqrt(self.BASE.h_ab), math.sqrt(self.BASE.h_ae))
            assert float(fields[13]) == pytest.approx(ref.raw, rel=1e-5)

    def test_jamming_relay_helps_everywhere(self):
        lines = run_relay_compare("pa_db", 0.0, 30.0, 3.0, self.BASE)
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[11]) >= float(fields[13])

    def test_target_facing_relay_hurts(self):
        noisy = RelayConfig(p_a=100.0, p_r=1.0, h_ab=1.0, h_rb=2.0, h_ae=0.5, h_re=0.01,
                            sigma_b2=1.0, sigma_e2=1.0, w=1.0)
        lines = run_relay_compare("pa_db", 0.0, 30.0, 3.0, noisy)
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[11]) <= float(fields[13])

    def test_pr_axis_off_arm_constant(self):
        lines = run_relay_compare("pr", 0.0, 5.0, 1.0, self.BASE)
        off = {line.split(",")[13] for line in lines[1:]}
        assert len(off) == 1

    def test_rejects_unknown_axis(self):
        with pytest.raises(SweepError):
            run_relay_compare("speed", 0.0, 1.0, 1.0, self.BASE)

    @pytest.mark.parametrize("start,stop", [(0.0, math.inf), (math.nan, 4.0), (0.0, math.nan)])
    def test_rejects_non_finite_range(self, start, stop):
        with pytest.raises(SweepError, match=r"must be finite"):
            run_relay_compare("pa_db", start, stop, 1.0, self.BASE)

    def test_bad_axis_point_is_named(self):
        with pytest.raises(SweepError) as info:
            run_relay_compare("pa_db", 0.0, 4000.0, 1000.0, self.BASE)
        assert str(info.value) == "axis point pa_db=4000: 4000.0 dB overflows a float power ratio"
        with pytest.raises(SweepError) as info:
            run_relay_compare("pa_db", -4000.0, 0.0, 1000.0, self.BASE)
        assert str(info.value) == (
            "axis point pa_db=-4000: p_a must be positive and finite, got 0.0"
        )
        with pytest.raises(SweepError) as info:
            run_relay_compare("pr", -1.0, 1.0, 1.0, self.BASE)
        assert str(info.value) == "axis point pr=-1: p_r must be >= 0, got -1.0"

    @pytest.mark.parametrize("sigma_e2", [1.0, 2.5, 0.3])
    @pytest.mark.parametrize("axis,start,stop,step", [("pa_db", -40.0, 60.0, 0.25),
                                                      ("pr", 0.0, 40.0, 0.125)])
    def test_cells_are_the_public_relay_formula(self, axis, start, stop, step, sigma_e2):
        base = replace(self.BASE, sigma_e2=sigma_e2, h_rb=0.3)
        lines = run_relay_compare(axis, start, stop, step, base)
        points = axis_points(start, stop, step)
        assert len(lines) == len(points) + 1
        for value, line in zip(points, lines[1:]):
            if axis == "pa_db":
                cfg = replace(base, p_a=base.sigma_b2 * db_to_linear(value))
            else:
                cfg = replace(base, p_r=value)
            on, off = relay_secrecy(cfg), relay_secrecy(replace(cfg, p_r=0.0))
            cells = line.split(",")
            assert cells[2:4] == [fmt_num(cfg.p_a), fmt_num(cfg.p_r)]
            assert cells[11:] == [fmt_num(on.raw), fmt_num(on.clamped),
                                  fmt_num(off.raw), fmt_num(off.clamped)], line


class TestErgodicCompare:
    def test_columns_and_dominance(self):
        lines = run_ergodic_compare(
            [6.0, 10.0, 14.0], FadingModel.rayleigh(), n_samples=5000, seed=7
        )
        assert lines[0] == ERGODIC_COMPARE_HEADER
        for line in lines[1:]:
            fields = line.split(",")
            awgn, erg, ci = float(fields[2]), float(fields[3]), float(fields[4])
            assert awgn >= erg - ci

    def test_deterministic_output(self):
        args = ([8.0, 12.0], FadingModel.rayleigh())
        a = run_ergodic_compare(*args, n_samples=4000, seed=9)
        b = run_ergodic_compare(*args, n_samples=4000, seed=9)
        assert a == b

    def test_draws_states_once_per_table(self, monkeypatch):
        draws = []
        draw = sweeps.draw_channel_states

        def counting_draw(spec):
            draws.append(spec)
            return draw(spec)

        monkeypatch.setattr(sweeps, "draw_channel_states", counting_draw)
        lines = run_ergodic_compare(
            [6.0, 8.0, 10.0], FadingModel.rayleigh(), FadingModel.rayleigh(), n_samples=2000, seed=3
        )
        assert len(lines) == 4
        assert len(draws) == 1

    def test_low_power_opportunistic_regime_fails_loudly(self):
        # below ~2 dB the optimal fading allocation beats AWGN, so the
        # dominance assertion must trip rather than pass silently
        with pytest.raises(SweepOrderingError):
            run_ergodic_compare([-20.0], FadingModel.rayleigh(), n_samples=20_000, seed=5)


class TestCsDemo:
    def test_small_run_statistics(self):
        lines = run_cs_demo(n=64, m=32, k=4, trials=25, seed=77)
        assert lines[0].startswith("arm,")
        correct = lines[1].split(",")
        wrong = lines[2].split(",")
        assert correct[0] == "correct_key" and wrong[0] == "wrong_key"
        assert float(correct[6]) >= float(wrong[6])

    def test_saturated_sparsity_fails_recovery(self):
        lines = run_cs_demo(n=64, m=16, k=16, trials=10, seed=3)
        assert float(lines[1].split(",")[6]) <= 0.5

    def test_rejects_zero_trials(self):
        with pytest.raises(SweepError):
            run_cs_demo(n=64, m=32, k=4, trials=0, seed=1)
