import gc
import math
import platform

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v2vsec._common import real
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
    SweepTable,
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
            (SweepSpec(axis="speed", start=0.5, stop=400.0, step=0.13, alpha=4.0, pn0_db=150.0),
             False),
            (SweepSpec(axis="tau", start=0.001, stop=4.0, step=0.0031, v_mps=30.0, alpha=3.0),
             False),
            (SweepSpec(axis="power_db", start=-300.0, stop=300.0, step=1.3, v_mps=1e-3,
                       alpha=4.0), False),
            (SweepSpec(axis="alpha", start=0.05, stop=40.0, step=0.017, v_mps=300.0, r=50.0),
             True),
        ],
        ids=["speed", "power_db", "power_db-beyond-r", "tau", "alpha", "alpha-beyond-r",
             "speed-high-power", "tau-inside-r", "power_db-tiny-d", "alpha-small-r"],
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


def _per_point_vtau_raws(spec, points):
    """The d = v*tau block's capacities point by point, as _vtau_columns once took them.

    The oracle for the curve evaluator: each point's raw from the public
    velocity_secrecy, and the first point refused named with its error.
    """
    axis = spec.axis
    if axis != "power_db":
        try:
            p = db_to_linear(spec.pn0_db)
        except ValueError as exc:
            raise SweepError(f"axis point {axis}={fmt_num(points[0])}: {exc}") from None
    raws = []
    for value in points:
        at = {"speed": spec.v_mps, "tau": spec.tau, "alpha": spec.alpha, axis: value}
        try:
            if axis == "power_db":
                p = db_to_linear(value)
            raws.append(velocity_secrecy(p, 1.0, at["speed"], at["tau"], spec.r, at["alpha"]).raw)
        except ValueError as exc:
            raise SweepError(f"axis point {axis}={fmt_num(value)}: {exc}") from None
    return raws


def _raws_or_error(fn):
    """The exact bits of each raw fn returns, or the type and text of what it raises."""
    try:
        return [x.hex() for x in fn()]
    except Exception as exc:
        return type(exc), str(exc)


# per axis: ordinary points, and points that are refused or leave the float range
_AXIS_POINTS = {
    "speed": (st.floats(min_value=0.1, max_value=200.0), [0.0, -3.0, 5e-324, 1e300, math.inf]),
    "tau": (st.floats(min_value=1e-3, max_value=5.0), [0.0, -0.5, 5e-324, 1e300, math.nan]),
    "alpha": (st.floats(min_value=0.1, max_value=8.0), [0.0, -1.0, 400.0, math.inf]),
    "power_db": (st.floats(min_value=-100.0, max_value=200.0), [-4000.0, 3050.0, 4000.0]),
}
_FIXED = {
    "r": (st.floats(min_value=10.0, max_value=5000.0), [0.0, 1e-300, math.inf]),
    "alpha": (st.floats(min_value=0.1, max_value=8.0), [0.0, 400.0, math.nan]),
    "tau": (st.floats(min_value=1e-3, max_value=5.0), [0.0, 1e300]),
    "pn0_db": (st.floats(min_value=-100.0, max_value=200.0), [-4000.0, 3050.0, 4000.0]),
    "v_mps": (st.floats(min_value=0.1, max_value=200.0), [-1.0, 5e-324, 1e300]),
}


@st.composite
def _axis_curves(draw):
    """A spec and the points of its d = v*tau block, on any axis, some beyond range."""
    axis = draw(st.sampled_from(sweeps.AXES))
    ordinary, refused = _AXIS_POINTS[axis]
    points = sorted(draw(st.lists(ordinary, min_size=1, max_size=25)))
    if draw(st.booleans()):  # a refused point at a random position
        points[draw(st.integers(0, len(points) - 1))] = draw(st.sampled_from(refused))
    edgy = draw(st.booleans())
    fixed = {name: draw(st.one_of(ok, st.sampled_from(bad)) if edgy else ok)
             for name, (ok, bad) in _FIXED.items()}
    return SweepSpec(axis=axis, start=0.0, stop=1.0, step=1.0, **fixed), points


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
            (SweepSpec(axis="speed", start=5.0, stop=6.0, step=1.0, alpha=-2.0),
             "axis point speed=5: alpha must be positive and finite, got -2.0"),
            (SweepSpec(axis="power_db", start=60.0, stop=70.0, step=5.0, alpha=0.0),
             "axis point power_db=60: alpha must be positive and finite, got 0.0"),
            (SweepSpec(axis="tau", start=0.1, stop=0.2, step=0.1, v_mps=0.0),
             "axis point tau=0.1: v must be positive and finite, got 0.0"),
            (SweepSpec(axis="alpha", start=1.0, stop=2.0, step=0.5, v_mps=-1.0),
             "axis point alpha=1: v must be positive and finite, got -1.0"),
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
            # speed = 1 is fine; d**(2*alpha) overflows at d = 5e199 m/s * 0.2 s
            (SweepSpec(axis="speed", start=1.0, stop=1e200, step=5e199),
             "axis point speed=5e+199: path-loss power out of float range"),
            # 2000 dB is fine; 1e300 over d**8 = 2.6e-30 overflows the legitimate SNR
            (SweepSpec(axis="power_db", start=0.0, stop=3000.0, step=1000.0, v_mps=1e-3,
                       alpha=4.0),
             "axis point power_db=3000: signal-to-noise ratio out of float range"),
            (SweepSpec(axis="power_db", start=3000.0, stop=3100.0, step=50.0),
             "axis point power_db=3100: 3100.0 dB overflows a float power ratio"),
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
        "axis,start,stop,step",
        [("speed", 5.0, 10.0, 1.0), ("tau", 0.1, 0.3, 0.1), ("alpha", 1.0, 2.0, 0.5)],
    )
    def test_fixed_power_overflow_names_the_first_point(self, axis, start, stop, step):
        # --pn0-db 4000 on the CLI; the fixed power is converted once per curve
        spec = SweepSpec(axis=axis, start=start, stop=stop, step=step, pn0_db=4000.0)
        with pytest.raises(SweepError) as info:
            run_sweep(spec)
        assert str(info.value) == (
            f"axis point {axis}={fmt_num(start)}: 4000.0 dB overflows a float power ratio"
        )

    def test_swept_power_overflow_names_its_point(self):
        spec = SweepSpec(axis="power_db", start=0.0, stop=4000.0, step=1000.0)
        with pytest.raises(SweepError) as info:
            run_sweep(spec)
        assert str(info.value) == (
            "axis point power_db=4000: 4000.0 dB overflows a float power ratio"
        )

    @pytest.mark.parametrize("axis,calls", [("speed", 1), ("tau", 1), ("alpha", 1),
                                            ("power_db", 3)])
    def test_fixed_power_is_converted_once_per_curve(self, monkeypatch, axis, calls):
        seen = []

        def counted(x):
            seen.append(x)
            return db_to_linear(x)

        monkeypatch.setattr(sweeps, "db_to_linear", counted)
        start = {"speed": 5.0, "tau": 0.1, "alpha": 1.0, "power_db": 60.0}[axis]
        assert len(run_sweep(SweepSpec(axis=axis, start=start, stop=start + 1.0, step=0.5))) == 3
        assert len(seen) == calls

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
        at = spec._replace(**{point: value})
        with pytest.raises(ValueError) as public:
            # the sweep checks a fixed pn0_db by its own name before converting it
            p = db_to_linear(real("pn0_db", at.pn0_db))
            velocity_secrecy(p, 1.0, at.v_mps, at.tau, at.r, at.alpha)
        with pytest.raises(SweepError) as info:
            run_sweep(spec)
        assert str(info.value) == f"axis point {axis}={fmt_num(value)}: {public.value}"

    @settings(max_examples=400, deadline=None)
    @given(_axis_curves())
    def test_curve_matches_the_per_point_loop(self, case):
        spec, points = case
        got = _raws_or_error(lambda: sweeps._vtau_columns(spec, points)[8])
        assert got == _raws_or_error(lambda: _per_point_vtau_raws(spec, points))

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


# One well-formed table line, as rows_to_csv writes it.
_LINE = "speed,5,5,18,1.4,0.2,1000,70,17.172,17.172,vtau"


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

    def test_header_only_table(self):
        assert rows_to_csv([]) == SWEEP_HEADER + "\n"
        assert read_sweep_csv(SWEEP_HEADER + "\n") == []

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "bad header: ''"),
            ("axis,axis_value\nspeed,5\n", "bad header: 'axis,axis_value'"),
            (SWEEP_HEADER, "missing trailing newline"),
            (SWEEP_HEADER + "\n" + _LINE, "missing trailing newline"),
            # a bad header wins over a missing trailing newline
            ("axis\n" + _LINE, "bad header: 'axis'"),
            (SWEEP_HEADER + "\n\n", "line 2: expected 11 fields, got 1"),
            (SWEEP_HEADER + "\nspeed,5,5\n", "line 2: expected 11 fields, got 3"),
            (f"{SWEEP_HEADER}\n{_LINE}\n{_LINE},1\n", "line 3: expected 11 fields, got 12"),
            (f"{SWEEP_HEADER}\n{_LINE}\r\n", "line 2: unknown variant 'vtau\\r'"),
            (f"{SWEEP_HEADER}\n{_LINE}\nwarp{_LINE[5:]}\n", "line 3: unknown axis 'warp'"),
            (f"{SWEEP_HEADER}\n{_LINE[:-4]}warp\n", "line 2: unknown variant 'warp'"),
            (f"{SWEEP_HEADER}\n{_LINE.replace(',70,', ',x,')}\n",
             "line 2: could not convert string to float: 'x'"),
            (f"{SWEEP_HEADER}\n{_LINE.replace(',70,', ',,')}\n",
             "line 2: could not convert string to float: ''"),
            # within a line: the field count, the axis, the variant, then the cells
            (f"{SWEEP_HEADER}\nwarp,x,warp\n", "line 2: expected 11 fields, got 3"),
            (f"{SWEEP_HEADER}\nwarp{_LINE[5:-4]}warp\n", "line 2: unknown axis 'warp'"),
            (f"{SWEEP_HEADER}\n{_LINE[:-4].replace(',70,', ',x,')}warp\n",
             "line 2: unknown variant 'warp'"),
            (f"{SWEEP_HEADER}\n{_LINE.replace(',5,5,', ',y,x,')}\n",
             "line 2: could not convert string to float: 'y'"),
            # the first bad line in file order wins, whatever its fault
            (f"{SWEEP_HEADER}\nwarp{_LINE[5:]}\n{_LINE},1\n", "line 2: unknown axis 'warp'"),
            (f"{SWEEP_HEADER}\n{_LINE}\n{_LINE.replace(',70,', ',x,')}\n{_LINE}\n"
             f"{_LINE[:-4]}warp\n", "line 3: could not convert string to float: 'x'"),
            # 21 fields, then 1: the cell count is that of two good lines
            (f"{SWEEP_HEADER}\n{_LINE},{_LINE[:-5]}\nvtau\n", "line 2: expected 11 fields, got 21"),
            # 10 fields, then 2: float() would take the "17.172\n" that spans them
            (f"{SWEEP_HEADER}\n{_LINE[:-5]}\n,vtau\n", "line 2: expected 11 fields, got 10"),
        ],
        ids=["empty", "bad-header", "header-only-no-lf", "no-trailing-lf", "header-before-lf",
             "empty-line", "three-fields", "twelve-fields", "crlf", "unknown-axis",
             "unknown-variant", "bad-float", "empty-cell", "count-before-axis",
             "axis-before-variant", "variant-before-cells", "cells-left-to-right",
             "axis-line-2-before-count-line-3", "float-line-3-before-variant-line-5",
             "lines-that-sum-to-two", "line-break-in-a-number"],
    )
    def test_error_names_the_first_bad_line(self, text, message):
        with pytest.raises(SweepFormatError) as info:
            read_sweep_csv(text)
        assert str(info.value) == message


# The per-row codec that the column-wise one replaced, kept as its oracle:
# one %-format string per line, fmt_num's "%.6g" after + 0.0 per number,
# and a reader that checks and parses line by line.
_ROW_FORMAT = "%s" + ",%.6g" * 9 + ",%s"


def _rows_to_csv_by_row(rows):
    lines = [_ROW_FORMAT % (row[0], *(x + 0.0 for x in row[1:10]), row[10]) for row in rows]
    return "\n".join([SWEEP_HEADER, *lines, ""])


def _read_sweep_csv_by_row(text):
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER:
        raise SweepFormatError(f"bad header: {lines[0]!r}")
    if lines[-1] != "":
        raise SweepFormatError("missing trailing newline")
    rows = []
    for i, line in enumerate(lines[1:-1], start=2):
        parts = line.split(",")
        if len(parts) != 11:
            raise SweepFormatError(f"line {i}: expected 11 fields, got {len(parts)}")
        if parts[0] not in sweeps.AXES:
            raise SweepFormatError(f"line {i}: unknown axis {parts[0]!r}")
        if parts[10] not in ("vtau", "theta"):
            raise SweepFormatError(f"line {i}: unknown variant {parts[10]!r}")
        try:
            parts[1:10] = map(float, parts[1:10])
        except ValueError as exc:
            raise SweepFormatError(f"line {i}: {exc}") from None
        rows.append(SweepRow._make(parts))
    return rows


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, -2.5e-320,
                     1.7976931348623157e308, 17.171980443434384]),
    st.integers(-10**6, 10**6),
)


def _equal_copy(column):
    """Cells equal to the column's, not the same objects: -0.0 and ints become 0.0 and floats."""
    return [float(x) if isinstance(x, int) else 0.0 if x == 0 else x for x in column]


@st.composite
def _row_lists(draw, max_rows=6):
    """Rows whose numeric columns are free, constant, or equal to an earlier column."""
    n = draw(st.integers(0, max_rows))
    columns = []
    for _ in range(9):
        kind = draw(st.sampled_from(["free", "constant", "copy", "equal"] if columns
                                    else ["free", "constant"]))
        if kind == "free":
            columns.append(draw(st.lists(_NUMBERS, min_size=n, max_size=n)))
        elif kind == "constant":
            columns.append([draw(_NUMBERS)] * n)
        else:
            earlier = draw(st.sampled_from(columns))
            columns.append(list(earlier) if kind == "copy" else _equal_copy(earlier))
    axes = draw(st.lists(st.sampled_from(sweeps.AXES), min_size=n, max_size=n))
    variants = draw(st.lists(st.sampled_from(["vtau", "theta"]), min_size=n, max_size=n))
    return [SweepRow(a, *cells, v) for a, *cells, v in zip(axes, *columns, variants)]


# Text that breaks a table when it replaces a cell or a separator.
_DAMAGE = st.sampled_from(["x", "", ",", "\n", ",,", "\n\n", "vtau", "theta", "speed", "warp",
                           "1e", "nan", " 5", "5,", ",5", "vtau\nspeed", "\r"])


class TestColumnCodec:
    """The column-wise writer and reader against the per-row oracle above."""

    @given(_row_lists())
    def test_writer_matches_the_per_row_writer(self, rows):
        text = rows_to_csv(rows)
        assert text == _rows_to_csv_by_row(rows)
        assert rows_to_csv(read_sweep_csv(text)) == text
        if rows:
            assert rows[0].to_csv() == text.split("\n")[1]

    def test_one_row_and_no_rows(self):
        row = SweepRow("tau", 0.1, 22.2, 79.92, 1.4, 0.1, 1000.0, 70.0, -0.0, 0.0, "vtau")
        assert rows_to_csv([row]) == _rows_to_csv_by_row([row])
        assert rows_to_csv([]) == _rows_to_csv_by_row([]) == SWEEP_HEADER + "\n"

    @given(_row_lists(max_rows=4), st.data())
    def test_reader_matches_the_per_line_reader(self, rows, data):
        text = rows_to_csv(rows)
        damage = data.draw(st.sampled_from(["none", "field", "splice"] if rows else
                                           ["none", "splice"]))
        if damage == "field":  # one whole field of one line replaced
            lines = text.split("\n")
            i = data.draw(st.integers(1, len(rows)))
            fields = lines[i].split(",")
            fields[data.draw(st.integers(0, 10))] = data.draw(_DAMAGE)
            lines[i] = ",".join(fields)
            text = "\n".join(lines)
        elif damage == "splice":  # up to 3 characters anywhere replaced
            at = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 3))
            text = text[:at] + data.draw(_DAMAGE) + text[at + cut:]
        try:
            expected = _read_sweep_csv_by_row(text)
        except SweepFormatError as exc:
            with pytest.raises(SweepFormatError) as info:
                read_sweep_csv(text)
            assert str(info.value) == str(exc)
        else:
            assert repr(list(read_sweep_csv(text))) == repr(expected)

    def test_multi_curve_table_round_trips(self):
        # columns repeat in runs rather than being constant
        rows = [row for alpha in (1.4, 2.0) for tau in (0.1, 0.2)
                for row in run_sweep(SweepSpec(axis="speed", start=5.0, stop=6.0, step=0.5,
                                               alpha=alpha, tau=tau, theta=0.01))]
        text = rows_to_csv(rows)
        assert text == _rows_to_csv_by_row(rows)
        assert rows_to_csv(read_sweep_csv(text)) == text


# Run lengths on both sides of the codec's rule that a table with more than
# one variant run per 64 rows is mapped as one block.
_RUN_LENGTHS = st.one_of(st.integers(1, 3), st.integers(60, 140))


@st.composite
def _block_tables(draw, max_blocks=5):
    """Rows in variant runs, each repeating a few drawn rows to its length.

    A run may keep the previous run's variant, and may repeat the previous
    run's speed columns (axis_value, v_mps, v_kmh) as the same cells or as
    equal ones, as a theta block repeats its vtau block's.
    """
    variant = draw(st.sampled_from(sweeps.VARIANTS))
    blocks = []
    for _ in range(draw(st.integers(1, max_blocks))):
        if draw(st.booleans()):
            variant = "theta" if variant == "vtau" else "vtau"
        speeds = draw(st.sampled_from(["own", "same", "equal"]) if blocks else st.just("own"))
        length = draw(_RUN_LENGTHS) if speeds == "own" else len(blocks[-1][0])
        drawn = draw(_row_lists().filter(bool))
        columns = [list(c) for c in zip(*(drawn * length)[:length])]
        columns[10] = [variant] * length
        if speeds != "own":
            columns[1:4] = [c if speeds == "same" else _equal_copy(c) for c in blocks[-1][1:4]]
        blocks.append(columns)
    return [SweepRow._make(row) for columns in blocks for row in zip(*columns)]


class TestBlockCodec:
    """The codec, which maps each variant run once, against the per-row oracle."""

    @settings(deadline=None)
    @given(_block_tables(), st.data())
    def test_matches_the_per_row_codec(self, rows, data):
        # each check is a bool before it is asserted: pytest's diff of two
        # texts of hundreds of lines would take seconds per failing example
        text = rows_to_csv(rows)
        checks = {"writer": text == _rows_to_csv_by_row(rows),
                  "table writer": text == rows_to_csv(_table_of(rows)),
                  "reader": repr(list(read_sweep_csv(text))) == repr(_read_sweep_csv_by_row(text))}
        # one field of a line in a run drawn first, so that short runs are damaged too
        starts = [i for i in range(len(rows)) if i == 0 or rows[i].variant != rows[i - 1].variant]
        run = data.draw(st.integers(0, len(starts) - 1))
        stop = starts[run + 1] if run + 1 < len(starts) else len(rows)
        line = data.draw(st.integers(starts[run], stop - 1)) + 1
        lines = text.split("\n")
        fields = lines[line].split(",")
        fields[data.draw(st.integers(0, 10))] = data.draw(_DAMAGE)
        lines[line] = ",".join(fields)
        text = "\n".join(lines)
        try:
            expected = repr(_read_sweep_csv_by_row(text))
        except SweepFormatError as exc:
            expected = f"SweepFormatError: {exc}"
        try:
            got = repr(list(read_sweep_csv(text)))
        except SweepFormatError as exc:
            got = f"SweepFormatError: {exc}"
        checks["damaged reader"] = got == expected
        assert all(checks.values()), checks

    def test_a_theta_block_maps_only_its_own_capacity(self, monkeypatch):
        counts = {}
        for name in ("_format_cells", "_parse_cells"):
            def counted(column, each=getattr(sweeps, name), name=name):
                counts[name] += len(column)
                return each(column)

            monkeypatch.setattr(sweeps, name, counted)
        # the benchmark's curve: a vtau and a theta block of 2,251 rows each
        table = run_sweep(SweepSpec(axis="speed", start=5.0, stop=50.0, step=0.02, r=1000.0,
                                    alpha=1.4, tau=0.2, pn0_db=70.0, theta=0.01))
        alternating = SweepTable([*table.columns[:10], ["vtau", "theta"] * (len(table) // 2)])
        # 6,758 = axis_value, v_kmh and cs_raw per vtau row, one cell per fixed
        # column and the theta capacity; alternating, the table is one block of
        # 4,502 rows, mapped as a whole table: 3 * 4,502 + 4 cells
        for rows, cells in ((table, 6758), (alternating, 13510)):
            counts.update(_format_cells=0, _parse_cells=0)
            read_sweep_csv(rows_to_csv(rows))
            assert counts == {"_format_cells": cells, "_parse_cells": cells}


def _table_of(rows):
    """A table holding the rows' own cells, column by column."""
    return SweepTable([list(c) for c in zip(*rows)] if rows else [[] for _ in range(11)])


def _ordering_verdict(axis, rows):
    try:
        check_sweep_orderings(SweepSpec(axis=axis, start=1.0, stop=1.0, step=1.0), rows)
    except SweepOrderingError as exc:
        return str(exc)
    return None


_INDEX = st.one_of(st.none(), st.integers(-8, 8))


class TestSweepTable:
    """A SweepTable behaves as the list of its rows."""

    @given(_row_lists(), st.data())
    def test_behaves_as_the_list_of_its_rows(self, rows, data):
        text = rows_to_csv(rows)
        # the rows' own table, and the reader's table against the per-line reader
        for table, expected in ((_table_of(rows), rows),
                                (read_sweep_csv(text), _read_sweep_csv_by_row(text))):
            n = len(expected)
            assert len(table) == n
            for i in range(-n, n):
                assert type(table[i]) is SweepRow and repr(table[i]) == repr(expected[i])
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    table[i]
            start, stop = data.draw(_INDEX), data.draw(_INDEX)
            step = data.draw(st.one_of(st.none(), st.integers(-3, 3).filter(bool)))
            part = table[start:stop:step]
            assert type(part) is SweepTable
            assert repr(list(part)) == repr(expected[start:stop:step])
            assert all(type(row) is SweepRow for row in table)
            assert repr(list(table)) == repr(expected)
            for other in (expected, [tuple(row) for row in expected], expected[:-1],
                          expected + expected[:1], tuple(expected)):
                assert (table == other) is (list(table) == other)
                assert (other == table) is (other == list(table))
                assert (table != other) is (list(table) != other)
            assert rows_to_csv(table) == rows_to_csv(list(table)) == _rows_to_csv_by_row(table)
            for axis in sweeps.AXES:
                assert _ordering_verdict(axis, table) == _ordering_verdict(axis, list(table))
        assert _table_of(rows) == rows and rows == _table_of(rows)
        assert _table_of(rows) == [tuple(row) for row in rows]
        assert _table_of(rows) == _table_of(rows)

    def test_reader_and_sweep_return_tables(self):
        spec = SweepSpec(axis="speed", start=5.0, stop=6.0, step=0.5, theta=0.01)
        table = run_sweep(spec)
        assert type(table) is SweepTable and type(read_sweep_csv(rows_to_csv(table))) is SweepTable
        assert table.columns[10] == ["vtau"] * 3 + ["theta"] * 3
        assert table.columns[4] == [spec.alpha] * 6 and table[-1].variant == "theta"
        assert read_sweep_csv(SWEEP_HEADER + "\n") == [] == SweepTable([[]] * 11)

    @pytest.mark.parametrize("columns", [
        [[1.0]] * 10,
        [[1.0]] * 10 + [[1.0, 2.0]],
        [[1.0]] * 10 + [(1.0,)],
    ], ids=["ten-columns", "ragged", "tuple-column"])
    def test_refuses_columns_that_are_not_a_table(self, columns):
        with pytest.raises(ValueError, match="11 column lists of one length"):
            SweepTable(columns)

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="counts CPython's garbage-collector allocations")
    def test_a_round_trip_allocates_per_column_not_per_row(self):
        # the benchmark's curve: before rows stayed columnar this grew by ~9,050
        spec = SweepSpec(axis="speed", start=5.0, stop=50.0, step=0.02, r=1000.0, alpha=1.4,
                         tau=0.2, pn0_db=70.0, theta=0.01)
        run_sweep(spec)
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            rows = run_sweep(spec)
            check_sweep_orderings(spec, rows)
            back = read_sweep_csv(rows_to_csv(rows))
            grown = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert len(rows) == len(back) == 4502
        assert grown < 500


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

    @staticmethod
    def _perturb_direct(monkeypatch, rows=None):
        """Add 1e-6 to the direct formula's value at the given rows, or at every row."""
        fading_rows = sweeps._fading_rows

        def perturbed(*args):
            direct = fading_rows(*args)
            if not isinstance(direct, list):
                return direct + 1e-6
            return [x + 1e-6 if rows is None or i in rows else x for i, x in enumerate(direct)]

        monkeypatch.setattr(sweeps, "_fading_rows", perturbed)

    @pytest.mark.parametrize("axis,start,stop,step", [("pa_db", 0.0, 20.0, 5.0),
                                                      ("pr", 0.0, 4.0, 1.0),
                                                      # a deviation before a refused row
                                                      ("pa_db", 0.0, 4000.0, 1000.0)])
    def test_relay_off_arm_is_checked_against_the_direct_formula(self, monkeypatch, axis, start,
                                                                  stop, step):
        self._perturb_direct(monkeypatch)
        with pytest.raises(SweepOrderingError, match=(
                rf"^relay-off arm \S+ deviates from the direct formula \S+ at {axis}=0$")):
            run_relay_compare(axis, start, stop, step, self.BASE)
        # the direct formula holds for equal noises only, so unequal ones skip the check
        unequal = self.BASE._replace(sigma_e2=2.0)
        assert len(run_relay_compare(axis, start, 20.0, step, unequal)) > 1

    def test_relay_off_arm_is_checked_on_every_pa_db_row(self, monkeypatch):
        self._perturb_direct(monkeypatch, rows={3})
        with pytest.raises(SweepOrderingError, match=r" at pa_db=15$"):
            run_relay_compare("pa_db", 0.0, 20.0, 5.0, self.BASE)

    @pytest.mark.parametrize("sigma_e2", [1.0, 2.5, 0.3])
    @pytest.mark.parametrize("axis,start,stop,step", [("pa_db", -40.0, 60.0, 0.25),
                                                      ("pr", 0.0, 40.0, 0.125)])
    def test_cells_are_the_public_relay_formula(self, axis, start, stop, step, sigma_e2):
        base = self.BASE._replace(sigma_e2=sigma_e2, h_rb=0.3)
        lines = run_relay_compare(axis, start, stop, step, base)
        points = axis_points(start, stop, step)
        assert len(lines) == len(points) + 1
        for value, line in zip(points, lines[1:]):
            if axis == "pa_db":
                cfg = base._replace(p_a=base.sigma_b2 * db_to_linear(value))
            else:
                cfg = base._replace(p_r=value)
            on, off = relay_secrecy(cfg), relay_secrecy(cfg._replace(p_r=0.0))
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

    def test_seed_defaults_to_ergodic_default(self):
        from v2vsec.ergodic import DEFAULT_SEED

        assert run_cs_demo(n=32, m=16, k=2, trials=2) == run_cs_demo(
            n=32, m=16, k=2, trials=2, seed=DEFAULT_SEED)
