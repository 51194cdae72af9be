import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from v2vsec import secrecy
from v2vsec._common import real
from v2vsec.channel import db_to_linear, path_loss_amplitude
from v2vsec.kinematics import kmh_to_ms
from v2vsec.secrecy import (
    LinkGeometry,
    RelayConfig,
    SecrecyResult,
    WiretapNoise,
    _fading_raw,
    _fading_rows,
    _relay_raw,
    _relay_rows,
    _velocity_curve,
    _velocity_raw,
    fading_secrecy,
    gaussian_wiretap,
    geometric_secrecy,
    relay_secrecy,
    velocity_secrecy,
)

# log2(1 + 1e7/4.444^2.8) - log2(1 + 1e7/1000^2.8), frozen from mpmath at 50 digits
HAND_VALUE = 17.171980443434384


class TestSecrecyResult:
    @given(raw=st.floats(min_value=-1e6, max_value=1e6))
    def test_clamp_invariant(self, raw):
        res = SecrecyResult.from_raw(raw)
        assert res.clamped == max(0.0, raw)
        assert res.clamped >= 0.0


class TestGaussianWiretap:
    def test_symmetric_noise_is_zero(self):
        assert gaussian_wiretap(3.0, WiretapNoise(n_m=2.0, n_w=2.0)).raw == 0.0

    def test_hand_value(self):
        res = gaussian_wiretap(15.0, WiretapNoise(n_m=1.0, n_w=15.0))
        assert res.raw == pytest.approx(1.5, rel=1e-12)

    def test_degraded_legitimate_channel_clamps(self):
        res = gaussian_wiretap(10.0, WiretapNoise(n_m=5.0, n_w=1.0))
        assert res.raw < 0
        assert res.clamped == 0.0

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            WiretapNoise(n_m=0.0, n_w=1.0)


class TestFadingSecrecy:
    def test_equal_coefficients_zero(self):
        assert fading_secrecy(5.0, 1.0, 0.3, 0.3).raw == 0.0

    def test_hand_value(self):
        res = fading_secrecy(
            1e7, 1.0, path_loss_amplitude(4.444, 1.4), path_loss_amplitude(1000.0, 1.4)
        )
        assert res.raw == pytest.approx(HAND_VALUE, rel=1e-12)

    @given(
        p=st.floats(min_value=1e-2, max_value=1e8),
        x=st.floats(min_value=0.0, max_value=10.0),
        y=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_antisymmetry(self, p, x, y):
        fwd = fading_secrecy(p, 1.0, x, y).raw
        rev = fading_secrecy(p, 1.0, y, x).raw
        assert fwd == pytest.approx(-rev, rel=1e-12, abs=1e-12)

    def test_sign_follows_coefficient_order(self):
        assert fading_secrecy(10.0, 1.0, 0.9, 0.1).raw > 0
        assert fading_secrecy(10.0, 1.0, 0.1, 0.9).raw < 0

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            fading_secrecy(0.0, 1.0, 1.0, 1.0)


class TestLinkGeometry:
    def test_derives_d_from_theta(self):
        g = LinkGeometry(r=1000.0, theta=0.1)
        assert g.d == pytest.approx(100.0, rel=1e-15)

    def test_derives_theta_from_d(self):
        g = LinkGeometry(r=1000.0, d=250.0)
        assert g.theta == pytest.approx(0.25, rel=1e-15)

    def test_consistent_pair_accepted(self):
        LinkGeometry(r=1000.0, theta=0.1, d=100.0)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            LinkGeometry(r=1000.0, theta=0.1, d=120.0)

    def test_requires_one_of_theta_or_d(self):
        with pytest.raises(ValueError):
            LinkGeometry(r=1000.0)

    def test_make_and_replace_derive_too(self):
        assert LinkGeometry._make([1000.0, None, 250.0]) == (1000.0, 0.25, 250.0)
        assert LinkGeometry(r=1000.0, theta=0.1)._replace(theta=None, d=250.0).theta == 0.25


class TestGeometricSecrecy:
    def test_unit_angle_is_exactly_zero(self):
        res = geometric_secrecy(1e5, 1.0, LinkGeometry(r=1000.0, theta=1.0), 3.5)
        assert res.raw == 0.0

    def test_matches_fading_substitution(self):
        geo = geometric_secrecy(1e7, 1.0, LinkGeometry(r=1000.0, d=4.444), 1.4)
        fad = fading_secrecy(
            1e7, 1.0, path_loss_amplitude(4.444, 1.4), path_loss_amplitude(1000.0, 1.4)
        )
        assert geo.raw == pytest.approx(fad.raw, rel=1e-12)

    def test_positive_and_decreasing_in_d(self):
        caps = [
            geometric_secrecy(db_to_linear(70.0), 1.0, LinkGeometry(r=1000.0, d=d), 3.5).raw
            for d in (2.0, 5.0, 20.0, 100.0)
        ]
        assert all(c > 0 for c in caps)
        assert all(a > b for a, b in zip(caps, caps[1:]))

    @pytest.mark.parametrize(
        "d,r,alpha",
        [(1.0, 1000.0, 300.0), (2e199, 1000.0, 1.4), (2e-201, 1000.0, 1.4)],
        ids=["r-power-overflows", "d-power-overflows", "d-power-underflows"],
    )
    def test_path_loss_power_outside_float_range_is_value_error(self, d, r, alpha):
        with pytest.raises(ValueError, match="path-loss power out of float range"):
            geometric_secrecy(1e7, 1.0, LinkGeometry(r=r, d=d), alpha)


class TestVelocitySecrecy:
    def test_hand_value(self):
        res = velocity_secrecy(db_to_linear(70.0), 1.0, 22.22, 0.2, 1000.0, 1.4)
        assert res.raw == pytest.approx(HAND_VALUE, rel=1e-12)

    def test_highway_speed_ordering(self):
        caps = [
            velocity_secrecy(db_to_linear(70.0), 1.0, kmh_to_ms(kmh), 0.2, 1000.0, 3.5).clamped
            for kmh in (80.0, 100.0, 120.0)
        ]
        assert caps[0] > caps[1] > caps[2] > 0

    @given(
        v=st.floats(min_value=1.0, max_value=60.0),
        tau=st.floats(min_value=0.05, max_value=0.5),
        alpha=st.floats(min_value=0.5, max_value=4.0),
    )
    def test_definitional_substitution(self, v, tau, alpha):
        p = 1e6
        vel = velocity_secrecy(p, 1.0, v, tau, 1000.0, alpha).raw
        geo = geometric_secrecy(p, 1.0, LinkGeometry(r=1000.0, theta=v * tau / 1000.0), alpha).raw
        assert vel == pytest.approx(geo, rel=1e-12, abs=1e-12)

    def test_strictly_decreasing_in_speed(self):
        caps = [
            velocity_secrecy(1e7, 1.0, v, 0.2, 1000.0, 1.4).raw for v in np.linspace(5, 50, 20)
        ]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_rejects_stationary_host(self):
        with pytest.raises(ValueError):
            velocity_secrecy(1e7, 1.0, 0.0, 0.2, 1000.0, 1.4)

    def test_overflowing_snr_is_value_error(self):
        # p/(n0*d^2a) and p/(n0*r^2a) are both 1e308/5e-324 = inf, and inf - inf is nan
        with pytest.raises(ValueError, match="signal-to-noise ratio out of float range"):
            velocity_secrecy(1e308, 5e-324, 1.0, 1.0, 1.0, 1.0)


# Every edge of the positive-and-finite guard, plus ordinary and arbitrary floats.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, math.inf, math.nan]),
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(),
)


def _raw_or_error(fn, *args):
    """The raw value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _velocity_chain_raw(p, n0, v, tau, r, alpha):
    """The velocity rule as the public functions compose it: v, tau, r and
    d = v*tau checked, then the geometric formula at d.

    The geometry is built without its own check: the velocity rule does not
    hold the angle d/r, which ``LinkGeometry`` refuses where it underflows
    to 0 or overflows to inf.
    """
    d = v * tau
    for name, value in (("v", v), ("tau", tau), ("r", r), ("d", d)):
        real(name, value, "positive and finite")
    return geometric_secrecy(p, n0, tuple.__new__(LinkGeometry, (r, d / r, d)), alpha).raw


class TestVelocityRaw:
    @settings(max_examples=500)
    @given(p=EDGE_FLOATS, n0=EDGE_FLOATS, v=EDGE_FLOATS, tau=EDGE_FLOATS, r=EDGE_FLOATS,
           alpha=EDGE_FLOATS)
    def test_equals_public_value_or_raises_its_error(self, p, n0, v, tau, r, alpha):
        got = _raw_or_error(_velocity_raw, p, n0, v, tau, r, alpha)
        want = _raw_or_error(_velocity_chain_raw, p, n0, v, tau, r, alpha)
        assert got == want
        assert _raw_or_error(lambda *a: velocity_secrecy(*a).raw, p, n0, v, tau, r, alpha) == got


# ordinary inputs of a curve, mostly inside r and the float range
_CURVE_INPUTS = {
    "p": st.floats(min_value=1e-3, max_value=1e12),
    "n0": st.floats(min_value=1e-3, max_value=1e3),
    "v": st.floats(min_value=1e-2, max_value=1e3),
    "tau": st.floats(min_value=1e-3, max_value=10.0),
    "r": st.floats(min_value=1e-1, max_value=1e4),
    "alpha": st.floats(min_value=1e-2, max_value=10.0),
}
# inputs that the guard refuses, or that take a term beyond the float range
_OUT_OF_RANGE = st.sampled_from(
    [0.0, -0.0, -1.0, 5e-324, 1e-300, 400.0, 1e300, 1e308, math.inf, -math.inf, math.nan])


@st.composite
def _curves(draw):
    """One curve's inputs: one of p, v, tau and alpha is a list of its points."""
    edgy = draw(st.booleans())
    inputs = {name: draw(st.one_of(ordinary, _OUT_OF_RANGE) if edgy else ordinary)
              for name, ordinary in _CURVE_INPUTS.items()}
    axis = draw(st.sampled_from(["p", "v", "tau", "alpha"]))
    points = draw(st.lists(_CURVE_INPUTS[axis], min_size=1, max_size=30))
    if draw(st.booleans()):  # a refused or out-of-range point at a random position
        points[draw(st.integers(0, len(points) - 1))] = draw(_OUT_OF_RANGE)
    inputs[axis] = points
    return inputs


def _per_point(x):
    return x if isinstance(x, list) else repeat(x)


def _velocity_raw_by_point(p, n0, v, tau, r, alpha):
    """_velocity_raw's value per point up to the first point it refuses, and that error."""
    raws = []
    for p, v, tau, alpha in zip(*map(_per_point, (p, v, tau, alpha))):
        try:
            raws.append(_velocity_raw(p, n0, v, tau, r, alpha))
        except ValueError as exc:
            return raws, (type(exc), str(exc))
    return raws, None


def _hex(values):
    """Each float's exact bits, nan and negative zero included."""
    return [float(x).hex() for x in values]


class TestVelocityCurve:
    """The curve evaluator is _velocity_raw at every point, bit for bit, on all four axes."""

    @settings(max_examples=600, deadline=None)
    @given(_curves())
    # a fixed power or exponent beyond the float range refuses the first point
    @example({"p": 1e308, "n0": 1.0, "v": [5.0, 6.0], "tau": 1e-3, "r": 1000.0, "alpha": 2.0})
    @example({"p": 1e7, "n0": 1.0, "v": [5.0, 6.0], "tau": 0.2, "r": 1000.0, "alpha": 400.0})
    @example({"p": [1e7, 1e308], "n0": 1.0, "v": 5.0, "tau": 1e-3, "r": 1000.0, "alpha": 2.0})
    @example({"p": 1e7, "n0": 1.0, "v": 5.0, "tau": 0.2, "r": 10.0, "alpha": [1.0, 200.0]})
    def test_equals_velocity_raw_point_by_point(self, inputs):
        raws, error = _velocity_raw_by_point(**inputs)
        out = []
        try:
            _velocity_curve(**inputs, out=out)
        except ValueError as exc:
            assert (type(exc), str(exc)) == error
        else:
            assert error is None
        assert _hex(out) == _hex(raws)

    @pytest.mark.parametrize("axis,eaves_terms", [("v", 1), ("tau", 1), ("p", 5), ("alpha", 5)])
    def test_eavesdropper_term_only_where_p_or_alpha_varies(self, monkeypatch, axis, eaves_terms):
        inputs = {"p": 1e7, "n0": 1.0, "v": 20.0, "tau": 0.2, "r": 1000.0, "alpha": 1.4}
        inputs[axis] = [inputs[axis] * (1.0 + k / 10.0) for k in range(5)]
        calls = []

        def counted(log):
            def wrapper(x):
                calls.append(x)
                return log(x)
            return wrapper

        # the legitimate term takes log1p per point, the fixed eavesdropper term _log2_1p
        monkeypatch.setattr(secrecy, "log1p", counted(math.log1p))
        monkeypatch.setattr(secrecy, "_log2_1p", counted(secrecy._log2_1p))
        out = []
        _velocity_curve(**inputs, out=out)
        # one legitimate term per point, and the eavesdropper's once or per point
        assert len(out) == 5 and len(calls) == 5 + eaves_terms
        assert _hex(out) == _hex(_velocity_raw_by_point(**inputs)[0])


@st.composite
def _relay_tables(draw):
    """A relay-compare table's inputs: p_a or p_r is a list of its rows."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    ordinary = st.floats(min_value=1e-3, max_value=1e3)
    value = st.one_of(ordinary, positive) if draw(st.booleans()) else ordinary
    gain = st.one_of(value, st.just(0.0))
    sigma_b2 = draw(value)
    table = {"p_a": draw(value), "p_r": draw(gain), "h_ab": draw(gain), "h_rb": draw(gain),
             "h_ae": draw(gain), "h_re": draw(gain), "sigma_b2": sigma_b2,
             "sigma_e2": sigma_b2 if draw(st.booleans()) else draw(value), "w": draw(value)}
    axis = draw(st.sampled_from(["p_a", "p_r"]))
    table[axis] = draw(st.lists(value if axis == "p_a" else gain, min_size=1, max_size=30))
    return table


class TestRelayRows:
    """Relay-compare rows are _relay_raw and _fading_raw at every row, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_relay_tables())
    def test_equals_relay_raw_and_fading_raw_per_row(self, table):
        on, off = _relay_rows(**table)
        gains = [table[k] for k in ("h_ab", "h_rb", "h_ae", "h_re", "sigma_b2", "sigma_e2", "w")]
        rows = list(zip(_per_point(table["p_a"]), _per_point(table["p_r"])))
        assert _hex(on) == _hex(_relay_raw(p_a, p_r, *gains) for p_a, p_r in rows)
        # the relay-off arm is one value where p_a is fixed
        assert isinstance(off, list) == isinstance(table["p_a"], list)
        assert _hex(off if isinstance(off, list) else [off] * len(rows)) == _hex(
            _relay_raw(p_a, 0.0, *gains) for p_a, _ in rows)
        amplitudes = math.sqrt(table["h_ab"]), math.sqrt(table["h_ae"])
        direct = _fading_rows(table["p_a"], table["sigma_b2"], *amplitudes, table["w"])
        assert isinstance(direct, list) == isinstance(table["p_a"], list)
        assert _hex(direct if isinstance(direct, list) else [direct] * len(rows)) == _hex(
            table["w"] * _fading_raw(p_a, table["sigma_b2"], *amplitudes) for p_a, _ in rows)


class TestRelaySecrecy:
    def test_hand_value(self):
        res = relay_secrecy(
            RelayConfig(p_a=10.0, p_r=1.0, h_ab=1.0, h_rb=0.1, h_ae=0.5, h_re=1.0,
                        sigma_b2=1.0, sigma_e2=1.0, w=1.0)
        )
        # log2(1 + 10/1.1) - log2(1 + 5/2), frozen from mpmath
        assert res.raw == pytest.approx(1.5276293256552046, rel=1e-12)

    def test_relay_off_reduces_to_fading(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, n0 = rng.uniform(0.1, 1e6), rng.uniform(0.1, 10.0)
            x, y = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            off = relay_secrecy(
                RelayConfig(p_a=p, p_r=0.0, h_ab=x * x, h_rb=0.3, h_ae=y * y, h_re=0.7,
                            sigma_b2=n0, sigma_e2=n0, w=1.0)
            )
            ref = fading_secrecy(p, n0, x, y)
            assert off.raw == pytest.approx(ref.raw, rel=1e-12, abs=1e-15)

    def test_strong_jamming_limit(self):
        cfg = RelayConfig(p_a=10.0, p_r=1.0, h_ab=1.0, h_rb=0.1, h_ae=0.5, h_re=1e12,
                          sigma_b2=1.0, sigma_e2=1.0, w=1.0)
        limit = math.log2(1.0 + 10.0 / 1.1)
        assert relay_secrecy(cfg).raw == pytest.approx(limit, rel=1e-9)

    def test_bandwidth_scaling(self):
        base = RelayConfig(p_a=10.0, p_r=1.0, h_ab=1.0, h_rb=0.1, h_ae=0.5, h_re=1.0,
                           sigma_b2=1.0, sigma_e2=1.0, w=1.0)
        wide = RelayConfig(p_a=10.0, p_r=1.0, h_ab=1.0, h_rb=0.1, h_ae=0.5, h_re=1.0,
                           sigma_b2=1.0, sigma_e2=1.0, w=5e6)
        assert relay_secrecy(wide).raw == pytest.approx(5e6 * relay_secrecy(base).raw, rel=1e-12)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            RelayConfig(p_a=1.0, p_r=0.0, h_ab=-1.0, h_rb=0.0, h_ae=0.0, h_re=0.0,
                        sigma_b2=1.0, sigma_e2=1.0)
