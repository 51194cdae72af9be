import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from v2vsec.channel import (
    FadingModel,
    PowerBudget,
    awgn_capacity,
    db_to_linear,
    path_loss_amplitude,
    sample_fading,
)


class TestPathLoss:
    def test_unit_distance(self):
        assert path_loss_amplitude(1.0, 3.7) == 1.0

    def test_frozen_value(self):
        # 1000^-1.4, frozen from an arbitrary-precision run
        assert path_loss_amplitude(1000.0, 1.4) == pytest.approx(6.3095734448019325e-05, rel=1e-12)

    def test_integer_case(self):
        assert path_loss_amplitude(4.0, 2.0) == pytest.approx(1.0 / 16.0, rel=1e-15)

    @given(
        d=st.floats(min_value=1e-3, max_value=1e3),
        alpha=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_exponent_algebra(self, d, alpha):
        assert path_loss_amplitude(d, alpha) ** 2 == pytest.approx(
            path_loss_amplitude(d, 2.0 * alpha), rel=1e-12
        )

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan])
    def test_rejects_singular_distance(self, d):
        with pytest.raises(ValueError):
            path_loss_amplitude(d, 2.0)

    def test_gain_beyond_the_float_range_is_value_error(self):
        with pytest.raises(ValueError) as info:
            path_loss_amplitude(1e-300, 2.0)
        assert str(info.value) == ("path-loss amplitude out of float range: "
                                   "distance=1e-300, alpha=2.0")


class TestDecibels:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_seventy_db(self):
        assert db_to_linear(70.0) == 1e7

    @pytest.mark.parametrize("x", [4000.0, 3090.0])
    def test_db_to_linear_overflow_is_value_error(self, x):
        with pytest.raises(ValueError, match="overflows a float power ratio"):
            db_to_linear(x)

    @given(x=st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, x):
        assert db_to_linear(10.0 * math.log10(x)) == pytest.approx(x, rel=1e-12)


class TestPowerBudget:
    def test_snr(self):
        assert PowerBudget(p_linear=20.0, n0_linear=4.0).snr == 5.0

    def test_from_db(self):
        assert PowerBudget.from_db(70.0).p_linear == 1e7

    @pytest.mark.parametrize("p,n0", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.inf, 1.0)])
    def test_rejects_bad_fields(self, p, n0):
        with pytest.raises(ValueError):
            PowerBudget(p_linear=p, n0_linear=n0)


def _amplitude_sampler(model, rng, n):
    """The earlier sampler, which drew amplitudes |h|: the power draw's oracle."""
    if model.kind == "rayleigh":
        return rng.rayleigh(scale=1.0 / math.sqrt(2.0), size=n)
    if model.kind == "rician":
        k = model.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        i = los + sigma * rng.standard_normal(n)
        q = sigma * rng.standard_normal(n)
        return np.hypot(i, q)
    return np.sqrt(rng.gamma(shape=model.m, scale=1.0 / model.m, size=n))


class TestFadingSamplers:
    """The samplers return power gains |h|^2 with unit mean."""

    def test_rayleigh_mean_power(self):
        rng = np.random.default_rng(101)
        g = sample_fading(FadingModel.rayleigh(), rng, size=10**6)
        assert np.mean(g) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize(
        "model",
        [FadingModel.rayleigh(), FadingModel.rician(3.0), FadingModel.nakagami(2.0)],
        ids=["rayleigh", "rician3", "nakagami2"],
    )
    def test_unit_mean_power(self, model):
        rng = np.random.default_rng(55)
        g = sample_fading(model, rng, size=10**5)
        assert np.all(g >= 0)
        assert np.mean(g) == pytest.approx(1.0, rel=0.02)

    def test_rician_large_k_degenerates_to_unity(self):
        # |h| within 0.01 of 1, so |h|^2 within 0.0201
        rng = np.random.default_rng(9)
        g = sample_fading(FadingModel.rician(1e6), rng, size=1000)
        assert np.all(np.abs(g - 1.0) < 0.0201)

    def test_nakagami_one_matches_rayleigh(self):
        rng = np.random.default_rng(33)
        nak = sample_fading(FadingModel.nakagami(1.0), rng, size=10**4)
        ray = sample_fading(FadingModel.rayleigh(), rng, size=10**4)
        assert stats.ks_2samp(nak, ray).pvalue > 0.01

    @pytest.mark.parametrize(
        "model",
        [FadingModel.rayleigh(), FadingModel.rician(0.0), FadingModel.rician(3.0),
         FadingModel.rician(1e6), FadingModel.nakagami(0.5), FadingModel.nakagami(2.5)],
        ids=["rayleigh", "rician0", "rician3", "rician1e6", "nakagami0.5", "nakagami2.5"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_power_is_the_squared_amplitude_draw(self, model, seed):
        # same generator stream as the amplitude sampler, rounded differently
        g = sample_fading(model, np.random.default_rng(seed), size=10**5)
        h = _amplitude_sampler(model, np.random.default_rng(seed), 10**5)
        np.testing.assert_allclose(g, h * h, rtol=1e-15, atol=0.0)

    def test_reproducible_for_fixed_seed(self):
        for model in (FadingModel.rayleigh(), FadingModel.rician(2.0), FadingModel.nakagami(1.5)):
            a = sample_fading(model, np.random.default_rng(77), size=100)
            b = sample_fading(model, np.random.default_rng(77), size=100)
            assert np.array_equal(a, b)

    def test_scalar_draw(self):
        g = sample_fading(FadingModel.rayleigh(), np.random.default_rng(1))
        assert isinstance(g, float) and g >= 0
        assert g == sample_fading(FadingModel.rayleigh(), np.random.default_rng(1), size=1)[0]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(kind="weibull"), dict(kind="rician", k_factor=-1.0), dict(kind="nakagami", m=0.3)],
    )
    def test_rejects_bad_model(self, kwargs):
        with pytest.raises(ValueError):
            FadingModel(**kwargs)


class TestAwgnCapacity:
    def test_unit_point(self):
        assert awgn_capacity(PowerBudget(1.0, 1.0), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_fifteen_gives_four_bits(self):
        assert awgn_capacity(PowerBudget(15.0, 1.0), 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_half_gain(self):
        # log2(51), frozen from an arbitrary-precision run
        assert awgn_capacity(PowerBudget(100.0, 1.0), 0.5) == pytest.approx(
            5.6724253419714956, rel=1e-12
        )

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            awgn_capacity(PowerBudget(1.0, 1.0), -0.1)
