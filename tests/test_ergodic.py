import math

import numpy as np
import pytest

from v2vsec import _kernels, ergodic
from v2vsec.channel import FadingModel, PowerBudget, awgn_capacity, db_to_linear
from v2vsec.ergodic import (
    DEFAULT_SEED,
    ErgodicConvergenceError,
    ErgodicSpec,
    constant_power_capacity,
    draw_channel_states,
    ergodic_secrecy,
    estimate_on_states,
)

RAYLEIGH = FadingModel.rayleigh()


def _bisection_oracle(a, b, p_budget, rtol=1e-9):
    """Linear-scale multiplier bisection over all states: the earlier solver.

    Slow but simple; returns (capacity, multiplier).
    """

    def avg_power(mu):
        return float(np.mean(_kernels.gamma_allocation(a, b, mu)))

    lo, hi = 0.0, 1.0
    while avg_power(hi) > p_budget:
        lo, hi = hi, 2.0 * hi
    mu, achieved = hi, avg_power(hi)
    for _ in range(200):
        if abs(achieved - p_budget) / p_budget < rtol:
            break
        mid = 0.5 * (lo + hi)
        mid_power = avg_power(mid)
        if mid_power > p_budget:
            lo = mid
        else:
            hi = mid
        mu, achieved = mid, mid_power
    else:
        raise AssertionError("oracle bisection did not converge")
    gamma = _kernels.gamma_allocation(a, b, mu)
    return float(np.mean(_kernels.secrecy_rate(a, b, gamma))), mu


class TestSpecValidation:
    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError):
            ErgodicSpec(legit_fading=RAYLEIGH, p_budget=1.0, n_samples=100)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            ErgodicSpec(legit_fading=RAYLEIGH, p_budget=0.0)


class TestDrawChannelStates:
    def test_deterministic_and_independent_links(self):
        spec = ErgodicSpec(
            legit_fading=RAYLEIGH, p_budget=5.0, eaves_fading=RAYLEIGH, n_samples=2000, seed=3
        )
        a1, b1 = draw_channel_states(spec)
        a2, b2 = draw_channel_states(spec)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        assert abs(np.corrcoef(a1, b1)[0, 1]) < 0.1

    def test_absent_eavesdropper_gives_zero_gains(self):
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=5.0, n_samples=1500)
        _, b = draw_channel_states(spec)
        assert np.all(b == 0.0)

    def test_noise_scaling(self):
        spec1 = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=5.0, n_samples=1500, sigma_b2=1.0)
        spec4 = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=5.0, n_samples=1500, sigma_b2=4.0)
        a1, _ = draw_channel_states(spec1)
        a4, _ = draw_channel_states(spec4)
        np.testing.assert_allclose(a4, a1 / 4.0, rtol=1e-12)


class TestEstimator:
    def test_single_state_allocates_everything(self):
        # deterministic unit gain, no eavesdropper: capacity log2(1 + P)
        p = 10.0
        res = estimate_on_states(np.ones(2000), np.zeros(2000), p)
        assert res.capacity == pytest.approx(math.log2(1.0 + p), rel=2e-3)
        assert res.achieved_avg_power == pytest.approx(p, rel=1e-3)

    def test_empty_favorable_set_returns_zero(self):
        a = np.full(1200, 0.5)
        b = np.ones(1200)
        res = estimate_on_states(a, b, 3.0)
        assert res.capacity == 0.0
        assert res.achieved_avg_power == 0.0
        assert res.n_active == 0

    def test_identical_fading_distributions_still_positive(self):
        spec = ErgodicSpec(
            legit_fading=RAYLEIGH, p_budget=10.0, eaves_fading=RAYLEIGH, n_samples=20_000
        )
        res = ergodic_secrecy(spec)
        assert res.capacity > 0.1
        assert 0 < res.n_active < spec.n_samples

    def test_budget_constraint_binds_within_tolerance(self):
        for p in (0.5, 5.0, 500.0):
            spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=p, n_samples=20_000)
            res = ergodic_secrecy(spec)
            assert res.achieved_avg_power == pytest.approx(p, rel=1e-2)

    def test_huge_budget_still_converges(self):
        res = estimate_on_states(np.ones(1000), np.zeros(1000), 1e9)
        assert res.capacity == pytest.approx(math.log2(1e9 + 1.0), rel=2e-3)

    def test_beats_constant_power_baseline(self):
        for seed in (1, 2, 3):
            spec = ErgodicSpec(
                legit_fading=RAYLEIGH,
                p_budget=10.0,
                eaves_fading=RAYLEIGH,
                n_samples=20_000,
                seed=seed,
            )
            a, b = draw_channel_states(spec)
            optimized = estimate_on_states(a, b, spec.p_budget)
            baseline = constant_power_capacity(a, b, spec.p_budget)
            assert optimized.capacity >= baseline

    def test_jensen_bound_against_awgn(self):
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=100.0, n_samples=50_000)
        res = ergodic_secrecy(spec)
        awgn = awgn_capacity(PowerBudget(p_linear=100.0, n0_linear=1.0), 1.0)
        assert res.capacity < awgn

    def test_deterministic_for_fixed_seed(self):
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=10.0, n_samples=5000, seed=42)
        r1 = ergodic_secrecy(spec)
        r2 = ergodic_secrecy(spec)
        assert r1 == r2

    def test_ci_scales_with_sample_count(self):
        small = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=10.0, n_samples=4000)
        large = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=10.0, n_samples=64_000)
        ci_small = ergodic_secrecy(small).ci_halfwidth
        ci_large = ergodic_secrecy(large).ci_halfwidth
        # n grows 16x, so the halfwidth should shrink ~4x, within a factor of 2
        ratio = ci_small / ci_large
        assert 2.0 < ratio < 8.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            estimate_on_states(np.ones(10), np.zeros(11), 1.0)

    def test_rejects_non_finite_states(self):
        bad = np.ones(1000)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            estimate_on_states(bad, np.zeros(1000), 1.0)

    def test_allocation_satisfies_kkt_conditions(self):
        # independent optimality witness: on allocated states the rate
        # derivative must equal the multiplier, elsewhere it must not exceed it
        from v2vsec._kernels import gamma_allocation

        spec = ErgodicSpec(
            legit_fading=RAYLEIGH, p_budget=10.0, eaves_fading=RAYLEIGH, n_samples=20_000
        )
        a, b = draw_channel_states(spec)
        res = estimate_on_states(a, b, spec.p_budget)
        gamma = gamma_allocation(a, b, res.multiplier)
        active = gamma > 0
        slope = a / (1.0 + gamma * a) - b / (1.0 + gamma * b)
        np.testing.assert_allclose(slope[active], res.multiplier, rtol=1e-9)
        assert np.all(slope[~active] <= res.multiplier * (1 + 1e-12))


class TestMultiplierSearch:
    @pytest.mark.parametrize("eaves", [None, RAYLEIGH], ids=["no_eaves", "rayleigh_eaves"])
    @pytest.mark.parametrize("p_db", [0, 8, 16, 24, 32, 40])
    def test_matches_bisection_oracle(self, eaves, p_db):
        spec = ErgodicSpec(
            legit_fading=RAYLEIGH,
            p_budget=db_to_linear(p_db),
            eaves_fading=eaves,
            n_samples=20_000,
            seed=100 + p_db,
        )
        a, b = draw_channel_states(spec)
        res = estimate_on_states(a, b, spec.p_budget)
        capacity, mu = _bisection_oracle(a, b, spec.p_budget)
        assert res.capacity == pytest.approx(capacity, rel=1e-7)
        assert res.multiplier == pytest.approx(mu, rel=1e-6)

    @pytest.mark.parametrize("p_db", [36, 40])
    def test_high_snr_spends_the_whole_budget(self, p_db):
        # a solver that stops under budget falls below uniform power here
        spec = ErgodicSpec(
            legit_fading=RAYLEIGH, p_budget=db_to_linear(p_db), n_samples=100_000, seed=DEFAULT_SEED
        )
        a, b = draw_channel_states(spec)
        res = estimate_on_states(a, b, spec.p_budget)
        assert res.capacity >= constant_power_capacity(a, b, spec.p_budget)
        assert abs(res.achieved_avg_power / spec.p_budget - 1.0) <= 1e-9

    @pytest.mark.parametrize("cap", ["_MAX_BRACKET_GROWTH", "_MAX_ITER"])
    def test_iteration_cap_raises(self, monkeypatch, cap):
        monkeypatch.setattr(ergodic, cap, 1)
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=1e4, n_samples=5000, seed=7)
        a, b = draw_channel_states(spec)
        with pytest.raises(ErgodicConvergenceError):
            estimate_on_states(a, b, spec.p_budget)
