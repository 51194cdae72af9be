import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _no_double_meets_budget(a, b, p_budget):
    """True if no double multiplier puts the power within _POWER_RTOL of budget.

    Positive doubles order like their bit patterns, so bisecting on the
    patterns ends at two neighbouring doubles that straddle the budget;
    by monotonicity they are the closest any multiplier can get.
    """

    def residual(bits):
        mu = float(np.int64(bits).view(np.float64))
        with np.errstate(all="ignore"):
            return float(np.mean(_kernels.gamma_allocation(a, b, mu))) / p_budget - 1.0

    lo, hi = 1, int(np.float64(np.max(a - b)).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return min(abs(residual(lo)), abs(residual(hi))) > ergodic._POWER_RTOL


@st.composite
def _state_sets(draw):
    """1-2000 states, gains log-uniform inside [1e-6, 1e6], some b = 0, some a = b."""
    n = draw(st.integers(1, 2000))
    lo_exp = draw(st.floats(-6.0, 6.0))
    hi_exp = draw(st.floats(lo_exp, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = 10.0 ** rng.uniform(lo_exp, hi_exp, n)
    b = 10.0 ** rng.uniform(lo_exp, hi_exp, n)
    b[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
    tie = rng.random(n) < draw(st.floats(0.0, 0.5))
    b[tie] = a[tie]
    return a, b, 10.0 ** draw(st.floats(-3.0, 6.0))


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
        assert res.iterations == 0
        assert res.power_residual == 0.0

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

    def test_huge_gain_gets_its_water_level(self):
        # (mu*a)^2 overflows for a = 1e300; water-filling 1/mu - 1/a over both
        # states spends 2p at mu = 2/3, giving the strong state 1.5 - 1e-300
        a, b = np.array([1e300, 1.0]), np.zeros(2)
        res = estimate_on_states(a, b, 1.0)
        assert res.multiplier == 2.0 / 3.0
        assert abs(res.power_residual) <= ergodic._POWER_RTOL
        expected = (math.log2(1.0 + 1.5e300) + math.log2(1.5)) / 2.0
        assert res.capacity == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("eaves", [None, RAYLEIGH], ids=["no_eaves", "rayleigh_eaves"])
    def test_caller_states_are_not_written(self, eaves):
        # every state favorable, so the estimate works on the caller's arrays
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=10.0, eaves_fading=eaves,
                           n_samples=5000, seed=9)
        a, b = draw_channel_states(spec)
        if eaves is not None:
            b = 0.5 * a
        a_before, b_before = a.tobytes(), b.tobytes()
        res = estimate_on_states(a, b, spec.p_budget)
        assert res.n_active == a.shape[0]
        assert a.tobytes() == a_before and b.tobytes() == b_before

    @pytest.mark.parametrize(
        "a,b,p,multiplier,iterations",
        [
            ([1e-320, 1.0], [0.0, 0.0], 1.0, 0.33333333333358833, 5),
            ([5e-324, 1.0], [0.0, 0.0], 0.1, 0.8333333333760583, 9),
            ([1e-320, 1.0], [0.0, 0.0], 1e-3, 0.9980039920159806, 15),
            ([2e-320, 1.0], [1e-320, 0.5], 1.0, 0.08333333333354428, 6),
            ([5e-324, 1.0], [0.0, 0.5], 1.0, 0.08333333333354428, 6),
        ],
    )
    def test_subnormal_gains(self, a, b, p, multiplier, iterations):
        # values of the masked kernel; a subnormal a's 1/a is inf, so the search
        # starts at max(a - b), and the unmasked kernel must raise no warning
        res = estimate_on_states(np.array(a), np.array(b), p)
        assert res.multiplier == multiplier
        assert res.iterations == iterations

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
        if eaves is None:  # water-filling: the exact start meets the budget at once
            assert res.iterations == 1

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

    @pytest.mark.parametrize("cap", ["_MAX_ITER"])
    def test_iteration_cap_raises(self, monkeypatch, cap):
        spec = ErgodicSpec(
            legit_fading=RAYLEIGH, p_budget=1e4, eaves_fading=RAYLEIGH, n_samples=5000, seed=7
        )
        a, b = draw_channel_states(spec)
        needed = estimate_on_states(a, b, spec.p_budget).iterations
        assert needed > 1
        monkeypatch.setattr(ergodic, cap, needed - 1)
        with pytest.raises(ErgodicConvergenceError, match=f"after {needed - 1} iterations"):
            estimate_on_states(a, b, spec.p_budget)

    def test_convergence_error_names_the_point(self, monkeypatch):
        monkeypatch.setattr(ergodic, "_MAX_ITER", 1)
        a = np.array([4.0, 2.0, 1.0])
        b = np.array([1.0, 1.5, 0.0])
        with pytest.raises(ErgodicConvergenceError) as err:
            estimate_on_states(a, b, 2.5)
        msg = str(err.value)
        assert "relative power residual" in msg
        assert "after 1 iterations" in msg
        assert "p_budget=2.5" in msg
        assert "n_active=3" in msg

    def test_unreachable_tolerance_raises(self):
        # one weak state and a small budget: P(mu) is so steep near the root
        # that neighbouring doubles already step the power by ~1e-8 of budget
        a, b, p = np.array([1e-5]), np.array([0.0]), 1e-3
        assert _no_double_meets_budget(a, b, p)
        with pytest.raises(ErgodicConvergenceError, match="n_active=1"):
            estimate_on_states(a, b, p)

    @staticmethod
    def _recorded_multipliers(monkeypatch, a, b, p):
        """The estimate and the multiplier of each gamma_allocation call it made."""
        mus = []
        gamma_allocation = _kernels.gamma_allocation

        def recording(a_, b_, mu, **kwargs):
            mus.append(mu)
            return gamma_allocation(a_, b_, mu, **kwargs)

        monkeypatch.setattr(_kernels, "gamma_allocation", recording)
        res = estimate_on_states(a, b, p)
        monkeypatch.undo()
        return res, mus

    def test_newton_step_leaving_the_bracket_is_bisected(self, monkeypatch):
        # only a = 0.031 is allocated at the root, but the start counts both
        # favorable states, so it lands left of the root and the first
        # Newton step overshoots mu = max(a - b)
        a, b, p = np.array([0.011, 0.031]), np.array([0.001, 0.001]), 1.0
        res, mus = self._recorded_multipliers(monkeypatch, a, b, p)
        hi = float(np.max(a - b))
        assert mus[0] == 2.0 / (2.0 * p + (1.0 / 0.011 + 1.0 / 0.031))
        assert float(np.sum(_kernels.gamma_allocation(a, b, mus[0]))) > 2.0 * p
        assert mus[1] == math.sqrt(mus[0]) * math.sqrt(hi)
        assert abs(res.power_residual) <= 1e-9
        _, mu = _bisection_oracle(a, b, p)
        assert res.multiplier == pytest.approx(mu, rel=1e-6)

    def test_no_eavesdropper_starts_at_the_exact_water_level(self, monkeypatch):
        # with b = 0 only a = 0.03 is allocated at the root: 1/mu - 1/0.03 = 2p
        a, b, p = np.array([0.01, 0.03]), np.zeros(2), 1.0
        res, mus = self._recorded_multipliers(monkeypatch, a, b, p)
        assert res.iterations == len(mus) == 1
        assert res.multiplier == 1.0 / (2.0 * p + 1.0 / 0.03)
        assert abs(res.power_residual) <= 1e-9

    @settings(max_examples=150, deadline=None)
    @given(_state_sets())
    def test_random_state_sets(self, case):
        a, b, p = case
        try:
            res = estimate_on_states(a, b, p)
        except ErgodicConvergenceError:
            # allowed only where double precision cannot meet the tolerance
            assert _no_double_meets_budget(a, b, p)
            return
        if res.n_active == 0:
            assert not np.any(a > b) and res.capacity == 0.0
            return
        assert abs(res.achieved_avg_power / p - 1.0) <= 1e-9
        gamma = _kernels.gamma_allocation(a, b, res.multiplier)
        assert np.array_equal(gamma > 0, a - b > res.multiplier)
        # concavity gives C(p (1 - 1e-9)) >= (1 - 1e-9) C(p); secrecy_rate
        # rounds each per-state log difference by up to ~1e-14 bit (near-ties)
        atol = 1e-13
        assert res.capacity >= constant_power_capacity(a, b, p) * (1.0 - 2e-9) - atol
        capacity, _ = _bisection_oracle(a, b, p)
        assert res.capacity == pytest.approx(capacity, rel=1e-7, abs=atol)


class TestWorkspaceKernels:
    """The estimator's in-place kernel path against the allocating one."""

    @staticmethod
    def _favorable_states(eaves):
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=10.0, eaves_fading=eaves,
                           n_samples=20_000, seed=5)
        a, b = draw_channel_states(spec)
        keep = a > b
        return np.ascontiguousarray(a[keep]), np.ascontiguousarray(b[keep])

    @pytest.mark.parametrize("eaves", [None, RAYLEIGH], ids=["no_eaves", "rayleigh_eaves"])
    @pytest.mark.parametrize("mu", [1e-3, 0.05, 0.4, 2.0])
    def test_gamma_allocation_bit_identical(self, eaves, mu):
        a, b = self._favorable_states(eaves)
        out, work = np.empty_like(a), np.empty_like(a)
        gamma = _kernels.gamma_allocation(a, None if eaves is None else b, mu,
                                          out=out, work=work)
        assert gamma is out
        assert gamma.tobytes() == _kernels.gamma_allocation(a, b, mu).tobytes()

    @pytest.mark.parametrize("eaves", [None, RAYLEIGH], ids=["no_eaves", "rayleigh_eaves"])
    def test_secrecy_rate_bit_identical(self, eaves):
        a, b = self._favorable_states(eaves)
        gamma = _kernels.gamma_allocation(a, b, 0.05)
        out, work = np.empty_like(a), np.empty_like(a)
        rates = _kernels.secrecy_rate(a, None if eaves is None else b, gamma,
                                      out=out, work=work)
        assert rates is out
        assert rates.tobytes() == _kernels.secrecy_rate(a, b, gamma).tobytes()


class TestDiagnostics:
    def test_iterations_count_kernel_calls(self, monkeypatch):
        calls = []
        gamma_allocation = _kernels.gamma_allocation

        def counting(a, b, mu, **kwargs):
            calls.append(mu)
            return gamma_allocation(a, b, mu, **kwargs)

        monkeypatch.setattr(_kernels, "gamma_allocation", counting)
        spec = ErgodicSpec(
            legit_fading=RAYLEIGH, p_budget=100.0, eaves_fading=RAYLEIGH, n_samples=20_000
        )
        res = ergodic_secrecy(spec)
        assert res.iterations == len(calls) > 0
        assert res.multiplier == calls[-1]

    @pytest.mark.parametrize("eaves", [None, RAYLEIGH], ids=["no_eaves", "rayleigh_eaves"])
    def test_power_residual_is_final_relative_residual(self, eaves):
        spec = ErgodicSpec(
            legit_fading=RAYLEIGH, p_budget=10.0, eaves_fading=eaves, n_samples=20_000
        )
        res = ergodic_secrecy(spec)
        assert abs(res.power_residual) <= ergodic._POWER_RTOL
        assert res.power_residual == pytest.approx(
            res.achieved_avg_power / spec.p_budget - 1.0, abs=1e-15
        )
