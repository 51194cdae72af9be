import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from v2vsec import _kernels, ergodic
from v2vsec.channel import FadingModel, PowerBudget, awgn_capacity, db_to_linear
from v2vsec.ergodic import (
    DEFAULT_SEED,
    ErgodicConvergenceError,
    ErgodicResult,
    ErgodicSpec,
    constant_power_capacity,
    draw_channel_states,
    ergodic_secrecy,
    estimate_on_states,
)

RAYLEIGH = FadingModel.rayleigh()
# the smallest favorable count that starts the search from a subsample
WARM_START_STATES = ergodic._SUBSAMPLE_STRIDE * ergodic._SUBSAMPLE_MIN


def _record_kernel_calls(monkeypatch):
    """Wrap gamma_allocation; returns the list it fills with (mu, number of states) per call."""
    calls = []
    gamma_allocation = _kernels.gamma_allocation

    def recording(a, b, mu, **kwargs):
        calls.append((mu, a.shape[0]))
        return gamma_allocation(a, b, mu, **kwargs)

    monkeypatch.setattr(_kernels, "gamma_allocation", recording)
    return calls


def _gamma_masked(a, b, mu):
    """The closed form over any states, with unfavourable ones masked to zero.

    The oracle for the kernel's workspace contract: it allocates its result,
    takes a and b as they are (not in invariant form) and skips the
    inactive states in sqrt and divide with ufunc ``where=`` masks.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a - b
    s = diff - mu
    active = s > 0.0
    mu_diff = mu * diff
    disc = mu_diff * (mu_diff + 4.0 * a * b)
    root = np.sqrt(disc, out=disc, where=active)
    denom = np.add(root, mu * (a + b), out=root)
    return np.divide(2.0 * s, denom, out=np.zeros(a.shape), where=active)


def _secrecy_rate(a, b, gamma):
    """Per-state log2(1 + gamma*a) - log2(1 + gamma*b), in the kernel's operation order."""
    return (np.log1p(gamma * a) - np.log1p(gamma * b)) / math.log(2.0)


def _all_favorable_start(a, b, p_budget):
    """The earlier eavesdropper start at every size: the oracle for the subsample start.

    Runs the estimator's search from the water level that allocates every
    favorable state and returns (capacity, power residual).
    """
    n = a.shape[0]
    keep = a > b
    a, b = a[keep], b[keep]
    k = a.shape[0]
    gap, sums = _kernels.invariant_form(a, b, out=np.empty((3, k)))
    target = n * p_budget
    mu = k / (target + float(np.sum(1.0 / a)))
    gamma, work = np.empty(k), np.empty((2, k))
    _, _, residual, _, _ = ergodic._multiplier_search(gap, sums, target, mu, gamma, work)
    return float(np.sum(_secrecy_rate(a, b, gamma))) / n, residual


def _bisection_oracle(a, b, p_budget, rtol=1e-9):
    """Linear-scale multiplier bisection over all states: the earlier solver.

    Slow but simple; returns (capacity, multiplier).
    """

    def avg_power(mu):
        return float(np.mean(_gamma_masked(a, b, mu)))

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
    gamma = _gamma_masked(a, b, mu)
    return float(np.mean(_secrecy_rate(a, b, gamma))), mu


def _straddling_doubles(a, b, p_budget):
    """The two neighbouring double multipliers that straddle the budget, as (mu, residual) each.

    Positive doubles order like their bit patterns, so bisecting on the
    patterns ends at two neighbouring doubles, the lower spending more than
    the budget and the upper no more; by monotonicity they are the closest
    any multiplier can get.
    """

    def residual(bits):
        mu = float(np.int64(bits).view(np.float64))
        with np.errstate(all="ignore"):
            return mu, float(np.mean(_gamma_masked(a, b, mu))) / p_budget - 1.0

    lo, hi = 1, int(np.float64(np.max(a - b)).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if residual(mid)[1] > 0:
            lo = mid
        else:
            hi = mid
    return residual(lo), residual(hi)


def _no_double_meets_budget(a, b, p_budget):
    """True if no double multiplier puts the power within _POWER_RTOL of budget."""
    (_, res_lo), (_, res_hi) = _straddling_doubles(a, b, p_budget)
    return min(abs(res_lo), abs(res_hi)) > ergodic._POWER_RTOL


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

    @pytest.mark.parametrize("eaves", [None, RAYLEIGH], ids=["no_eaves", "rayleigh_eaves"])
    @pytest.mark.parametrize("n", [5000.0, 5000.5, True, "5000"])
    def test_rejects_non_integer_sample_count(self, eaves, n):
        # 5000.0 used to fail inside numpy with no eavesdropper and run with
        # one; 5000.5 with one quietly drew 5,000 states
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            ErgodicSpec(legit_fading=RAYLEIGH, p_budget=1.0, eaves_fading=eaves, n_samples=n)

    def test_accepts_numpy_integer_sample_count(self):
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=1.0, n_samples=np.int64(1500))
        a, _ = draw_channel_states(spec)
        assert a.shape == (1500,)


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
        # a unit variance skips the divide, and any other still divides, bit for bit
        unit = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=5.0, eaves_fading=RAYLEIGH,
                           n_samples=1500)
        a1, b1 = draw_channel_states(unit)
        a4, b2 = draw_channel_states(unit._replace(sigma_b2=4.0, sigma_e2=2.0))
        assert a4.tobytes() == (a1 / 4.0).tobytes()
        assert b2.tobytes() == (b1 / 2.0).tobytes()


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

    def test_eavesdropper_only_on_dropped_states_is_absent(self):
        # b > 0 only where a <= b: once that state is dropped the two kept
        # states water-fill, 1/mu - 1e-300 + 1/mu - 1 = 3p at mu = 1/2, and the
        # strong state's (mu*d)^2 never gets to overflow
        a, b = np.array([1e300, 1.0, 0.5]), np.array([0.0, 0.0, 1.0])
        res = estimate_on_states(a, b, 1.0)
        assert res.multiplier == 0.5 and res.n_active == 2
        assert abs(res.power_residual) <= ergodic._POWER_RTOL
        expected = (math.log2(1.0 + 2e300) + math.log2(2.0)) / 3.0
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

    @pytest.mark.parametrize(
        "a_bad,b_bad,message",
        [
            *[(bad, None, "finite") for bad in (math.nan, math.inf, -math.inf)],
            *[(None, bad, "finite") for bad in (math.nan, math.inf, -math.inf)],
            *[(bad, bad, "finite") for bad in (math.nan, math.inf, -math.inf)],
            (-1.0, None, ">= 0"),
            (None, -1.0, ">= 0"),
            (-1.0, -1.0, ">= 0"),
            (-1.0, math.nan, "finite"),  # the finite check comes first
            (math.inf, -1.0, "finite"),
        ],
    )
    def test_bad_states_name_the_fault(self, a_bad, b_bad, message):
        a, b = np.full(1000, 2.0), np.ones(1000)
        if a_bad is not None:
            a[3] = a_bad
        if b_bad is not None:
            b[7] = b_bad
        with pytest.raises(ValueError, match=f"^gain ratios must be {message}$"):
            estimate_on_states(a, b, 1.0)

    def test_negative_zero_eavesdropper_is_absent(self):
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=10.0, n_samples=5000, seed=9)
        a, zeros = draw_channel_states(spec)
        res = estimate_on_states(a, np.full(a.shape[0], -0.0), spec.p_budget)
        assert res == estimate_on_states(a, zeros, spec.p_budget)
        assert res.iterations == 1  # the water-filling start

    def test_empty_arrays_give_the_zero_result(self):
        res = estimate_on_states(np.array([]), np.array([]), 1.0)
        assert res == ErgodicResult(0.0, 0.0, 0.0, math.inf, 0, 0, 0.0)

    def test_allocation_satisfies_kkt_conditions(self):
        # independent optimality witness: on allocated states the rate
        # derivative must equal the multiplier, elsewhere it must not exceed it
        spec = ErgodicSpec(
            legit_fading=RAYLEIGH, p_budget=10.0, eaves_fading=RAYLEIGH, n_samples=20_000
        )
        a, b = draw_channel_states(spec)
        res = estimate_on_states(a, b, spec.p_budget)
        gamma = _gamma_masked(a, b, res.multiplier)
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

    @pytest.mark.parametrize(
        "cap,n_samples", [("_MAX_ITER", 5000), ("_MAX_ITER", 100_000)],
        ids=["_MAX_ITER", "_MAX_ITER-subsample_start"],
    )
    def test_iteration_cap_raises(self, monkeypatch, cap, n_samples):
        spec = ErgodicSpec(
            legit_fading=RAYLEIGH, p_budget=1e4, eaves_fading=RAYLEIGH, n_samples=n_samples,
            seed=7,
        )
        a, b = draw_channel_states(spec)
        calls = _record_kernel_calls(monkeypatch)
        res = estimate_on_states(a, b, spec.p_budget)
        needed = [size for _, size in calls].count(res.n_active)  # the full search's calls
        assert needed > 1
        assert (res.n_active >= WARM_START_STATES) == (len(calls) > needed)
        calls.clear()
        # the cap stops the full search, whose residual alone decides, and the
        # message counts every kernel call, the subsample's included
        monkeypatch.setattr(ergodic, cap, needed - 1)
        with pytest.raises(ErgodicConvergenceError) as err:
            estimate_on_states(a, b, spec.p_budget)
        assert [size for _, size in calls].count(res.n_active) == needed - 1
        assert f"after {len(calls)} iterations" in str(err.value)

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

    def test_unreachable_tolerance_returns_the_closest_double(self, monkeypatch):
        # one weak state and a small budget: P(mu) is so steep near the root
        # that neighbouring doubles already step the power by ~1e-8 of budget
        a, b, p = np.array([1e-5]), np.array([0.0]), 1e-3
        (mu_lo, res_lo), (mu_hi, res_hi) = _straddling_doubles(a, b, p)
        assert math.nextafter(mu_lo, math.inf) == mu_hi
        assert min(abs(res_lo), abs(res_hi)) > ergodic._POWER_RTOL
        calls = _record_kernel_calls(monkeypatch)
        res = estimate_on_states(a, b, p)
        closer, residual = min((mu_lo, res_lo), (mu_hi, res_hi), key=lambda end: abs(end[1]))
        assert (res.multiplier, res.power_residual) == (closer, residual)
        # the closer end's allocation is the one the rates were taken from
        assert res.iterations == len(calls) and calls[-1][0] == closer
        gamma = _gamma_masked(a, b, closer)
        assert res.capacity == float(np.mean(_secrecy_rate(a, b, gamma)))
        assert res.achieved_avg_power == float(np.sum(gamma))

    def test_closest_double_is_judged_against_the_residual_step(self):
        # the search reports the step between the straddling doubles' residuals
        a, b, p = np.array([1e-5]), np.array([0.0]), 1e-3
        (_, res_lo), (_, res_hi) = _straddling_doubles(a, b, p)
        gap, target = a.copy(), a.shape[0] * p
        _, _, residual, _, resolution = ergodic._multiplier_search(
            gap, None, target, 0.5 * a[0], np.empty(1), np.empty((2, 1)))
        assert resolution == res_lo - res_hi
        assert abs(residual) == min(abs(res_lo), abs(res_hi)) <= resolution
        # a search that meets the tolerance reports no resolution
        a = np.array([0.01, 0.03])
        *_, resolution = ergodic._multiplier_search(a, None, 2.0, 0.02, np.empty(2),
                                                   np.empty((2, 2)))
        assert resolution == 0.0

    @staticmethod
    def _recorded_multipliers(monkeypatch, a, b, p):
        """The estimate and the multiplier of each gamma_allocation call it made."""
        calls = _record_kernel_calls(monkeypatch)
        res = estimate_on_states(a, b, p)
        monkeypatch.undo()
        return res, [mu for mu, _ in calls]

    def test_newton_step_leaving_the_bracket_is_bisected(self, monkeypatch):
        # only a = 0.031 is allocated at the root, but the start counts both
        # favorable states, so it lands left of the root and the first
        # Newton step overshoots mu = max(a - b)
        a, b, p = np.array([0.011, 0.031]), np.array([0.001, 0.001]), 1.0
        res, mus = self._recorded_multipliers(monkeypatch, a, b, p)
        hi = float(np.max(a - b))
        assert mus[0] == 2.0 / (2.0 * p + (1.0 / 0.011 + 1.0 / 0.031))
        assert float(np.sum(_gamma_masked(a, b, mus[0]))) > 2.0 * p
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

    @pytest.mark.parametrize(
        "eaves",
        [RAYLEIGH, FadingModel.rician(3.0), FadingModel.nakagami(2.0)],
        ids=["rayleigh", "rician3", "nakagami2"],
    )
    @pytest.mark.parametrize("p_db", [0, 8, 16, 24, 32, 40])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n_samples", [30_000, 100_000])  # 13-15k favorable states, 44-50k
    def test_subsample_start_matches_the_all_favorable_start(self, monkeypatch, eaves, p_db,
                                                             seed, n_samples):
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=db_to_linear(p_db),
                           eaves_fading=eaves, n_samples=n_samples, seed=seed)
        a, b = draw_channel_states(spec)
        capacity, residual = _all_favorable_start(a, b, spec.p_budget)
        calls = _record_kernel_calls(monkeypatch)
        res = estimate_on_states(a, b, spec.p_budget)
        full = [size for _, size in calls].count(res.n_active)
        assert res.n_active >= WARM_START_STATES
        assert full <= 4 and full < len(calls) == res.iterations
        assert res.capacity == pytest.approx(capacity, rel=1e-9)
        assert abs(res.power_residual) <= 1e-9 and abs(residual) <= 1e-9

    @settings(max_examples=150, deadline=None)
    @given(_state_sets())
    def test_random_state_sets(self, case):
        a, b, p = case
        res = estimate_on_states(a, b, p)
        if res.n_active == 0:
            assert not np.any(a > b) and res.capacity == 0.0
            return
        if abs(res.power_residual) > ergodic._POWER_RTOL:
            # allowed only where double precision cannot meet the tolerance, and
            # then the residual is within the step between the straddling doubles
            (_, res_lo), (_, res_hi) = _straddling_doubles(a, b, p)
            assert min(abs(res_lo), abs(res_hi)) > ergodic._POWER_RTOL
            assert abs(res.power_residual) <= res_lo - res_hi
            return
        assert abs(res.achieved_avg_power / p - 1.0) <= 1e-9
        gamma = _gamma_masked(a, b, res.multiplier)
        assert np.array_equal(gamma > 0, a - b > res.multiplier)
        # concavity gives C(p (1 - 1e-9)) >= (1 - 1e-9) C(p); secrecy_rate
        # rounds each per-state log difference by up to ~1e-14 bit (near-ties)
        atol = 1e-13
        assert res.capacity >= constant_power_capacity(a, b, p) * (1.0 - 2e-9) - atol
        capacity, _ = _bisection_oracle(a, b, p)
        assert res.capacity == pytest.approx(capacity, rel=1e-7, abs=atol)


class TestWorkspaceKernels:
    """The kernels' workspace contract against the masked oracle and the rate formula."""

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
        if eaves is None:
            gap, sums = a, None
        else:
            gap, sums = _kernels.invariant_form(a, b, out=np.empty((3, a.shape[0])))
        out, work = np.empty_like(a), np.empty((2, a.shape[0]))
        gamma = _kernels.gamma_allocation(gap, sums, mu, out=out, work=work)
        assert gamma is out
        assert gamma.tobytes() == _gamma_masked(a, b, mu).tobytes()

    @pytest.mark.parametrize("eaves", [None, RAYLEIGH], ids=["no_eaves", "rayleigh_eaves"])
    def test_secrecy_rate_bit_identical(self, eaves):
        a, b = self._favorable_states(eaves)
        gamma = _gamma_masked(a, b, 0.05)
        out, work = np.empty_like(a), np.empty_like(a)
        rates = _kernels.secrecy_rate(a, None if eaves is None else b, gamma,
                                      out=out, work=work)
        assert rates is out
        assert rates.tobytes() == _secrecy_rate(a, b, gamma).tobytes()


class TestDiagnostics:
    def test_iterations_count_kernel_calls(self, monkeypatch):
        calls = _record_kernel_calls(monkeypatch)
        # the second size starts from a subsample, whose calls count too
        for n_samples in (20_000, 100_000):
            calls.clear()
            spec = ErgodicSpec(
                legit_fading=RAYLEIGH, p_budget=100.0, eaves_fading=RAYLEIGH,
                n_samples=n_samples,
            )
            res = ergodic_secrecy(spec)
            assert res.iterations == len(calls) > 0
            assert res.multiplier == calls[-1][0]
            subsample = [size for _, size in calls if size < res.n_active]
            assert bool(subsample) == (res.n_active >= WARM_START_STATES)
        assert subsample  # the 1e5-sample estimate took the subsample start

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


def _sorted_water_level(a, target):
    """The earlier water-level start, from the sorted gains: the oracle for the rounds.

    Returns (mu, k): mu_k = k / (target + sum of 1/a over the k strongest
    states), with k the largest count whose weakest state has a > mu_k.
    """
    strongest = np.sort(a)[::-1]
    levels = np.cumsum(1.0 / strongest) + target
    levels = np.arange(1.0, a.shape[0] + 1.0) / levels
    k = max(1, int(np.count_nonzero(strongest > levels)))
    return float(levels[k - 1]), k


@st.composite
def _water_states(draw):
    """1-2000 gains log-uniform in [1e-6, 1e6], maybe from a pool of 5 (ties), some 1e300."""
    n = draw(st.integers(1, 2000))
    lo_exp = draw(st.floats(-6.0, 6.0))
    hi_exp = draw(st.floats(lo_exp, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = 10.0 ** rng.uniform(lo_exp, hi_exp, n)
    if draw(st.booleans()):
        a = rng.choice(a[:5], n)
    a[rng.random(n) < draw(st.floats(0.0, 0.1))] = 1e300
    return a, n * 10.0 ** draw(st.floats(-3.0, 6.0))


@st.composite
def _favorable_states(draw):
    """1-2000 states with a > b (some b = 0, some near ties), a multiplier, maybe subnormals."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = 10.0 ** rng.uniform(-6.0, 6.0, n)
    b[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
    a = b + np.maximum(b, 1e-6) * 10.0 ** rng.uniform(-9.0, 3.0, n)
    mu = float(np.quantile(a - b, draw(st.floats(0.0, 1.0))))
    if draw(st.booleans()):  # R underflows to 0 on these, and they get no power
        a = np.concatenate([a, [2e-320, 5e-324, 1e-310]])
        b = np.concatenate([b, [1e-320, 0.0, 0.0]])
    return a, b, mu


class TestWaterLevel:
    """The active-set rounds against the sorted-gains start they replace."""

    @staticmethod
    def _check(a, target):
        mu = ergodic._water_level(a, target, np.empty((2, a.shape[0])))
        mu_sorted, k = _sorted_water_level(a, target)
        assert int(np.count_nonzero(a > mu)) == k
        assert mu == pytest.approx(mu_sorted, rel=1e-12)

    @pytest.mark.parametrize(
        "a,target",
        [
            ([0.5], 1.0),
            ([2.0] * 7, 3.5),
            ([0.01, 0.03], 2.0),
            ([1e300, 1.0], 2.0),
            ([1e300, 1e300, 1e-6], 1e-3),
            ([3.0, 3.0, 1.0, 1.0, 1e-4, 1e-4], 6.0),
        ],
    )
    def test_edge_cases_match_the_sorted_level(self, a, target):
        self._check(np.array(a), target)

    @settings(max_examples=300, deadline=None)
    @given(_water_states())
    def test_matches_the_sorted_level(self, case):
        self._check(*case)

    def test_round_bound_hands_over_to_the_search(self, monkeypatch):
        # one round stops at the all-states level, below the root at 0 dB,
        # so the Newton search finishes from there
        spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=1.0, n_samples=20_000, seed=4)
        a, b = draw_channel_states(spec)
        exact = estimate_on_states(a, b, spec.p_budget)
        monkeypatch.setattr(ergodic, "_WATER_ROUNDS", 1)
        res = estimate_on_states(a, b, spec.p_budget)
        assert exact.iterations == 1 < res.iterations
        assert abs(res.power_residual) <= ergodic._POWER_RTOL
        assert res.multiplier == pytest.approx(exact.multiplier, rel=1e-8)
        assert res.capacity == pytest.approx(exact.capacity, rel=1e-9)


class TestNewtonSlope:
    """The slope from the kernel's results against sum(1/(x + y)) from gamma."""

    @settings(max_examples=300, deadline=None)
    @given(_favorable_states(), st.booleans())
    def test_matches_the_kkt_form(self, case, water_filling):
        a, b, mu = case
        n = a.shape[0]
        if water_filling:
            b = np.zeros(n)
            gap, sums = a, None
        else:
            gap, sums = _kernels.invariant_form(a, b, out=np.empty((3, n)))
        work = np.empty((2, n))
        gamma = _kernels.gamma_allocation(gap, sums, mu, out=np.empty(n), work=work)
        slope = ergodic._newton_slope(gap, sums, mu, gamma, work)
        on = gamma > 0
        x = a[on] / (1.0 + gamma[on] * a[on])
        y = b[on] / (1.0 + gamma[on] * b[on])
        assert math.isfinite(slope)
        assert slope == pytest.approx(float(np.sum(1.0 / (x + y))), rel=1e-12)


class TestExactReference:
    """The estimator against exact values for Rayleigh fading (Exp(1) power gains).

    The rule was fixed before running: seeds 0-4 at 200,000 states each,
    every estimate within 3 of its own ci_halfwidth of the exact capacity,
    and the multiplier within 1% of the exact one.
    """

    SEEDS = range(5)
    N_SAMPLES = 200_000
    # Rayleigh eavesdropper, unit means, p = 1: 2-D quadrature (scipy dblquad,
    # epsrel 1e-12) of the closed-form allocation and its rate, with the
    # multiplier solved (brentq) so that the allocation's mean is 1.
    EAVES_CAPACITY = 0.529818298881
    EAVES_MULTIPLIER = 0.132473882235

    @staticmethod
    def _cutoff(p):
        """Water-filling cutoff g0 for Exp(1) gains: e^(-g0)/g0 - E1(g0) = p."""
        return optimize.brentq(
            lambda g: math.exp(-g) / g - special.exp1(g) - p, 1e-9, 50.0, xtol=1e-15, rtol=1e-15
        )

    @pytest.mark.parametrize("p,capacity", [(0.1, 0.241185), (1.0, 1.028539), (10.0, 2.979422)])
    def test_no_eavesdropper_is_exact_water_filling(self, p, capacity):
        g0 = self._cutoff(p)
        exact = special.exp1(g0) / math.log(2.0)
        assert exact == pytest.approx(capacity, abs=5e-7)
        for seed in self.SEEDS:
            spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=p, n_samples=self.N_SAMPLES,
                               seed=seed)
            res = ergodic_secrecy(spec)
            assert abs(res.capacity - exact) <= 3.0 * res.ci_halfwidth
            assert res.multiplier == pytest.approx(g0, rel=0.01)

    @pytest.mark.parametrize("p", [0.1, 1.0, 10.0])
    def test_constant_power_capacity_is_exact(self, p):
        # E[log2(1 + p g)] for g ~ Exp(1)
        exact = math.exp(1.0 / p) * special.exp1(1.0 / p) / math.log(2.0)
        for seed in self.SEEDS:
            spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=p, n_samples=self.N_SAMPLES,
                               seed=seed)
            a, b = draw_channel_states(spec)
            ci = 1.96 * float(np.std(np.log2(1.0 + p * a))) / math.sqrt(self.N_SAMPLES)
            assert abs(constant_power_capacity(a, b, p) - exact) <= 3.0 * ci

    def test_rayleigh_eavesdropper_matches_quadrature(self):
        for seed in self.SEEDS:
            spec = ErgodicSpec(legit_fading=RAYLEIGH, p_budget=1.0, eaves_fading=RAYLEIGH,
                               n_samples=self.N_SAMPLES, seed=seed)
            res = ergodic_secrecy(spec)
            assert abs(res.capacity - self.EAVES_CAPACITY) <= 3.0 * res.ci_halfwidth
            assert res.multiplier == pytest.approx(self.EAVES_MULTIPLIER, rel=0.01)
