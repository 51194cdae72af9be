import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vsec.csenc import (
    CsKey,
    RecoveryError,
    SparseSignal,
    decrypt,
    encrypt,
    keygen,
    omp,
    random_sparse_signal,
)
from v2vsec.sweeps import run_cs_demo

KEY = CsKey(seed=424242, n=256, m=64)


class TestKeygen:
    def test_deterministic(self):
        assert np.array_equal(keygen(KEY), keygen(KEY))

    def test_shape_and_scaling(self):
        phi = keygen(KEY)
        assert phi.shape == (64, 256)
        col_power = np.sum(phi * phi, axis=0)
        assert np.mean(col_power) == pytest.approx(1.0, rel=0.10)

    def test_different_seeds_differ_everywhere(self):
        other = keygen(CsKey(seed=424243, n=256, m=64))
        frac_diff = np.mean(keygen(KEY) != other)
        assert frac_diff >= 0.99

    @pytest.mark.parametrize("n, m", [(256, 64), (1024, 256)])
    def test_documented_formula_bit_for_bit(self, n, m):
        key = CsKey(seed=31337, n=n, m=m)
        expected = np.random.default_rng(31337).standard_normal((m, n)) / math.sqrt(m)
        assert np.array_equal(keygen(key), expected)

    def test_rejects_no_compression(self):
        with pytest.raises(ValueError):
            CsKey(seed=1, n=64, m=64)


class TestEncrypt:
    def test_zero_signal_maps_to_zero(self):
        assert np.array_equal(encrypt(np.zeros(256), KEY), np.zeros(64))

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x1, x2 = rng.standard_normal(256), rng.standard_normal(256)
        lhs = encrypt(x1 + x2, KEY)
        rhs = encrypt(x1, KEY) + encrypt(x2, KEY)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_homogeneity(self):
        x = random_sparse_signal(256, 8, np.random.default_rng(9))
        np.testing.assert_allclose(
            encrypt(3.5 * x.values, KEY), 3.5 * encrypt(x, KEY), rtol=1e-12
        )

    def test_sparse_input_projects_densely(self):
        x = random_sparse_signal(256, 8, np.random.default_rng(10))
        y = encrypt(x, KEY)
        assert np.all(y != 0.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            encrypt(np.zeros(255), KEY)


class TestDecrypt:
    def test_round_trip_success_rate(self):
        rng = np.random.default_rng(11)
        ok = 0
        trials = 100
        for t in range(trials):
            key = CsKey(seed=1000 + t, n=256, m=64)
            x = random_sparse_signal(256, 8, rng)
            recovered = decrypt(encrypt(x, key), key, 8)
            rel = np.linalg.norm(recovered.values - x.values) / np.linalg.norm(x.values)
            ok += rel < 1e-6
        assert ok >= 97

    def test_wrong_key_fails_loudly(self):
        rng = np.random.default_rng(12)
        failures = 0
        trials = 100
        for t in range(trials):
            key = CsKey(seed=2000 + t, n=256, m=64)
            wrong = CsKey(seed=9_000_000 + t, n=256, m=64)
            x = random_sparse_signal(256, 8, rng)
            recovered = decrypt(encrypt(x, key), wrong, 8)
            rel = np.linalg.norm(recovered.values - x.values) / np.linalg.norm(x.values)
            failures += rel > 0.5
        assert failures >= 99

    def test_single_atom_exact(self):
        x = np.zeros(256)
        x[17] = 2.5
        recovered = decrypt(encrypt(x, KEY), KEY, 1)
        assert recovered.k == 1
        assert recovered.values[17] == pytest.approx(2.5, rel=1e-10)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            decrypt(np.zeros(63), KEY, 8)
        with pytest.raises(ValueError):
            decrypt(np.zeros(64), KEY, 65)


class TestOmpInputRules:
    @pytest.mark.parametrize("y_len, k, message", [
        (64, 65, r"need 1 <= k <= m, got k=65, m=64"),
        (64, 0, r"need 1 <= k <= m, got k=0, m=64"),
        (63, 8, r"measurement dimension \(63,\) does not match m=64"),
    ], ids=["k-above-m", "k-zero", "short-y"])
    def test_rejects(self, y_len, k, message):
        with pytest.raises(ValueError, match=message):
            omp(keygen(KEY), np.ones(y_len), k)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", [slice(None), 5], ids=["every-value", "one-value"])
    def test_rejects_non_finite_measurements(self, bad, where):
        y = encrypt(random_sparse_signal(256, 8, np.random.default_rng(3)), KEY)
        y[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic can warn
            for recover in (lambda: omp(keygen(KEY), y, 8), lambda: decrypt(y, KEY, 8)):
                with pytest.raises(ValueError, match="^measurements must be finite$"):
                    recover()


class TestOmpDegenerateInputs:
    @pytest.mark.parametrize("order", [range(8), [0, 4, 1, 2, 3, 5, 6, 7]])
    def test_exact_fit_stops_on_the_atoms_chosen(self, order):
        # After e1 the residual is exactly zero, so every correlation is 0;
        # neither e1 again nor the dependent 2*e1 (the lowest unchosen index
        # in the second order) may be picked next.
        phi = np.hstack([np.eye(4), 2 * np.eye(4)])[:, list(order)]
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(omp(phi, [1, 0, 0, 0], 2).values, expected)

    def test_zero_measurement_has_nothing_to_recover(self):
        with pytest.raises(RecoveryError, match="no component in span"):
            decrypt(encrypt(np.zeros(KEY.n), KEY), KEY, 3)

    @pytest.mark.filterwarnings("error")
    def test_all_zero_column_is_never_picked(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((6, 10))
        phi[:, 3] = 0.0
        x = np.zeros(10)
        x[[1, 7]] = [1.3, -0.7]
        recovered = omp(phi, phi @ x, 2).values
        assert list(np.flatnonzero(recovered)) == [1, 7]
        assert np.max(np.abs(recovered - x)) <= 1e-12


def _lstsq_omp(phi, y, k):
    """Reference OMP: a full least-squares solve on the support after every atom."""
    norms = np.linalg.norm(phi, axis=0)
    residual = y.copy()
    support: list[int] = []
    coef = np.zeros(0)
    for _ in range(k):
        corr = np.abs(phi.T @ residual) / norms
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        sub = phi[:, support]
        coef, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < len(support):
            raise RecoveryError(f"rank-deficient support after {len(support)} atoms")
        residual = y - sub @ coef
    return support, coef


class TestOmpAgainstLeastSquares:
    """The QR-updated OMP picks the same atoms and coefficients as the lstsq one."""

    @pytest.mark.parametrize("n, m, k, trials", [
        (256, 64, 8, 20), (1024, 256, 32, 6), (64, 16, 16, 20),
    ])
    @pytest.mark.parametrize("wrong_key", [False, True])
    def test_same_support_coefficients_and_verdict(self, n, m, k, trials, wrong_key):
        rng = np.random.default_rng(n + k)
        for t in range(trials):
            x = random_sparse_signal(n, k, rng).values
            xnorm = np.linalg.norm(x)
            phi = keygen(CsKey(seed=7_000 + t, n=n, m=m))
            y = phi @ x
            if wrong_key:
                phi = keygen(CsKey(seed=8_000 + t, n=n, m=m))
            support, coef = _lstsq_omp(phi, y, k)
            recovered = omp(phi, y, k).values
            assert sorted(np.flatnonzero(recovered)) == sorted(support)
            assert np.max(np.abs(recovered[support] - coef)) <= 1e-9 * xnorm
            expected = np.zeros(n)
            expected[support] = coef
            rel = np.linalg.norm(recovered - x) / xnorm
            assert (rel < 1e-6) == (np.linalg.norm(expected - x) / xnorm < 1e-6)

    def test_nearly_parallel_columns_match_lstsq(self):
        # Column 1 is column 0 turned by 1e-4 rad towards u, every other
        # column is orthogonal to u, and y lies in the span of the pair. So
        # once one of the pair is in the support, the residual is best
        # explained by the other. Its first Gram-Schmidt pass leaves ~1e-4 of
        # its norm, under 1/sqrt(2), so the second pass has to run.
        m, n, k = 16, 48, 2
        rng = np.random.default_rng(21)
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        phi = rng.standard_normal((m, n)) / math.sqrt(m)
        phi -= np.outer(u, u @ phi)
        norm0 = np.linalg.norm(phi[:, 0])
        theta = 1e-4
        phi[:, 1] = math.cos(theta) * phi[:, 0] + math.sin(theta) * norm0 * u
        x = np.zeros(n)
        x[[0, 1]] = [1.5, -2.0]
        y = phi @ x
        support, coef = _lstsq_omp(phi, y, k)
        assert sorted(support) == [0, 1]
        recovered = omp(phi, y, k).values
        assert sorted(np.flatnonzero(recovered)) == sorted(support)
        assert np.max(np.abs(recovered[support] - coef)) <= 1e-9 * np.linalg.norm(x)

    def test_identical_columns_raise(self):
        column = np.random.default_rng(5).standard_normal((8, 1))
        phi = np.repeat(column, 3, axis=1)
        y = 2.0 * column[:, 0]
        with pytest.raises(RecoveryError):
            _lstsq_omp(phi, y, 2)
        with pytest.raises(RecoveryError):
            omp(phi, y, 2)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.integers(min_value=4, max_value=48).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(min_value=m + 1, max_value=4 * m),
            st.integers(min_value=1, max_value=m // 2),
        )
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_omp_coefficients_are_least_squares_on_their_support(shape, seed):
    # Whichever atoms OMP picks, the returned values on them must fit y in
    # the least-squares sense: the residual is orthogonal to every chosen column.
    m, n, k = shape
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    recovered = omp(phi, y, k)
    support = np.flatnonzero(recovered.values)
    assert recovered.k == len(support) == k
    phi_s = phi[:, support]
    normal = phi_s.T @ (y - phi_s @ recovered.values[support])
    assert np.linalg.norm(normal) <= 1e-9 * np.linalg.norm(phi_s, 2) * np.linalg.norm(y)


def test_readme_cs_demo_counts():
    lines = run_cs_demo(n=256, m=64, k=8, trials=500, seed=12345)
    correct, wrong = (row.split(",") for row in lines[1:])
    assert correct[5:] == ["498", "0.996", "0.000134807"]
    assert wrong[5:] == ["0", "0", "1.35944"]


@pytest.mark.parametrize("n, m, k", [(256, 64, 8), (1024, 256, 32)])
@pytest.mark.parametrize("seed", [1, 12345, 987654321])
def test_cs_demo_signal_is_not_drawn_from_its_key(monkeypatch, n, m, k, seed):
    # the signal once came from default_rng(seed), the stream of trial 0's own
    # key, so its nonzero values were entries of sqrt(m) * Phi
    signals = []

    def recording(*args):
        signals.append(random_sparse_signal(*args))
        return signals[-1]

    monkeypatch.setattr("v2vsec.sweeps.random_sparse_signal", recording)
    run_cs_demo(n=n, m=m, k=k, trials=1, seed=seed)
    values = signals[0].values[signals[0].values != 0.0]
    assert len(values) == k
    draw = np.random.default_rng(seed).standard_normal((m, n))  # keygen's Phi, times sqrt(m)
    assert np.array_equal(draw / math.sqrt(m), keygen(CsKey(seed=seed, n=n, m=m)))
    assert not np.isin(values, draw).any()


class TestSparseSignal:
    def test_sparsity_invariant(self):
        with pytest.raises(ValueError):
            SparseSignal(values=np.array([1.0, 0.0, 2.0]), k=3)

    def test_from_dense_counts(self):
        sig = SparseSignal.from_dense(np.array([0.0, 1.5, 0.0, -2.0]))
        assert sig.k == 2

    def test_generator_is_exactly_k_sparse(self):
        sig = random_sparse_signal(100, 7, np.random.default_rng(13))
        assert sig.k == 7
        assert np.count_nonzero(sig.values) == 7
