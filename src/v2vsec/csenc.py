"""Compressive-sensing cipher.

The shared key is the seed of a Gaussian measurement matrix; encryption
is the projection y = Phi @ x of a sparse signal, decryption is greedy
sparse recovery (orthogonal matching pursuit). Confidentiality is the
empirical key-mismatch failure rate, not a proof.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._common import ComputationError, ValidatedRecord, integer

__all__ = [
    "CsKey",
    "SparseSignal",
    "RecoveryError",
    "keygen",
    "encrypt",
    "decrypt",
    "omp",
    "random_sparse_signal",
]


_SQRT_HALF = math.sqrt(0.5)


class RecoveryError(ComputationError):
    """Sparse recovery hit a rank-deficient support."""


class _CsKey(NamedTuple):
    seed: int
    n: int
    m: int


class CsKey(ValidatedRecord, _CsKey):
    """Seed plus dimensions of the secret measurement matrix (m x n, m < n)."""

    __slots__ = ()

    def _check(self) -> tuple:
        seed, n, m = (integer(name, value) for name, value in zip(self._fields, self))
        integer("seed", seed, "a 64-bit unsigned integer")
        if not 0 < m < n:
            raise ValueError(f"need 0 < m < n, got m={m!r}, n={n!r}")
        return seed, n, m


class _SparseSignal(NamedTuple):
    values: np.ndarray
    k: int


class SparseSignal(ValidatedRecord, _SparseSignal):
    """Length-n vector with exactly k nonzero entries, its ``values`` stored as float64.

    ``_check`` converts ``values`` with ``np.asarray``, so a float64 array
    is stored as it is, not copied. It holds an array, so it is not
    hashable, and ``==`` on two signals raises numpy's ambiguous-truth
    ``ValueError``.
    """

    __slots__ = ()

    def _check(self) -> tuple:
        try:
            values = np.asarray(self.values, dtype=np.float64)
        except (TypeError, ValueError):  # not numbers, or ragged
            values = None
        if values is None or values.ndim != 1:
            raise ValueError(f"values must be a 1-d array of real numbers, got {self.values!r}")
        k = integer("k", self.k)
        nnz = int(np.count_nonzero(values))
        if nnz != k:
            raise ValueError(f"signal has {nnz} nonzero entries, declared k={k!r}")
        return values, integer("k", k, ">= 1")

    @classmethod
    def from_dense(cls, values: np.ndarray) -> "SparseSignal":
        values = np.asarray(values, dtype=np.float64)
        return cls(values=values, k=int(np.count_nonzero(values)))


def keygen(key: CsKey) -> np.ndarray:
    """The m x n measurement matrix: i.i.d. N(0, 1/m) entries from the seed."""
    phi = np.random.default_rng(key.seed).standard_normal((key.m, key.n))
    phi /= math.sqrt(key.m)
    return phi


def encrypt(x: SparseSignal | np.ndarray, key: CsKey) -> np.ndarray:
    """Measurement vector y = Phi @ x; linear in x."""
    values = x.values if isinstance(x, SparseSignal) else np.asarray(x, dtype=np.float64)
    if values.shape != (key.n,):
        raise ValueError(f"signal dimension {values.shape} does not match n={key.n}")
    return keygen(key) @ values


def decrypt(y: np.ndarray, key: CsKey, k: int) -> SparseSignal:
    """Recover a k-sparse signal from measurements under ``key``.

    Generates the key's matrix once and runs :func:`omp` on it, which owns
    the input rules (y of m finite values, 1 <= k <= m) and raises
    :class:`RecoveryError` if the support goes rank-deficient or y has no
    component in span(Phi).
    """
    return omp(keygen(key), y, k)


def omp(phi: np.ndarray, y: np.ndarray, k: int) -> SparseSignal:
    """Orthogonal matching pursuit: k greedy atoms of the m x n ``phi`` that explain ``y``.

    ``y`` must hold m finite values and k must satisfy 1 <= k <= m (more
    atoms than measurements cannot be independent); otherwise ``ValueError``.
    Each iteration picks the column outside the support most correlated
    with the residual, normalised by the column norm (an all-zero column
    counts as 0); chosen atoms are marked -1, so they are never re-picked.
    When the best correlation is exactly 0 the residual has nothing left
    to explain, and the pursuit stops on the atoms chosen so far (a y
    with no component in span(phi) has none and raises
    :class:`RecoveryError`). The support's QR
    factors grow one column at a time: the new column gets one classical
    Gram-Schmidt pass against Q, and a second pass only when the first
    leaves less than 1/sqrt(2) of its norm ("twice is enough"), which
    keeps Q orthonormal to working precision. The residual loses its
    component along the new unit vector, and the coefficients solve
    R @ coef = Q.T @ y once, at the end. A column whose part outside
    span(Q) has norm <= eps * m * its own norm makes the support
    rank-deficient and raises :class:`RecoveryError`.
    """
    m, n = phi.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (m,):
        raise ValueError(f"measurement dimension {y.shape} does not match m={m}")
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite")
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k!r}, m={m}")
    norms = np.sqrt(np.einsum("ij,ij->j", phi, phi))
    # an all-zero column correlates 0 with every residual; dividing by 1 keeps that finite
    scale = np.where(norms > 0.0, norms, 1.0)
    tol = np.finfo(np.float64).eps * m
    q = np.zeros((k, m))  # rows are the orthonormal basis vectors
    r = np.zeros((k, k))
    residual = y.copy()
    corr = np.empty(n)
    support = np.empty(k, dtype=np.intp)
    for j in range(k):
        np.matmul(residual, phi, out=corr)
        np.abs(corr, out=corr)
        np.divide(corr, scale, out=corr)
        corr[support[:j]] = -1.0  # below every normalised correlation, so never re-picked
        atom = int(corr.argmax())
        if corr[atom] == 0.0:  # the residual is orthogonal to every column
            if j == 0:
                raise RecoveryError("y has no component in span(phi)")
            support, q, r = support[:j], q[:j], r[:j, :j]
            break
        support[j] = atom
        basis, column = q[:j], phi[:, atom]
        c = basis @ column
        v = column - c @ basis
        r[:j, j] = c
        norm = math.sqrt(v @ v)
        if norm < _SQRT_HALF * norms[atom]:
            c = basis @ v
            v -= c @ basis
            r[:j, j] += c
            norm = math.sqrt(v @ v)
        if norm <= tol * norms[atom]:
            raise RecoveryError(f"rank-deficient support after {j + 1} atoms")
        r[j, j] = norm
        np.divide(v, norm, out=q[j])
        residual -= q[j] * (q[j] @ residual)
    coef = np.linalg.solve(r, q @ y)
    values = np.zeros(n)
    values[support] = coef
    return SparseSignal.from_dense(values)


def random_sparse_signal(n: int, k: int, rng: np.random.Generator) -> SparseSignal:
    """A k-sparse test signal with Gaussian values on a random support."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k!r}, n={n!r}")
    support = rng.choice(n, size=k, replace=False)
    vals = rng.standard_normal(k)
    while np.any(vals == 0.0):  # zero draws would break the declared sparsity
        vals = rng.standard_normal(k)
    values = np.zeros(n)
    values[support] = vals
    return SparseSignal(values=values, k=k)
