"""Compressive-sensing cipher.

The shared key is the seed of a Gaussian measurement matrix; encryption
is the projection y = Phi @ x of a sparse signal, decryption is greedy
sparse recovery (orthogonal matching pursuit). Confidentiality is the
empirical key-mismatch failure rate, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import ComputationError

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


class RecoveryError(ComputationError):
    """Sparse recovery hit a rank-deficient support."""


@dataclass(frozen=True)
class CsKey:
    """Seed plus dimensions of the secret measurement matrix (m x n, m < n)."""

    seed: int
    n: int
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0 < self.m < self.n:
            raise ValueError(f"need 0 < m < n, got m={self.m!r}, n={self.n!r}")


@dataclass(frozen=True)
class SparseSignal:
    """Length-n vector with exactly k nonzero entries."""

    values: np.ndarray
    k: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        nnz = int(np.count_nonzero(values))
        if nnz != self.k:
            raise ValueError(f"signal has {nnz} nonzero entries, declared k={self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")

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

    Generates the key's matrix once and runs :func:`omp` on it: k greedy
    atoms, with the support's QR factors grown one column at a time and
    one solve of the triangular R at the end instead of a least-squares
    solve per atom. Raises :class:`RecoveryError` if the support goes
    rank-deficient, i.e. a chosen column keeps a norm of at most
    eps * m * its own norm outside the span of the columns before it.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (key.m,):
        raise ValueError(f"measurement dimension {y.shape} does not match m={key.m}")
    if not 1 <= k <= key.m:
        raise ValueError(f"need 1 <= k <= m, got k={k!r}")
    return omp(keygen(key), y, k)


def omp(phi: np.ndarray, y: np.ndarray, k: int) -> SparseSignal:
    """Orthogonal matching pursuit: k greedy atoms of the m x n ``phi`` that explain ``y``.

    Each iteration picks the column outside the support most correlated
    with the residual, normalised by the column norm. The support's QR
    factors grow one column at a time: the new column is orthogonalised
    against Q by Gram-Schmidt run twice, which keeps Q orthonormal to
    rounding, and the residual loses its component along the new unit
    vector. The coefficients solve R @ coef = Q.T @ y once, at the end.
    A column whose part outside span(Q) has norm <= eps * m * its own
    norm makes the support rank-deficient and raises :class:`RecoveryError`.
    """
    m, n = phi.shape
    y = np.asarray(y, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->j", phi, phi))
    tol = np.finfo(np.float64).eps * m
    q = np.zeros((k, m))  # rows are the orthonormal basis vectors
    r = np.zeros((k, k))
    residual = y.copy()
    support: list[int] = []
    for j in range(k):
        corr = np.abs(phi.T @ residual) / norms
        corr[support] = 0.0
        atom = int(np.argmax(corr))
        support.append(atom)
        v = phi[:, atom].copy()
        for _ in range(2):
            c = q[:j] @ v
            v -= c @ q[:j]
            r[:j, j] += c
        r[j, j] = math.sqrt(v @ v)
        if r[j, j] <= tol * norms[atom]:
            raise RecoveryError(f"rank-deficient support after {j + 1} atoms")
        q[j] = v / r[j, j]
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
