"""LU-based complex linear solves on plain complex128 ndarrays.

solve_array (lu_factor + lu_solve) solves one matrix and raises on a
singular pivot; solve_batched runs the same elimination over a stack and
returns a singular mask instead. The single-matrix path is the reference
the batched kernel is tested against. Matrix inversion is never formed
explicitly; it is expressed as an LU solve against the identity or
against a right-hand side.
"""

from __future__ import annotations

import numpy as np

# A pivot below this fraction of the largest entry magnitude in its row
# counts as singular-to-working-precision.
PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when LU elimination meets a singular-to-working-precision pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is singular to working precision at pivot {pivot_index}")


def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization with partial (row) pivoting: P A = L U.

    Returns the combined LU matrix (unit lower triangle implicit) and the
    row permutation. Raises SingularMatrixError when a pivot falls below
    PIVOT_RTOL times the largest entry magnitude of the original matrix.
    """
    n = a.shape[0]
    lu = np.array(a, dtype=np.complex128)
    perm = np.arange(n)
    # Scale-aware singularity threshold, fixed before elimination starts.
    threshold = PIVOT_RTOL * max(np.max(np.abs(lu)), 1e-300)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        if np.abs(lu[piv, k]) < threshold:
            raise SingularMatrixError(k)
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm


def lu_solve(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back-substitution against a factored system; b may have many columns."""
    n = lu.shape[0]
    x = np.array(b[perm], dtype=np.complex128)
    for k in range(1, n):          # forward: L y = P b
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):  # backward: U x = y
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x


def solve_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for one matrix by LU with partial pivoting.

    Requires A square and B row-compatible. For condition numbers up to
    ~1e8 the relative residual ||AX - B||_F / ||B||_F stays below 1e-10.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {a.shape[0]}")
    lu, perm = lu_factor(a)
    return lu_solve(lu, perm, b)


def solve_batched(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = B for a stack of square matrices (..., n, n).

    The elimination is lu_factor's, vectorized across the stack: the same
    pivot choices, the same per-matrix PIVOT_RTOL threshold. Returns X
    (..., n, c) and a boolean singular mask (...,); the rows of X for a
    singular matrix are unspecified.
    """
    a = np.asarray(a, dtype=np.complex128)
    lead, n = a.shape[:-2], a.shape[-1]
    lu = a.reshape(-1, n, n).copy()
    x = np.broadcast_to(b, a.shape[:-1] + np.shape(b)[-1:]).reshape(len(lu), n, -1)
    x = x.astype(np.complex128)
    stack = np.arange(len(lu))
    threshold = PIVOT_RTOL * np.maximum(np.abs(lu).max(axis=(1, 2)), 1e-300)
    singular = np.zeros(len(lu), dtype=bool)
    for k in range(n):
        piv = k + np.argmax(np.abs(lu[:, k:, k]), axis=1)
        singular |= np.abs(lu[stack, piv, k]) < threshold
        for arr in (lu, x):                       # row swap; applies P to b as it goes
            row = arr[stack, piv].copy()
            arr[stack, piv] = arr[:, k]
            arr[:, k] = row
        lu[singular, k, k] = 1.0                  # keeps singular matrices finite
        lu[:, k + 1:, k] /= lu[:, k, k, None]
        lu[:, k + 1:, k + 1:] -= lu[:, k + 1:, k, None] * lu[:, None, k, k + 1:]
    for k in range(1, n):                         # forward: L y = P b
        x[:, k] -= (lu[:, None, k, :k] @ x[:, :k])[:, 0]
    for k in range(n - 1, -1, -1):                # backward: U x = y
        x[:, k] -= (lu[:, None, k, k + 1:] @ x[:, k + 1:])[:, 0]
        x[:, k] /= lu[:, k, k, None]
    return x.reshape(lead + x.shape[1:]), singular.reshape(lead)
