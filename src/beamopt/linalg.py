"""The batched complex LU solve on plain complex128 ndarrays.

solve_batched eliminates a whole stack of matrices at once and returns a
singular mask instead of raising. Its reference in the tests and in
verify is LAPACK (np.linalg.solve), an independent implementation.
Matrix inversion is never formed explicitly; it is expressed as an LU
solve against the identity or against a right-hand side.
"""

from __future__ import annotations

import numpy as np

# A pivot below this fraction of the largest entry magnitude of its matrix
# counts as singular-to-working-precision.
PIVOT_RTOL = 1e-12


def solve_batched(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = B for a stack of square matrices (..., n, n).

    LU with partial (row) pivoting, vectorized across the stack. A matrix
    is singular when a pivot falls below PIVOT_RTOL times its largest entry
    magnitude. Returns X (..., n, c) and a boolean singular mask (...,);
    the rows of X for a singular matrix are unspecified.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"matrices must be square, got shape {a.shape}")
    lead, n = a.shape[:-2], a.shape[-1]
    if np.ndim(b) < 2 or np.shape(b)[-2] != n:
        raise ValueError(f"right-hand side shaped {np.shape(b)}, expected {n} rows")
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
