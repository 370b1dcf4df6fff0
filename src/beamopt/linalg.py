"""Complex vector/matrix arithmetic and LU-based linear solves.

All values are complex128 (64-bit real and imaginary parts), immutable
after construction, and validated to be finite. Matrix inversion is
never formed explicitly; it is expressed as an LU solve against the
identity or against a right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# A pivot below this fraction of the largest entry magnitude in its row
# counts as singular-to-working-precision.
PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when LU elimination meets a singular-to-working-precision pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is singular to working precision at pivot {pivot_index}")


def _as_complex(data) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128)  # private copy; frozen types own their storage
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite (no NaN/Inf)")
    return arr


@dataclass(frozen=True)
class CMatrix:
    """Dense complex matrix, row-major complex128 storage."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_complex(self.data)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def diag(cls, entries) -> "CMatrix":
        return cls(np.diag(np.asarray(entries, dtype=np.complex128)))

    def column(self, j: int) -> "CVector":
        return CVector(self.data[:, j])


@dataclass(frozen=True)
class CVector:
    """Dense complex vector, complex128 storage."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_complex(self.data)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def len(self) -> int:
        return self.data.shape[0]


def matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    """Complex matrix product; dims (a.rows, b.cols)."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})")
    return CMatrix(a.data @ b.data)


def hermitian(a: CMatrix) -> CMatrix:
    """Conjugate transpose."""
    return CMatrix(a.data.conj().T)


def norm2(v: CVector) -> float:
    """Euclidean norm sqrt(sum |v_i|^2)."""
    return float(np.sqrt(np.sum(np.abs(v.data) ** 2)))


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


def solve(a: CMatrix, b: CMatrix) -> CMatrix:
    """Solve A X = B by LU with partial pivoting.

    Requires A square and B row-compatible. For condition numbers up to
    ~1e8 the relative residual ||AX - B||_F / ||B||_F stays below 1e-10.
    """
    if a.rows != a.cols:
        raise ValueError(f"matrix must be square, got {a.rows}x{a.cols}")
    if b.rows != a.rows:
        raise ValueError(f"right-hand side has {b.rows} rows, expected {a.rows}")
    lu, perm = lu_factor(a.data)
    return CMatrix(lu_solve(lu, perm, b.data))


def solve_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Array-level variant of solve() for a single matrix."""
    lu, perm = lu_factor(np.asarray(a, dtype=np.complex128))
    return lu_solve(lu, perm, np.asarray(b, dtype=np.complex128))


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
