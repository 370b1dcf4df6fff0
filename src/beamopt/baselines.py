"""Classical downlink beamformers: zero-forcing and MMSE directions for a
stack (..., M, N) of subcarrier slices, each with one LAPACK inverse.

Under the h^T signal convention the effective channel is G = H^T, and the
pseudo-inverse / regularized-inverse formulas are applied to G so that the
nulling property h_j^T w_i = delta_ij holds exactly.
"""

from __future__ import annotations

import numpy as np

# A zero-forcing Gram whose reciprocal condition number is at most this is
# singular to working precision, in zf_directions and reference.zf_beamformer alike.
RCOND_MIN = 1e-12


def _normalize_columns(w: np.ndarray) -> np.ndarray:
    return w / np.linalg.norm(w, axis=-2, keepdims=True)


def zf_directions(h) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing unit directions for a stack of slices (..., M, N).

    Returns (w_tilde (..., M, N), singular (...,)): the beams
    reference.zf_beamformer gives per slice, and the slices on which it raises (a NaN or infinite
    Gram entry, or a condition number at or above 1 / RCOND_MIN, or NaN),
    whose directions are NaN.
    """
    h = np.asarray(h, dtype=np.complex128)
    gram = np.swapaxes(h, -1, -2) @ h.conj()
    finite = np.isfinite(gram).all(axis=(-2, -1))
    gram[~finite] = np.eye(h.shape[-1])                # cond's SVD would not converge
    singular = ~finite | ~(np.linalg.cond(gram) * RCOND_MIN < 1)
    gram[singular] = np.eye(h.shape[-1])               # keeps the stack invertible
    with np.errstate(invalid="ignore"):                # zero columns of singular slices
        w = _normalize_columns(h.conj() @ np.linalg.inv(gram))
    w[singular] = np.nan
    return w, singular


def mmse_directions(h, reg) -> np.ndarray:
    """MMSE unit directions for a stack of slices (..., M, N).

    reg is reference.mmse_beamformer's regularizer sigma^2 > 0, a scalar or one value
    per slice; Gram + reg I is then positive definite, so no slice is singular.
    """
    h = np.asarray(h, dtype=np.complex128)
    reg = np.asarray(reg, dtype=np.float64)[..., None, None]
    gram = np.swapaxes(h, -1, -2) @ h.conj() + reg * np.eye(h.shape[-1])
    return _normalize_columns(h.conj() @ np.linalg.inv(gram))
