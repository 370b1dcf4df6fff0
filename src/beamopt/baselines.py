"""Classical downlink beamformers in closed form from each slice's Gram.

Under the h^T signal convention a slice h (M, N) has the Gram
G = h^T conj(h), and zero-forcing and MMSE are both regularized channel
inversion, W = conj(h) (G + r I)^-1: ZF at r = 0, MMSE at r = sigma^2.
gram_eigh factors every slice's Gram once, G = U diag(lam) U^H. Then
h^T W = U diag(lam / (lam + r)) U^H and ||W_i||^2 = sum_k |U_ik|^2
lam_k / (lam_k + r)^2, so regularized_terms gives the signal and
interference powers of W's unit columns at any r with no further solve and
no M-sized array; zf_terms is r = 0. The beams themselves are
reference.zf_directions and reference.mmse_directions, the oracles these
closed forms are checked against.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import metrics

# A zero-forcing Gram whose reciprocal condition number is at most this is
# singular to working precision, in zf_grams and reference.zf_beamformer alike.
RCOND_MIN = 1e-12


def zf_grams(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gram h^T conj(h) (..., N, N) of every slice of a stack (..., M, N).

    Returns (gram, finite, singular): the Grams, with I in place of one that
    holds a NaN or infinite entry; the mask (...,) of the finite ones; and
    the slices on which reference.zf_beamformer raises (a non-finite entry,
    or a condition number at or above 1 / RCOND_MIN, or NaN).
    """
    h = np.asarray(h, dtype=np.complex128)
    gram = np.swapaxes(h, -1, -2) @ h.conj()
    finite = np.isfinite(gram).all(axis=(-2, -1))
    gram[~finite] = np.eye(h.shape[-1])                # cond's SVD would not converge
    return gram, finite, ~finite | ~(np.linalg.cond(gram) * RCOND_MIN < 1)


class GramEigh(NamedTuple):
    """G = U diag(lam) U^H for every slice of a channel stack (S, K, M, N)."""

    lam: np.ndarray         # (S, K, N) ascending; NaN where the Gram has a non-finite entry
    u: np.ndarray           # (S, K, N, N), the eigenvectors in columns
    uh: np.ndarray          # U^H
    u_abs2: np.ndarray      # |U|^2, elementwise
    singular: np.ndarray    # (S, K), zf_grams' mask


def gram_eigh(h) -> GramEigh:
    """The Hermitian eigendecomposition of every slice's true Gram, with
    zf_grams' singular mask. Only a Gram with a non-finite entry is replaced
    (by I), and its eigenvalues are NaN, so every design's terms are NaN there."""
    gram, finite, singular = zf_grams(h)
    lam, u = np.linalg.eigh(gram)
    lam[~finite] = np.nan
    return GramEigh(lam, u, np.swapaxes(u, -1, -2).conj(), u.real ** 2 + u.imag ** 2, singular)


def regularized_terms(eig: GramEigh, reg) -> tuple[np.ndarray, np.ndarray]:
    """metrics.terms (S, K, N) of the unit columns of conj(h) (G + reg I)^-1 at
    equal unit powers. reg broadcasts against eig.lam (S, K, N): ZF is 0,
    MMSE each sample's sigma^2; NaN makes a slice's terms NaN."""
    lam_r = eig.lam + reg
    shrink = eig.lam / lam_r
    norm2 = (eig.u_abs2 @ (shrink / lam_r)[..., None])[..., 0]           # ||W_i||^2
    gains = (eig.u * shrink[..., None, :]) @ eig.uh * (1.0 / np.sqrt(norm2))[..., None, :]
    return metrics._terms_of(gains, np.ones((len(gains), gains.shape[-1])))


def zf_terms(eig: GramEigh) -> tuple[np.ndarray, np.ndarray]:
    """ZF's terms: regularized_terms at reg 0, NaN on the singular slices,
    where zero-forcing has no beam."""
    return regularized_terms(eig, np.where(eig.singular, np.nan, 0.0)[..., None])
