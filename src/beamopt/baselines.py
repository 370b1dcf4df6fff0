"""Classical downlink beamformers: zero-forcing, MMSE, matched filter, and
the uplink-downlink duality structure with a virtual-uplink power solver.

Under the h^T signal convention the effective channel is G = H^T, and the
pseudo-inverse / regularized-inverse formulas are applied to G so that the
nulling property h_j^T w_i = delta_ij holds exactly. The matched-filter
direction for UE k is therefore conj(h_k).

The single-slice functions act on one subcarrier slice H (M x N, columns =
UE channel vectors) and serve as references; zf_directions and
mmse_directions compute the ZF and MMSE beams for a whole stack
(..., M, N) of slices at once, each with one LAPACK inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A zero-forcing Gram whose reciprocal condition number is at most this is
# singular to working precision, in zf_beamformer and zf_directions alike.
RCOND_MIN = 1e-12


class SingularChannelError(ValueError):
    """Gram matrix of the channel is singular; caller may regularize or drop the sample."""


class InfeasibleTargetsError(RuntimeError):
    """Fixed-point iteration failed to meet the SINR targets."""

    def __init__(self, message: str, last_iterate: np.ndarray):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class VirtualUplinkPowers:
    """Per-UE virtual uplink powers (dual variables of the downlink design)."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lam, dtype=np.float64)
        if lam.ndim != 1 or np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("virtual uplink powers must be finite and non-negative")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)


def equal_power(n_ue: int, p_max: float) -> np.ndarray:
    """Uniform per-UE power split p_max / N."""
    if n_ue < 1:
        raise ValueError("need at least one UE")
    return np.full(n_ue, p_max / n_ue)


def _normalize_columns(w: np.ndarray) -> np.ndarray:
    return w / np.linalg.norm(w, axis=-2, keepdims=True)


def _as_channel(h_k) -> np.ndarray:
    arr = np.asarray(h_k, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected an (M, N) channel slice, got shape {arr.shape}")
    return arr


def zf_beamformer(h_k) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing directions and equal powers (budget N) for one subcarrier.

    Returns (w_tilde (M, N) unit columns, p (N,)). The unnormalized beams
    satisfy h_j^T w_i = delta_ij. A Gram whose condition number reaches
    1 / RCOND_MIN, or that holds a NaN or infinite entry, is singular to
    working precision: SingularChannelError.
    """
    h = _as_channel(h_k)
    m_tx, n_ue = h.shape
    if n_ue > m_tx:
        raise ValueError(f"zero-forcing needs N <= M, got {m_tx}x{n_ue}")
    gram = h.T @ h.conj()                     # G G^H with G = H^T
    if not (np.isfinite(gram).all() and np.linalg.cond(gram) * RCOND_MIN < 1):
        raise SingularChannelError("channel Gram is singular to working precision")
    w = h.conj() @ np.linalg.solve(gram, np.eye(n_ue))
    return _normalize_columns(w), equal_power(n_ue, float(n_ue))


def mmse_beamformer(h_k, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Regularized-inverse directions and equal powers (budget N) for one subcarrier.

    The regularizer is sigma^2 N / P_max, which is sigma^2 I under the
    budget P_max = N.
    """
    h = _as_channel(h_k)
    m_tx, n_ue = h.shape
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    gram = h.T @ h.conj() + sigma2 * np.eye(n_ue)
    w = h.conj() @ np.linalg.solve(gram, np.eye(n_ue))
    return _normalize_columns(w), equal_power(n_ue, float(n_ue))


def matched_filter(h_k) -> np.ndarray:
    """Interference-blind directions conj(h_k), unit-normalized."""
    return _normalize_columns(_as_channel(h_k).conj())


def optimal_structure_bf(h_k, lam: VirtualUplinkPowers, p: np.ndarray,
                         sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Duality-structure directions for given virtual uplink powers.

    w_i is proportional to (I_M + (1/sigma^2) A diag(lam) A^H)^{-1} a_i with
    a_i = conj(h_i); columns are unit-normalized and the supplied powers are
    attached (the diagonal rescaling of the closed form is absorbed by the
    normalization).
    """
    h = _as_channel(h_k)
    m_tx, n_ue = h.shape
    lam_arr = lam.lam if isinstance(lam, VirtualUplinkPowers) else np.asarray(lam, dtype=np.float64)
    if lam_arr.shape != (n_ue,):
        raise ValueError(f"lambda shaped {lam_arr.shape}, expected ({n_ue},)")
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    a = h.conj()
    cov = np.eye(m_tx) + (a * lam_arr[None, :]) @ a.conj().T / sigma2
    w = np.linalg.solve(cov, a)               # Hermitian positive definite
    return _normalize_columns(w), np.asarray(p, dtype=np.float64)


def virtual_uplink_sinrs(h_k, lam: np.ndarray, sigma2: float) -> np.ndarray:
    """Uplink SINRs under MMSE receive filters for the given uplink powers.

    One (N, M, M) stack solve: slice k holds the interference-plus-noise
    covariance sigma^2 I + sum_{i!=k} lam_i a_i a_i^H seen by UE k.
    """
    h = _as_channel(h_k)
    m_tx, n_ue = h.shape
    a = h.conj()
    lam = np.asarray(lam, dtype=np.float64)
    others = lam * (1.0 - np.eye(n_ue))                     # [k, i] = lam_i for i != k
    cov = sigma2 * np.eye(m_tx) + (a * others[:, None, :]) @ a.conj().T
    x = np.linalg.solve(cov, a.T[..., None])[..., 0]       # (N, M): row k solves cov_k x = a_k
    return lam * np.real(np.sum(a.T.conj() * x, axis=1))


def solve_virtual_uplink_powers(h_k, target_sinrs: np.ndarray, sigma2: float,
                                max_iter: int = 500, tol: float = 1e-8) -> VirtualUplinkPowers:
    """Damped fixed-point iteration for the virtual uplink power allocation.

    Iterates lambda_k <- rho_k / (a_k^H (sigma^2 I + sum_{i!=k} lambda_i
    a_i a_i^H)^{-1} a_k) with damping 0.5 until the uplink SINRs meet the
    targets within tol; raises InfeasibleTargetsError (carrying the last
    iterate) if max_iter is exhausted.
    """
    h = _as_channel(h_k)
    n_ue = h.shape[1]
    rho = np.asarray(target_sinrs, dtype=np.float64)
    if rho.shape != (n_ue,):
        raise ValueError(f"targets shaped {rho.shape}, expected ({n_ue},)")
    if np.any(rho < 0):
        raise ValueError("target SINRs must be non-negative")
    lam = np.ones(n_ue)
    for _ in range(max_iter):
        sinrs = virtual_uplink_sinrs(h, lam, sigma2)
        if np.max(np.abs(sinrs - rho)) <= tol:
            return VirtualUplinkPowers(lam)
        update = lam * np.where(sinrs > 0, rho / sinrs, 1.0)
        nxt = 0.5 * lam + 0.5 * update
        # exploding powers mean the targets sit outside the feasible region
        if not np.all(np.isfinite(nxt)) or np.max(nxt) > 1e12:
            raise InfeasibleTargetsError("virtual uplink powers diverged", lam)
        lam = nxt
    raise InfeasibleTargetsError(
        f"virtual uplink powers did not converge in {max_iter} iterations", lam)


def zf_directions(h) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing unit directions for a stack of slices (..., M, N).

    Returns (w_tilde (..., M, N), singular (...,)): the beams zf_beamformer
    gives per slice, and the slices on which it raises (a NaN or infinite
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

    reg is mmse_beamformer's regularizer sigma^2 > 0, a scalar or one value
    per slice; Gram + reg I is then positive definite, so no slice is singular.
    """
    h = np.asarray(h, dtype=np.complex128)
    reg = np.asarray(reg, dtype=np.float64)[..., None, None]
    gram = np.swapaxes(h, -1, -2) @ h.conj() + reg * np.eye(h.shape[-1])
    return _normalize_columns(h.conj() @ np.linalg.inv(gram))
