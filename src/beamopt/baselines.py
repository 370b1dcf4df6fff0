"""Classical downlink beamformers: zero-forcing, MMSE, matched filter, and
the uplink-downlink duality structure with a virtual-uplink power solver.

Under the h^T signal convention the effective channel is G = H^T, and the
pseudo-inverse / regularized-inverse formulas are applied to G so that the
nulling property h_j^T w_i = delta_ij holds exactly. The matched-filter
direction for UE k is therefore conj(h_k).

The single-slice functions act on one subcarrier slice H (M x N, columns =
UE channel vectors) and serve as references; inverse_directions computes
the ZF and MMSE beams for a whole stack (..., M, N) of slices at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError, lu_factor, lu_solve, solve_array, solve_batched


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


def zf_beamformer(h_k, p_max: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing directions and equal powers for one subcarrier.

    Returns (w_tilde (M, N) unit columns, p (N,)). The unnormalized beams
    satisfy h_j^T w_i = delta_ij; a singular Gram raises SingularChannelError.
    """
    h = _as_channel(h_k)
    m_tx, n_ue = h.shape
    if n_ue > m_tx:
        raise ValueError(f"zero-forcing needs N <= M, got {m_tx}x{n_ue}")
    gram = h.T @ h.conj()                     # G G^H with G = H^T
    try:
        w = h.conj() @ solve_array(gram, np.eye(n_ue))
    except SingularMatrixError as exc:
        raise SingularChannelError(f"channel Gram is singular (pivot {exc.pivot_index})") from exc
    p_max = float(n_ue) if p_max is None else float(p_max)
    return _normalize_columns(w), equal_power(n_ue, p_max)


def mmse_beamformer(h_k, sigma2: float, p_max: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Regularized-inverse directions and equal powers for one subcarrier.

    The regularizer is sigma^2 scaled by N / P_max (per-UE loading
    lambda_i = P_max / N); with P_max = N it reduces to sigma^2 I.
    """
    h = _as_channel(h_k)
    m_tx, n_ue = h.shape
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    p_max = float(n_ue) if p_max is None else float(p_max)
    reg = sigma2 * n_ue / p_max
    gram = h.T @ h.conj() + reg * np.eye(n_ue)
    w = h.conj() @ solve_array(gram, np.eye(n_ue))
    return _normalize_columns(w), equal_power(n_ue, p_max)


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
    w = solve_array(cov, a)                   # Hermitian positive definite
    return _normalize_columns(w), np.asarray(p, dtype=np.float64)


def virtual_uplink_sinrs(h_k, lam: np.ndarray, sigma2: float) -> np.ndarray:
    """Uplink SINRs under MMSE receive filters for the given uplink powers."""
    h = _as_channel(h_k)
    m_tx, n_ue = h.shape
    a = h.conj()
    sinrs = np.empty(n_ue)
    for k in range(n_ue):
        others = [i for i in range(n_ue) if i != k]
        cov = sigma2 * np.eye(m_tx)
        if others:
            ao = a[:, others]
            cov = cov + (ao * lam[others][None, :]) @ ao.conj().T
        lu, perm = lu_factor(cov)
        sinrs[k] = lam[k] * np.real(a[:, k].conj() @ lu_solve(lu, perm, a[:, k]))
    return sinrs


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


def inverse_directions(h, reg=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing (reg = 0) or MMSE unit directions for a stack of slices (..., M, N).

    reg is mmse_beamformer's regularizer sigma^2 N / P_max, a scalar or one
    value per slice. Returns (w_tilde (..., M, N), singular (...,)): the
    beams zf_beamformer / mmse_beamformer give per slice, and the slices
    whose Gram is singular to PIVOT_RTOL, whose directions are NaN.
    """
    h = np.asarray(h, dtype=np.complex128)
    reg = np.asarray(reg, dtype=np.float64)[..., None, None]
    gram = np.swapaxes(h, -1, -2) @ h.conj() + reg * np.eye(h.shape[-1])
    x, singular = solve_batched(gram, np.eye(h.shape[-1]))
    x[singular] = np.nan
    with np.errstate(invalid="ignore"):       # the NaN columns of singular slices
        return _normalize_columns(h.conj() @ x), singular
