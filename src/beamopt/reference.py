"""The oracles: single-slice and single-sample references that the tests and
`verify` check the batched pipeline against; generate, train, eval and plot
run none of it. A slice H is (M, N), columns = UE channels, and under the h^T
convention ZF gives h_j^T w_i = delta_ij. zf_directions and mmse_directions
are the ZF and MMSE beams of a whole stack, which baselines.regularized_terms
scores in closed form; conv1d and batchnorm1d are the unfused ops of
autodiff.conv_bn_gelu; gen_taps + taps_to_freq per (tx antenna, UE) pair,
then ue_snr_offsets, is one sample of channel.gen_dataset from its stream;
serialize_config inverts config.parse_config_text.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import BatchNormState, Tensor, as_tensor, make_op
from .baselines import RCOND_MIN, zf_grams
from .channel import TdlProfile, _phase_matrix
from .config import KNOWN_KEYS, SCHEMA, SCHEMA_VERSION, ExperimentConfig
from .metrics import _LN2

UNIT_NORM_TOL = 1e-9
POWER_BUDGET_TOL = 1e-9


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


def _normalize_columns(w: np.ndarray) -> np.ndarray:
    return w / np.linalg.norm(w, axis=-2, keepdims=True)


def equal_power(n_ue: int, p_max: float) -> np.ndarray:
    """Uniform per-UE power split p_max / N."""
    if n_ue < 1:
        raise ValueError("need at least one UE")
    return np.full(n_ue, p_max / n_ue)


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


def zf_directions(h) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing unit directions for a stack of slices (..., M, N), with
    one LAPACK inverse.

    Returns (w_tilde (..., M, N), singular (...,)): the beams zf_beamformer
    gives per slice, and baselines.zf_grams' mask of the slices on which it
    raises, whose directions are NaN.
    """
    h = np.asarray(h, dtype=np.complex128)
    gram, _, singular = zf_grams(h)
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


@dataclass(frozen=True)
class BeamformerSet:
    """Unit-norm per-subcarrier beam directions (K, M, N) and per-UE powers (N,)."""

    w_tilde: np.ndarray
    p: np.ndarray
    p_max: float

    def __post_init__(self):
        w = np.array(self.w_tilde, dtype=np.complex128)
        p = np.array(self.p, dtype=np.float64)
        if w.ndim != 3:
            raise ValueError(f"w_tilde must be shaped (K, M, N), got {w.shape}")
        if p.shape != (w.shape[2],):
            raise ValueError(f"powers shaped {p.shape}, expected ({w.shape[2]},)")
        norms = np.linalg.norm(w, axis=1)
        if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
            raise ValueError("beam columns must have unit norm")
        if np.any(p < 0):
            raise ValueError("powers must be non-negative")
        if p.sum() > self.p_max + POWER_BUDGET_TOL:
            raise ValueError(f"total power {p.sum():.12g} exceeds budget {self.p_max:.12g}")
        w.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "w_tilde", w)
        object.__setattr__(self, "p", p)


def sinr_per_ue(h: np.ndarray, bf: BeamformerSet, sigma2: np.ndarray) -> np.ndarray:
    """Per-subcarrier, per-UE SINR array of shape (K, N)."""
    h_arr = np.asarray(h, dtype=np.complex128)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    k_sc, _, n_ue = h_arr.shape
    if bf.w_tilde.shape != h_arr.shape:
        raise ValueError(f"beamformer shape {bf.w_tilde.shape} does not match channel {h_arr.shape}")
    if sigma2.shape != (n_ue,):
        raise ValueError(f"sigma2 shaped {sigma2.shape}, expected ({n_ue},)")
    if np.any(sigma2 <= 0):
        raise ValueError("noise variances must be positive")
    # gains[k, n, i] = |h[k, :, n]^T w_tilde[k, :, i]|^2
    gains = np.abs(np.einsum("kmn,kmi->kni", h_arr, bf.w_tilde)) ** 2
    weighted = gains * bf.p[None, None, :]
    signal = np.einsum("knn->kn", weighted)
    interference = weighted.sum(axis=2) - signal
    return signal / (interference + sigma2[None, :])


def weighted_sum_rate(gamma: np.ndarray) -> float:
    """(1/K) sum_k sum_n log2(1 + gamma[k, n]), in bits/s/Hz."""
    gamma = np.asarray(gamma, dtype=np.float64)
    if np.any(gamma < 0):
        raise ValueError("SINRs must be non-negative")
    return float((np.log1p(gamma) / _LN2).sum(axis=1).mean())


def conv1d(x, w, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation: x (B, C_in, L), w (C_out, C_in, ksz) -> (B, C_out, L_out)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 3 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(f"conv1d shape mismatch: x {x.data.shape}, w {w.data.shape}")
    batch, c_in, length = x.data.shape
    c_out, _, ksz = w.data.shape
    padded_len = length + 2 * padding
    if padded_len < ksz:
        raise ValueError(f"kernel size {ksz} exceeds padded length {padded_len}")
    l_out = (padded_len - ksz) // stride + 1

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    # im2col: row (b, l) holds the window xp[b, :, l*stride : l*stride + ksz] as (c, k)
    windows = sliding_window_view(xp, ksz, axis=2)[:, :, ::stride]
    cols = windows.transpose(0, 2, 1, 3).reshape(batch * l_out, c_in * ksz)
    w2 = w.data.reshape(c_out, c_in * ksz)
    out_data = np.ascontiguousarray((cols @ w2.T).reshape(batch, l_out, c_out).transpose(0, 2, 1))

    def pull(g):
        rows = g.transpose(0, 2, 1).reshape(batch * l_out, c_out)
        dx = None
        if x.requires_grad:
            dcols = (rows @ w2).reshape(batch, l_out, c_in, ksz).transpose(0, 2, 1, 3)
            dxp = np.zeros((batch, c_in, padded_len))
            for k in range(ksz):
                dxp[:, :, k:k + stride * l_out:stride] += dcols[..., k]
            dx = dxp[:, :, padding:padding + length] if padding else dxp
        return dx, (rows.T @ cols).reshape(w.data.shape) if w.requires_grad else None

    return make_op(out_data, (x, w), pull)


def batchnorm1d(x, gamma, beta, state: BatchNormState, training: bool,
                eps: float = 1e-5, momentum: float = 0.1) -> Tensor:
    """Per-channel normalization of x (B, C, L) over the (B, L) axes.

    Train mode normalizes with batch statistics (backward is exact through
    them) and updates the running stats by `momentum`; eval mode uses the
    running stats. Zero-variance channels are kept finite by eps.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 3 or gamma.data.shape != (x.data.shape[1],) \
            or beta.data.shape != (x.data.shape[1],):
        raise ValueError(f"batchnorm shape mismatch: x {x.data.shape}, gamma {gamma.data.shape}")
    batch, channels, length = x.data.shape
    n = batch * length
    if training and n < 2:
        raise ValueError("train-mode batch norm needs more than one element per channel")

    if training:
        mean = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        state.mean[:] = (1.0 - momentum) * state.mean + momentum * mean
        state.var[:] = (1.0 - momentum) * state.var + momentum * var * n / max(n - 1, 1)
    else:
        mean, var = state.mean, state.var

    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None]) * ivar[None, :, None]
    out_data = gamma.data[None, :, None] * xhat + beta.data[None, :, None]

    def pull(g):
        dgamma = (g * xhat).sum(axis=(0, 2)) if gamma.requires_grad else None
        dbeta = g.sum(axis=(0, 2)) if beta.requires_grad else None
        if not x.requires_grad:
            return None, dgamma, dbeta
        dxhat = g * gamma.data[None, :, None]
        if not training:
            return dxhat * ivar[None, :, None], dgamma, dbeta
        sum_dxhat = dxhat.sum(axis=(0, 2))
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2))
        dx = (ivar[None, :, None] / n) * (
            n * dxhat
            - sum_dxhat[None, :, None]
            - xhat * sum_dxhat_xhat[None, :, None])
        return dx, dgamma, dbeta

    return make_op(out_data, (x, gamma, beta), pull)


def gen_taps(profile: TdlProfile, delay_spread_ns: float, rng: np.random.Generator):
    """Draw one tap realization: list of (delay_s, complex_gain).

    Gains are circular complex Gaussian with per-tap variance equal to the
    normalized linear tap power, so magnitudes are Rayleigh and the total
    expected power is 1. Delays scale the normalized profile delays by the
    delay spread. Taps are flat within a TTI (Doppler is metadata only).
    """
    if delay_spread_ns <= 0:
        raise ValueError("delay spread must be positive")
    n_taps = profile.delays.size
    gains = (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)) \
        * np.sqrt(profile.powers / 2.0)
    delays_s = profile.delays * delay_spread_ns * 1e-9
    return list(zip(delays_s, gains))


def taps_to_freq(taps, k_sc: int, scs_hz: float) -> np.ndarray:
    """Frequency response H(f_k) = sum_l g_l exp(-j 2 pi f_k tau_l), f_k = k*scs."""
    delays = np.array([t[0] for t in taps], dtype=np.float64)
    gains = np.array([t[1] for t in taps], dtype=np.complex128)
    return _phase_matrix(delays, k_sc, scs_hz) @ gains


def ue_snr_offsets(jitter_db: float, n_ue: int, rng: np.random.Generator) -> np.ndarray:
    """Per-UE SNR offsets in dB: Gaussian with sigma = jitter/2, clipped to
    +/- jitter, and +0.0 (not -0.0) at jitter 0."""
    delta = rng.standard_normal(n_ue) * (jitter_db / 2.0)
    return 0.0 + np.clip(delta, -jitter_db, jitter_db)


def serialize_config(cfg: ExperimentConfig) -> str:
    """The INI text of every key of config.SCHEMA, in its order; numbers as repr."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({section: {} for section in KNOWN_KEYS})
    for section, key, field, _, _ in SCHEMA:
        value = SCHEMA_VERSION if field is None else \
            getattr(cfg.train if section == "train" else cfg, field)
        items = value if isinstance(value, tuple) else (value,)
        parser[section][key] = ", ".join(v if isinstance(v, str) else repr(v) for v in items)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
