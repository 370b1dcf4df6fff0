"""SINR, sum-rate, and the negative-sum-rate training loss.

The received-signal convention is h_k^T w (no conjugate on the channel),
so the effective gain of beam i at UE n is sum_m h[k,m,n] * w[k,m,i].
Rates are the plain sum over UEs of log2(1 + SINR), in bits/s/Hz,
averaged over subcarriers. Per-UE noise variances generalize the single
sigma^2 of the narrowband formulation.

Three functions compute the same objective, one per consumer:
sinr_per_ue + weighted_sum_rate is the single-sample test oracle,
per_sample_sum_rates the batched numpy path of validation and eval, and
neg_sum_rate_graph the autodiff loss the trainer backpropagates through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

_LN2 = float(np.log(2.0))
UNIT_NORM_TOL = 1e-9
POWER_BUDGET_TOL = 1e-9


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

    @property
    def n_ue(self) -> int:
        return self.w_tilde.shape[2]


def effective_gains(h: np.ndarray, w_tilde: np.ndarray) -> np.ndarray:
    """e[k, n, i] = h[k, :, n]^T w_tilde[k, :, i] for every UE/beam pair."""
    return np.einsum("kmn,kmi->kni", h, w_tilde)


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
    gains = np.abs(effective_gains(h_arr, bf.w_tilde)) ** 2        # (K, N, N)
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


def neg_sum_rate_graph(wr: "ad.Tensor", wi: "ad.Tensor", h: np.ndarray,
                       p: "ad.Tensor", sigma2: np.ndarray) -> "ad.Tensor":
    """Batched loss built from autodiff ops; mirrors the numpy reference.

    wr, wi: real/imag beam directions, (B, K, M, N) tensors (unit columns).
    h: constant complex channel batch (B, K, M, N).
    p: per-UE powers, (B, N) tensor.
    sigma2: per-UE noise variances, (B, N).
    Returns the scalar batch-mean negative sum-rate.
    """
    b, k_sc, m_tx, n_ue = h.shape
    hr = np.ascontiguousarray(h.real)
    hi = np.ascontiguousarray(h.imag)

    # (B,K,M,N,1) channel against (B,K,M,1,N) beams -> gains (B,K,N,N): [.., n, i]
    hr_e, hi_e = hr[..., None], hi[..., None]
    wr_e = ad.reshape(wr, (b, k_sc, m_tx, 1, n_ue))
    wi_e = ad.reshape(wi, (b, k_sc, m_tx, 1, n_ue))
    e_re = ad.tsum(wr_e * hr_e - wi_e * hi_e, axis=2)
    e_im = ad.tsum(wr_e * hi_e + wi_e * hr_e, axis=2)
    gains = ad.square(e_re) + ad.square(e_im)                      # (B, K, N, N)

    eye = np.eye(n_ue)
    p_e = ad.reshape(p, (b, 1, 1, n_ue))
    weighted = gains * p_e
    signal = ad.tsum(weighted * eye[None, None], axis=3)           # (B, K, N)
    interference = ad.tsum(weighted * (1.0 - eye)[None, None], axis=3)
    gamma = signal / (interference + sigma2[:, None, :])

    rates = ad.log1p(gamma) * (1.0 / _LN2)
    per_sample = ad.tsum(rates, axis=(1, 2)) * (1.0 / k_sc)        # (B,)
    return -ad.tmean(per_sample)


def per_sample_sum_rates(wr: np.ndarray, wi: np.ndarray, h: np.ndarray,
                         p: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Batched numpy sum-rates, one per sample (for validation/eval)."""
    w = wr + 1j * wi
    gains = np.abs(np.einsum("bkmn,bkmi->bkni", h, w)) ** 2
    weighted = gains * p[:, None, None, :]
    signal = np.einsum("bknn->bkn", weighted)
    interference = weighted.sum(axis=3) - signal
    gamma = signal / (interference + sigma2[:, None, :])
    return (np.log1p(gamma) / _LN2).sum(axis=2).mean(axis=1)
