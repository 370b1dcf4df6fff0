"""SINR, sum-rate, and the negative-sum-rate training loss.

The received-signal convention is h_k^T w (no conjugate on the channel),
so the effective gain of beam i at UE n is sum_m h[k,m,n] * w[k,m,i].
Rates are the plain sum over UEs of log2(1 + SINR), in bits/s/Hz,
averaged over subcarriers. Per-UE noise variances generalize the single
sigma^2 of the narrowband formulation.

The objective has one oracle and one batched forward. sinr_per_ue +
weighted_sum_rate is the single-sample test oracle. terms + rates_from is
the batched forward: per_sample_sum_rates for validation, evaluate (which
computes the SNR-free terms once per dataset) and sum_rates, the autodiff op
whose closed-form pull the training loss neg_sum_rate_graph backpropagates
through. sum_rate_bound is the ceiling every feasible design's rate stays under.

The numpy functions take complex beams w (B, K, M, N); the autodiff op takes
the network's float64 (B, K, M, N, 2) tensor with re/im on the last axis,
which as_complex views as complex.
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


def as_complex(w: np.ndarray) -> np.ndarray:
    """The complex (...) view of a float64 (..., 2) array with re/im on the last axis."""
    return w.view(np.complex128)[..., 0]


def _beam_gains(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """e[b, k, n, i] = h[b, k, :, n]^T w[b, k, :, i], complex (B, K, N, N)."""
    return np.einsum("bkmn,bkmi->bkni", h, w)


def _terms_of(e: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    weighted = np.abs(e) ** 2 * p[:, None, None, :]
    signal = np.einsum("bknn->bkn", weighted).copy()     # frees weighted on return
    return signal, weighted.sum(axis=3) - signal


def terms(w: np.ndarray, h: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Received signal and interference powers (B, K, N) of a batched design:
    complex beams w and channels h (B, K, M, N), powers p (B, N)."""
    return _terms_of(_beam_gains(w, h), p)


def rates_from(signal: np.ndarray, interference: np.ndarray,
               sigma2: np.ndarray) -> np.ndarray:
    """Per-sample sum-rates (B,) from terms() and per-UE noise variances (B, N)."""
    gamma = signal / (interference + sigma2[:, None, :])
    return (np.log1p(gamma) / _LN2).sum(axis=2).mean(axis=1)


def per_sample_sum_rates(w: np.ndarray, h: np.ndarray, p: np.ndarray,
                         sigma2: np.ndarray) -> np.ndarray:
    """Batched numpy sum-rates of complex beams w, one per sample."""
    return rates_from(*terms(w, h, p), sigma2)


def sum_rates(w, h: np.ndarray, p, sigma2: np.ndarray) -> "ad.Tensor":
    """per_sample_sum_rates as one autodiff op over beams w (B, K, M, N, 2),
    re/im on the last axis, and powers p (B, N), with a closed-form pull.

    With e = h^T w, g = |e|^2, S + I the received power and D = I + sigma^2,
    a rate term log(1 + S/D) = log(S + D) - log D has
    d/dg[n, i] = p_i / (S + D)_n, less p_i / D_n for i != n, and
    d/dp_i = sum_n g[n, i] times the same bracket; dg reaches the beams as
    dW = dWr + j dWi = 2 conj(h) @ (dg * e), returned in w's re/im layout.
    """
    w, p = ad.as_tensor(w), ad.as_tensor(p)
    e = _beam_gains(as_complex(w.data), h)
    signal, interference = _terms_of(e, p.data)
    k_sc, n_ue = h.shape[1], h.shape[3]

    @ad.shared_pull
    def grads(g):
        noise_int = interference + sigma2[:, None, :]
        inv_total = 1.0 / (signal + noise_int)
        # bracket[b, k, n, i]: 1/(S + D) on the diagonal, -S/(D (S + D)) off it
        bracket = np.repeat((-(signal / noise_int) * inv_total)[..., None], n_ue, axis=3)
        diag = np.arange(n_ue)
        bracket[..., diag, diag] = inv_total
        bracket *= (g / (k_sc * _LN2))[:, None, None, None]
        dp = np.einsum("bkni,bkni->bi", np.abs(e) ** 2, bracket)
        bracket *= p.data[:, None, None, :]
        dw = 2.0 * (h.conj() @ (bracket * e))
        return dw.view(np.float64).reshape(w.data.shape), dp

    return ad.make_op(rates_from(signal, interference, sigma2),
                      [(w, lambda g: grads(g)[0]), (p, lambda g: grads(g)[1])])


def neg_sum_rate_graph(w: "ad.Tensor", h: np.ndarray, p: "ad.Tensor",
                       sigma2: np.ndarray) -> "ad.Tensor":
    """The training loss, the scalar batch-mean negative sum-rate.

    w: beam directions, (B, K, M, N, 2) tensor with re/im last (unit columns).
    h: constant complex channel batch (B, K, M, N).
    p: per-UE powers, (B, N) tensor.
    sigma2: per-UE noise variances, (B, N).
    """
    return -ad.tmean(sum_rates(w, h, p, sigma2))


def sum_rate_bound(h_norm2: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Per-sample ceiling (1/K) sum_{k,n} log2(1 + N ||h_{k,n}||^2 / sigma_n^2).

    With unit-norm beams and powers summing to N, UE n's SINR is at most
    p_n |h_{k,n}^T w_n|^2 / sigma_n^2 <= N ||h_{k,n}||^2 / sigma_n^2, so no
    design's per_sample_sum_rates exceeds it. h_norm2 is ||h_{k,n}||^2
    shaped (B, K, N); sigma2 is (B, N).
    """
    n_ue = h_norm2.shape[2]
    return (np.log1p(n_ue * h_norm2 / sigma2[:, None, :]) / _LN2).sum(axis=2).mean(axis=1)
