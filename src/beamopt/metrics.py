"""SINR, sum-rate, and the negative-sum-rate training loss.

The received-signal convention is h_k^T w (no conjugate on the channel),
so the effective gain of beam i at UE n is sum_m h[k,m,n] * w[k,m,i].
Rates are the plain sum over UEs of log2(1 + SINR), in bits/s/Hz,
averaged over subcarriers. Per-UE noise variances generalize the single
sigma^2 of the narrowband formulation.

The objective has one batched forward, terms + rates_from, and three
consumers: per_sample_sum_rates for validation, evaluate (which computes the
SNR-free terms once per dataset) and neg_sum_rate_graph, the training loss
as one autodiff op with a closed-form pull. sum_rate_bound is the ceiling
every feasible design's rate stays under.

The numpy functions take complex beams w (B, K, M, N); the autodiff op takes
the network's float64 (B, K, M, N, 2) tensor with re/im on the last axis,
which as_complex views as complex.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

_LN2 = float(np.log(2.0))


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


def neg_sum_rate_graph(w, h: np.ndarray, p, sigma2: np.ndarray) -> "ad.Tensor":
    """The training loss -mean(per_sample_sum_rates) as one scalar autodiff
    op: beams w (B, K, M, N, 2) tensor with re/im last, constant complex
    channels h (B, K, M, N), powers p (B, N) tensor, noise variances (B, N).

    Each sample's rate gets the upstream gradient -g / B. With e = h^T w,
    g = |e|^2, S + I the received power and D = I + sigma^2, a rate term
    log(1 + S/D) = log(S + D) - log D has d/dg[n, i] = p_i / (S + D)_n, less
    p_i / D_n for i != n, and d/dp_i = sum_n g[n, i] times the same bracket;
    dg reaches the beams as dW = dWr + j dWi = 2 conj(h) @ (dg * e),
    returned in w's re/im layout. dp is skipped when p needs no gradient
    (NNBF's constant powers).
    """
    w, p = ad.as_tensor(w), ad.as_tensor(p)
    e = _beam_gains(as_complex(w.data), h)
    signal, interference = _terms_of(e, p.data)
    rates = rates_from(signal, interference, sigma2)
    k_sc, n_ue = h.shape[1], h.shape[3]

    def pull(g):
        noise_int = interference + sigma2[:, None, :]
        inv_total = 1.0 / (signal + noise_int)
        # bracket[b, k, n, i]: 1/(S + D) on the diagonal, -S/(D (S + D)) off it
        bracket = np.repeat((-(signal / noise_int) * inv_total)[..., None], n_ue, axis=3)
        diag = np.arange(n_ue)
        bracket[..., diag, diag] = inv_total
        bracket *= -g / rates.size / (k_sc * _LN2)
        dp = np.einsum("bkni,bkni->bi", np.abs(e) ** 2, bracket) if p.requires_grad else None
        bracket *= p.data[:, None, None, :]
        dw = 2.0 * (h.conj() @ (bracket * e))
        return dw.view(np.float64).reshape(w.data.shape), dp

    return ad.make_op(-rates.mean(), (w, p), pull)


def sum_rate_bound(h_norm2: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Per-sample ceiling (1/K) sum_{k,n} log2(1 + N ||h_{k,n}||^2 / sigma_n^2).

    With unit-norm beams and powers summing to N, UE n's SINR is at most
    p_n |h_{k,n}^T w_n|^2 / sigma_n^2 <= N ||h_{k,n}||^2 / sigma_n^2, so no
    design's per_sample_sum_rates exceeds it. h_norm2 is ||h_{k,n}||^2
    shaped (B, K, N); sigma2 is (B, N).
    """
    n_ue = h_norm2.shape[2]
    return (np.log1p(n_ue * h_norm2 / sigma2[:, None, :]) / _LN2).sum(axis=2).mean(axis=1)
