"""Paired SNR-sweep evaluation: every method sees identical channel
matrices and per-UE noise variances for each (sample, nominal SNR) pair.

Noise variances derive from the offsets stored in the dataset, so repeated
runs are bit-identical and need no extra randomness. Work that does not
depend on SNR runs once per dataset: the zero-forcing solve over the whole
(S, K) stack of slices, each network's forward pass and the signal and
interference terms (metrics.terms) of ZF and the networks. MMSE solves the
stack and takes its terms once per SNR; every rate is metrics.rates_from.

Samples whose channel Gram is singular for zero-forcing are dropped for
*all* methods to keep the comparison paired (with continuous channel draws
this is a non-event); evaluate's `log` names them. Any other non-finite
rate raises NonFiniteRateError, and a rate above metrics.sum_rate_bound
raises RateBoundError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .baselines import inverse_directions
from .channel import ChannelDataset, snr_db_to_noise_var
from .models import ModelConfig, ModelParams, forward_graph

CLASSICAL_METHODS = ("ZF", "MMSE")
NEURAL_METHODS = ("NNBF", "NNBF-P")


class NonFiniteRateError(RuntimeError):
    """A method produced a non-finite rate on a sample that is not ZF-singular."""


class RateBoundError(RuntimeError):
    """A method's rate exceeds the per-sample ceiling metrics.sum_rate_bound."""


BOUND_RTOL = 1e-12
FORWARD_BATCH = 64          # samples per inference forward pass


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    method: str
    snr_db: float
    se_mean: float
    se_std: float
    n: int


def _neural_terms(h: np.ndarray, cfg: ModelConfig,
                  params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Inference forward over the dataset: metrics.terms of the network's design."""
    outs = [forward_graph(h[start:start + FORWARD_BATCH], params, cfg, training=False)
            for start in range(0, len(h), FORWARD_BATCH)]
    w, p = (np.concatenate([out[i].data for out in outs]) for i in range(2))
    return metrics.terms(metrics.as_complex(w), h, p)


def evaluate(dataset: ChannelDataset, snr_grid_db, methods,
             nn_models: dict | None = None, experiment: str = "",
             log=None) -> list[ResultRow]:
    """Mean/std spectral efficiency per (method, nominal SNR) on paired draws.

    nn_models maps 'NNBF'/'NNBF-P' to (ModelConfig, ModelParams) pairs for
    any requested neural methods. ZF and MMSE split the budget N equally.
    `log`, if given, is called with a line naming the count and indices of
    the ZF-singular samples dropped from every row.
    """
    nn_models = nn_models or {}
    for method in methods:
        if method in NEURAL_METHODS and method not in nn_models:
            raise ValueError(f"method {method} requested but no model supplied")
        if method not in CLASSICAL_METHODS + NEURAL_METHODS:
            raise ValueError(f"unknown method {method!r}")
    h = dataset.h
    equal = np.ones(dataset.ue_snr_offset_db.shape)
    h_norm2 = (h.real ** 2 + h.imag ** 2).sum(axis=2)          # ||h_{k,n}||^2, (S, K, N)

    zf_w, singular = inverse_directions(h)
    keep = ~singular.any(axis=1)
    dropped = np.flatnonzero(~keep)
    if log is not None and dropped.size:
        log(f"dropped {dropped.size} ZF-singular samples from every method: "
            f"{', '.join(map(str, dropped))}")
    terms = {m: _neural_terms(h, *nn_models[m]) for m in methods if m in NEURAL_METHODS}
    if "ZF" in methods:
        terms["ZF"] = metrics.terms(zf_w, h, equal)

    rows: list[ResultRow] = []
    for snr_db in snr_grid_db:
        sigma2 = snr_db_to_noise_var(float(snr_db) + dataset.ue_snr_offset_db)
        ceiling = metrics.sum_rate_bound(h_norm2, sigma2) * (1.0 + BOUND_RTOL)
        if "MMSE" in methods:
            w, _ = inverse_directions(h, sigma2.mean(axis=1)[:, None])
            terms["MMSE"] = metrics.terms(w, h, equal)
        for method in methods:
            rates = metrics.rates_from(*terms[method], sigma2)
            bad = np.flatnonzero(keep & ~np.isfinite(rates))
            if bad.size:
                raise NonFiniteRateError(
                    f"{method} at {float(snr_db)} dB: non-finite rate on sample "
                    f"{int(bad[0])} ({bad.size} samples)")
            above = np.flatnonzero(rates > ceiling)
            if above.size:
                i = int(above[0])
                raise RateBoundError(
                    f"{method} at {float(snr_db)} dB: rate {float(rates[i]):.17g} on sample {i} "
                    f"exceeds the bound {float(ceiling[i]):.17g} ({above.size} samples)")
            vals = rates[keep]
            if vals.size == 0:
                raise RuntimeError(f"no valid samples at {snr_db} dB")
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            rows.append(ResultRow(experiment=experiment, method=method,
                                  snr_db=float(snr_db), se_mean=float(vals.mean()),
                                  se_std=std, n=int(vals.size)))
    return rows
