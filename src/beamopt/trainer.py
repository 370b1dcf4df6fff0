"""Unsupervised training loop: minimize the negative sum-rate of the
network's own beamforming designs over generated channel batches.

No labels are consumed anywhere; this module deliberately does not import
the classical baselines. Everything is seeded: the train/validation split,
per-epoch shuffles, and the per-batch nominal-SNR draws all come from
dedicated child streams of the config seed, and gradients reduce inside
single batched graphs, so results are independent of BLAS thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import metrics
from .channel import ChannelDataset, snr_db_to_noise_var
from .models import ModelConfig, ModelParams, forward_graph

# Nominal SNRs the harness supports: uniform training draws and the eval grid.
SNR_RANGE_DB = (-15.0, 50.0)


class TrainingDiverged(RuntimeError):
    """Loss or gradient norm became non-finite; carries the (epoch, batch)
    coordinates and, for a loss, the dataset sample."""

    def __init__(self, epoch: int, batch: int, sample_index: int | None = None):
        self.epoch = epoch
        self.batch = batch
        self.sample_index = sample_index
        where = f"epoch {epoch}, batch {batch}"
        super().__init__(f"non-finite gradient norm at {where}" if sample_index is None
                         else f"non-finite loss at {where}, dataset sample {sample_index}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3
    lr_decay: float = 1.0                 # multiplicative per-epoch factor
    seed: int = 0
    val_fraction: float = 0.1
    early_stop_patience: int = 20         # epochs without improvement; 0 disables
    snr_sampling: str = "uniform"         # 'uniform' over SNR_RANGE_DB, or 'fixed'
    fixed_snr_db: float = 5.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("train.epochs: must be at least 1")
        if self.batch_size < 1:
            raise ValueError("train.batch_size: must be at least 1")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"train.lr: must be finite and non-negative, got {self.lr!r}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"train.lr_decay: must lie in (0, 1], got {self.lr_decay!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"train.val_fraction: must lie in (0, 1), got {self.val_fraction!r}")
        if self.snr_sampling not in ("uniform", "fixed"):
            raise ValueError(f"train.snr_sampling: unknown policy {self.snr_sampling!r}")
        lo, hi = SNR_RANGE_DB
        if not lo <= self.fixed_snr_db <= hi:
            raise ValueError(f"train.fixed_snr_db: must lie in [{lo}, {hi}], got {self.fixed_snr_db!r}")


def validation_size(n_samples: int, val_fraction: float) -> int:
    """Validation sample count of train()'s split; raises if no training sample is left."""
    n_val = max(1, int(round(val_fraction * n_samples)))
    if n_val >= n_samples:
        raise ValueError(f"train.val_fraction: {val_fraction!r} of {n_samples} samples "
                         "leaves no training sample")
    return n_val


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    wall_time_s: float = 0.0

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write("epoch,train_loss,val_loss\n")
            for i, (tr, va) in enumerate(zip(self.train_loss, self.val_loss)):
                f.write(f"{i},{tr!r},{va!r}\n")


def _noise_vars(offsets_db: np.ndarray, nominal_db: float) -> np.ndarray:
    return snr_db_to_noise_var(nominal_db + offsets_db)


def _val_nominals(tc: TrainConfig, n_val: int, rng: np.random.Generator) -> np.ndarray:
    """Per-sample validation SNRs, fixed across epochs so val losses compare."""
    if tc.snr_sampling == "fixed":
        return np.full(n_val, tc.fixed_snr_db)
    lo, hi = SNR_RANGE_DB
    return rng.uniform(lo, hi, size=n_val)


def train(cfg: ModelConfig, params: ModelParams, dataset: ChannelDataset,
          tc: TrainConfig, log=None) -> tuple[ModelParams, TrainReport]:
    """Train in place; returns (best-validation-epoch parameter copy, report).

    The copy is made by the first epoch that improves the validation loss;
    if none does (every loss NaN or +inf), it is a copy of the final parameters.
    """
    n_val = validation_size(len(dataset), tc.val_fraction)
    t0 = time.perf_counter()
    root = np.random.SeedSequence(tc.seed)
    split_rng, shuffle_rng, snr_rng, val_rng = (
        np.random.Generator(np.random.PCG64(s)) for s in root.spawn(4))

    indices = split_rng.permutation(len(dataset))
    val_idx, train_idx = indices[:n_val], indices[n_val:]
    val_nominals = _val_nominals(tc, n_val, val_rng)
    val_sigma2 = snr_db_to_noise_var(val_nominals[:, None] + dataset.ue_snr_offset_db[val_idx])

    opt = ad.Adam(params.tensors, lr=tc.lr)
    report = TrainReport()
    best_params = None
    since_best = 0

    for epoch in range(tc.epochs):
        opt.lr = tc.lr * (tc.lr_decay ** epoch)
        order = shuffle_rng.permutation(train_idx)
        epoch_loss = 0.0
        for b_start in range(0, order.size, tc.batch_size):
            batch_idx = order[b_start:b_start + tc.batch_size]
            if tc.snr_sampling == "fixed":
                nominal = tc.fixed_snr_db
            else:
                nominal = float(snr_rng.uniform(*SNR_RANGE_DB))
            h = dataset.h[batch_idx]
            sigma2 = _noise_vars(dataset.ue_snr_offset_db[batch_idx], nominal)
            with ad.Tape() as tape:
                w, p = forward_graph(h, params, cfg, training=True)
                loss = metrics.neg_sum_rate_graph(w, h, p, sigma2)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                # sum_rates' forward is per_sample_sum_rates', so some rate is non-finite
                rates = metrics.per_sample_sum_rates(metrics.as_complex(w.data), h, p.data, sigma2)
                bad = int(np.flatnonzero(~np.isfinite(rates))[0])
                raise TrainingDiverged(epoch, b_start // tc.batch_size, int(batch_idx[bad]))
            tape.backward(loss)
            if not math.isfinite(_grad_norm(params)):
                raise TrainingDiverged(epoch, b_start // tc.batch_size)
            opt.step()
            opt.zero_grad()
            epoch_loss += loss_val * batch_idx.size
        report.train_loss.append(epoch_loss / order.size)

        val_loss = _validation_loss(cfg, params, dataset, val_idx, val_sigma2)
        report.val_loss.append(val_loss)
        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best_params = params.copy(out=best_params)
            since_best = 0
        else:
            since_best += 1
        if log is not None:
            log(f"epoch {epoch:4d}  train {report.train_loss[-1]:+.6f}  val {val_loss:+.6f}")
        if tc.early_stop_patience > 0 and since_best >= tc.early_stop_patience:
            break

    if best_params is None:
        best_params = params.copy()
    report.wall_time_s = time.perf_counter() - t0
    return best_params, report


def _grad_norm(params: ModelParams) -> float:
    """Global gradient norm, summed per tensor in parameter order."""
    return math.sqrt(sum(float(np.vdot(t.grad, t.grad))
                         for t in params.tensors.values() if t.grad is not None))


def _validation_loss(cfg, params, dataset, val_idx, val_sigma2) -> float:
    h = dataset.h[val_idx]
    w, p = forward_graph(h, params, cfg, training=False)
    rates = metrics.per_sample_sum_rates(metrics.as_complex(w.data), h, p.data, val_sigma2)
    return float(-rates.mean())
