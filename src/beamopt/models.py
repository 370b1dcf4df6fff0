"""Neural beamforming models: a backbone of conv/batch-norm/GELU basic
blocks feeding separate fully connected heads for beam directions and
(optionally) per-UE power allocation.

Output constraints are architectural, not learned: beam columns are
divided by their norm (plus a 1e-12 floor) and the power head ends in a
softmax scaled by the power budget, so any parameter values produce a
feasible design.
"""

from __future__ import annotations

import json
import math
import struct
from collections import OrderedDict
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor

NORM_FLOOR = 1e-12

DEFAULT_BB_SPEC = ((2, 16, False), (16, 32, True), (32, 32, True))

CHECKPOINT_MAGIC = b"BMCK"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Checkpoint file unreadable or incompatible with the requested config."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters tied to the system dimensions."""

    m_tx: int
    n_ue: int
    k_sc: int
    joint_power: bool = True                      # False = equal-power variant
    bb_spec: tuple = DEFAULT_BB_SPEC              # (c_in, c_out, downsample) per block
    fc_widths_bf: tuple = (1024,)
    fc_widths_pw: tuple = (1024,)
    wideband_bf: bool = False                     # one beam per UE shared across subcarriers
    kernel_size: int = 3
    padding: int = 1
    p_max: float | None = None                    # defaults to N
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        if min(self.m_tx, self.n_ue, self.k_sc) < 1 or self.m_tx < self.n_ue:
            raise ValueError(f"need M >= N >= 1, K >= 1; got M={self.m_tx} N={self.n_ue} K={self.k_sc}")
        if self.bb_spec[0][0] != 2:
            raise ValueError("first block must take the 2 I/Q channels")
        for prev, nxt in zip(self.bb_spec, self.bb_spec[1:]):
            if prev[1] != nxt[0]:
                raise ValueError(f"block channel mismatch: {prev} -> {nxt}")
        down = int(np.prod([2 if d else 1 for _, _, d in self.bb_spec]))
        if self.k_sc % down != 0:
            raise ValueError(f"K={self.k_sc} must be divisible by the total downsampling {down}")
        c_last = self.bb_spec[-1][1]
        if c_last * (self.k_sc // down) != 8 * self.k_sc:
            raise ValueError(
                f"backbone must end with C*L = 8K features per antenna pair, got {c_last}*{self.k_sc // down}")

    @property
    def power_budget(self) -> float:
        return float(self.n_ue) if self.p_max is None else float(self.p_max)

    @property
    def flat_features(self) -> int:
        return 8 * self.n_ue * self.m_tx * self.k_sc

    @property
    def bf_out_features(self) -> int:
        per_sc = 1 if self.wideband_bf else self.k_sc
        return 2 * self.m_tx * self.n_ue * per_sc

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        raw = json.loads(text)
        raw["bb_spec"] = tuple(tuple(b) for b in raw["bb_spec"])
        raw["fc_widths_bf"] = tuple(raw["fc_widths_bf"])
        raw["fc_widths_pw"] = tuple(raw["fc_widths_pw"])
        return cls(**raw)


class ModelParams:
    """Named trainable tensors plus batch-norm running-stat buffers."""

    def __init__(self):
        self.tensors: "OrderedDict[str, Tensor]" = OrderedDict()
        self.bn_states: "OrderedDict[str, BatchNormState]" = OrderedDict()

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self.tensors[name] = t
        return t

    def zero_grad(self):
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "ModelParams":
        dup = ModelParams()
        for name, t in self.tensors.items():
            dup.tensors[name] = Tensor(t.data.copy(), requires_grad=True)
        for name, st in self.bn_states.items():
            dup.bn_states[name] = st.copy()
        return dup

    def flat_arrays(self) -> "OrderedDict[str, np.ndarray]":
        out: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, t in self.tensors.items():
            out[name] = t.data
        for name, st in self.bn_states.items():
            out[name + ".run_mean"] = st.mean
            out[name + ".run_var"] = st.var
        return out


def param_spec(cfg: ModelConfig) -> list[tuple[str, tuple, str]]:
    """Every named tensor of the model as (name, shape, init), in draw order.

    init is 'normal' (Kaiming fan-in normal), 'ones', 'zeros', or 'bn' for a
    batch-norm running-stat buffer pair. The power head comes last so
    equal-seed NNBF and NNBF-P share identical backbone and beamforming-head
    parameters.
    """
    spec = []
    for i, (c_in, c_out, _) in enumerate(cfg.bb_spec):
        spec += [(f"bb{i}.conv.w", (c_out, c_in, cfg.kernel_size), "normal"),
                 (f"bb{i}.bn.gamma", (c_out,), "ones"), (f"bb{i}.bn.beta", (c_out,), "zeros"),
                 (f"bb{i}.bn", (c_out,), "bn")]
    heads = [("bf", cfg.fc_widths_bf, cfg.bf_out_features)]
    if cfg.joint_power:
        heads.append(("pw", cfg.fc_widths_pw, cfg.n_ue))
    for prefix, widths, out_features in heads:
        f_in = cfg.flat_features
        for j, width in enumerate((*widths, out_features)):
            spec += [(f"{prefix}{j}.w", (width, f_in), "normal"),
                     (f"{prefix}{j}.b", (width,), "zeros")]
            f_in = width
    return spec


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Kaiming-style fan-in normal init; zeros for biases/beta, ones for gamma."""
    params = ModelParams()
    for name, shape, init in param_spec(cfg):
        if init == "bn":
            params.bn_states[name] = BatchNormState.fresh(shape[0])
        elif init == "normal":
            params.add(name, rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[1:])))
        else:
            params.add(name, np.ones(shape) if init == "ones" else np.zeros(shape))
    return params


def basic_block(x: Tensor, conv_w: Tensor, gamma: Tensor, beta: Tensor,
                state: BatchNormState, downsample: bool, training: bool,
                padding: int = 1, bn_eps: float = 1e-5, bn_momentum: float = 0.1) -> Tensor:
    """conv1d -> batch norm -> GELU; downsampling blocks use stride 2."""
    stride = 2 if downsample else 1
    y = ad.conv1d(x, conv_w, b=None, stride=stride, padding=padding)
    y = ad.batchnorm1d(y, gamma, beta, state, training=training,
                       eps=bn_eps, momentum=bn_momentum)
    return ad.gelu(y)


def channel_to_input(h: np.ndarray) -> np.ndarray:
    """Rearrange a complex channel batch (B, K, M, N) to the (B*N*M, 2, K) net input.

    Antenna pairs are ordered (n, m) lexicographically; depth carries I/Q.
    """
    b, k_sc, m_tx, n_ue = h.shape
    stacked = np.stack([h.real, h.imag], axis=-1)        # (B, K, M, N, 2)
    arranged = stacked.transpose(0, 3, 2, 4, 1)          # (B, N, M, 2, K)
    return np.ascontiguousarray(arranged.reshape(b * n_ue * m_tx, 2, k_sc))


def forward_graph(h: np.ndarray, params: ModelParams, cfg: ModelConfig,
                  training: bool) -> tuple[Tensor, Tensor, Tensor]:
    """Network forward pass on a channel batch.

    Returns (wr, wi, p): unit-norm beam direction components shaped
    (B, K, M, N) and per-UE powers (B, N) summing to the budget. Record on
    an active Tape to train; run without one for inference.
    """
    b, k_sc, m_tx, n_ue = h.shape
    if (m_tx, n_ue, k_sc) != (cfg.m_tx, cfg.n_ue, cfg.k_sc):
        raise ValueError(f"channel batch {h.shape[1:]} does not match config "
                         f"(K={cfg.k_sc}, M={cfg.m_tx}, N={cfg.n_ue})")
    x = Tensor(channel_to_input(h))
    for i, (_, _, down) in enumerate(cfg.bb_spec):
        x = basic_block(x, params.tensors[f"bb{i}.conv.w"],
                        params.tensors[f"bb{i}.bn.gamma"], params.tensors[f"bb{i}.bn.beta"],
                        params.bn_states[f"bb{i}.bn"], downsample=down, training=training,
                        padding=cfg.padding, bn_eps=cfg.bn_eps, bn_momentum=cfg.bn_momentum)
    feat = ad.flatten_groups(x, group=n_ue * m_tx)       # (B, 8NMK)

    def head(prefix: str, widths) -> Tensor:
        z = feat
        for j in range(len(widths)):
            z = ad.gelu(ad.linear(z, params.tensors[f"{prefix}{j}.w"], params.tensors[f"{prefix}{j}.b"]))
        j = len(widths)
        return ad.linear(z, params.tensors[f"{prefix}{j}.w"], params.tensors[f"{prefix}{j}.b"])

    raw = head("bf", cfg.fc_widths_bf)
    k_bf = 1 if cfg.wideband_bf else k_sc
    raw = ad.reshape(raw, (b, k_bf, m_tx, n_ue, 2))
    wr_raw, wi_raw = raw[..., 0], raw[..., 1]
    norm = ad.sqrt(ad.tsum(ad.square(wr_raw) + ad.square(wi_raw), axis=2, keepdims=True))
    scale = 1.0 / (norm + NORM_FLOOR)
    wr, wi = wr_raw * scale, wi_raw * scale
    if cfg.wideband_bf:
        ones = np.ones((1, k_sc, 1, 1))
        wr, wi = wr * ones, wi * ones                    # broadcast across subcarriers

    if cfg.joint_power:
        p = ad.softmax(head("pw", cfg.fc_widths_pw), axis=1) * cfg.power_budget
    else:
        p = Tensor(np.full((b, n_ue), cfg.power_budget / n_ue))
    return wr, wi, p


def save_checkpoint(path, cfg: ModelConfig, params: ModelParams) -> None:
    """Model checkpoint: config JSON header + named-tensor container payload."""
    cfg_blob = cfg.to_json().encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(cfg_blob)))
        f.write(cfg_blob)
        f.write(ad.encode_tensors(params.flat_arrays()))


def load_checkpoint(path) -> tuple[ModelConfig, ModelParams]:
    """Load and shape-validate a checkpoint written by save_checkpoint."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    version, cfg_len = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    try:
        cfg = ModelConfig.from_json(raw[12:12 + cfg_len].decode("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad config header: {exc}") from exc
    try:
        named = ad.decode_tensors(raw[12 + cfg_len:])
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc

    params = ModelParams()
    for name, shape, init in param_spec(cfg):
        if init == "bn":
            for suffix in (".run_mean", ".run_var"):
                if name + suffix not in named or named[name + suffix].shape != shape:
                    raise CheckpointError(f"{path}: missing or misshaped buffer {name + suffix!r}")
            params.bn_states[name] = BatchNormState(mean=named[name + ".run_mean"].copy(),
                                                    var=named[name + ".run_var"].copy())
            continue
        if name not in named:
            raise CheckpointError(f"{path}: missing parameter {name!r}")
        if named[name].shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} shaped {named[name].shape}, expected {shape}")
        params.add(name, named[name])
    extras = set(named) - set(params.flat_arrays())
    if extras:
        raise CheckpointError(f"{path}: unexpected tensors {sorted(extras)}")
    return cfg, params
