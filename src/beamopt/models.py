"""Neural beamforming models: a backbone of conv/batch-norm/GELU basic
blocks feeding separate fully connected heads for beam directions and
(optionally) per-UE power allocation.

Each basic block is one fused autodiff op (ad.conv_bn_gelu) on channels-last
activations, (B*N*M, L, C); the group flatten puts the features back in
(n, m), C, L order, the order the FC weights and checkpoints use.

Output constraints are architectural, not learned: unit_beams divides each
beam column by its norm (plus a 1e-12 floor) in one op, and the power head
ends in a softmax scaled by the power budget P_max = N, so any parameter
values produce a feasible design.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import OrderedDict
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import BatchNormState, Tensor

NORM_FLOOR = 1e-12

DEFAULT_BB_SPEC = ((2, 16, False), (16, 32, True), (32, 32, True))
KERNEL_SIZE = 3
PADDING = 1
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"BMCK"
CHECKPOINT_VERSION = 2


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

    def __post_init__(self):
        if min(self.m_tx, self.n_ue, self.k_sc) < 1 or self.m_tx < self.n_ue:
            raise ValueError(f"need M >= N >= 1, K >= 1; got M={self.m_tx} N={self.n_ue} K={self.k_sc}")
        if not self.bb_spec or any(len(block) != 3 for block in self.bb_spec):
            raise ValueError(f"bb_spec must list (c_in, c_out, downsample) blocks: {self.bb_spec}")
        sizes = (self.m_tx, self.n_ue, self.k_sc, *self.fc_widths_bf, *self.fc_widths_pw,
                 *(c for block in self.bb_spec for c in block[:2]))
        if any(type(v) is not int or v < 1 for v in sizes):
            raise ValueError(f"dimensions, channels and widths must be positive integers: {self}")
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
    def flat_features(self) -> int:
        return 8 * self.n_ue * self.m_tx * self.k_sc

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
    """Named trainable tensors, each a view into one flat float64 vector, plus
    batch-norm running-stat buffers.

    `shapes` maps each tensor name to its shape in layout order; `flat`
    (default: a new uninitialised vector) holds the values back to back.
    """

    def __init__(self, shapes: "OrderedDict[str, tuple]", flat: np.ndarray | None = None):
        sizes = [math.prod(shape) for shape in shapes.values()]
        if flat is None:
            flat = np.empty(sum(sizes))
        self.tensors: "OrderedDict[str, Tensor]" = OrderedDict()
        self.bn_states: "OrderedDict[str, BatchNormState]" = OrderedDict()
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self.tensors[name] = Tensor(flat[offset:offset + size].reshape(shape), requires_grad=True)
            offset += size

    @property
    def flat(self) -> np.ndarray:
        """The flat parameter vector (see `autodiff.flat_buffer`)."""
        return ad.flat_buffer(self.tensors.values())

    def copy(self, out: "ModelParams | None" = None) -> "ModelParams":
        """A copy that shares no memory with these parameters; with `out`, one
        of the same layout, the values are written into its buffers instead."""
        shapes = OrderedDict((name, t.data.shape) for name, t in self.tensors.items())
        if out is None:
            out = ModelParams(shapes, self.flat.copy())
        elif OrderedDict((name, t.data.shape) for name, t in out.tensors.items()) != shapes:
            raise ValueError("copy target has a different parameter layout")
        else:
            np.copyto(out.flat, self.flat)
        out.bn_states = OrderedDict((name, st.copy()) for name, st in self.bn_states.items())
        return out

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
        spec += [(f"bb{i}.conv.w", (c_out, c_in, KERNEL_SIZE), "normal"),
                 (f"bb{i}.bn.gamma", (c_out,), "ones"), (f"bb{i}.bn.beta", (c_out,), "zeros"),
                 (f"bb{i}.bn", (c_out,), "bn")]
    heads = [("bf", cfg.fc_widths_bf, 2 * cfg.k_sc * cfg.m_tx * cfg.n_ue)]   # (K, M, N) x I/Q
    if cfg.joint_power:
        heads.append(("pw", cfg.fc_widths_pw, cfg.n_ue))
    for prefix, widths, out_features in heads:
        f_in = cfg.flat_features
        for j, width in enumerate((*widths, out_features)):
            spec += [(f"{prefix}{j}.w", (width, f_in), "normal"),
                     (f"{prefix}{j}.b", (width,), "zeros")]
            f_in = width
    return spec


def _new_params(cfg: ModelConfig) -> ModelParams:
    """Uninitialised tensors in param_spec order, with fresh batch-norm buffers."""
    spec = param_spec(cfg)
    params = ModelParams(OrderedDict((name, shape) for name, shape, init in spec if init != "bn"))
    for name, shape, init in spec:
        if init == "bn":
            params.bn_states[name] = BatchNormState.fresh(shape[0])
    return params


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Kaiming-style fan-in normal init; zeros for biases/beta, ones for gamma.

    Draws go straight into the flat vector, in param_spec order, scaled in the
    same pass: the bits of `rng.standard_normal(out=w); w *= sqrt(2 / fan_in)`.
    """
    params = _new_params(cfg)
    for name, shape, init in param_spec(cfg):
        if init == "normal":
            kernels.standard_normal(rng, params.tensors[name].data,
                                    np.sqrt(2.0 / math.prod(shape[1:])))
        elif init != "bn":
            params.tensors[name].data[...] = 1.0 if init == "ones" else 0.0
    return params


def basic_block(x: Tensor, conv_w: Tensor, gamma: Tensor, beta: Tensor,
                state: BatchNormState, downsample: bool, training: bool) -> Tensor:
    """conv1d -> batch norm -> GELU as one op on channels-last (rows, L, C)
    activations; downsampling blocks use stride 2."""
    return ad.conv_bn_gelu(x, conv_w, gamma, beta, state, training=training,
                           stride=2 if downsample else 1, padding=PADDING,
                           eps=BN_EPS, momentum=BN_MOMENTUM)


def channel_to_input(h: np.ndarray) -> np.ndarray:
    """Rearrange a complex channel batch (B, K, M, N) to the channels-last
    (B*N*M, K, 2) net input.

    Antenna pairs are ordered (n, m) lexicographically; the last axis carries I/Q.
    """
    b, k_sc, m_tx, n_ue = h.shape
    stacked = np.stack([h.real, h.imag], axis=-1)        # (B, K, M, N, 2)
    arranged = stacked.transpose(0, 3, 2, 1, 4)          # (B, N, M, K, 2)
    return np.ascontiguousarray(arranged.reshape(b * n_ue * m_tx, k_sc, 2))


def unit_beams(raw, shape: tuple) -> Tensor:
    """The beam head's (B, 2KMN) output as unit-norm beams, one op.

    shape is (B, K, M, N). The output is (B, K, M, N, 2) with re/im on the
    last axis, complex128's memory layout (metrics.as_complex views it):
    each column x over M is scaled by s = 1 / (||x|| + NORM_FLOOR). The pull
    of y = x s is g s - x s^2 <g, x> / ||x||, the inner product over M and re/im.
    """
    raw = ad.as_tensor(raw)
    x = raw.data.reshape(*shape, 2)
    re, im = x[..., 0], x[..., 1]
    norm = np.sqrt((re * re + im * im).sum(axis=2, keepdims=True))[..., None]
    scale = 1.0 / (norm + NORM_FLOOR)

    def pull(g):
        dot = (g * x).sum(axis=(2, 4), keepdims=True)
        return (g * scale - x * (scale * scale * dot / norm)).reshape(raw.data.shape)

    return ad.make_op(x * scale, [(raw, pull)])


def forward_graph(h: np.ndarray, params: ModelParams, cfg: ModelConfig,
                  training: bool) -> tuple[Tensor, Tensor]:
    """Network forward pass on a channel batch.

    Returns (w, p): unit-norm beam directions shaped (B, K, M, N, 2), re/im
    on the last axis, and per-UE powers (B, N) summing to N. Record on an
    active Tape to train; run without one for inference.
    """
    b, k_sc, m_tx, n_ue = h.shape
    if (m_tx, n_ue, k_sc) != (cfg.m_tx, cfg.n_ue, cfg.k_sc):
        raise ValueError(f"channel batch {h.shape[1:]} does not match config "
                         f"(K={cfg.k_sc}, M={cfg.m_tx}, N={cfg.n_ue})")
    x = Tensor(channel_to_input(h))
    for i, (_, _, down) in enumerate(cfg.bb_spec):
        x = basic_block(x, params.tensors[f"bb{i}.conv.w"],
                        params.tensors[f"bb{i}.bn.gamma"], params.tensors[f"bb{i}.bn.beta"],
                        params.bn_states[f"bb{i}.bn"], downsample=down, training=training)
    # (B, 8NMK) in (n, m), C, L order, the order the FC weights were drawn for
    feat = ad.flatten_groups(x, group=n_ue * m_tx)

    def head(prefix: str, widths) -> Tensor:
        z = feat
        for j in range(len(widths)):
            z = ad.gelu(ad.linear(z, params.tensors[f"{prefix}{j}.w"], params.tensors[f"{prefix}{j}.b"]))
        j = len(widths)
        return ad.linear(z, params.tensors[f"{prefix}{j}.w"], params.tensors[f"{prefix}{j}.b"])

    w = unit_beams(head("bf", cfg.fc_widths_bf), (b, k_sc, m_tx, n_ue))
    if cfg.joint_power:
        p = ad.softmax(head("pw", cfg.fc_widths_pw), axis=1) * float(n_ue)
    else:
        p = Tensor(np.ones((b, n_ue)))
    return w, p


def save_checkpoint(path, cfg: ModelConfig, params: ModelParams) -> None:
    """Model checkpoint: config JSON header + named-tensor container payload."""
    cfg_blob = cfg.to_json().encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(cfg_blob)))
        f.write(cfg_blob)
        ad.encode_tensors(params.flat_arrays(), f)


def load_checkpoint(path) -> tuple[ModelConfig, ModelParams]:
    """Load a checkpoint written by save_checkpoint, rejecting any tensor or
    batch-norm buffer that is missing, misshaped or not finite.

    The payload streams from the file straight into the new flat parameter
    vector and batch-norm buffers; the file never exists as one bytes object.
    """
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) < 12 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint")
        version, cfg_len = struct.unpack_from("<II", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        try:
            if 12 + cfg_len > os.fstat(f.fileno()).st_size:
                raise ValueError("runs past the end of the file")
            cfg = ModelConfig.from_json(f.read(cfg_len).decode("utf-8"))
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: bad config header: {exc}") from exc
        params = _new_params(cfg)
        loaded = params.flat_arrays()
        try:
            shapes = ad.decode_tensors(f, loaded)
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc

    for name, shape, init in param_spec(cfg):
        if init == "bn":
            for suffix in (".run_mean", ".run_var"):
                if shapes.get(name + suffix) != shape:
                    raise CheckpointError(f"{path}: missing or misshaped buffer {name + suffix!r}")
        elif name not in shapes:
            raise CheckpointError(f"{path}: missing parameter {name!r}")
        elif shapes[name] != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} shaped {shapes[name]}, expected {shape}")
    extras = set(shapes) - set(loaded)
    if extras:
        raise CheckpointError(f"{path}: unexpected tensors {sorted(extras)}")
    # a sum of squares is finite when every entry is, unless it overflows;
    # only then does the exact scan run
    bad = next((name for name, arr in loaded.items()
                if not (math.isfinite(np.vdot(arr, arr)) or np.isfinite(arr).all())), None)
    if bad is not None:
        raise CheckpointError(f"{path}: non-finite value in tensor {bad!r}")
    return cfg, params
