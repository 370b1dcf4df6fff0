"""Neural beamforming models: a fixed backbone of conv/batch-norm/GELU
blocks feeding separate fully connected heads for beam directions and
(optionally) per-UE power allocation.

Each backbone block is one fused autodiff op (ad.conv_bn_gelu) on
channels-last activations, (B*N*M, L, C); the group flatten puts the
features back in (n, m), C, L order, the order the FC weights and
checkpoints use.

Output constraints are architectural, not learned: unit_beams divides each
beam column by its norm (plus a 1e-12 floor) in one op, and power_split
turns the power head's output into a softmax scaled by the power budget
P_max = N in one op, so any parameter values produce a feasible design.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import struct
import sys
from collections import OrderedDict
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import BatchNormState, Tensor

NORM_FLOOR = 1e-12

# (c_in, c_out, downsample) per block: the 2 I/Q channels in, and with K/4
# positions left, C*L = 8K features per antenna pair out
BB_SPEC = ((2, 16, False), (16, 32, True), (32, 32, True))
DOWNSAMPLING = 2 ** sum(down for _, _, down in BB_SPEC)
KERNEL_SIZE = 3
PADDING = 1
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"BMCK"
CHECKPOINT_VERSION = 4
CHECKPOINT_ALIGN = 64          # the payload starts at a multiple of this


class CheckpointError(Exception):
    """Checkpoint file unreadable or incompatible with the requested config."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters tied to the system dimensions."""

    m_tx: int
    n_ue: int
    k_sc: int
    joint_power: bool = True                      # False = equal-power variant
    fc_widths_bf: tuple = (1024,)
    fc_widths_pw: tuple = (1024,)

    def __post_init__(self):
        if min(self.m_tx, self.n_ue, self.k_sc) < 1 or self.m_tx < self.n_ue:
            raise ValueError(f"need M >= N >= 1, K >= 1; got M={self.m_tx} N={self.n_ue} K={self.k_sc}")
        sizes = (self.m_tx, self.n_ue, self.k_sc, *self.fc_widths_bf, *self.fc_widths_pw)
        if any(type(v) is not int or v < 1 for v in sizes):
            raise ValueError(f"dimensions and widths must be positive integers: {self}")
        if self.k_sc % DOWNSAMPLING != 0:
            raise ValueError(f"K={self.k_sc} must be divisible by the total downsampling {DOWNSAMPLING}")

    @property
    def flat_features(self) -> int:
        return 8 * self.n_ue * self.m_tx * self.k_sc

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        """The config whose `asdict` went through JSON as `raw`."""
        return cls(**{**raw, "fc_widths_bf": tuple(raw["fc_widths_bf"]),
                      "fc_widths_pw": tuple(raw["fc_widths_pw"])})


class ModelParams:
    """The model's whole state in one flat float64 vector, laid out as the
    checkpoint payload: every parameter in `spec` (param_spec) order, then
    each batch-norm layer's run_mean and run_var.

    `arrays` maps each array's name to its view of `flat`, in that order;
    `tensors` (the trainable Tensors) and `bn_states` (the running stats)
    hold the same views. `flat` defaults to a new uninitialised vector;
    load_checkpoint passes a copy-on-write mapping of the file. Init, Adam,
    train-mode batch norm and `copy(out=)` write through the views; no code
    gives a tensor a new .data array, so `flat` always holds the current
    state.
    """

    def __init__(self, spec: list, flat: np.ndarray | None = None):
        self.spec = spec
        layout = _layout(spec)
        sizes = [math.prod(shape) for _, shape in layout]
        self.flat = np.empty(sum(sizes)) if flat is None else flat
        self.arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
        offset = 0
        for (name, shape), size in zip(layout, sizes):
            self.arrays[name] = self.flat[offset:offset + size].reshape(shape)
            offset += size
        self.tensors = OrderedDict((name, Tensor(self.arrays[name], requires_grad=True))
                                   for name, _, init in spec if init != "bn")
        self.bn_states = OrderedDict(
            (name, BatchNormState(self.arrays[name + ".run_mean"], self.arrays[name + ".run_var"]))
            for name, _, init in spec if init == "bn")

    def copy(self, out: "ModelParams | None" = None) -> "ModelParams":
        """A copy that shares no memory with this state; with `out`, one of
        the same layout, the values are written into its vector instead."""
        if out is None:
            return ModelParams(self.spec, self.flat.copy())
        if out.spec != self.spec:
            raise ValueError("copy target has a different parameter layout")
        np.copyto(out.flat, self.flat)
        return out


def param_spec(cfg: ModelConfig) -> list[tuple[str, tuple, str]]:
    """Every named tensor of the model as (name, shape, init), in draw order.

    init is 'normal' (Kaiming fan-in normal), 'ones', 'zeros', or 'bn' for a
    batch-norm running-stat buffer pair. The power head comes last so
    equal-seed NNBF and NNBF-P share identical backbone and beamforming-head
    parameters.
    """
    spec = []
    for i, (c_in, c_out, _) in enumerate(BB_SPEC):
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


def _layout(spec) -> list[tuple[str, tuple]]:
    """(name, shape) of each array of the state in payload order: the
    parameters in spec order, then each batch-norm run_mean and run_var."""
    return ([(name, shape) for name, shape, init in spec if init != "bn"]
            + [(f"{name}.{stat}", shape) for name, shape, init in spec if init == "bn"
               for stat in ("run_mean", "run_var")])


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Kaiming-style fan-in normal init; zeros for biases/beta, ones for gamma.

    Draws go straight into the flat vector, in param_spec order, scaled in the
    same pass: the bits of `rng.standard_normal(out=w); w *= sqrt(2 / fan_in)`.
    """
    params = ModelParams(param_spec(cfg))
    for name, shape, init in params.spec:
        if init == "normal":
            kernels.standard_normal(rng, params.tensors[name].data,
                                    np.sqrt(2.0 / math.prod(shape[1:])))
        elif init == "bn":
            params.bn_states[name].mean[...] = 0.0
            params.bn_states[name].var[...] = 1.0
        else:
            params.tensors[name].data[...] = 1.0 if init == "ones" else 0.0
    return params


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
    of y = x s is g s - x s^2 <g, x> / ||x||, the inner product over M and
    re/im; at an all-zero column it is its limit g s.
    """
    raw = ad.as_tensor(raw)
    x = raw.data.reshape(*shape, 2)
    re, im = x[..., 0], x[..., 1]
    norm = np.sqrt((re * re + im * im).sum(axis=2, keepdims=True))[..., None]
    scale = 1.0 / (norm + NORM_FLOOR)

    def pull(g):
        dot = (g * x).sum(axis=(2, 4), keepdims=True)
        coef = np.divide(scale * scale * dot, norm, out=np.zeros_like(norm), where=norm > 0)
        return ((g * scale - x * coef).reshape(raw.data.shape),)

    return ad.make_op(x * scale, (raw,), pull)


def power_split(raw, n_ue: int) -> Tensor:
    """The power head's (B, N) output as per-UE powers summing to P_max = N, one op.

    Each row becomes the max-subtracted softmax u = e / sum(e), times N. The
    pull of p = N u is u (g N - <g N, u>), the inner product over the row.
    """
    raw = ad.as_tensor(raw)
    e = np.exp(raw.data - raw.data.max(axis=1, keepdims=True))
    u = e / e.sum(axis=1, keepdims=True)
    budget = float(n_ue)

    def pull(g):
        gn = g * budget
        return (u * (gn - (gn * u).sum(axis=1, keepdims=True)),)

    return ad.make_op(u * budget, (raw,), pull)


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
    for i, (_, _, down) in enumerate(BB_SPEC):
        x = ad.conv_bn_gelu(x, params.tensors[f"bb{i}.conv.w"], params.tensors[f"bb{i}.bn.gamma"],
                            params.tensors[f"bb{i}.bn.beta"], params.bn_states[f"bb{i}.bn"],
                            training=training, stride=2 if down else 1, padding=PADDING,
                            eps=BN_EPS, momentum=BN_MOMENTUM)
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
        p = power_split(head("pw", cfg.fc_widths_pw), n_ue)
    else:
        p = Tensor(np.ones((b, n_ue)))
    return w, p


def save_checkpoint(path, cfg: ModelConfig, params: ModelParams) -> None:
    """Model checkpoint v4: magic, version and a JSON header (the model config
    and the payload's array table), padded to CHECKPOINT_ALIGN bytes, then one
    little-endian float64 payload: params.flat, the parameters followed by
    each batch-norm run_mean and run_var.

    The path is unlinked and created anew, never truncated: a reader that
    mapped the old file keeps the old inode, and so the old values.
    """
    header = json.dumps({"model": asdict(cfg),
                         "tensors": [[name, list(a.shape)] for name, a in params.arrays.items()]},
                        sort_keys=True).encode("utf-8")
    header += b" " * (-(12 + len(header)) % CHECKPOINT_ALIGN)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    with open(path, "xb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header)
        f.write(memoryview(np.asarray(params.flat, dtype="<f8")))


def load_checkpoint(path) -> tuple[ModelConfig, ModelParams]:
    """Load a checkpoint written by save_checkpoint, rejecting any tensor or
    batch-norm buffer that is missing, misshaped or not finite, and a file
    whose size is not the header's plus the table's payload. A file that cannot
    be opened or mapped is a CheckpointError too.

    The file is mapped copy-on-write: params.flat is the mapped payload, so
    it is never copied, and writes to it never reach the file.
    """
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    with f:
        head = f.read(12)
        if len(head) < 12 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint")
        version, header_len = struct.unpack_from("<II", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        size = os.fstat(f.fileno()).st_size
        try:
            if 12 + header_len > size:
                raise ValueError("runs past the end of the file")
            header = json.loads(f.read(header_len).decode("utf-8"))
            cfg = ModelConfig.from_dict(header["model"])
            table = OrderedDict((name, tuple(shape)) for name, shape in header["tensors"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: bad config header: {exc}") from exc
        spec = param_spec(cfg)
        expected = OrderedDict(_layout(spec))
        if table != expected:
            raise CheckpointError(f"{path}: {_table_mismatch(table, expected)}")
        start, count = 12 + header_len, sum(math.prod(s) for s in expected.values())
        if start % CHECKPOINT_ALIGN or start + 8 * count != size:
            raise CheckpointError(f"{path}: {size} bytes, expected a {CHECKPOINT_ALIGN}-byte "
                                  f"aligned header and {8 * count} payload bytes")
        try:
            mapping = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_COPY)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"{path}: cannot map the file: {exc}") from exc

    flat = np.frombuffer(mapping, dtype="<f8", count=count, offset=start)
    if sys.byteorder == "big":
        flat = flat.astype(np.float64)
    params = ModelParams(spec, flat)
    # a sum of squares is finite when every entry is, unless it overflows;
    # only then does the exact scan run
    bad = next((name for name, arr in params.arrays.items()
                if not (math.isfinite(np.vdot(arr, arr)) or np.isfinite(arr).all())), None)
    if bad is not None:
        raise CheckpointError(f"{path}: non-finite value in tensor {bad!r}")
    return cfg, params


def _table_mismatch(table, expected) -> str:
    """What differs between a checkpoint's array table and the config's."""
    for name, shape in expected.items():
        kind = "buffer" if name.endswith((".run_mean", ".run_var")) else "parameter"
        if name not in table:
            return f"missing {kind} {name!r}"
        if table[name] != shape:
            return f"{kind} {name!r} shaped {table[name]}, expected {shape}"
    extras = set(table) - set(expected)
    if extras:
        return f"unexpected tensors {sorted(extras)}"
    return f"arrays in the order {list(table)}, expected {list(expected)}"
