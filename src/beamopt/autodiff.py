"""Reverse-mode automatic differentiation over dense float64 tensors.

Ops execute eagerly on numpy arrays. When a Tape is active (used as a
context manager) every op whose inputs require gradients records a
backward closure on it; `tape.backward(scalar)` replays the records in
reverse, accumulating gradients by sum over fan-out into `Tensor.grad`.
A tape is consumed by its backward pass.

The layer set covers the backbone and heads needed here: conv1d (cross
correlation), batch norm, exact-erf GELU, fully connected, softmax, and
group flatten, plus the elementwise/reduction ops to compose losses.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Dense float64 array with an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "grad")

    # keep numpy from consuming Tensor operands: an ndarray or scalar on the
    # left works only through a reflected operator below (division)
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; constants are lifted to non-grad tensors
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return getitem(self, key)


class Tape:
    """Ordered record of executed ops; supports exactly one backward pass."""

    def __init__(self):
        self._records = []      # (out, ((input, vjp), ...)) in execution order
        self._out_ids = set()
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def _append(self, out: "Tensor", pulls):
        self._records.append((out, pulls))
        self._out_ids.add(id(out))

    def backward(self, output: "Tensor"):
        """Accumulate d(output)/d(tensor) into .grad for every tensor on the tape."""
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward pass")
        if output.data.size != 1:
            raise ValueError(f"backward needs a scalar output, got shape {output.data.shape}")
        if id(output) not in self._out_ids:
            raise RuntimeError("backward before forward: output was not recorded on this tape")
        self._consumed = True
        flowing: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        holders: dict[int, Tensor] = {id(output): output}
        for out, pulls in reversed(self._records):
            g = flowing.get(id(out))
            if g is None:
                continue
            for inp, vjp in pulls:
                contrib = vjp(g)
                key = id(inp)
                if key in flowing:
                    flowing[key] = flowing[key] + contrib
                else:
                    flowing[key] = contrib
                    holders[key] = inp
        for key, tensor in holders.items():
            if tensor.requires_grad:
                g = flowing[key]
                tensor.grad = g if tensor.grad is None else tensor.grad + g


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _make(out_data, pulls) -> Tensor:
    """Build the output tensor, recording pulls for grad-requiring inputs."""
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        live = tuple((t, fn) for t, fn in pulls if t.requires_grad)
        if live:
            out.requires_grad = True
            tape._append(out, live)
    return out


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data,
                 [(a, lambda g: _unbroadcast(g, a.data.shape)),
                  (b, lambda g: _unbroadcast(g, b.data.shape))])


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data,
                 [(a, lambda g: _unbroadcast(g, a.data.shape)),
                  (b, lambda g: _unbroadcast(-g, b.data.shape))])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data,
                 [(a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                  (b, lambda g: _unbroadcast(g * a.data, b.data.shape))])


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data / b.data,
                 [(a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
                  (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))])


def square(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data * a.data, [(a, lambda g: g * 2.0 * a.data)])


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    root = np.sqrt(a.data)
    return _make(root, [(a, lambda g: g * 0.5 / root)])


def log1p(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log1p(a.data), [(a, lambda g: g / (1.0 + a.data))])


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def pull(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.data.shape).copy()

    return _make(out_data, [(a, pull)])


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.size // out_data.size

    def pull(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.data.shape).copy() / count

    return _make(out_data, [(a, pull)])


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), [(a, lambda g: g.reshape(a.data.shape))])


def getitem(a, key) -> Tensor:
    """Basic slicing/integer indexing; the gradient scatters back into zeros."""
    a = as_tensor(a)

    def pull(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return full

    return _make(a.data[key], [(a, pull)])


def gelu(a) -> Tensor:
    """Exact GELU x * Phi(x) with the standard normal CDF via erf."""
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + erf(a.data * _SQRT1_2))

    def pull(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        return g * (0.5 * (1.0 + erf(a.data * _SQRT1_2)) + a.data * pdf)

    return _make(a.data * cdf, [(a, pull)])


def softmax(a, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; rows sum to 1."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def pull(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return out_data * (g - dot)

    return _make(out_data, [(a, pull)])


def linear(x, w, b=None) -> Tensor:
    """Fully connected layer: x (B, F_in) @ w.T (F_in, F_out) + b."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(f"linear shape mismatch: x {x.data.shape}, w {w.data.shape}")
    out_data = x.data @ w.data.T
    pulls = [(x, lambda g: g @ w.data), (w, lambda g: g.T @ x.data)]
    if b is not None:
        b = as_tensor(b)
        if b.data.shape != (w.data.shape[0],):
            raise ValueError(f"bias shape {b.data.shape} does not match {w.data.shape[0]} outputs")
        out_data = out_data + b.data
        pulls.append((b, lambda g: g.sum(axis=0)))
    return _make(out_data, pulls)


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
    out_data = np.zeros((batch, c_out, l_out))
    for k in range(ksz):
        window = xp[:, :, k:k + stride * l_out:stride]
        out_data += np.einsum("bcl,oc->bol", window, w.data[:, :, k])

    def pull_x(g):
        dxp = np.zeros_like(xp)
        for k in range(ksz):
            dxp[:, :, k:k + stride * l_out:stride] += np.einsum("bol,oc->bcl", g, w.data[:, :, k])
        return dxp[:, :, padding:padding + length] if padding else dxp

    def pull_w(g):
        dw = np.empty_like(w.data)
        for k in range(ksz):
            window = xp[:, :, k:k + stride * l_out:stride]
            dw[:, :, k] = np.einsum("bol,bcl->oc", g, window)
        return dw

    return _make(out_data, [(x, pull_x), (w, pull_w)])


@dataclass
class BatchNormState:
    """Running statistics mutated by train-mode forward passes."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, channels: int) -> "BatchNormState":
        return cls(mean=np.zeros(channels), var=np.ones(channels))

    def copy(self) -> "BatchNormState":
        return BatchNormState(mean=self.mean.copy(), var=self.var.copy())


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

    def pull_x(g):
        dxhat = g * gamma.data[None, :, None]
        if not training:
            return dxhat * ivar[None, :, None]
        sum_dxhat = dxhat.sum(axis=(0, 2))
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2))
        return (ivar[None, :, None] / n) * (
            n * dxhat
            - sum_dxhat[None, :, None]
            - xhat * sum_dxhat_xhat[None, :, None])

    pulls = [(x, pull_x),
             (gamma, lambda g: (g * xhat).sum(axis=(0, 2))),
             (beta, lambda g: g.sum(axis=(0, 2)))]
    return _make(out_data, pulls)


def flatten_groups(x, group: int) -> Tensor:
    """Regroup (B*group, C, L) into (B, group*C*L), concatenating per-group features."""
    x = as_tensor(x)
    bg, channels, length = x.data.shape
    if bg % group != 0:
        raise ValueError(f"leading dim {bg} is not divisible by group {group}")
    batch = bg // group
    return _make(x.data.reshape(batch, group * channels * length),
                 [(x, lambda g: g.reshape(bg, channels, length))])


class Adam:
    """Bias-corrected Adam over named parameter tensors."""

    def __init__(self, params: "OrderedDict[str, Tensor]", lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


TENSOR_FILE_MAGIC = b"BNTC"
TENSOR_FILE_VERSION = 1


def encode_tensors(named: "OrderedDict[str, np.ndarray]") -> bytes:
    """Serialize named arrays: per-tensor header + little-endian f64 payload."""
    chunks = [TENSOR_FILE_MAGIC, struct.pack("<II", TENSOR_FILE_VERSION, len(named))]
    for name, arr in named.items():
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        if arr.ndim:
            chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    return b"".join(chunks)


def decode_tensors(blob: bytes) -> "OrderedDict[str, np.ndarray]":
    """Inverse of encode_tensors; round-trips bit-exactly."""
    if len(blob) < 12 or blob[:4] != TENSOR_FILE_MAGIC:
        raise ValueError("not a named-tensor container")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != TENSOR_FILE_VERSION:
        raise ValueError(f"container version {version}, expected {TENSOR_FILE_VERSION}")
    offset = 12
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, offset) if ndim else ()
            offset += 4 * ndim
            n_items = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f8", count=n_items, offset=offset).reshape(shape)
            offset += 8 * n_items
            out[name] = arr.astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise ValueError("truncated or corrupt tensor container") from exc
    return out

