"""Reverse-mode automatic differentiation over dense float64 tensors.

Ops execute eagerly on numpy arrays. When a Tape is active (used as a
context manager) every op whose inputs require gradients records a
backward closure on it; `tape.backward(scalar)` replays the records in
reverse, accumulating gradients by sum over fan-out into the `.grad` of
each leaf (a tensor no op on the tape produced). A tape is consumed by
its backward pass, which frees its records as it goes.

The engine ships the ops the model runs, one op per model stage:
conv_bn_gelu (conv1d -> batch norm -> GELU fused into one op with one pull)
per backbone block, the group flatten, fully connected layers with exact
GELU and softmax for the heads, and mul and tmean for scaling and the batch
mean. Ops specific to the model and the loss (models.unit_beams,
metrics.sum_rates) are built on make_op. conv1d and batchnorm1d stay as the
tested references of conv_bn_gelu. The exact GELU takes erf from `_erf`, a
numpy port of the Cephes erf/erfc rationals that scipy.special.erf
evaluates, so importing this package needs numpy only.
"""

from __future__ import annotations

import io
import math
import struct
import sys
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Dense float64 array with an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "grad")

    # keep numpy from consuming Tensor operands: the Tensor goes on the left
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
    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


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
        """Accumulate d(output)/d(tensor) into .grad for every tensor the tape
        did not produce (leaves); intermediates get no .grad.

        Records are popped as the pass goes and each intermediate's gradient
        is dropped once its pulls have run, so the activations a record's
        closures hold are freed during the pass.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward pass")
        if output.data.size != 1:
            raise ValueError(f"backward needs a scalar output, got shape {output.data.shape}")
        if id(output) not in self._out_ids:
            raise RuntimeError("backward before forward: output was not recorded on this tape")
        self._consumed = True
        records, produced = self._records, self._out_ids
        self._records, self._out_ids = [], set()
        flowing: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        leaves: dict[int, Tensor] = {}
        while records:
            out, pulls = records.pop()
            g = flowing.pop(id(out), None)
            if g is None:
                continue
            for inp, vjp in pulls:
                contrib = vjp(g)
                key = id(inp)
                if key in flowing:
                    flowing[key] = flowing[key] + contrib
                else:
                    flowing[key] = contrib
                    if key not in produced:
                        leaves[key] = inp
        for key, tensor in leaves.items():
            g = flowing.pop(key)
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


make_op = _make     # public for ops defined outside this module (unit_beams, sum_rates)


def shared_pull(fn):
    """Wrap fn(g) so that an op's per-input vjps share one call per upstream
    gradient: an op whose gradients come from common reductions computes
    them once, and only if some input's pull runs."""
    last = [None, None]

    def once(g):
        if last[0] is not g:
            last[0], last[1] = g, fn(g)
        return last[1]

    return once


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data,
                 [(a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                  (b, lambda g: _unbroadcast(g * a.data, b.data.shape))])


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


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, else 1 - erfc(|x|) with
# erfc(x) = exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) from 8 on,
# and erfc = 0 once x^2 > MAXLOG. U, Q and S have an implied leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2
_ERF_BLOCK = 1 << 15


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Horner's rule c0 x^n + ... + cn, in Cephes polevl's operation order."""
    out = x * coefs[0]
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


def _p1evl(x: np.ndarray, coefs) -> np.ndarray:
    """Horner's rule x^n + c0 x^(n-1) + ... + c(n-1), as Cephes p1evl."""
    out = x + coefs[0]
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _erfc_above_one(a: np.ndarray) -> np.ndarray:
    """Cephes erfc on values a > 1, +inf included."""
    a = np.minimum(a, 27.0)             # 27^2 > MAXLOG, and a^2 cannot overflow
    sq = a * a
    y = np.exp(-sq)
    p, q = _polevl(a, _ERFC_P), _p1evl(a, _ERFC_Q)
    far = np.flatnonzero(a >= 8.0)
    if far.size:
        p[far], q[far] = _polevl(a[far], _ERFC_R), _p1evl(a[far], _ERFC_S)
    y *= p
    y /= q
    y[sq > _MAXLOG] = 0.0
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf(x) elementwise, within 1 ulp of scipy.special.erf: NaN stays NaN and
    -0.0 keeps its sign. Runs in blocks of _ERF_BLOCK values so each pass stays
    in cache; only the |x| > 1 values of a block take the erfc path."""
    x = np.asarray(x, dtype=np.float64, order="C")
    out = np.empty_like(x)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_x.size, _ERF_BLOCK):
        xb, ob = flat_x[lo:lo + _ERF_BLOCK], flat_out[lo:lo + _ERF_BLOCK]
        big = np.flatnonzero(np.abs(xb) > 1.0)     # NaN is not big
        if big.size:
            xb = xb.copy()
            tail = xb[big]
            xb[big] = 0.0
        z = xb * xb
        np.multiply(xb, _polevl(z, _ERF_T), out=ob)
        ob /= _p1evl(z, _ERF_U)
        if big.size:
            ob[big] = np.copysign(1.0 - _erfc_above_one(np.abs(tail)), tail)
    return out


def gelu(a) -> Tensor:
    """Exact GELU x * Phi(x) with the standard normal CDF via erf."""
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + _erf(a.data * _SQRT1_2))

    def pull(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        return g * (cdf + a.data * pdf)

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
    # im2col: row (b, l) holds the window xp[b, :, l*stride : l*stride + ksz] as (c, k)
    windows = sliding_window_view(xp, ksz, axis=2)[:, :, ::stride]
    cols = windows.transpose(0, 2, 1, 3).reshape(batch * l_out, c_in * ksz)
    w2 = w.data.reshape(c_out, c_in * ksz)
    out_data = np.ascontiguousarray((cols @ w2.T).reshape(batch, l_out, c_out).transpose(0, 2, 1))

    def rows(g):
        return g.transpose(0, 2, 1).reshape(batch * l_out, c_out)

    def pull_x(g):
        dcols = (rows(g) @ w2).reshape(batch, l_out, c_in, ksz).transpose(0, 2, 1, 3)
        dxp = np.zeros((batch, c_in, padded_len))
        for k in range(ksz):
            dxp[:, :, k:k + stride * l_out:stride] += dcols[..., k]
        return dxp[:, :, padding:padding + length] if padding else dxp

    def pull_w(g):
        return (rows(g).T @ cols).reshape(w.data.shape)

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


def conv_bn_gelu(x, w, gamma, beta, state: BatchNormState, training: bool,
                 stride: int = 1, padding: int = 0, eps: float = 1e-5,
                 momentum: float = 0.1) -> Tensor:
    """gelu(batchnorm1d(conv1d(x, w))) as one op on channels-last activations:
    x (R, L, C_in), w (C_out, C_in, ksz) -> (R, L_out, C_out).

    The im2col GEMM's (R*L_out, C_out) output is what batch norm normalizes,
    each channel over its rows, with statistics from GEMV column sums; modes,
    running stats and eps are batchnorm1d's. The one pull shares the
    reductions sum(gz) and sum(gz * xhat), gz being the gradient at the GELU
    input, among dx, dw, dgamma and dbeta. The op keeps cols, xhat, the GELU
    input z and its cdf for the pull.
    """
    x, w, gamma, beta = as_tensor(x), as_tensor(w), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 3 or w.data.ndim != 3 or x.data.shape[2] != w.data.shape[1]:
        raise ValueError(f"conv_bn_gelu shape mismatch: x {x.data.shape}, w {w.data.shape}")
    rows, length, c_in = x.data.shape
    c_out, _, ksz = w.data.shape
    if gamma.data.shape != (c_out,) or beta.data.shape != (c_out,):
        raise ValueError(f"conv_bn_gelu shape mismatch: w {w.data.shape}, gamma {gamma.data.shape}")
    padded_len = length + 2 * padding
    if padded_len < ksz:
        raise ValueError(f"kernel size {ksz} exceeds padded length {padded_len}")
    l_out = (padded_len - ksz) // stride + 1
    n = rows * l_out
    if training and n < 2:
        raise ValueError("train-mode batch norm needs more than one element per channel")

    xp = np.pad(x.data, ((0, 0), (padding, padding), (0, 0))) if padding else x.data
    # im2col: row (r, l) holds the window xp[r, l*stride : l*stride + ksz, :] as (k, c)
    cols = np.empty((rows, l_out, ksz, c_in))
    for k in range(ksz):
        cols[:, :, k] = xp[:, k:k + stride * (l_out - 1) + 1:stride]
    cols = cols.reshape(n, ksz * c_in)
    w2 = w.data.transpose(0, 2, 1).reshape(c_out, ksz * c_in)
    xhat = cols @ w2.T                   # the conv output, normalized in place
    if training:
        ones = np.ones(n)
        mean = (ones @ xhat) / n
        xhat -= mean
        var = (ones @ (xhat * xhat)) / n
        state.mean[:] = (1.0 - momentum) * state.mean + momentum * mean
        state.var[:] = (1.0 - momentum) * state.var + momentum * var * n / (n - 1)
    else:
        xhat -= state.mean
        var = state.var
    ivar = 1.0 / np.sqrt(var + eps)
    xhat *= ivar
    z = xhat * gamma.data
    z += beta.data
    cdf = _erf(z * _SQRT1_2)
    cdf += 1.0
    cdf *= 0.5

    @shared_pull
    def grads(g):
        """(dy at the conv output, dgamma, dbeta) for output gradient g."""
        gz = z * z
        gz *= -0.5
        np.exp(gz, out=gz)
        gz *= _INV_SQRT_2PI
        gz *= z
        gz += cdf
        gz *= g.reshape(n, c_out)
        ones = np.ones(n)
        dbeta = ones @ gz
        gz_xhat = gz * xhat
        dgamma = ones @ gz_xhat
        if training:
            gz *= n
            gz -= dbeta
            np.multiply(xhat, dgamma, out=gz_xhat)
            gz -= gz_xhat
            gz *= gamma.data * ivar / n
        else:
            gz *= gamma.data * ivar
        return gz, dgamma, dbeta

    def pull_x(g):
        dcols = (grads(g)[0] @ w2).reshape(rows, l_out, ksz, c_in)
        dxp = np.zeros((rows, padded_len, c_in))
        for k in range(ksz):
            dxp[:, k:k + stride * (l_out - 1) + 1:stride] += dcols[:, :, k]
        return dxp[:, padding:padding + length] if padding else dxp

    def pull_w(g):
        dw2 = (grads(g)[0].T @ cols).reshape(c_out, ksz, c_in)
        return np.ascontiguousarray(dw2.transpose(0, 2, 1))

    return _make((z * cdf).reshape(rows, l_out, c_out),
                 [(x, pull_x), (w, pull_w),
                  (gamma, lambda g: grads(g)[1]), (beta, lambda g: grads(g)[2])])


def flatten_groups(x, group: int) -> Tensor:
    """Regroup channels-last (B*group, L, C) into (B, group*C*L), concatenating
    per-group features, each group's in (C, L) order."""
    x = as_tensor(x)
    bg, length, channels = x.data.shape
    if bg % group != 0:
        raise ValueError(f"leading dim {bg} is not divisible by group {group}")
    batch = bg // group
    return _make(x.data.transpose(0, 2, 1).reshape(batch, group * channels * length),
                 [(x, lambda g: g.reshape(bg, channels, length).transpose(0, 2, 1))])


def flat_buffer(tensors) -> np.ndarray:
    """The one contiguous float64 vector holding every tensor's data back to back, in order.

    Tensors that already view such a vector keep it. Otherwise their values
    are copied into a new vector and each tensor's .data becomes a view of it,
    so assigning a fresh array to .data detaches a tensor until the next call.
    """
    tensors = list(tensors)
    arrays = [t.data for t in tensors]
    base = arrays[0].base if arrays else None
    if (isinstance(base, np.ndarray) and base.ndim == 1 and base.dtype == np.float64
            and base.size == sum(a.size for a in arrays)):
        address = base.ctypes.data
        for a in arrays:
            if a.base is not base or not a.flags.c_contiguous or a.ctypes.data != address:
                break
            address += a.nbytes
        else:
            return base
    flat = np.empty(sum(a.size for a in arrays))
    offset = 0
    for t, a in zip(tensors, arrays):
        view = flat[offset:offset + a.size].reshape(a.shape)
        view[...] = a
        t.data = view
        offset += a.size
    return flat


class Adam:
    """Bias-corrected Adam over named parameter tensors laid out in one flat vector.

    The moments are flat vectors aligned with `flat_buffer(params)`. A step
    reads each tensor's gradient where the tape left it and updates the
    parameters in place, with one call of the compiled `adam_update`
    (kernels.c) per tensor, or, without it, one block of `BLOCK` entries at a
    time in numpy (`_update`), with the same bits. Either way it makes no
    parameter-sized temporary.
    """

    BLOCK = 1 << 15

    def __init__(self, params: "OrderedDict[str, Tensor]", lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.step_count = 0
        size = flat_buffer(params.values()).size
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._scratch = np.empty((2, min(size, self.BLOCK)))
        self._kernel = kernels.build().adam

    @property
    def kernel(self) -> str:
        """Which loop runs the step: "c" or "numpy"."""
        return "numpy" if self._kernel is None else "c"

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        flat = flat_buffer(self.params.values())
        if flat.size != self._m.size:
            raise ValueError(f"{flat.size} parameters, moments for {self._m.size}")
        offset = 0
        for p in self.params.values():
            size = p.data.size
            g = None if p.grad is None else p.grad.reshape(-1)
            if self._kernel is not None:
                self._update_compiled(flat, g, offset, size, bc1, bc2)
            else:
                for lo in range(0, size, self.BLOCK):
                    seg = slice(offset + lo, offset + min(lo + self.BLOCK, size))
                    self._update(flat[seg], 0.0 if g is None else g[lo:lo + self.BLOCK],
                                 self._m[seg], self._v[seg], bc1, bc2)
            offset += size

    def _update_compiled(self, flat, g, offset, size, bc1, bc2):
        """`_update` on entries offset .. offset + size in one call of the compiled loop."""
        if g is not None:
            g = np.ascontiguousarray(g, dtype=np.float64)      # copies a strided gradient only
            if g.size != size:
                raise ValueError(f"gradient of {g.size} entries for {size} parameters")
        at = 8 * offset
        self._kernel(flat.ctypes.data + at, None if g is None else g.ctypes.data,
                     self._m.ctypes.data + at, self._v.ctypes.data + at, size,
                     self.beta1, 1.0 - self.beta1, self.beta2, 1.0 - self.beta2,
                     bc1, bc2, self.lr, self.eps)

    def _update(self, p, g, m, v, bc1, bc2):
        """p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment updates,
        in the operation order of the textbook expression."""
        s, d = self._scratch[:, :p.size]
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=s)
        s *= g
        v += s
        np.divide(m, bc1, out=s)
        s *= self.lr
        np.divide(v, bc2, out=d)
        np.sqrt(d, out=d)
        d += self.eps
        s /= d
        p -= s


TENSOR_FILE_MAGIC = b"BNTC"
TENSOR_FILE_VERSION = 1


def encode_tensors(named: "OrderedDict[str, np.ndarray]", f) -> None:
    """Write named arrays to the binary file `f`: per-tensor header +
    little-endian f64 payload, each payload straight from its array, uncopied."""
    f.write(TENSOR_FILE_MAGIC)
    f.write(struct.pack("<II", TENSOR_FILE_VERSION, len(named)))
    for name, arr in named.items():
        arr = np.asarray(arr, dtype="<f8", order="C")
        encoded = name.encode("utf-8")
        f.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim,
                            *arr.shape))
        f.write(memoryview(arr.reshape(-1)))


def decode_tensors(f, targets: "OrderedDict[str, np.ndarray]") -> "OrderedDict[str, tuple]":
    """Inverse of encode_tensors: read the container at the binary file `f`'s
    position straight into `targets`, bit-exactly.

    A tensor whose name is in `targets` and whose shape matches that
    C-contiguous float64 array is read into it, uncopied; any other tensor
    is skipped. Returns every tensor's name and shape in file order, so the
    caller can tell what was missing, misshaped or extra.
    """
    start = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(start)
    head = f.read(12)
    if len(head) < 12 or head[:4] != TENSOR_FILE_MAGIC:
        raise ValueError("not a named-tensor container")
    version, count = struct.unpack_from("<II", head, 4)
    if version != TENSOR_FILE_VERSION:
        raise ValueError(f"container version {version}, expected {TENSOR_FILE_VERSION}")
    shapes: "OrderedDict[str, tuple]" = OrderedDict()
    try:
        for _ in range(count):
            (name_len,) = struct.unpack("<H", f.read(2))
            name = f.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", f.read(1))
            shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
            nbytes = 8 * math.prod(shape)
            if f.tell() + nbytes > end:
                raise ValueError(f"tensor {name!r} runs past the end")
            target = targets.get(name)
            if target is None or target.shape != shape:
                f.seek(nbytes, io.SEEK_CUR)
            else:
                if f.readinto(memoryview(target.reshape(-1)).cast("B")) != nbytes:
                    raise ValueError(f"short read in tensor {name!r}")
                if sys.byteorder == "big":
                    target.byteswap(inplace=True)
            shapes[name] = shape
    except (struct.error, ValueError) as exc:
        raise ValueError("truncated or corrupt tensor container") from exc
    return shapes
