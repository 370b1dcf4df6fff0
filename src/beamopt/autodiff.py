"""Reverse-mode automatic differentiation over dense float64 tensors.

Ops execute eagerly on numpy arrays. Every op is built by make_op(out_data,
inputs, pull): when a Tape is active (used as a context manager) and some
input requires a gradient, the tape records (out, inputs, pull), where
pull(g) returns one gradient per input, in order, None for an input that
needs none. `tape.backward(scalar)` replays the records in reverse, calls
each record's pull once and accumulates gradients by sum over fan-out into
the `.grad` of each leaf (a tensor no op on the tape produced). A tape is
consumed by its backward pass, which frees its records as it goes.

A gradient is an array of its tensor's shape, except the weight gradient of
`linear` where its two factors hold fewer entries than the product: that is
a FactoredGrad, g.T @ x kept as (g, x). Adam forms it in row blocks as it
steps, so training never holds a weight-sized gradient; reading `.grad`
forms the whole product once, with the same expression as a dense pull.

The engine ships the ops the model runs, one op per model stage:
conv_bn_gelu (conv1d -> batch norm -> GELU fused into one op) per backbone
block, the group flatten, and fully connected layers with exact GELU for
the heads. The output stages and the loss (models.unit_beams,
models.power_split, metrics.neg_sum_rate_graph) are built on make_op too.
The exact GELU takes erf from `_erf`, a numpy port of the Cephes erf/erfc
rationals that scipy.special.erf evaluates, so importing this package needs
numpy only.

Adam writes each parameter tensor's .data in place, so a tensor that views
a larger buffer (models.ModelParams.flat) keeps viewing it. The package
never gives a model parameter a new .data array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_TAPE_STACK: list["Tape"] = []

# Entries of one row block of a factored gradient (4 MiB).
GRAD_BLOCK = 1 << 19


class FactoredGrad:
    """A linear layer's weight gradient g.T @ x, kept as its factors: g
    (B, F_out), the gradient at the layer's output, and x (B, F_in), its input.

    `row_blocks` forms the product `rows` rows at a time: the most rows that
    fit GRAD_BLOCK entries, rounded down to a multiple of 8, and at least 8.
    A last block of one row joins the block before it, since numpy sends a
    one-row product to GEMV. On OpenBLAS the blocks then equal those rows of
    g.T @ x bit for bit when F_in is a multiple of 8, so `linear` factors no
    other shape. `verify` checks the identity on the BLAS at hand.
    """

    __slots__ = ("g", "x")

    def __init__(self, g: np.ndarray, x: np.ndarray):
        self.g, self.x = g, x

    @property
    def shape(self) -> tuple[int, int]:
        return self.g.shape[1], self.x.shape[1]

    @property
    def rows(self) -> int:
        return max(8, GRAD_BLOCK // self.shape[1] // 8 * 8)

    @property
    def block_size(self) -> int:
        """Entries of the largest block."""
        f_out, f_in = self.shape
        return min(f_out, self.rows + 1) * f_in

    def dense(self) -> np.ndarray:
        return self.g.T @ self.x

    def row_blocks(self, buf: np.ndarray):
        """Yield (first row, block) over g.T @ x, each block written into the
        flat float64 `buf` of at least `block_size` entries."""
        (f_out, f_in), lo = self.shape, 0
        while lo < f_out:
            hi = lo + self.rows if lo + self.rows < f_out - 1 else f_out
            block = buf[:(hi - lo) * f_in].reshape(hi - lo, f_in)
            np.matmul(self.g[:, lo:hi].T, self.x, out=block)
            yield lo, block
            lo = hi

    def sq_norm_bound(self) -> float:
        """||g||^2 ||x||^2, which bounds ||g.T @ x||^2 (Frobenius norms)."""
        return float(np.vdot(self.g, self.g)) * float(np.vdot(self.x, self.x))

    def sq_norm(self) -> float:
        """||g.T @ x||^2, summed over the row blocks; inf or NaN without a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return sum(float(np.vdot(block, block))
                       for _, block in self.row_blocks(np.empty(self.block_size)))


def _dense(grad):
    return grad.dense() if isinstance(grad, FactoredGrad) else grad


class Tensor:
    """Dense float64 array with an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad = None

    @property
    def grad(self):
        """The gradient as an array, or None. A FactoredGrad is formed here,
        once, and the array replaces it."""
        self._grad = _dense(self._grad)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def raw_grad(self):
        """The gradient as stored: an array, a FactoredGrad or None. Reading it
        forms nothing."""
        return self._grad

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed ops; supports exactly one backward pass."""

    def __init__(self):
        self._records = []      # (out, inputs, pull) in execution order
        self._out_ids = set()
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def backward(self, output: "Tensor"):
        """Accumulate d(output)/d(tensor) into .grad for every tensor the tape
        did not produce (leaves); intermediates get no .grad.

        Records are popped as the pass goes and each intermediate's gradient
        is dropped once its record's pull has run, so the activations a pull
        holds are freed during the pass; the x factor of a FactoredGrad lives
        on in the leaf's gradient. A pull gets an array, and a fan-out sum or a
        second backward forms a FactoredGrad before it adds. A pull that
        returns other than one gradient per input raises ValueError.
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
            out, inputs, pull = records.pop()
            g = flowing.pop(id(out), None)
            if g is None:
                continue
            for inp, contrib in zip(inputs, pull(_dense(g)), strict=True):
                if not inp.requires_grad:
                    continue
                key = id(inp)
                if key in flowing:
                    flowing[key] = _dense(flowing[key]) + _dense(contrib)
                else:
                    flowing[key] = contrib
                    if key not in produced:
                        leaves[key] = inp
        for key, tensor in leaves.items():
            g = flowing.pop(key)
            tensor.grad = g if tensor.raw_grad is None else tensor.grad + _dense(g)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_op(out_data, inputs: tuple, pull) -> Tensor:
    """The output tensor of an op, recorded on the active tape as
    (out, inputs, pull) when some input requires a gradient. pull(g) returns
    one gradient per input, in order, and None for an input that needs none."""
    out = Tensor(out_data)
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape = _TAPE_STACK[-1]
        tape._records.append((out, inputs, pull))
        tape._out_ids.add(id(out))
    return out


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
        return (g * (cdf + a.data * pdf),)

    return make_op(a.data * cdf, (a,), pull)


def linear(x, w, b=None) -> Tensor:
    """Fully connected layer: x (B, F_in) @ w.T (F_in, F_out) + b.

    The pull returns w's gradient as FactoredGrad(g, x) when the factors hold
    fewer entries than the product, B (F_in + F_out) < F_in F_out, and F_in
    is a multiple of 8 (see FactoredGrad); otherwise as the array g.T @ x.
    The rule reads shapes only."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(f"linear shape mismatch: x {x.data.shape}, w {w.data.shape}")
    out_data = x.data @ w.data.T
    inputs = (x, w)
    if b is not None:
        b = as_tensor(b)
        if b.data.shape != (w.data.shape[0],):
            raise ValueError(f"bias shape {b.data.shape} does not match {w.data.shape[0]} outputs")
        out_data = out_data + b.data
        inputs = (x, w, b)

    def pull(g):
        dw = None
        if w.requires_grad:
            (f_out, f_in), batch = w.data.shape, g.shape[0]
            factored = f_in % 8 == 0 and batch * (f_in + f_out) < f_in * f_out
            dw = FactoredGrad(g, x.data) if factored else g.T @ x.data
        grads = (g @ w.data if x.requires_grad else None, dw)
        return grads if b is None else grads + (g.sum(axis=0) if b.requires_grad else None,)

    return make_op(out_data, inputs, pull)


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


def conv_bn_gelu(x, w, gamma, beta, state: BatchNormState, training: bool,
                 stride: int = 1, padding: int = 0, eps: float = 1e-5,
                 momentum: float = 0.1) -> Tensor:
    """gelu(batchnorm1d(conv1d(x, w))) as one op on channels-last activations:
    x (R, L, C_in), w (C_out, C_in, ksz) -> (R, L_out, C_out).

    The im2col GEMM's (R*L_out, C_out) output is what batch norm normalizes,
    each channel over its rows, with statistics from GEMV column sums; modes,
    running stats and eps are reference.batchnorm1d's. The pull computes the
    reductions sum(gz) and sum(gz * xhat), gz being the gradient at the GELU
    input, once for dx, dw, dgamma and dbeta, and skips dx when x needs no
    gradient. The op keeps cols, xhat, the GELU input z and its cdf for it.
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

    def pull(g):
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
        # gz is now the gradient at the conv output. dw goes first, so dcols
        # and dxp do not live through the dw GEMM.
        dw = dx = None
        if w.requires_grad:
            dw = np.ascontiguousarray((gz.T @ cols).reshape(c_out, ksz, c_in).transpose(0, 2, 1))
        if x.requires_grad:
            dcols = (gz @ w2).reshape(rows, l_out, ksz, c_in)
            dxp = np.zeros((rows, padded_len, c_in))
            for k in range(ksz):
                dxp[:, k:k + stride * (l_out - 1) + 1:stride] += dcols[:, :, k]
            dx = dxp[:, padding:padding + length] if padding else dxp
        return dx, dw, dgamma, dbeta

    return make_op((z * cdf).reshape(rows, l_out, c_out), (x, w, gamma, beta), pull)


def flatten_groups(x, group: int) -> Tensor:
    """Regroup channels-last (B*group, L, C) into (B, group*C*L), concatenating
    per-group features, each group's in (C, L) order."""
    x = as_tensor(x)
    bg, length, channels = x.data.shape
    if bg % group != 0:
        raise ValueError(f"leading dim {bg} is not divisible by group {group}")
    batch = bg // group
    return make_op(x.data.transpose(0, 2, 1).reshape(batch, group * channels * length), (x,),
                   lambda g: (g.reshape(bg, channels, length).transpose(0, 2, 1),))


class Adam:
    """Bias-corrected Adam that updates each of `tensors` in place.

    The moments are one flat pair of vectors, each tensor's entries at its
    offset in the order given. A step reads each tensor's gradient where the
    tape left it and writes the tensor's own .data, with one call of the
    compiled `adam_update` (kernels.c) per tensor, or, without it, one block
    of `BLOCK` entries at a time in numpy (`_update`). A FactoredGrad is
    formed one row block at a time into one reused buffer, and each block's
    update runs while the block is fresh. The update is elementwise, so every
    path writes the same bits, and none makes a parameter-sized temporary.
    """

    BLOCK = 1 << 15

    def __init__(self, tensors, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.tensors = list(tensors)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.step_count = 0
        size = sum(t.data.size for t in self.tensors)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._scratch = np.empty((2, min(size, self.BLOCK)))
        self._block = np.empty(0)         # a FactoredGrad's row block, grown to the largest
        self._kernel = kernels.build().adam

    @property
    def kernel(self) -> str:
        """Which loop runs the step: "c" or "numpy"."""
        return "numpy" if self._kernel is None else "c"

    def zero_grad(self):
        for t in self.tensors:
            t.grad = None

    def step(self):
        """One update of every tensor; a missing gradient counts as zero.
        Reads `raw_grad`, so a FactoredGrad is never formed whole."""
        size = sum(t.data.size for t in self.tensors)
        if size != self._m.size:
            raise ValueError(f"{size} parameters, moments for {self._m.size}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        offset = 0
        for t in self.tensors:
            p, size, grad = t.data, t.data.size, t.raw_grad
            if not (p.flags.c_contiguous and p.flags.writeable and p.dtype == np.float64):
                raise ValueError(f"Adam updates in place: a {p.shape} tensor is not a "
                                 "writeable C-contiguous float64 array")
            m, v, p = self._m[offset:offset + size], self._v[offset:offset + size], p.reshape(-1)
            offset += size
            if isinstance(grad, FactoredGrad):
                if grad.shape != t.data.shape:
                    raise ValueError(f"gradient of shape {grad.shape} for {t.data.shape} parameters")
                if self._block.size < grad.block_size:
                    self._block = np.empty(grad.block_size)
                for lo, block in grad.row_blocks(self._block):
                    seg = slice(lo * block.shape[1], lo * block.shape[1] + block.size)
                    self._apply(p[seg], block.reshape(-1), m[seg], v[seg], bc1, bc2)
                continue
            g = None
            if grad is not None:         # copies a strided gradient only
                g = np.ascontiguousarray(grad, dtype=np.float64).reshape(-1)
                if g.size != size:
                    raise ValueError(f"gradient of {g.size} entries for {size} parameters")
            self._apply(p, g, m, v, bc1, bc2)

    def _apply(self, p, g, m, v, bc1, bc2):
        """The update of flat p and its moments by flat g, or by zero when g is None."""
        if self._kernel is not None:
            self._kernel(p.ctypes.data, None if g is None else g.ctypes.data,
                         m.ctypes.data, v.ctypes.data, p.size,
                         self.beta1, 1.0 - self.beta1, self.beta2, 1.0 - self.beta2,
                         bc1, bc2, self.lr, self.eps)
            return
        for lo in range(0, p.size, self.BLOCK):
            seg = slice(lo, lo + self.BLOCK)
            self._update(p[seg], 0.0 if g is None else g[seg], m[seg], v[seg], bc1, bc2)

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
