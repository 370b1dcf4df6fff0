"""Compiled loops that write the same bits as the numpy code they replace.

`kernels.c` holds two of them:
- `adam_update`, one Adam step per tensor in `autodiff.Adam._update`'s
  operation order;
- `normal_fill`, numpy's `Generator.standard_normal` on a PCG64 with a scale
  fused in, which `models.init_params` draws its weights with.

One `cc` run builds both, on first use, once per process, into a temporary
directory that is deleted once the library is loaded; importing beamopt
builds nothing. Without a `cc` on PATH numpy runs both silently; a compiler
or loader that fails says why in one RuntimeWarning first. The build draws
`SELF_CHECK_DRAWS` normals with `normal_fill` and with numpy on a fixed seed,
and if the values or the generator state after them differ, it warns once
and leaves the draws to numpy.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("kernels.c")
CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
SELF_CHECK_DRAWS = 1 << 16
SELF_CHECK_SEED = 20240613
_MASK64 = (1 << 64) - 1


class Kernels(NamedTuple):
    """The loaded ctypes functions; None where numpy runs instead."""
    adam: object
    normal: object


@functools.cache
def build() -> Kernels:
    """Both compiled kernels, each None where it cannot be built or fails its self-check."""
    cc = shutil.which("cc")
    if cc is None:
        return Kernels(None, None)
    import subprocess                     # not loaded by `import beamopt`
    with tempfile.TemporaryDirectory(prefix="beamopt-kernels-") as tmp:
        lib = os.path.join(tmp, "kernels.so")
        try:
            proc = subprocess.run([cc, *CFLAGS, "-o", lib, str(SOURCE), "-lm"],
                                  capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                raise OSError(proc.stderr.strip() or f"{cc} exited {proc.returncode}")
            dll = ctypes.CDLL(lib)
        except (OSError, subprocess.SubprocessError) as exc:
            warnings.warn(f"Adam and the init draws run on numpy: compiled kernels failed: {exc}",
                          RuntimeWarning, stacklevel=3)
            return Kernels(None, None)
    adam, normal = dll.adam_update, dll.normal_fill
    adam.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_size_t] + [ctypes.c_double] * 8
    normal.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_double]
    adam.restype = normal.restype = None
    if not _matches_numpy(normal):
        warnings.warn("the init draws run on numpy: the compiled normal_fill does not reproduce "
                      "numpy's standard_normal", RuntimeWarning, stacklevel=3)
        normal = None
    return Kernels(adam, normal)


def standard_normal(rng: np.random.Generator, out: np.ndarray, scale: float = 1.0) -> str:
    """Fill `out` with `scale` times standard normal draws from `rng`.

    Writes the bits of `rng.standard_normal(out=out); out *= scale` and leaves
    `rng` in the state that leaves. The compiled `normal_fill` runs when `rng`'s
    bit generator is a PCG64 and `out` a C-contiguous, aligned, writeable float64
    array; numpy runs otherwise. Returns which ran: "c" or "numpy".
    """
    bg = rng.bit_generator
    fn = None
    if (type(bg) is np.random.PCG64 and isinstance(out, np.ndarray)
            and out.dtype == np.float64 and out.flags.carray):
        fn = build().normal
    if fn is None:
        rng.standard_normal(out=out)
        out *= scale
        return "numpy"
    _fill(fn, bg, out, scale)
    return "c"


def _fill(fn, bg: np.random.PCG64, out: np.ndarray, scale: float) -> None:
    """Run `normal_fill` on `bg`'s state, read and written back through its public dict."""
    with bg.lock:
        state = bg.state
        s, inc = state["state"]["state"], state["state"]["inc"]
        words = (ctypes.c_uint64 * 4)(s >> 64, s & _MASK64, inc >> 64, inc & _MASK64)
        fn(words, out.ctypes.data, out.size, scale)
        state["state"]["state"] = words[0] << 64 | words[1]
        bg.state = state


def _matches_numpy(fn) -> bool:
    """`fn` gives numpy's values and generator state over SELF_CHECK_DRAWS draws."""
    scale = float(np.sqrt(2.0 / 3.0))
    ours, theirs = (np.random.Generator(np.random.PCG64(SELF_CHECK_SEED)) for _ in range(2))
    got, want = np.empty(SELF_CHECK_DRAWS), np.empty(SELF_CHECK_DRAWS)
    _fill(fn, ours.bit_generator, got, scale)
    theirs.standard_normal(out=want)
    want *= scale
    return (got.tobytes() == want.tobytes()
            and ours.bit_generator.state == theirs.bit_generator.state)
