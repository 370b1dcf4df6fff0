"""The compiled normal fill against numpy's `Generator.standard_normal`: the
same bytes and the same generator state after, on the compiled path and on
every path that falls back to numpy."""

import math
import re
import shutil
import warnings

import numpy as np
import pytest

from beamopt import kernels
from beamopt.models import ModelConfig, init_params, param_spec

NO_CC = pytest.mark.skipif(shutil.which("cc") is None,
                           reason="no C compiler (cc) on PATH: numpy draws the normals")
ZIGGURAT_R = 3.6541528853610088
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = 2**64 - 1


def numpy_fill(rng, out, scale):
    rng.standard_normal(out=out)
    out *= scale


def assert_same_generators(a, b):
    np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
    assert a.standard_normal(5).tobytes() == b.standard_normal(5).tobytes()
    assert a.random() == b.random()


@pytest.fixture()
def fresh_build():
    """An empty build cache before and after the test."""
    kernels.build.cache_clear()
    yield
    kernels.build.cache_clear()


@NO_CC
@pytest.mark.parametrize("size", [0, 1, 1001, 1 << 20])
@pytest.mark.parametrize("seed, scale", [(0, 1.0), (7, math.sqrt(2.0 / 96)),
                                         (2**63 + 11, 3.5)])
def test_compiled_fill_writes_numpys_draws(size, seed, scale):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = np.full(size, np.nan), np.full(size, np.nan)
    assert kernels.standard_normal(rng, got, scale) == "c"
    numpy_fill(ref, want, scale)
    assert got.tobytes() == want.tobytes()
    assert_same_generators(rng, ref)
    if size == 1 << 20:                  # the tail path ran, about 270 times
        assert np.count_nonzero(np.abs(got) > ZIGGURAT_R * scale) > 200


@NO_CC
def test_consecutive_fills_continue_numpys_stream():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for shape in ((16, 2, 3), (7,), (300, 41)):
        got, want = np.empty(shape), np.empty(shape)
        assert kernels.standard_normal(rng, got, 0.25) == "c"
        numpy_fill(ref, want, 0.25)
        assert got.tobytes() == want.tobytes()
        rng.random(3), ref.random(3)                       # numpy draws in between
    assert_same_generators(rng, ref)


def embedded_tables():
    """ki, wi and fi as kernels.c embeds them."""
    source = kernels.SOURCE.read_text()
    tables = {}
    for name, parse in (("ki", lambda t: int(t, 16)), ("wi", float.fromhex), ("fi", float.fromhex)):
        body = re.search(rf"{name}\[256\] = {{(.*?)}};", source, re.S).group(1)
        tables[name] = [parse(t) for t in body.replace(",", " ").split()]
    return tables["ki"], tables["wi"], tables["fi"]


def pcg64_state_for(first, second):
    """A PCG64 state dict whose next two 64-bit outputs are `first` and `second`.

    Each output fixes the low word of a 128-bit state once its high word is
    chosen; the increment is then whatever steps one state to the other."""
    def state_with_output(out, hi):
        rot = hi >> 58                                     # XSL-RR: out = rotr(hi ^ lo, rot)
        return hi << 64 | hi ^ ((out << rot | out >> (64 - rot)) & MASK64)
    s1 = state_with_output(first, 0x0123456789ABCDEF)
    s2 = state_with_output(second, 0xFEDCBA9876543210)
    inc = (s2 - s1 * PCG64_MULT) % 2**128
    s0 = (s1 - inc) * pow(PCG64_MULT, -1, 2**128) % 2**128
    return {"bit_generator": "PCG64", "state": {"state": s0, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def layer_edge_draws():
    """(ziggurat word, next uniform's word) pairs on each layer's decision edges:
    rabs at ki[idx] - 1 and ki[idx], and, at a rabs inside the wedge, the two
    uniforms either side of its test against exp(-x**2 / 2). Any change of a
    table entry moves one of these decisions in most cases."""
    ki, wi, fi = embedded_tables()
    for idx in range(256):
        word = lambda rabs: idx | (idx & 1) << 8 | rabs << 9
        yield from ((word(rabs), 0) for rabs in (ki[idx] - 1, ki[idx]) if rabs >= 0)
        if idx == 0:
            continue                                       # the tail has no wedge test
        rabs = (ki[idx] + 2**52) // 2
        x = rabs * wi[idx]
        below = lambda k: (fi[idx - 1] - fi[idx]) * (k * 2.0**-53) + fi[idx] < math.exp(-0.5 * x * x)
        lo, hi = 0, 2**53 - 1                              # below(lo), not below(hi)
        assert below(lo) and not below(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        yield from ((word(rabs), k << 11) for k in (lo, hi))


@NO_CC
def test_compiled_fill_matches_numpy_on_every_layer_edge():
    edges = list(layer_edge_draws())
    assert len(edges) == 4 * 255 + 1                      # ki[1] is 0
    for first, second in edges:
        state = pcg64_state_for(first, second)
        rng, ref = np.random.default_rng(), np.random.default_rng()
        rng.bit_generator.state = ref.bit_generator.state = state
        assert rng.bit_generator.random_raw(2).tolist() == [first, second]
        rng.bit_generator.state = state
        got, want = np.empty(1), np.empty(1)
        assert kernels.standard_normal(rng, got, 1.0) == "c"
        numpy_fill(ref, want, 1.0)
        assert got.tobytes() == want.tobytes(), (hex(first), hex(second))
        assert rng.bit_generator.state == ref.bit_generator.state, (hex(first), hex(second))


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64])
def test_other_bit_generators_take_numpys_path(bit_generator):
    rng, ref = (np.random.Generator(bit_generator(4)) for _ in range(2))
    got, want = np.empty(999), np.empty(999)
    assert kernels.standard_normal(rng, got, 0.5) == "numpy"
    numpy_fill(ref, want, 0.5)
    assert got.tobytes() == want.tobytes()
    assert_same_generators(rng, ref)


def test_fortran_ordered_out_takes_numpys_path():
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    got, want = np.empty((40, 30), order="F"), np.empty((40, 30), order="F")
    assert kernels.standard_normal(rng, got, 2.0) == "numpy"
    numpy_fill(ref, want, 2.0)
    assert got.tobytes() == want.tobytes()
    assert_same_generators(rng, ref)


def read_only():
    out = np.empty(10)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("make_out, error", [(lambda: np.empty(20)[::2], ValueError),
                                             (read_only, ValueError),
                                             (lambda: np.empty(10, np.float32), TypeError)])
def test_outs_numpy_rejects_are_rejected_alike(make_out, error):
    with pytest.raises(error):
        np.random.default_rng(1).standard_normal(out=make_out())
    rng = np.random.default_rng(1)
    with pytest.raises(error):
        kernels.standard_normal(rng, make_out(), 1.0)
    assert_same_generators(rng, np.random.default_rng(1))


def test_failing_compiler_warns_once_and_numpy_draws(tmp_path, monkeypatch, fresh_build):
    cc = tmp_path / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: out of licences' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    got, want = np.empty(5000), np.empty(5000)
    with pytest.warns(RuntimeWarning, match="out of licences") as record:
        assert kernels.standard_normal(rng, got, 0.3) == "numpy"
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.standard_normal(rng, got[:100], 0.3) == "numpy"
    numpy_fill(ref, want, 0.3)
    numpy_fill(ref, want[:100], 0.3)
    assert got.tobytes() == want.tobytes()
    assert_same_generators(rng, ref)


@NO_CC
def test_self_check_rejects_a_wrong_table_and_keeps_adam(tmp_path, monkeypatch, fresh_build):
    source = kernels.SOURCE.read_text()
    wi1 = "0x1.b8d0be3fdf6c6p-55"                  # wi[1], to be raised by one ulp
    assert source.count(wi1) == 1
    broken = tmp_path / "kernels.c"
    broken.write_text(source.replace(wi1, "0x1.b8d0be3fdf6c7p-55"))
    monkeypatch.setattr(kernels, "SOURCE", broken)
    with pytest.warns(RuntimeWarning, match="does not reproduce") as record:
        built = kernels.build()
    assert len(record) == 1
    assert built.normal is None and built.adam is not None
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    got, want = np.empty(4096), np.empty(4096)
    assert kernels.standard_normal(rng, got, 1.0) == "numpy"
    numpy_fill(ref, want, 1.0)
    assert got.tobytes() == want.tobytes()


def reference_init(cfg, rng):
    """init_params' draws as numpy writes them: one standard_normal and one scale per weight."""
    params = init_params(cfg, np.random.default_rng(0))
    for name, shape, init in param_spec(cfg):
        if init == "normal":
            data = params.tensors[name].data
            rng.standard_normal(out=data)
            data *= np.sqrt(2.0 / math.prod(shape[1:]))
    return params


@pytest.mark.parametrize("compiled", [pytest.param(True, marks=NO_CC), False])
def test_init_params_writes_numpys_bytes(compiled, monkeypatch):
    if not compiled:
        monkeypatch.setattr(kernels, "build", lambda: kernels.Kernels(None, None))
    cfg = ModelConfig(m_tx=4, n_ue=2, k_sc=16, joint_power=True)
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    got = init_params(cfg, rng)
    monkeypatch.undo()
    want = reference_init(cfg, ref)
    assert got.flat.tobytes() == want.flat.tobytes()
    assert_same_generators(rng, ref)
