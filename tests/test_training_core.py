"""The training-step core against loop references: im2col conv1d, the flat
Adam on both of its kernels, the flat parameter layout, and the allocation
bounds of a step, a backward pass, a training run and a checkpoint write
and load."""

import shutil
import tracemalloc
import weakref
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamopt import autodiff as ad
from beamopt import kernels, metrics, reference
from beamopt.channel import ChannelDataset
from beamopt.models import (ModelConfig, forward_graph, init_params, load_checkpoint,
                            save_checkpoint)
from beamopt.trainer import TrainConfig, _grad_norm_is_finite, train
from beamopt.verify import weighted_sum

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
NO_CC = pytest.mark.skipif(shutil.which("cc") is None,
                           reason="no C compiler (cc) on PATH: Adam has only its numpy kernel")
KERNELS = (pytest.param("c", marks=NO_CC), "numpy")


def adam_on(kernel, params, adam=ad.Adam, **kwargs):
    """An Adam that runs `kernel`: "c", which must have built, or "numpy"."""
    opt = adam(params, **kwargs)
    if kernel == "numpy":
        opt._kernel = None
    assert opt.kernel == kernel
    return opt


def conv1d_reference(x, w, g, stride, padding):
    """Per-tap einsum cross-correlation: (out, dx, dw) for output gradient g."""
    batch, c_in, length = x.shape
    c_out, _, ksz = w.shape
    l_out = (length + 2 * padding - ksz) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    out = np.zeros((batch, c_out, l_out))
    dxp = np.zeros_like(xp)
    dw = np.empty_like(w)
    for k in range(ksz):
        window = xp[:, :, k:k + stride * l_out:stride]
        out += np.einsum("bcl,oc->bol", window, w[:, :, k])
        dxp[:, :, k:k + stride * l_out:stride] += np.einsum("bol,oc->bcl", g, w[:, :, k])
        dw[:, :, k] = np.einsum("bol,bcl->oc", g, window)
    return out, dxp[:, :, padding:padding + length], dw


class AdamReference:
    """Per-tensor Adam that allocates its temporaries: the textbook expression."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.eps = params, lr, eps
        self.beta1, self.beta2 = betas
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@st.composite
def conv_cases(draw):
    c_in, c_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride, padding = draw(st.sampled_from((1, 2))), draw(st.sampled_from((0, 1)))
    length = draw(st.integers(max(1, 3 - 2 * padding), 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((draw(st.integers(1, 4)), c_in, length))
    w = rng.standard_normal((c_out, c_in, 3))
    return x, w, stride, padding, rng


@PROPERTY
@given(conv_cases())
def test_conv1d_matches_per_tap_reference(case):
    x0, w0, stride, padding, rng = case
    x, w = ad.Tensor(x0, requires_grad=True), ad.Tensor(w0, requires_grad=True)
    with ad.Tape() as tape:
        out = reference.conv1d(x, w, stride=stride, padding=padding)
        g = rng.standard_normal(out.data.shape)
        loss = weighted_sum(out, g)          # so x.grad and w.grad are the pulls of g
    tape.backward(loss)
    ref_out, ref_dx, ref_dw = conv1d_reference(x0, w0, g, stride, padding)
    for got, ref in ((out.data, ref_out), (x.grad, ref_dx), (w.grad, ref_dw)):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("kernel", KERNELS)
@PROPERTY
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 40)), min_size=1, max_size=5),
       st.integers(0, 2 ** 32 - 1), st.sampled_from((7, ad.Adam.BLOCK)))
def test_flat_adam_bit_identical_to_per_tensor_reference(kernel, shapes, seed, block):
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape) for shape in shapes]
    flat = OrderedDict((f"t{i}", ad.Tensor(v.copy(), requires_grad=True)) for i, v in enumerate(values))
    ref = OrderedDict((f"t{i}", ad.Tensor(v.copy(), requires_grad=True)) for i, v in enumerate(values))
    blocked_adam = type("BlockedAdam", (ad.Adam,), {"BLOCK": block})   # 7 splits tensors
    opt = adam_on(kernel, flat.values(), blocked_adam, lr=0.01)
    ref_opt = AdamReference(ref, lr=0.01)
    for step in range(3):
        for i, shape in enumerate(shapes):
            g = None if (i + step) % 4 == 3 else rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
            flat[f"t{i}"].grad = ref[f"t{i}"].grad = g
        opt.step()
        ref_opt.step()
        for name in flat:
            assert flat[name].data.tobytes() == ref[name].data.tobytes()


SUBNORMALS = np.array([5e-324, -5e-324, 2.2e-308, -1e-310, 1e-320])


@NO_CC
@PROPERTY
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 30)), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1), st.lists(st.floats(1e-5, 0.1), min_size=5, max_size=5))
def test_compiled_adam_writes_the_numpy_kernels_bytes(shapes, seed, lrs):
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape) for shape in shapes]
    for v in values:                                   # subnormal and signed-zero parameters
        v[rng.random(v.shape) < 0.2] = rng.choice([*SUBNORMALS, -0.0])
    sides = [OrderedDict((f"t{i}", ad.Tensor(v.copy(), requires_grad=True))
                         for i, v in enumerate(values)) for _ in range(2)]
    opts = [adam_on(kernel, side.values(), lr=lrs[0])
            for kernel, side in zip(("c", "numpy"), sides)]
    for step, lr in enumerate(lrs):
        for i, (rows, cols) in enumerate(shapes):
            g = None
            if (i + step) % 4 != 3:
                g = rng.standard_normal((cols, rows)).T        # strided when rows, cols > 1
                g *= 10.0 ** rng.uniform(-8, 2, g.shape)
                g[rng.random(g.shape) < 0.2] = rng.choice(SUBNORMALS)
            for side in sides:
                side[f"t{i}"].grad = g
        for opt in opts:
            opt.lr = lr                                # as the trainer's lr_decay does
            opt.step()
        for name in sides[0]:
            assert sides[0][name].data.tobytes() == sides[1][name].data.tobytes()
        assert opts[0]._m.tobytes() == opts[1]._m.tobytes()
        assert opts[0]._v.tobytes() == opts[1]._v.tobytes()


def test_failing_compiler_warns_and_leaves_the_numpy_kernel(tmp_path, monkeypatch):
    cc = tmp_path / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: out of licences' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.warns(RuntimeWarning, match="out of licences") as record:
        assert kernels.build.__wrapped__() == (None, None)     # the uncached build
    assert len(record) == 1


def small_model():
    """About 1.2 M parameters: bf0.w and pw0.w are 1024 x 512."""
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=16)
    return cfg, init_params(cfg, np.random.default_rng(3))


class TestFlatParameters:
    def test_tensors_view_the_flat_vector_in_spec_order(self):
        """The parameters in spec order, then each batch-norm run_mean and run_var."""
        _, params = small_model()
        buffers = [a for st_ in params.bn_states.values() for a in (st_.mean, st_.var)]
        arrays = [t.data for t in params.tensors.values()] + buffers
        flat = params.flat
        assert {id(a.base) for a in arrays} == {id(flat)}     # init wrote into the views
        assert flat.size == sum(a.size for a in arrays)
        assert [id(a) for a in params.arrays.values()] == [id(a) for a in arrays]
        offset = 0
        for a in arrays:
            assert a.base is flat
            np.testing.assert_array_equal(flat[offset:offset + a.size], a.ravel())
            offset += a.size

    def test_write_through_tensor_shows_in_flat(self):
        _, params = small_model()
        params.tensors["bf1.b"].data[3] = 123.5
        assert np.count_nonzero(params.flat == 123.5) == 1

    def test_copy_shares_no_memory(self):
        _, params = small_model()
        dup = params.copy()
        assert not np.shares_memory(dup.flat, params.flat)
        for name, t in params.tensors.items():
            assert not np.shares_memory(dup.tensors[name].data, t.data)
            np.testing.assert_array_equal(dup.tensors[name].data, t.data)
        for name, st_ in params.bn_states.items():
            assert not np.shares_memory(dup.bn_states[name].mean, st_.mean)
            assert dup.bn_states[name].mean.base is dup.flat
        dup.tensors["bf0.w"].data[0, 0] += 1.0
        assert dup.tensors["bf0.w"].data[0, 0] != params.tensors["bf0.w"].data[0, 0]

    def test_copy_into_existing_params(self):
        cfg, params = small_model()
        target = init_params(cfg, np.random.default_rng(8))
        flat = target.flat
        assert params.copy(out=target) is target
        assert target.flat is flat and not np.shares_memory(flat, params.flat)
        np.testing.assert_array_equal(flat, params.flat)
        with pytest.raises(ValueError, match="different parameter layout"):
            params.copy(out=init_params(ModelConfig(m_tx=2, n_ue=2, k_sc=8), np.random.default_rng(0)))

    def test_training_and_loading_keep_every_tensor_a_view_of_flat(self, tmp_path):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(16,), fc_widths_pw=(16,))
        params = init_params(cfg, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        ds = ChannelDataset(h=random_channels(rng, 10, cfg),
                            ue_snr_offset_db=np.zeros((10, cfg.n_ue)), profile="TDL-A",
                            delay_spread_ns=30.0, jitter_db=0.0, seed=0)
        tc = TrainConfig(epochs=2, batch_size=4, seed=11, val_fraction=0.2, snr_sampling="fixed")
        best, _ = train(cfg, params, ds, tc)
        save_checkpoint(tmp_path / "m.ckpt", cfg, best)
        _, loaded = load_checkpoint(tmp_path / "m.ckpt")
        for p in (params, best, loaded):
            assert all(t.data.base is p.flat for t in p.tensors.values())


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", KERNELS)
def test_adam_step_allocates_less_than_one_parameter_vector(kernel):
    _, params = small_model()
    rng = np.random.default_rng(4)
    opt = adam_on(kernel, params.tensors.values(), lr=1e-3)
    for t in params.tensors.values():
        t.grad = rng.standard_normal(t.data.shape)
    opt.step()
    peak = traced_peak(opt.step)
    assert peak < params.flat.nbytes, f"Adam.step peak {peak} B, parameters {params.flat.nbytes} B"


def test_save_checkpoint_allocates_less_than_one_payload(tmp_path):
    cfg, params = small_model()
    payload = params.flat.nbytes
    peak = traced_peak(lambda: save_checkpoint(tmp_path / "m.ckpt", cfg, params))
    assert peak < payload, f"save_checkpoint peak {peak} B, payload {payload} B"


def test_load_checkpoint_allocates_about_one_payload(tmp_path):
    """The load maps the file, so its allocations are a small fraction of the payload."""
    cfg, params = small_model()
    payload = params.flat.nbytes
    save_checkpoint(tmp_path / "m.ckpt", cfg, params)
    peak = traced_peak(lambda: load_checkpoint(tmp_path / "m.ckpt"))
    assert peak < 0.05 * payload, f"load_checkpoint peak {peak} B, payload {payload} B"


def random_channels(rng, count, cfg):
    shape = (count, cfg.k_sc, cfg.m_tx, cfg.n_ue)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def test_backward_frees_activations_and_leaves_grads_on_leaves_only(monkeypatch):
    cfg, params = small_model()
    h = random_channels(np.random.default_rng(5), 4, cfg)
    activations = []

    def recording(op):
        def record(*args, **kwargs):
            out = op(*args, **kwargs)
            activations.append(weakref.ref(out.data))
            return out
        return record

    for name in ("gelu", "conv_bn_gelu"):            # 2 head GELUs, 3 backbone blocks
        monkeypatch.setattr(ad, name, recording(getattr(ad, name)))
    with ad.Tape() as tape:
        w, p = forward_graph(h, params, cfg, training=True)
        loss = metrics.neg_sum_rate_graph(w, h, p, np.ones((4, cfg.n_ue)))
    assert len(activations) == 5 and all(ref() is not None for ref in activations)
    tape.backward(loss)
    # the beam head's GELU output is the x factor of bf1.w's gradient; pw1.w's
    # gradient (2 x 1024 at B = 4) is cheaper dense, so the power head's is freed
    assert [ref() is None for ref in activations] == [True, True, True, False, True]
    assert isinstance(params.tensors["bf1.w"].raw_grad, ad.FactoredGrad)
    assert isinstance(params.tensors["pw1.w"].raw_grad, np.ndarray)
    assert [t.grad for t in (loss, w, p)] == [None] * 3
    assert all(t.grad is not None for t in params.tensors.values())
    assert activations[3]() is None                  # reading .grad formed the product


def test_backward_check_and_adam_step_allocate_less_than_the_largest_weight():
    """No weight-sized gradient exists: the head's first-layer gradients stay
    factored through the divergence check and are formed in row blocks by
    Adam.step."""
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=48)     # bf0.w and pw0.w: 1024 x 1536, 12 MiB each
    params = init_params(cfg, np.random.default_rng(15))
    h = random_channels(np.random.default_rng(16), 4, cfg)
    opt = ad.Adam(params.tensors.values(), lr=1e-3)

    def forward():
        with ad.Tape() as tape:
            w, p = forward_graph(h, params, cfg, training=True)
            loss = metrics.neg_sum_rate_graph(w, h, p, np.ones((4, cfg.n_ue)))
        return tape, loss

    def step(tape, loss):
        tape.backward(loss)
        assert _grad_norm_is_finite(params)
        opt.step()

    step(*forward())                                 # sizes Adam's row-block buffer
    opt.zero_grad()
    tape, loss = forward()
    peak = traced_peak(lambda: step(tape, loss))
    weight = params.tensors["bf0.w"].data.nbytes
    assert peak < weight, f"backward, check and step peak {peak} B, bf0.w {weight} B"


def test_one_epoch_of_training_allocates_under_four_and_a_quarter_parameter_vectors():
    cfg, params = small_model()
    rng = np.random.default_rng(6)
    ds = ChannelDataset(h=random_channels(rng, 10, cfg), ue_snr_offset_db=np.zeros((10, cfg.n_ue)),
                        profile="TDL-A", delay_spread_ns=30.0, jitter_db=0.0, seed=0)
    tc = TrainConfig(epochs=1, batch_size=8, seed=7, val_fraction=0.2, snr_sampling="fixed")
    vector = params.flat.nbytes
    peak = traced_peak(lambda: train(cfg, params, ds, tc))
    assert peak < 4.25 * vector, f"train peak {peak / vector:.2f} parameter vectors"


@pytest.mark.parametrize("f_ins", [
    st.integers(1, 300),                       # one block, or dense where F_in % 8 != 0
    st.integers(ad.GRAD_BLOCK // 512, ad.GRAD_BLOCK // 64 + 8).map(lambda k: 8 * k),
], ids=["one_block", "blocks_of_64_to_8_rows"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(1, 72), st.data(), st.integers(0, 2 ** 32 - 1))
def test_factored_weight_gradient_row_blocks_are_rows_of_the_product(f_ins, batch, f_out, data,
                                                                      seed):
    """F_out need not be a multiple of the block or of 8. Each block is those
    rows of g.T @ x, bit for bit, and .grad is g.T @ x itself."""
    f_in = data.draw(f_ins)
    rng = np.random.default_rng(seed)
    x0, g = rng.standard_normal((batch, f_in)), rng.standard_normal((batch, f_out))
    x, w = ad.Tensor(x0, requires_grad=True), ad.Tensor(rng.standard_normal((f_out, f_in)),
                                                        requires_grad=True)
    with ad.Tape() as tape:
        loss = weighted_sum(ad.linear(x, w), g)      # so the pull's g is g
    tape.backward(loss)
    want = g.T @ x0
    grad = w.raw_grad
    factored = f_in % 8 == 0 and batch * (f_in + f_out) < f_in * f_out
    assert isinstance(grad, ad.FactoredGrad) == factored
    if factored:
        assert grad.shape == w.data.shape and grad.rows % 8 == 0
        covered = 0
        for lo, block in grad.row_blocks(np.empty(grad.block_size)):
            assert lo == covered and (len(block) > 1 or f_out == 1)
            assert block.tobytes() == want[lo:lo + len(block)].tobytes()
            covered += len(block)
        assert covered == f_out
    assert w.grad.tobytes() == want.tobytes()
    assert not isinstance(w.raw_grad, ad.FactoredGrad)      # formed once, then kept


def test_fan_out_and_a_second_backward_sum_factored_gradients_in_order():
    """w feeds three linear ops: the backward visits them last to first and
    adds their products in that order; a second backward adds to .grad."""
    rng = np.random.default_rng(8)
    w = ad.Tensor(rng.standard_normal((96, 64)), requires_grad=True)
    xs = [rng.standard_normal((4, 64)) for _ in range(4)]
    gs = [rng.standard_normal((4, 96)) for _ in range(4)]
    with ad.Tape() as tape:
        outs = tuple(ad.linear(x, w) for x in xs[:3])
        loss = ad.make_op(sum((o.data * g).sum() for o, g in zip(outs, gs)), outs,
                          lambda s: tuple(s * g for g in gs[:3]))
    tape.backward(loss)
    want = (gs[2].T @ xs[2] + gs[1].T @ xs[1]) + gs[0].T @ xs[0]
    assert w.grad.tobytes() == want.tobytes()
    with ad.Tape() as tape:
        loss = weighted_sum(ad.linear(xs[3], w), gs[3])
    tape.backward(loss)
    assert isinstance(w.raw_grad, np.ndarray)
    assert w.grad.tobytes() == (want + gs[3].T @ xs[3]).tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("joint", [False, True], ids=["NNBF", "NNBF-P"])
def test_training_through_factored_gradients_writes_the_bytes_of_formed_ones(
        monkeypatch, kernel, joint):
    """3 epochs of the exp01-desk model, against a reference step that reads
    every .grad as an array before Adam.step."""
    cfg = ModelConfig(m_tx=4, n_ue=4, k_sc=8, joint_power=joint)
    rng = np.random.default_rng(12)
    ds = ChannelDataset(h=random_channels(rng, 40, cfg), ue_snr_offset_db=rng.uniform(-6, 6, (40, 4)),
                        profile="TDL-A", delay_spread_ns=30.0, jitter_db=0.0, seed=0)
    tc = TrainConfig(epochs=3, batch_size=16, seed=13, val_fraction=0.1)
    real_step = ad.Adam.step
    runs = []
    for formed in (False, True):
        factored = []

        def step(opt):
            if kernel == "numpy":
                opt._kernel = None
            assert opt.kernel == kernel
            factored.append(sum(isinstance(t.raw_grad, ad.FactoredGrad) for t in opt.tensors))
            if formed:
                for t in opt.tensors:
                    assert t.grad is not None          # reading .grad forms the array
            real_step(opt)

        monkeypatch.setattr(ad.Adam, "step", step)
        params = init_params(cfg, np.random.default_rng(14))
        best, report = train(cfg, params, ds, tc)
        assert min(factored) == (3 if joint else 2)    # bf0.w, bf1.w and, for NNBF-P, pw0.w
        runs.append([p.flat.tobytes() for p in (params, best)]
                    + [np.array(report.train_loss).tobytes(), np.array(report.val_loss).tobytes(),
                       report.best_epoch, report.best_val_loss])
    assert runs[0] == runs[1]
