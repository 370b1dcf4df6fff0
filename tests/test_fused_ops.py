"""The fused ops of the training step against the ops they replace:
conv_bn_gelu against conv1d -> batchnorm1d -> gelu, models.unit_beams against
the beam normalization in plain numpy and finite differences, and the loss op
metrics.neg_sum_rate_graph against per_sample_sum_rates and finite
differences."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamopt import autodiff as ad
from beamopt import metrics, reference
from beamopt.models import (NORM_FLOOR, ModelConfig, channel_to_input, forward_graph,
                            init_params, unit_beams)
from beamopt.verify import weighted_sum

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def block_cases(draw):
    c_in, c_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride, training = draw(st.sampled_from((1, 2))), draw(st.booleans())
    rows, length = draw(st.integers(1, 4)), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return c_in, c_out, stride, training, rows, length, rng


def run_block(fused, x_cl, w, gamma, beta, state, training, stride, mixer_cl):
    """Output (rows, L, C), the four gradients (dx channels-last) of sum(out * mixer)."""
    leaves = [ad.Tensor(a.copy(), requires_grad=True) for a in (x_cl, w, gamma, beta)]
    x, wt, g, b = leaves
    with ad.Tape() as tape:
        if fused:
            out = ad.conv_bn_gelu(x, wt, g, b, state, training=training, stride=stride,
                                  padding=1)
            loss = weighted_sum(out, mixer_cl)
        else:
            x_cf = ad.Tensor(x_cl.transpose(0, 2, 1).copy(), requires_grad=True)
            conv = reference.conv1d(x_cf, wt, stride=stride, padding=1)
            out = ad.gelu(reference.batchnorm1d(conv, g, b, state, training=training))
            loss = weighted_sum(out, mixer_cl.transpose(0, 2, 1))
            leaves[0] = x_cf
    tape.backward(loss)
    if fused:
        return out.data, leaves[0].grad, wt.grad, g.grad, b.grad
    return (out.data.transpose(0, 2, 1), leaves[0].grad.transpose(0, 2, 1),
            wt.grad, g.grad, b.grad)


@PROPERTY
@given(block_cases())
def test_conv_bn_gelu_matches_the_three_reference_ops(case):
    c_in, c_out, stride, training, rows, length, rng = case
    x = rng.standard_normal((rows, length, c_in)) * rng.uniform(0.1, 3.0)
    w = rng.standard_normal((c_out, c_in, 3))
    gamma, beta = rng.uniform(0.5, 1.5, c_out), rng.standard_normal(c_out)
    l_out = (length + 2 - 3) // stride + 1
    if training and rows * l_out < 2:
        return
    mixer = rng.standard_normal((rows, l_out, c_out))
    start = ad.BatchNormState(rng.standard_normal(c_out), rng.uniform(0.5, 2.0, c_out))
    fused_state, ref_state = start.copy(), start.copy()
    got = run_block(True, x, w, gamma, beta, fused_state, training, stride, mixer)
    ref = run_block(False, x, w, gamma, beta, ref_state, training, stride, mixer)
    for name, a, b in zip(("out", "dx", "dw", "dgamma", "dbeta"), got, ref):
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(b).max()),
                                   err_msg=name)
    for a, b in ((fused_state.mean, ref_state.mean), (fused_state.var, ref_state.var)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
    if not training:
        assert fused_state.mean.tobytes() == start.mean.tobytes()


def test_conv_bn_gelu_rejects_bad_shapes():
    x = ad.Tensor(np.zeros((2, 8, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.conv_bn_gelu(x, ad.Tensor(np.zeros((4, 2, 3))), np.ones(4), np.zeros(4),
                        ad.BatchNormState.fresh(4), training=True)
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.conv_bn_gelu(x, ad.Tensor(np.zeros((4, 3, 3))), np.ones(3), np.zeros(4),
                        ad.BatchNormState.fresh(4), training=True)
    with pytest.raises(ValueError, match="more than one element"):
        ad.conv_bn_gelu(ad.Tensor(np.zeros((1, 1, 3))), ad.Tensor(np.zeros((4, 3, 3))),
                        np.ones(4), np.zeros(4), ad.BatchNormState.fresh(4), training=True,
                        padding=1)


@st.composite
def rate_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 5))
    b, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.standard_normal((b, k, m, n)) + 1j * rng.standard_normal((b, k, m, n))
    return (h, rng.standard_normal((b, k, m, n, 2)), rng.uniform(0.1, 2.0, (b, n)),
            rng.uniform(0.2, 3.0, (b, n)), rng)


@PROPERTY
@given(rate_cases())
def test_neg_sum_rate_forward_is_bit_equal_to_minus_mean_per_sample_sum_rates(case):
    h, w, p, sigma2, _ = case
    loss = metrics.neg_sum_rate_graph(ad.Tensor(w), h, ad.Tensor(p), sigma2)
    expected = -metrics.per_sample_sum_rates(metrics.as_complex(w), h, p, sigma2).mean()
    assert loss.data.shape == () and loss.data.tobytes() == expected.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rate_cases())
def test_neg_sum_rate_vjp_matches_finite_differences(case):
    h, w0, p0, sigma2, _ = case
    w, p = (ad.Tensor(a.copy(), requires_grad=True) for a in (w0, p0))
    with ad.Tape() as tape:
        loss = metrics.neg_sum_rate_graph(w, h, p, sigma2)
    tape.backward(loss)

    def value(args):
        return -float(metrics.per_sample_sum_rates(metrics.as_complex(args[0]), h, args[1],
                                                   sigma2).mean())

    for which, grad in enumerate((w.grad, p.grad)):
        assert grad.shape == (w0, p0)[which].shape
        numeric = np.empty(grad.size)
        for i in range(grad.size):
            hi, lo = [w0.copy(), p0.copy()], [w0.copy(), p0.copy()]
            hi[which].flat[i] += 1e-6
            lo[which].flat[i] -= 1e-6
            numeric[i] = (value(hi) - value(lo)) / 2e-6
        scale = max(np.abs(numeric).max(), 1e-3 / h.shape[0])
        assert np.abs(grad.ravel() - numeric).max() <= 1e-5 * scale


def test_as_complex_views_the_re_im_axis():
    w = np.random.default_rng(4).standard_normal((2, 3, 2, 2, 2))
    z = metrics.as_complex(w)
    assert z.shape == (2, 3, 2, 2) and np.shares_memory(z, w)
    np.testing.assert_array_equal(z, w[..., 0] + 1j * w[..., 1])


def unit_beams_reference(raw, shape):
    """The beam normalization unit_beams replaces, in the expression order of the
    primitive ops it was built from: (B, K, M, N) real and imaginary parts."""
    x = raw.reshape(*shape, 2)
    wr_raw, wi_raw = x[..., 0], x[..., 1]
    norm = np.sqrt((wr_raw * wr_raw + wi_raw * wi_raw).sum(axis=2, keepdims=True))
    scale = 1.0 / (norm + NORM_FLOOR)
    return wr_raw * scale, wi_raw * scale


@st.composite
def beam_cases(draw):
    b, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((b, k, m, n, 2))
    # each column over M rescaled to a norm log-uniform in [1e-6, 1e3]
    col = np.sqrt((x * x).sum(axis=(2, 4), keepdims=True))
    x *= 10.0 ** rng.uniform(-6.0, 3.0, col.shape) / col
    return x.reshape(b, -1), (b, k, m, n), rng


@PROPERTY
@given(beam_cases())
def test_unit_beams_forward_is_bit_equal_to_the_primitive_composition(case):
    raw, shape, _ = case
    out = unit_beams(ad.Tensor(raw), shape).data
    assert out.shape == (*shape, 2)
    wr, wi = unit_beams_reference(raw, shape)
    assert out[..., 0].tobytes() == wr.tobytes() and out[..., 1].tobytes() == wi.tobytes()
    col = np.linalg.norm(metrics.as_complex(raw.reshape(*shape, 2)), axis=2)
    np.testing.assert_allclose(np.linalg.norm(metrics.as_complex(out), axis=2),
                               col / (col + NORM_FLOOR), rtol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(beam_cases())
def test_unit_beams_vjp_matches_finite_differences(case):
    raw0, shape, rng = case
    mixer = rng.standard_normal((*shape, 2))
    raw = ad.Tensor(raw0.copy(), requires_grad=True)
    with ad.Tape() as tape:
        loss = weighted_sum(unit_beams(raw, shape), mixer)
    tape.backward(loss)
    assert raw.grad.shape == raw0.shape

    def value(x):
        return float((unit_beams(ad.Tensor(x), shape).data * mixer).sum())

    # the gradient scales as 1 / ||column||: step and error are taken per column
    x = raw0.reshape(*shape, 2)
    col = np.broadcast_to(np.sqrt((x * x).sum(axis=(2, 4), keepdims=True)), x.shape).ravel()
    numeric = np.empty(raw0.size)
    for i in range(raw0.size):
        step = 1e-6 * col[i]
        hi, lo = raw0.copy(), raw0.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        numeric[i] = (value(hi) - value(lo)) / (2 * step)
    analytic = raw.grad.reshape(*shape, 2).ravel()
    scaled_err = np.abs(analytic - numeric) * col
    assert scaled_err.max() <= 1e-6 * np.abs(mixer).max()


def test_unit_beams_maps_a_zero_column_to_finite_zeros():
    """The forward is zero there and the pull is its limit g s, s = 1 / NORM_FLOOR."""
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((2, 3, 4, 2, 2))
    raw[1, 2, :, 0] = 0.0
    mixer = rng.standard_normal(raw.shape)
    t = ad.Tensor(raw.reshape(2, -1), requires_grad=True)
    with ad.Tape() as tape:
        y = unit_beams(t, (2, 3, 4, 2))
        loss = weighted_sum(y, mixer)
    tape.backward(loss)
    out = y.data
    assert np.isfinite(out).all()
    assert not out[1, 2, :, 0].any()
    norms = np.linalg.norm(metrics.as_complex(out), axis=2)
    norms[1, 2, 0] += 1.0
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    grad = t.grad.reshape(raw.shape)
    assert np.isfinite(grad).all()
    g = mixer[1, 2, :, 0]                               # the gradient at the zero column
    np.testing.assert_array_equal(grad[1, 2, :, 0], g * (1.0 / NORM_FLOOR))    # its limit g s


def test_desk_training_step_records_13_ops():
    """NNBF-P at the exp01-desk shape (M=N=4, K=8, B=16): 3 blocks, 1 flatten,
    6 head ops (linear, GELU, linear per head), unit_beams, power_split and
    the loss op; each record is named by the op whose pull it holds."""
    cfg = ModelConfig(m_tx=4, n_ue=4, k_sc=8)
    params = init_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    h = rng.standard_normal((16, 8, 4, 4)) + 1j * rng.standard_normal((16, 8, 4, 4))
    with ad.Tape() as tape:
        w, p = forward_graph(h, params, cfg, training=True)
        loss = metrics.neg_sum_rate_graph(w, h, p, np.ones((16, 4)))
    ops = Counter(pull.__qualname__.split(".")[0] for _, _, pull in tape._records)
    assert ops == {"conv_bn_gelu": 3, "flatten_groups": 1, "linear": 4, "gelu": 2,
                   "unit_beams": 1, "power_split": 1, "neg_sum_rate_graph": 1}
    assert len(tape._records) == 13
    tape.backward(loss)
    assert all(t.grad is not None for t in params.tensors.values())


def test_recorded_backbone_holds_cols_and_four_activations_per_block():
    """Each recorded block keeps its output plus cols, xhat, z and cdf: at most
    the im2col matrix and four output-sized arrays."""
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=16)
    params = init_params(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    h = rng.standard_normal((8, 16, 2, 2)) + 1j * rng.standard_normal((8, 16, 2, 2))
    x = ad.Tensor(channel_to_input(h))
    rows, length = x.data.shape[:2]
    bound = 0
    for c_in, c_out, down in cfg.bb_spec:
        length //= 2 if down else 1
        bound += 8 * rows * length * (3 * c_in + 4 * c_out)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            y = x
            for i, (_, _, down) in enumerate(cfg.bb_spec):
                y = ad.conv_bn_gelu(y, params.tensors[f"bb{i}.conv.w"],
                                    params.tensors[f"bb{i}.bn.gamma"],
                                    params.tensors[f"bb{i}.bn.beta"],
                                    params.bn_states[f"bb{i}.bn"], training=True,
                                    stride=2 if down else 1, padding=1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape._records) == 3
    assert held < 1.05 * bound + 64 * 1024, f"backbone holds {held} B, bound {bound} B"
