import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from beamopt import autodiff as ad
from beamopt.models import power_split
from beamopt.reference import batchnorm1d, conv1d
from beamopt.verify import weighted_sum


def fd_gradient(f, x0, step=1e-6):
    """Central differences, written independently of the library's checker."""
    g = np.empty_like(x0)
    for i in range(x0.size):
        hi, lo = x0.copy(), x0.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        g.flat[i] = (f(hi) - f(lo)) / (2 * step)
    return g


def assert_grad_close(build, x0, rel=1e-5):
    """build maps a Tensor to a scalar Tensor; compare tape grad with FD."""
    t = ad.Tensor(x0.copy(), requires_grad=True)
    with ad.Tape() as tape:
        out = build(t)
    tape.backward(out)
    numeric = fd_gradient(lambda x: build(ad.Tensor(x)).item(), x0)
    denom = max(np.max(np.abs(numeric)), np.max(np.abs(t.grad)), 1e-12)
    assert np.max(np.abs(t.grad - numeric)) / denom <= rel


class TestTape:
    def test_identity_gradient(self):
        x = ad.Tensor(np.array([3.0, -1.0]), requires_grad=True)
        with ad.Tape() as tape:
            y = weighted_sum(x, [0.5, 2.0])
        tape.backward(y)
        np.testing.assert_array_equal(x.grad, [0.5, 2.0])

    def test_sum_of_squares(self):
        x = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.linear(x, x)                    # x x^T, x is both operands
        tape.backward(y)
        np.testing.assert_array_equal(x.grad, [[2.0, 4.0]])

    def test_fanout_accumulates(self):
        x = ad.Tensor(np.array([[2.0]]), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.linear(ad.linear(x, x), x)      # x^3, x used by three operands
        tape.backward(y)
        np.testing.assert_array_equal(x.grad, [[12.0]])

    def test_pull_runs_once_per_backward(self):
        """One call of an op's pull gives every input its gradient; an input
        that needs none gets None and is left alone."""
        a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = ad.Tensor(np.array([3.0, 4.0]), requires_grad=True)
        c = ad.Tensor(np.array([5.0, 6.0]))
        calls = []

        def pull(g):
            calls.append(g)
            return g * b.data * c.data, g * a.data * c.data, None

        with ad.Tape() as tape:
            y = ad.make_op((a.data * b.data * c.data).sum(), (a, b, c), pull)
        tape.backward(y)
        assert len(calls) == 1
        np.testing.assert_array_equal(a.grad, [15.0, 24.0])
        np.testing.assert_array_equal(b.grad, [5.0, 12.0])
        assert c.grad is None

    def test_pull_with_wrong_gradient_count_raises(self):
        a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = ad.Tensor(np.array([3.0, 4.0]), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.make_op((a.data * b.data).sum(), (a, b), lambda g: (g * b.data,))
        with pytest.raises(ValueError, match="zip"):
            tape.backward(y)

    def test_backward_before_forward_errors(self):
        x = ad.Tensor(np.array([1.0]), requires_grad=True)
        with ad.Tape() as tape:
            pass
        with pytest.raises(RuntimeError, match="backward before forward"):
            tape.backward(x)

    def test_double_backward_errors(self):
        x = ad.Tensor(np.array([1.0]), requires_grad=True)
        with ad.Tape() as tape:
            y = weighted_sum(x, 1.0)
        tape.backward(y)
        with pytest.raises(RuntimeError, match="consumed"):
            tape.backward(y)

    def test_non_scalar_output_rejected(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.gelu(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_no_tape_means_no_recording(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = ad.gelu(x)
        assert y.requires_grad is False

    def test_grad_accumulates_across_backwards(self):
        x = ad.Tensor(np.array([1.0]), requires_grad=True)
        for _ in range(2):
            with ad.Tape() as tape:
                y = weighted_sum(x, 3.0)
            tape.backward(y)
        np.testing.assert_array_equal(x.grad, [6.0])


class TestGelu:
    def test_zero(self):
        assert ad.gelu(ad.Tensor(np.array([0.0]))).data[0] == 0.0

    def test_value_at_one(self):
        # 1 * Phi(1) with Phi the standard normal CDF
        expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert ad.gelu(ad.Tensor(np.array([1.0]))).data[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.841345, abs=1e-6)

    def test_asymptotics(self):
        y = ad.gelu(ad.Tensor(np.array([10.0, -10.0]))).data
        assert abs(y[0] - 10.0) < 1e-6
        assert abs(y[1]) < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            assert_grad_close(lambda t: weighted_sum(ad.gelu(t), 1.0), rng.standard_normal(8) * 2)


def erf_ulps_from_scipy(x) -> np.ndarray:
    """Per-value ulp distance of ad._erf from scipy.special.erf, computed with
    every floating-point warning raised as an error; NaN must map to NaN and
    every other value must keep scipy's sign bit."""
    x = np.asarray(x, dtype=np.float64)
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        got = ad._erf(x)
    want = scipy_special.erf(x)
    assert got.shape == x.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))
    return np.abs(got[~nan].view(np.int64) - want[~nan].view(np.int64))


def _around(*points):
    """Each point, its float neighbours and its negation."""
    near = [np.nextafter(p, d) for p in points for d in (-np.inf, np.inf)]
    values = np.array(list(points) + near)
    return np.concatenate([values, -values])


class TestErf:
    """The numpy Cephes port against scipy.special.erf, which evaluates the same rationals."""

    def test_dense_grid(self):
        grid = np.linspace(-30.0, 30.0, 600_001)       # spans many _ERF_BLOCK blocks
        ulps = erf_ulps_from_scipy(grid)
        assert ulps.max() <= 1
        assert (ulps == 0).mean() > 0.9

    def test_branch_edges_and_specials(self):
        tiny, subnormal = np.finfo(float).tiny, np.finfo(float).smallest_subnormal
        x = np.concatenate([
            _around(1.0, 8.0, math.sqrt(ad._MAXLOG), 27.0, 1e-8, tiny),
            [0.0, -0.0, subnormal, -subnormal, tiny / 3, -tiny / 3, 1e300, -1e300,
             np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan]])
        assert erf_ulps_from_scipy(x).max() <= 1
        zeros = ad._erf(np.array([0.0, -0.0]))
        assert zeros.tolist() == [0.0, 0.0] and np.signbit(zeros).tolist() == [False, True]
        np.testing.assert_array_equal(ad._erf(np.array([1e300, -1e300, np.inf, -np.inf])),
                                      [1.0, -1.0, 1.0, -1.0])

    def test_erfc_branches_against_scipy_erfc(self):
        # erf is exactly +-1 from |x| ~ 6 on, so the R/S rational and the MAXLOG
        # cut-off show only in erfc itself
        root = math.sqrt(ad._MAXLOG)
        x = np.concatenate([np.linspace(1.0, 30.0, 290_001)[1:],
                            _around(8.0, root, 27.0)[:9], [1e300, np.inf]])
        got, want = ad._erfc_above_one(x), scipy_special.erfc(x)
        assert np.all(np.abs(got.view(np.int64) - want.view(np.int64)) <= 4)
        assert np.all(got[x > root] == 0.0) and np.all(got[x <= root] > 0.0)

    def test_shape_and_layout_preserved(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        np.testing.assert_array_equal(ad._erf(x[:, ::2].transpose(2, 0, 1)),
                                      scipy_special.erf(x[:, ::2].transpose(2, 0, 1)))
        assert ad._erf(np.array(0.5)).shape == ()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_property_within_one_ulp(self, values):
        assert np.all(erf_ulps_from_scipy(values) <= 1)


class TestSoftmax:
    """models.power_split, the power head's softmax over each row times N."""

    def test_uniform_row(self):
        out = power_split(np.zeros((2, 4)), 4).data
        np.testing.assert_array_equal(out, np.ones((2, 4)))

    def test_closed_form(self):
        out = power_split(np.array([[0.0, math.log(3.0)]]), 2).data
        np.testing.assert_allclose(out, [[0.5, 1.5]], atol=1e-15)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((16, 5)) * 50
        y = power_split(x, 5).data / 5.0
        np.testing.assert_allclose(y.sum(axis=1), np.ones(16), atol=1e-15)
        y_shift = power_split(x + 1000.0, 5).data / 5.0
        np.testing.assert_allclose(y, y_shift, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        mixer = rng.standard_normal((3, 5))
        for _ in range(20):
            x0 = rng.standard_normal((3, 5))
            assert_grad_close(lambda t: weighted_sum(power_split(t, 5), mixer), x0)


class TestLinear:
    def test_identity_weights(self):
        x = ad.Tensor(np.array([[1.0, 2.0]]))
        out = ad.linear(x, ad.Tensor(np.eye(2)), ad.Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_hand_example(self):
        out = ad.linear(ad.Tensor(np.array([[1.0, 2.0]])),
                        ad.Tensor(np.array([[1.0, 1.0]])), ad.Tensor(np.array([1.0])))
        np.testing.assert_array_equal(out.data, [[4.0]])

    def test_gradients_all_arguments(self):
        rng = np.random.default_rng(10)
        x0 = rng.standard_normal((4, 3))
        w0 = rng.standard_normal((2, 3))
        b0 = rng.standard_normal(2)
        mixer = rng.standard_normal((4, 2))

        def probe(x, w, b):
            return weighted_sum(ad.linear(x, w, b), mixer)

        assert_grad_close(lambda t: probe(t, ad.Tensor(w0), ad.Tensor(b0)), x0)
        assert_grad_close(lambda t: probe(ad.Tensor(x0), t, ad.Tensor(b0)), w0)
        assert_grad_close(lambda t: probe(ad.Tensor(x0), ad.Tensor(w0), t), b0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="linear shape mismatch"):
            ad.linear(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))


class TestConv1d:
    def test_identity_kernel(self):
        x = ad.Tensor(np.arange(6.0).reshape(1, 1, 6))
        w = ad.Tensor(np.ones((1, 1, 1)))
        out = conv1d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_sum(self):
        x = ad.Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        w = ad.Tensor(np.array([[[1.0, 1.0]]]))
        out = conv1d(x, w, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0]]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 9))
        w = rng.standard_normal((4, 3, 3))
        stride, padding = 2, 1
        out = conv1d(ad.Tensor(x), ad.Tensor(w), stride=stride, padding=padding).data
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        l_out = (9 + 2 * padding - 3) // stride + 1
        expected = np.zeros((2, 4, l_out))
        for bb in range(2):
            for oo in range(4):
                for tt in range(l_out):
                    acc = 0.0
                    for cc in range(3):
                        for kk in range(3):
                            acc += w[oo, cc, kk] * xp[bb, cc, tt * stride + kk]
                    expected[bb, oo, tt] = acc
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_output_length_formula(self):
        x = ad.Tensor(np.zeros((1, 1, 10)))
        w = ad.Tensor(np.zeros((1, 1, 3)))
        assert conv1d(x, w, stride=2, padding=1).data.shape == (1, 1, 5)

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ValueError, match="kernel size"):
            conv1d(ad.Tensor(np.zeros((1, 1, 2))), ad.Tensor(np.zeros((1, 1, 5))))

    def test_gradients_all_arguments(self):
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal((2, 2, 8))
        w0 = rng.standard_normal((3, 2, 3))
        for stride, padding in ((1, 0), (1, 1), (2, 1)):
            mixer = rng.standard_normal((2, 3, (8 + 2 * padding - 3) // stride + 1))

            def probe(x, w):
                return weighted_sum(conv1d(x, w, stride=stride, padding=padding), mixer)

            assert_grad_close(lambda t: probe(t, ad.Tensor(w0)), x0)
            assert_grad_close(lambda t: probe(ad.Tensor(x0), t), w0)


def fresh_state(channels):
    return ad.BatchNormState(np.zeros(channels), np.ones(channels))


class TestBatchNorm:
    def test_normalized_input_passthrough(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 2, 16))
        x -= x.mean(axis=(0, 2), keepdims=True)
        x /= x.std(axis=(0, 2), keepdims=True)
        state = fresh_state(2)
        out = batchnorm1d(ad.Tensor(x), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
                          state, training=True).data
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_constant_channel_maps_to_beta(self):
        x = np.full((4, 1, 8), 3.7)
        beta = np.array([0.9])
        state = fresh_state(1)
        out = batchnorm1d(ad.Tensor(x), ad.Tensor(np.ones(1)), ad.Tensor(beta),
                          state, training=True).data
        np.testing.assert_allclose(out, np.full_like(x, 0.9), atol=1e-12)

    def test_train_statistics(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((16, 3, 32)) * 5 + 2
        state = fresh_state(3)
        out = batchnorm1d(ad.Tensor(x), ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)),
                          state, training=True).data
        assert np.max(np.abs(out.mean(axis=(0, 2)))) <= 1e-9
        assert np.max(np.abs(out.var(axis=(0, 2)) - 1.0)) <= 1e-6

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(15)
        state = ad.BatchNormState(mean=np.array([1.0]), var=np.array([4.0]))
        x = rng.standard_normal((2, 1, 4))
        out = batchnorm1d(ad.Tensor(x), ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)),
                          state, training=False, eps=0.0).data
        np.testing.assert_allclose(out, (x - 1.0) / 2.0, atol=1e-12)

    def test_running_stats_updated_only_in_train(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 2, 8))
        state = fresh_state(2)
        batchnorm1d(ad.Tensor(x), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
                    state, training=False)
        np.testing.assert_array_equal(state.mean, np.zeros(2))
        batchnorm1d(ad.Tensor(x), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
                    state, training=True)
        assert np.any(state.mean != 0)

    def test_gradients_through_batch_statistics(self):
        rng = np.random.default_rng(17)
        x0 = rng.standard_normal((3, 2, 5))
        gamma0 = rng.uniform(0.5, 1.5, 2)
        beta0 = rng.standard_normal(2)
        mixer = rng.standard_normal((3, 2, 5))

        def bn_mix(x, gamma, beta, training=True):
            state = fresh_state(2)
            return weighted_sum(batchnorm1d(x, gamma, beta, state, training=training), mixer)

        assert_grad_close(lambda t: bn_mix(t, ad.Tensor(gamma0), ad.Tensor(beta0)), x0)
        assert_grad_close(lambda t: bn_mix(ad.Tensor(x0), t, ad.Tensor(beta0)), gamma0)
        assert_grad_close(lambda t: bn_mix(ad.Tensor(x0), ad.Tensor(gamma0), t), beta0)

    def test_eval_mode_gradient(self):
        rng = np.random.default_rng(18)
        x0 = rng.standard_normal((2, 2, 4))
        shared = ad.BatchNormState(mean=np.array([0.3, -0.2]), var=np.array([1.5, 0.7]))
        mixer = rng.standard_normal((2, 2, 4))

        def build(t):
            return weighted_sum(batchnorm1d(t, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
                                            ad.BatchNormState(shared.mean.copy(),
                                                              shared.var.copy()),
                                            training=False), mixer)

        assert_grad_close(build, x0)

    def test_single_element_train_rejected(self):
        with pytest.raises(ValueError, match="more than one element"):
            batchnorm1d(ad.Tensor(np.ones((1, 2, 1))), ad.Tensor(np.ones(2)),
                        ad.Tensor(np.zeros(2)), fresh_state(2), training=True)


class TestFlattenGroups:
    def test_plain_reshape_when_group_one(self):
        x = np.arange(12.0).reshape(2, 3, 2)            # (B, L, C)
        out = ad.flatten_groups(ad.Tensor(x), group=1)
        np.testing.assert_array_equal(out.data, x.transpose(0, 2, 1).reshape(2, 6))

    def test_feature_width(self):
        b, group, c, length = 2, 4, 32, 12
        x = np.zeros((b * group, length, c))
        out = ad.flatten_groups(ad.Tensor(x), group=group)
        assert out.data.shape == (b, group * c * length)

    def test_round_trip_lossless(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((6, 4, 3))              # (B*group, L, C)
        flat = ad.flatten_groups(ad.Tensor(x), group=3)
        # each group's features in (C, L) order
        np.testing.assert_array_equal(flat.data.reshape(6, 3, 4).transpose(0, 2, 1), x)

    def test_indivisible_batch_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ad.flatten_groups(ad.Tensor(np.zeros((5, 2, 2))), group=2)

    def test_gradient(self):
        rng = np.random.default_rng(20)
        x0 = rng.standard_normal((4, 3, 2))
        mixer = rng.standard_normal((2, 12))
        assert_grad_close(lambda t: weighted_sum(ad.flatten_groups(t, group=2), mixer), x0)


class TestAdam:
    def test_zero_grad_no_update(self):
        p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = ad.Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_normalized_magnitude(self):
        g = np.array([0.3, -4.0])
        p = ad.Tensor(np.zeros(2), requires_grad=True)
        opt = ad.Adam([p], lr=0.01)
        p.grad = g.copy()
        opt.step()
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-6)

    def test_quadratic_bowl_convergence(self):
        theta = ad.Tensor(np.array([1.0]), requires_grad=True)
        opt = ad.Adam([theta], lr=0.05)
        for _ in range(500):
            theta.grad = 2.0 * theta.data           # the gradient of theta^2
            opt.step()
        assert abs(theta.data[0]) < 1e-2

    def test_strided_tensor_rejected_not_repacked(self):
        data = np.arange(6.0).reshape(2, 3)
        p = ad.Tensor(data.T, requires_grad=True)
        opt = ad.Adam([p], lr=0.1)
        p.grad = np.ones((3, 2))
        with pytest.raises(ValueError, match="not a writeable C-contiguous float64 array"):
            opt.step()
        assert np.shares_memory(p.data, data)
        np.testing.assert_array_equal(data, np.arange(6.0).reshape(2, 3))
