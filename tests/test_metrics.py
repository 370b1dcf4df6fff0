import numpy as np
import pytest

from beamopt import autodiff as ad
from beamopt.metrics import (BeamformerSet, neg_sum_rate_graph,
                             per_sample_sum_rates, sinr_per_ue, weighted_sum_rate)
from beamopt.models import unit_beams


def beam_tensor(w):
    """Complex beams (..., M, N) as the float64 (..., M, N, 2) tensor sum_rates takes."""
    return ad.Tensor(np.stack([w.real, w.imag], axis=-1))


def rand_instance(rng, k, m, n):
    h = (rng.standard_normal((k, m, n)) + 1j * rng.standard_normal((k, m, n))) / np.sqrt(2)
    w = rng.standard_normal((k, m, n)) + 1j * rng.standard_normal((k, m, n))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    p = rng.uniform(0.1, 0.9, n)
    sigma2 = rng.uniform(0.3, 3.0, n)
    return h, BeamformerSet(w_tilde=w, p=p, p_max=float(n)), sigma2


def sinr_loop_oracle(h, w, p, sigma2):
    """Scalar transcription of the SINR definition, one term at a time."""
    k_sc, _, n_ue = h.shape
    gamma = np.empty((k_sc, n_ue))
    for k in range(k_sc):
        for n in range(n_ue):
            sig = p[n] * abs(np.dot(h[k, :, n], w[k, :, n])) ** 2
            intf = 0.0
            for i in range(n_ue):
                if i != n:
                    intf += p[i] * abs(np.dot(h[k, :, n], w[k, :, i])) ** 2
            gamma[k, n] = sig / (intf + sigma2[n])
    return gamma


class TestBeamformerSet:
    def test_non_unit_columns_rejected(self):
        w = np.ones((1, 2, 1), dtype=complex)
        with pytest.raises(ValueError, match="unit norm"):
            BeamformerSet(w_tilde=w, p=np.array([1.0]), p_max=1.0)

    def test_power_budget_enforced(self):
        w = np.zeros((1, 2, 2), dtype=complex)
        w[0, 0, 0] = 1.0
        w[0, 1, 1] = 1.0
        with pytest.raises(ValueError, match="budget"):
            BeamformerSet(w_tilde=w, p=np.array([1.5, 1.5]), p_max=2.0)
        with pytest.raises(ValueError, match="non-negative"):
            BeamformerSet(w_tilde=w, p=np.array([-0.1, 0.5]), p_max=2.0)


class TestSinr:
    def test_scalar_unit_case(self):
        h = np.ones((1, 1, 1), dtype=complex)
        bf = BeamformerSet(w_tilde=np.ones((1, 1, 1), dtype=complex),
                           p=np.array([1.0]), p_max=1.0)
        gamma = sinr_per_ue(h, bf, np.array([1.0]))
        assert gamma == pytest.approx(np.array([[1.0]]))

    def test_orthogonal_beams_no_interference(self):
        h = np.zeros((1, 2, 2), dtype=complex)
        h[0, 0, 0] = 2.0
        h[0, 1, 1] = 3.0
        w = np.zeros((1, 2, 2), dtype=complex)
        w[0, 0, 0] = 1.0
        w[0, 1, 1] = 1.0
        bf = BeamformerSet(w_tilde=w, p=np.array([0.5, 0.5]), p_max=1.0)
        gamma = sinr_per_ue(h, bf, np.array([1.0, 2.0]))
        np.testing.assert_allclose(gamma, [[0.5 * 4 / 1.0, 0.5 * 9 / 2.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        h, bf, sigma2 = rand_instance(rng, 1, 2, 2)
        gamma = sinr_per_ue(h, bf, sigma2)
        np.testing.assert_allclose(gamma, sinr_loop_oracle(h, bf.w_tilde, bf.p, sigma2),
                                   atol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(1)
        h, bf, sigma2 = rand_instance(rng, 2, 2, 2)
        with pytest.raises(ValueError, match="match"):
            sinr_per_ue(h[:1], bf, sigma2)
        with pytest.raises(ValueError, match="sigma2"):
            sinr_per_ue(h, bf, sigma2[:1])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        h, bf, sigma2 = rand_instance(rng, 3, 4, 3)
        perm = np.array([2, 0, 1])
        bf_p = BeamformerSet(w_tilde=bf.w_tilde[:, :, perm], p=bf.p[perm], p_max=bf.p_max)
        gamma = sinr_per_ue(h, bf, sigma2)
        gamma_p = sinr_per_ue(h[:, :, perm], bf_p, sigma2[perm])
        np.testing.assert_allclose(gamma_p, gamma[:, perm], atol=1e-13)

    def test_power_scaling_monotone_without_interference(self):
        h = np.zeros((1, 2, 2), dtype=complex)
        h[0, 0, 0] = 1.0
        h[0, 1, 1] = 1.0
        w = np.zeros((1, 2, 2), dtype=complex)
        w[0, 0, 0] = 1.0
        w[0, 1, 1] = 1.0
        sigma2 = np.array([1.0, 1.0])
        g1 = sinr_per_ue(h, BeamformerSet(w, np.array([0.5, 0.5]), 2.0), sigma2)
        g2 = sinr_per_ue(h, BeamformerSet(w, np.array([1.0, 1.0]), 2.0), sigma2)
        assert np.all(g2 > g1)


class TestWeightedSumRate:
    def test_zero_sinr(self):
        assert weighted_sum_rate(np.zeros((3, 2))) == 0.0

    def test_log2_of_two(self):
        assert weighted_sum_rate(np.array([[1.0]])) == pytest.approx(1.0, abs=1e-15)

    def test_powers_of_two_sum(self):
        gamma = np.array([[1.0, 3.0, 7.0, 15.0]])
        assert weighted_sum_rate(gamma) == pytest.approx(10.0, abs=1e-12)

    def test_subcarrier_average(self):
        gamma = np.array([[1.0], [3.0]])
        assert weighted_sum_rate(gamma) == pytest.approx(1.5, abs=1e-12)


class TestLoss:
    def test_unit_case(self):
        h = np.ones((1, 1, 1, 1), dtype=complex)
        one = np.ones((1, 1))
        loss = neg_sum_rate_graph(beam_tensor(h), h, ad.Tensor(one), one)
        assert loss.item() == pytest.approx(-1.0, abs=1e-15)


class TestGraphLoss:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(4)
        b, k, m, n = 3, 4, 2, 2
        h = (rng.standard_normal((b, k, m, n)) + 1j * rng.standard_normal((b, k, m, n)))
        w = rng.standard_normal((b, k, m, n)) + 1j * rng.standard_normal((b, k, m, n))
        w /= np.linalg.norm(w, axis=2, keepdims=True)
        p = rng.uniform(0.2, 0.8, (b, n))
        sigma2 = rng.uniform(0.5, 2.0, (b, n))
        loss = neg_sum_rate_graph(beam_tensor(w), h, ad.Tensor(p), sigma2)
        per_sample = [
            weighted_sum_rate(sinr_per_ue(
                h[i], BeamformerSet(w[i], p[i], p_max=p[i].sum() + 1e-6), sigma2[i]))
            for i in range(b)
        ]
        assert abs(loss.item() + np.mean(per_sample)) < 1e-12

    def test_batched_helper_consistent(self):
        rng = np.random.default_rng(5)
        b, k, m, n = 2, 3, 2, 2
        h = rng.standard_normal((b, k, m, n)) + 1j * rng.standard_normal((b, k, m, n))
        w = rng.standard_normal((b, k, m, n)) + 1j * rng.standard_normal((b, k, m, n))
        w /= np.linalg.norm(w, axis=2, keepdims=True)
        p = rng.uniform(0.2, 0.8, (b, n))
        sigma2 = rng.uniform(0.5, 2.0, (b, n))
        rates = per_sample_sum_rates(w, h, p, sigma2)
        loss = neg_sum_rate_graph(beam_tensor(w), h, ad.Tensor(p), sigma2)
        assert abs(loss.item() + rates.mean()) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        b, k, m, n = 1, 2, 2, 2
        h = rng.standard_normal((b, k, m, n)) + 1j * rng.standard_normal((b, k, m, n))
        sigma2 = rng.uniform(0.5, 1.5, (b, n))
        p0 = np.full((b, n), 1.0)
        w0 = rng.standard_normal((b, k, m, n, 2))

        def loss_of(flat):
            wri = flat.reshape(w0.shape)
            w = wri[..., 0] + 1j * wri[..., 1]
            w = w / np.linalg.norm(w, axis=2, keepdims=True)
            return -per_sample_sum_rates(w, h, p0, sigma2).mean()

        t = ad.Tensor(w0.reshape(b, -1), requires_grad=True)
        with ad.Tape() as tape:
            w = unit_beams(t, (b, k, m, n))
            loss = neg_sum_rate_graph(w, h, ad.Tensor(p0), sigma2)
        tape.backward(loss)

        flat0 = w0.ravel()
        numeric = np.empty(flat0.size)
        for i in range(flat0.size):
            hi, lo = flat0.copy(), flat0.copy()
            hi[i] += 1e-6
            lo[i] -= 1e-6
            numeric[i] = (loss_of(hi) - loss_of(lo)) / 2e-6
        rel = np.max(np.abs(t.grad.ravel() - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        assert rel <= 1e-5


def test_vectorized_equals_oracle_many_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 5))
        h, bf, sigma2 = rand_instance(rng, k, m, n)
        gamma = sinr_per_ue(h, bf, sigma2)
        oracle = sinr_loop_oracle(h, bf.w_tilde, bf.p, sigma2)
        np.testing.assert_allclose(gamma, oracle, atol=1e-12)
