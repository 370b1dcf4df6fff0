import numpy as np
import pytest

from beamopt.baselines import (InfeasibleTargetsError, SingularChannelError,
                               VirtualUplinkPowers, equal_power, inverse_directions,
                               matched_filter, mmse_beamformer, optimal_structure_bf,
                               solve_virtual_uplink_powers, virtual_uplink_sinrs,
                               zf_beamformer)
from beamopt.metrics import BeamformerSet, sinr_per_ue, weighted_sum_rate


def rand_channel(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def phase_aligned_distance(a, b):
    """Column-wise distance after removing the per-column global phase."""
    worst = 0.0
    for i in range(a.shape[1]):
        phase = np.vdot(a[:, i], b[:, i])
        phase /= max(abs(phase), 1e-300)
        worst = max(worst, float(np.linalg.norm(b[:, i] - phase * a[:, i])))
    return worst


class TestEqualPower:
    def test_budget_n(self):
        np.testing.assert_array_equal(equal_power(4, 4.0), np.ones(4))

    def test_single_ue(self):
        np.testing.assert_array_equal(equal_power(1, 1.0), np.array([1.0]))

    def test_fractional(self):
        np.testing.assert_array_equal(equal_power(8, 4.0), np.full(8, 0.5))

    def test_zero_ues_rejected(self):
        with pytest.raises(ValueError):
            equal_power(0, 1.0)


class TestZeroForcing:
    def test_identity_channel(self):
        w, p = zf_beamformer(np.eye(2, dtype=complex))
        np.testing.assert_allclose(w, np.eye(2), atol=1e-12)
        np.testing.assert_array_equal(p, np.ones(2))

    def test_diagonal_gains_normalized_away(self):
        w, _ = zf_beamformer(np.diag([2.0, 4.0]).astype(complex))
        np.testing.assert_allclose(w, np.eye(2), atol=1e-12)

    def test_nulling_on_random_channels(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = rand_channel(rng, 4, 4)
            w, _ = zf_beamformer(h)
            cross = h.T @ w
            np.fill_diagonal(cross, 0)
            assert np.max(np.abs(cross)) <= 1e-9

    def test_unit_columns(self):
        rng = np.random.default_rng(1)
        w, _ = zf_beamformer(rand_channel(rng, 6, 3))
        np.testing.assert_allclose(np.linalg.norm(w, axis=0), np.ones(3), atol=1e-12)

    def test_singular_channel_raises(self):
        h = np.ones((3, 2), dtype=complex)  # identical UE channels
        with pytest.raises(SingularChannelError):
            zf_beamformer(h)

    def test_wide_channel_rejected(self):
        with pytest.raises(ValueError, match="N <= M"):
            zf_beamformer(np.ones((2, 3), dtype=complex))


class TestMmse:
    def test_limit_matches_zf(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = rand_channel(rng, 4, 4)
            w_zf, _ = zf_beamformer(h)
            w_mm, _ = mmse_beamformer(h, 1e-12)
            assert phase_aligned_distance(w_zf, w_mm) <= 1e-5

    def test_scalar_channel(self):
        for sigma2 in (1e-3, 1.0, 1e3):
            w, _ = mmse_beamformer(np.ones((1, 1), dtype=complex), sigma2)
            np.testing.assert_allclose(w, np.ones((1, 1)), atol=1e-12)

    def test_matches_regularized_solve_oracle(self):
        rng = np.random.default_rng(4)
        h = rand_channel(rng, 4, 4)
        sigma2 = 0.37
        w, _ = mmse_beamformer(h, sigma2)
        gram = h.T @ h.conj() + sigma2 * np.eye(4)
        oracle = h.conj() @ np.linalg.solve(gram, np.eye(4))
        oracle /= np.linalg.norm(oracle, axis=0, keepdims=True)
        assert np.max(np.abs(w - oracle)) <= 1e-10

    def test_regularizer_scales_with_budget(self):
        rng = np.random.default_rng(5)
        h = rand_channel(rng, 4, 2)
        w_budget, _ = mmse_beamformer(h, 0.5, p_max=4.0)   # reg = 0.5 * 2/4 = 0.25
        gram = h.T @ h.conj() + 0.25 * np.eye(2)
        oracle = h.conj() @ np.linalg.solve(gram, np.eye(2))
        oracle /= np.linalg.norm(oracle, axis=0, keepdims=True)
        assert np.max(np.abs(w_budget - oracle)) <= 1e-10

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError):
            mmse_beamformer(np.eye(2, dtype=complex), 0.0)

    def test_sum_rate_ordering_vs_zf_at_5db(self):
        rng = np.random.default_rng(6)
        sigma2 = 10 ** (-0.5)
        zf_rates, mm_rates = [], []
        for _ in range(500):
            h = rand_channel(rng, 4, 4)[None]          # one subcarrier
            for rates, reg in ((zf_rates, 0.0), (mm_rates, sigma2)):
                w, singular = inverse_directions(h, reg)
                if singular.any():
                    continue
                bf = BeamformerSet(w_tilde=w, p=equal_power(4, 4.0), p_max=4.0)
                rates.append(weighted_sum_rate(sinr_per_ue(h, bf, np.full(4, sigma2))))
        assert np.mean(mm_rates) >= np.mean(zf_rates)


class TestOptimalStructure:
    def test_zero_lambda_gives_matched_filter(self):
        rng = np.random.default_rng(7)
        h = rand_channel(rng, 4, 3)
        w, _ = optimal_structure_bf(h, VirtualUplinkPowers(np.zeros(3)), np.ones(3), 1.0)
        np.testing.assert_allclose(w, matched_filter(h), atol=1e-12)

    def test_single_ue_collinear_for_any_lambda(self):
        rng = np.random.default_rng(8)
        h = rand_channel(rng, 4, 1)
        mf = matched_filter(h)
        for lam in (0.0, 1.0, 10.0, 100.0):
            w, _ = optimal_structure_bf(h, VirtualUplinkPowers(np.array([lam])),
                                        np.ones(1), 1.0)
            cos = abs(np.vdot(mf[:, 0], w[:, 0]))
            assert abs(cos - 1.0) <= 1e-12

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(9)
        h = rand_channel(rng, 4, 4)
        lam = np.ones(4)
        w, p = optimal_structure_bf(h, VirtualUplinkPowers(lam), np.ones(4), 1.0)
        a = h.conj()
        cov = np.eye(4) + (a * lam) @ a.conj().T
        oracle = np.linalg.inv(cov) @ a
        oracle /= np.linalg.norm(oracle, axis=0, keepdims=True)
        assert np.max(np.abs(w - oracle)) <= 1e-10
        np.testing.assert_array_equal(p, np.ones(4))

    def test_powers_passed_through(self):
        rng = np.random.default_rng(10)
        h = rand_channel(rng, 3, 2)
        p_in = np.array([0.25, 1.75])
        _, p = optimal_structure_bf(h, VirtualUplinkPowers(np.ones(2)), p_in, 2.0)
        np.testing.assert_array_equal(p, p_in)


class TestVirtualUplinkPowers:
    def test_scalar_fixed_point(self):
        h = np.ones((1, 1), dtype=complex)
        lam = solve_virtual_uplink_powers(h, np.array([1.0]), 1.0)
        np.testing.assert_allclose(lam.lam, [1.0], atol=1e-8)

    def test_orthogonal_channels_decouple(self):
        h = np.diag([2.0, 3.0]).astype(complex)
        rho = np.array([1.5, 0.5])
        sigma2 = 0.8
        lam = solve_virtual_uplink_powers(h, rho, sigma2)
        np.testing.assert_allclose(lam.lam, rho * sigma2 / np.array([4.0, 9.0]), atol=1e-8)

    def test_self_consistency_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            h = rand_channel(rng, 2, 2)
            lam = solve_virtual_uplink_powers(h, np.ones(2), 1.0)
            sinrs = virtual_uplink_sinrs(h, lam.lam, 1.0)
            assert np.max(np.abs(sinrs - 1.0)) <= 1e-8

    def test_infeasible_targets_carry_last_iterate(self):
        h = np.ones((2, 2), dtype=complex)  # rank one: N targets infeasible
        with pytest.raises(InfeasibleTargetsError) as err:
            solve_virtual_uplink_powers(h, np.array([5.0, 5.0]), 1.0, max_iter=50)
        assert err.value.last_iterate.shape == (2,)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            VirtualUplinkPowers(np.array([-0.1]))


class TestBeamformSample:
    def test_builds_full_set(self):
        rng = np.random.default_rng(12)
        h = (rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2)))
        w, singular = inverse_directions(h, 0.5)
        bf = BeamformerSet(w_tilde=w, p=equal_power(2, 2.0), p_max=2.0)
        assert bf.w_tilde.shape == (4, 3, 2) and not singular.any()
        np.testing.assert_allclose(np.linalg.norm(bf.w_tilde, axis=1), np.ones((4, 2)),
                                   atol=1e-9)
        np.testing.assert_array_equal(bf.p, np.ones(2))
