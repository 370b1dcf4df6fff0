"""Property tests: each batched kernel against its single-matrix reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamopt.baselines import (inverse_directions, mmse_beamformer, virtual_uplink_sinrs,
                               zf_beamformer)
from beamopt.linalg import solve_batched
from beamopt.metrics import (BeamformerSet, per_sample_sum_rates, sinr_per_ue,
                             weighted_sum_rate)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@st.composite
def channel_stacks(draw):
    """(S, K, M, N) channel stack with M >= N, from a drawn seed."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 7))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), m, n)
    return crandn(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), shape)


@st.composite
def square_stacks(draw):
    """(B, n, n) stack in which some matrices repeat a row exactly (singular),
    a right-hand side, and the mask of the matrices made singular."""
    n = draw(st.integers(1, 6))
    deficient = draw(st.lists(st.booleans(), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = crandn(rng, (len(deficient), n, n)) * rng.uniform(0.1, 10.0)
    for i in np.flatnonzero(deficient):
        if n == 1:
            a[i] = 0.0
        else:
            src, dst = rng.choice(n, 2, replace=False)
            a[i, dst] = a[i, src]
    return a, crandn(rng, (n, draw(st.integers(1, 3)))), np.array(deficient)


def well_conditioned(h, limit=1e6):
    gram = np.swapaxes(h, -1, -2) @ h.conj()
    return np.linalg.cond(gram) < limit


@PROPERTY
@given(square_stacks())
def test_solve_batched_matches_single_solve(case):
    a, b, deficient = case
    x, singular = solve_batched(a, b)
    assert x.shape == a.shape[:1] + b.shape
    np.testing.assert_array_equal(singular, deficient)
    for i in np.flatnonzero(~deficient):
        ref = np.linalg.solve(a[i], b)
        assert np.max(np.abs(x[i] - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1.0)


@PROPERTY
@given(channel_stacks())
def test_batched_zf_nulls_and_matches_single(h):
    w, singular = inverse_directions(h)
    assert w.shape == h.shape and not singular.any()
    cross = np.swapaxes(h, -1, -2) @ w                       # [.., j, i] = h_j^T w_i
    off_diag = np.abs(cross * (1 - np.eye(h.shape[-1])))
    well = well_conditioned(h)
    assert np.all(off_diag[well] <= 1e-9)
    for idx in zip(*np.nonzero(well)):
        ref, _ = zf_beamformer(h[idx])
        assert np.max(np.abs(w[idx] - ref)) <= 1e-9


@PROPERTY
@given(channel_stacks(), st.floats(0.05, 2.0))
def test_batched_mmse_matches_single(h, sigma2):
    reg = sigma2 * np.linspace(0.5, 1.5, h.shape[0])[:, None]     # one value per sample
    w, singular = inverse_directions(h, reg)
    assert not singular.any()
    for idx in np.ndindex(h.shape[:2]):
        ref, _ = mmse_beamformer(h[idx], reg[idx[0], 0])         # P_max = N: reg = sigma^2
        assert np.max(np.abs(w[idx] - ref)) <= 1e-10


@PROPERTY
@given(channel_stacks(), st.sampled_from(["ZF", "MMSE"]), st.integers(0, 2 ** 32 - 1))
def test_batched_classical_rates_match_reference(h, method, seed):
    s, _, _, n = h.shape
    sigma2 = np.random.default_rng(seed).uniform(0.1, 2.0, (s, n))
    reg = sigma2.mean(axis=1)[:, None] if method == "MMSE" else 0.0
    w, _ = inverse_directions(h, reg)
    p = np.full((s, n), 1.0)
    rates = per_sample_sum_rates(w.real, w.imag, h, p, sigma2)
    for i in range(s):
        ref = weighted_sum_rate(sinr_per_ue(h[i], BeamformerSet(w[i], p[i], float(n)), sigma2[i]))
        assert rates[i] == pytest.approx(ref, rel=1e-9, abs=1e-12)


@PROPERTY
@given(channel_stacks(), st.floats(0.05, 2.0), st.integers(0, 2 ** 32 - 1))
def test_virtual_uplink_sinrs_match_per_ue_solves(h, sigma2, seed):
    h = h[0, 0]
    m, n = h.shape
    lam = np.random.default_rng(seed).uniform(0.0, 3.0, n)
    a = h.conj()
    ref = np.empty(n)
    for k in range(n):                                          # one solve per UE
        others = [i for i in range(n) if i != k]
        cov = sigma2 * np.eye(m) + (a[:, others] * lam[others]) @ a[:, others].conj().T
        ref[k] = lam[k] * np.real(a[:, k].conj() @ np.linalg.solve(cov, a[:, k]))
    np.testing.assert_allclose(virtual_uplink_sinrs(h, lam, sigma2), ref, rtol=1e-10, atol=1e-12)


def test_singular_slices_get_nan_directions():
    rng = np.random.default_rng(0)
    h = crandn(rng, (3, 4, 2))
    h[1, :, 1] = h[1, :, 0]                                     # two UEs, one channel
    w, singular = inverse_directions(h)
    np.testing.assert_array_equal(singular, [False, True, False])
    assert np.all(np.isnan(w[1])) and np.all(np.isfinite(w[[0, 2]]))
