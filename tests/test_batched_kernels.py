"""Property tests: each batched kernel against its single-matrix reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamopt.baselines import gram_eigh, regularized_terms, zf_terms
from beamopt.metrics import per_sample_sum_rates, rates_from, terms
from beamopt.reference import (BeamformerSet, mmse_beamformer, mmse_directions, sinr_per_ue,
                               virtual_uplink_sinrs, weighted_sum_rate, zf_beamformer,
                               zf_directions)
from beamopt.verify import channels_with_gram_cond, zf_raises

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
def deficient_stacks(draw):
    """(B, M, N) channel stack in which some slices repeat a UE column exactly
    (a zero column when N = 1), and the mask of the slices made singular."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 7))
    deficient = draw(st.lists(st.booleans(), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = crandn(rng, (len(deficient), m, n)) * rng.uniform(0.1, 10.0)
    for i in np.flatnonzero(deficient):
        if n == 1:
            h[i] = 0.0
        else:
            src, dst = rng.choice(n, 2, replace=False)
            h[i, :, dst] = h[i, :, src]
    return h, np.array(deficient)


@st.composite
def near_singular_stacks(draw):
    """(B, M, N) stack, N >= 2, mixing random slices with slices whose Gram
    condition number lies between 1e11 and 1e13, around 1 / RCOND_MIN."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(n, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = crandn(rng, (draw(st.integers(1, 8)), m, n))
    band = rng.random(len(h)) < 0.75
    h[band] = channels_with_gram_cond(rng, 10.0 ** rng.uniform(11.0, 13.0, band.sum()), m, n)
    return h


def well_conditioned(h, limit=1e6):
    gram = np.swapaxes(h, -1, -2) @ h.conj()
    return np.linalg.cond(gram) < limit


@PROPERTY
@given(deficient_stacks())
def test_zf_mask_flags_repeated_ues(case):
    h, deficient = case
    w, singular = zf_directions(h)
    np.testing.assert_array_equal(singular, deficient)
    assert np.all(np.isnan(w[deficient])) and np.all(np.isfinite(w[~deficient]))


@PROPERTY
@given(near_singular_stacks())
def test_zf_mask_is_where_reference_raises(h):
    _, singular = zf_directions(h)
    np.testing.assert_array_equal(singular, [zf_raises(h_k) for h_k in h])


@PROPERTY
@given(channel_stacks())
def test_batched_zf_nulls_and_matches_single(h):
    w, singular = zf_directions(h)
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
    w = mmse_directions(h, reg)
    for idx in np.ndindex(h.shape[:2]):
        ref, _ = mmse_beamformer(h[idx], reg[idx[0], 0])         # P_max = N: reg = sigma^2
        assert np.max(np.abs(w[idx] - ref)) <= 1e-10


@PROPERTY
@given(channel_stacks(), st.sampled_from(["ZF", "MMSE"]), st.integers(0, 2 ** 32 - 1))
def test_batched_classical_rates_match_reference(h, method, seed):
    s, _, _, n = h.shape
    sigma2 = np.random.default_rng(seed).uniform(0.1, 2.0, (s, n))
    w = mmse_directions(h, sigma2.mean(axis=1)[:, None]) if method == "MMSE" else zf_directions(h)[0]
    p = np.full((s, n), 1.0)
    rates = per_sample_sum_rates(w, h, p, sigma2)
    for i in range(s):
        ref = weighted_sum_rate(sinr_per_ue(h[i], BeamformerSet(w[i], p[i], float(n)), sigma2[i]))
        assert rates[i] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def directions_terms(h, reg):
    """metrics.terms of the reference ZF (reg None) or MMSE directions, equal unit powers."""
    w = zf_directions(h)[0] if reg is None else mmse_directions(h, reg[:, None])
    return terms(w, h, np.ones((h.shape[0], h.shape[-1])))


@PROPERTY
@given(channel_stacks(), st.integers(0, 2 ** 32 - 1))
def test_closed_form_terms_match_the_directions(h, seed):
    s, _, _, n = h.shape
    sigma2 = np.random.default_rng(seed).uniform(0.05, 2.0, (s, n))
    reg = sigma2.mean(axis=1)
    eig = gram_eigh(h)
    assert not eig.singular.any()
    for closed, ref in ((zf_terms(eig), directions_terms(h, None)),
                        (regularized_terms(eig, reg[:, None, None]), directions_terms(h, reg))):
        scale = np.max(ref[0], axis=(1, 2), keepdims=True)         # per sample
        for got, want in zip(closed, ref):                          # ZF's interference is rounding
            assert np.all(np.abs(got - want) <= 1e-9 * (np.abs(want) + scale))
        np.testing.assert_allclose(rates_from(*closed, sigma2), rates_from(*ref, sigma2),
                                   rtol=1e-9)


def test_closed_form_on_a_zf_singular_slice_keeps_the_true_gram():
    """ZF's terms are NaN on the singular slice only; MMSE's rate there is the
    directions' rate, which the Gram replaced by I would not give."""
    rng = np.random.default_rng(2)
    h = crandn(rng, (3, 4, 4, 3))
    h[1, 2, :, 1] = h[1, 2, :, 0]                               # two UEs, one channel
    sigma2 = rng.uniform(0.05, 0.5, (3, 3))
    reg = sigma2.mean(axis=1)
    eig = gram_eigh(h)
    np.testing.assert_array_equal(eig.singular, zf_directions(h)[1])
    for t in zf_terms(eig):
        assert np.all(np.isnan(t[1, 2])) and not np.isnan(np.delete(t.reshape(12, 3), 6, 0)).any()
    mmse = regularized_terms(eig, reg[:, None, None])
    np.testing.assert_allclose(rates_from(*mmse, sigma2),
                               rates_from(*directions_terms(h, reg), sigma2), rtol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_closed_form_on_a_non_finite_slice_is_nan(bad):
    rng = np.random.default_rng(3)
    h = crandn(rng, (2, 3, 4, 2))
    h[1, 0, 2, 1] = bad
    with np.errstate(invalid="ignore"):
        eig = gram_eigh(h)
        np.testing.assert_array_equal(eig.singular, zf_directions(h)[1])
    assert eig.singular.tolist() == [[False] * 3, [True, False, False]]
    for terms_ in (zf_terms(eig), regularized_terms(eig, 0.5)):
        for t in terms_:
            assert np.all(np.isnan(t[1, 0])) and np.all(np.isfinite(t[0])) \
                and np.all(np.isfinite(t[1, 1:]))


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
    w, singular = zf_directions(h)
    np.testing.assert_array_equal(singular, [False, True, False])
    assert np.all(np.isnan(w[1])) and np.all(np.isfinite(w[[0, 2]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_slice_with_a_non_finite_entry_is_singular(bad):
    rng = np.random.default_rng(1)
    h = crandn(rng, (3, 4, 2))
    h[1, 2, 0] = bad
    with np.errstate(invalid="ignore"):
        w, singular = zf_directions(h)
        reference = [zf_raises(h_k) for h_k in h]
    np.testing.assert_array_equal(singular, [False, True, False])
    np.testing.assert_array_equal(singular, reference)
    assert np.all(np.isnan(w[1])) and np.all(np.isfinite(w[[0, 2]]))
