"""One training step and one evaluate on valid but extreme inputs: channel
magnitudes from deep fade (1e-6) to 1e3, nominal SNRs at both ends of
SNR_RANGE_DB with +-jitter_db on top, a zeroed last layer in either head,
and the smallest batch that batch norm accepts. Each case ends with finite
losses, parameters and rates, or with a named error that the CLI maps to
its documented exit code."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beamopt.channel import ChannelDataset, DatasetError
from beamopt.evaluation import NonFiniteRateError, RateBoundError, evaluate
from beamopt.models import DEFAULT_BB_SPEC, ModelConfig, downsampling, init_params
from beamopt.trainer import SNR_RANGE_DB, TrainConfig, TrainingDiverged, train

# the named errors a step or an evaluate may end with; beamopt exits 4, 3, 1 and 1 on them
NAMED = (TrainingDiverged, DatasetError, NonFiniteRateError, RateBoundError)
DOWNSAMPLING = downsampling(DEFAULT_BB_SPEC)


@st.composite
def step_cases(draw):
    n = draw(st.integers(1, 2))
    m, k = draw(st.integers(n, 3)), DOWNSAMPLING * draw(st.integers(1, 2))
    # train-mode batch norm needs two elements per channel in the last block
    batch = -(-2 // (n * m * k // DOWNSAMPLING))
    exponent = st.one_of(st.sampled_from((-6.0, 3.0)), st.floats(-6.0, 3.0))
    magnitudes = 10.0 ** np.array(draw(st.lists(exponent, min_size=batch + 1,
                                                max_size=batch + 1)))
    jitter = draw(st.sampled_from((0.0, 20.0)))
    offsets = draw(st.lists(st.sampled_from((-jitter, jitter)), min_size=(batch + 1) * n,
                            max_size=(batch + 1) * n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.standard_normal((batch + 1, k, m, n)) + 1j * rng.standard_normal((batch + 1, k, m, n))
    h *= magnitudes[:, None, None, None] / np.sqrt(2.0)
    ds = ChannelDataset(h=h, ue_snr_offset_db=np.reshape(offsets, (batch + 1, n)),
                        profile="TDL-A", delay_spread_ns=30.0, jitter_db=jitter, seed=0)
    joint = draw(st.booleans())
    zeroed = [head for head in ("bf", "pw")[:1 + joint] if draw(st.booleans())]
    return ds, batch, draw(st.sampled_from(SNR_RANGE_DB)), joint, zeroed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(step_cases())
def test_one_step_and_evaluate_end_finite_or_named(case):
    ds, batch, nominal, joint, zeroed = case
    _, k, m, n = ds.shape
    cfg = ModelConfig(m_tx=m, n_ue=n, k_sc=k, joint_power=joint, fc_widths_bf=(4,),
                      fc_widths_pw=(4,))
    params = init_params(cfg, np.random.default_rng(0))
    for head in zeroed:
        params.tensors[f"{head}1.w"].data[...] = 0.0
        params.tensors[f"{head}1.b"].data[...] = 0.0
    # one validation sample, one training batch of `batch` samples
    tc = TrainConfig(epochs=1, batch_size=batch, val_fraction=0.01, snr_sampling="fixed",
                     fixed_snr_db=nominal)
    method = "NNBF-P" if joint else "NNBF"
    try:
        best, report = train(cfg, params, ds, tc)
        assert np.isfinite(report.train_loss + report.val_loss).all()
        assert np.isfinite(best.flat).all()
        rows = evaluate(ds, [nominal], ["ZF", "MMSE", method], {method: (cfg, best)})
    except NAMED:
        return
    assert len(rows) == 3
    assert all(np.isfinite([r.se_mean, r.se_std]).all() and r.se_mean >= 0.0 for r in rows)
