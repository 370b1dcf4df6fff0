import numpy as np
import pytest

from beamopt.channel import ChannelDataset, gen_dataset, snr_db_to_noise_var
from beamopt.evaluation import evaluate
from beamopt.metrics import BeamformerSet, as_complex, sinr_per_ue, weighted_sum_rate
from beamopt.models import ModelConfig, forward_graph, init_params


class SimpleCfg:
    profile = "TDL-A"
    delay_spread_ns = 30.0
    m_tx = 4
    n_ue = 2
    k_sc = 8
    scs_hz = 30e3
    jitter_db = 6.0


def test_baselines_only_rows_cover_grid():
    ds = gen_dataset(SimpleCfg(), count=12, seed=0)
    grid = [-5.0, 5.0, 15.0]
    lines = []
    rows = evaluate(ds, grid, ["ZF", "MMSE"], experiment="exp-t", log=lines.append)
    assert len(rows) == 6 and lines == []                 # nothing dropped, nothing logged
    assert {(r.method, r.snr_db) for r in rows} == {(m, s) for m in ("ZF", "MMSE") for s in grid}
    assert all(r.n == 12 and r.experiment == "exp-t" for r in rows)


def test_reproducible_bit_exact():
    ds = gen_dataset(SimpleCfg(), count=8, seed=1)
    a = evaluate(ds, [0.0, 10.0], ["ZF", "MMSE"])
    b = evaluate(ds, [0.0, 10.0], ["ZF", "MMSE"])
    assert a == b


def test_zf_closed_form_on_orthogonal_channels():
    # two orthogonal single-subcarrier channels: rate has no interference term
    h = np.zeros((1, 1, 2, 2), dtype=complex)
    h[0, 0, 0, 0] = 2.0
    h[0, 0, 1, 1] = 1.5
    ds = ChannelDataset(h=h, ue_snr_offset_db=np.zeros((1, 2)), profile="TDL-A",
                        delay_spread_ns=30.0, jitter_db=0.0, seed=0)
    rows = evaluate(ds, [5.0], ["ZF"])
    sigma2 = snr_db_to_noise_var(5.0)
    expected = sum(np.log2(1 + 1.0 * g ** 2 / sigma2) for g in (2.0, 1.5))
    assert rows[0].se_mean == pytest.approx(expected, abs=1e-12)


def test_zero_channel_contributes_zero_rate():
    h = np.zeros((1, 1, 2, 2), dtype=complex)
    h[0, 0, 0, 0] = 1e-30   # effectively zero but nonsingular enough for MMSE
    h[0, 0, 1, 1] = 1e-30
    ds = ChannelDataset(h=h, ue_snr_offset_db=np.zeros((1, 2)), profile="TDL-A",
                        delay_spread_ns=30.0, jitter_db=0.0, seed=0)
    rows = evaluate(ds, [0.0], ["MMSE"])
    assert rows[0].se_mean == pytest.approx(0.0, abs=1e-12)


def test_neural_method_requires_model():
    ds = gen_dataset(SimpleCfg(), count=2, seed=3)
    with pytest.raises(ValueError, match="no model supplied"):
        evaluate(ds, [5.0], ["NNBF-P"])


def test_unknown_method_rejected():
    ds = gen_dataset(SimpleCfg(), count=2, seed=4)
    with pytest.raises(ValueError, match="unknown method"):
        evaluate(ds, [5.0], ["WMMSE"])


def test_neural_rows_match_manual_forward():
    class NetCfg(SimpleCfg):
        m_tx = 2

    ds = gen_dataset(NetCfg(), count=6, seed=5)
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(32,), fc_widths_pw=(32,))
    params = init_params(cfg, np.random.default_rng(6))
    rows = evaluate(ds, [5.0], ["NNBF-P"], {"NNBF-P": (cfg, params)})

    w, p = forward_graph(ds.h, params, cfg, training=False)
    w = as_complex(w.data)
    sigma2 = snr_db_to_noise_var(5.0 + ds.ue_snr_offset_db)
    rates = [weighted_sum_rate(sinr_per_ue(
        ds.h[i], BeamformerSet(w_tilde=w[i], p=p.data[i], p_max=float(cfg.n_ue)), sigma2[i]))
        for i in range(len(ds))]
    assert rows[0].se_mean == pytest.approx(np.mean(rates), abs=1e-12)
    assert rows[0].se_std == pytest.approx(np.std(rates, ddof=1), abs=1e-12)


def _small_model(seed=7):
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(16,), fc_widths_pw=(16,))
    return cfg, init_params(cfg, np.random.default_rng(seed))


class TinyCfg(SimpleCfg):
    m_tx = 2


def test_zf_singular_sample_dropped_for_every_method():
    ds = gen_dataset(TinyCfg(), count=5, seed=8)
    ds.h[2, :, :, 1] = ds.h[2, :, :, 0]           # two UEs share one channel: rank-deficient Gram
    methods = ["ZF", "MMSE", "NNBF-P"]
    lines = []
    rows = evaluate(ds, [0.0, 10.0], methods, {"NNBF-P": _small_model()}, log=lines.append)
    assert [r.n for r in rows] == [4] * 6
    assert lines == ["dropped 1 ZF-singular samples from every method: 2"]

    kept = ChannelDataset(h=np.delete(ds.h, 2, axis=0),
                          ue_snr_offset_db=np.delete(ds.ue_snr_offset_db, 2, axis=0),
                          profile="TDL-A", delay_spread_ns=30.0, jitter_db=6.0, seed=8)
    ref = evaluate(kept, [0.0, 10.0], methods, {"NNBF-P": _small_model()})
    for r, q in zip(rows, ref):
        assert (r.method, r.snr_db) == (q.method, q.snr_db)
        assert r.se_mean == pytest.approx(q.se_mean, rel=1e-12)


def test_non_finite_rate_raises_naming_method_snr_and_sample(monkeypatch):
    import beamopt.evaluation as evaluation

    real_forward = evaluation.forward_graph

    def nan_on_sample_3(h, params, cfg, training):
        w, p = real_forward(h, params, cfg, training)
        w.data[3, ..., 0] = np.nan
        return w, p

    monkeypatch.setattr(evaluation, "forward_graph", nan_on_sample_3)
    ds = gen_dataset(TinyCfg(), count=6, seed=9)
    with pytest.raises(evaluation.NonFiniteRateError, match=r"NNBF-P at -5\.0 dB.*sample 3"):
        evaluate(ds, [-5.0, 5.0], ["ZF", "NNBF-P"], {"NNBF-P": _small_model()})


def test_rate_above_the_sinr_ceiling_raises(monkeypatch):
    import beamopt.evaluation as evaluation

    real_forward = evaluation.forward_graph

    def unnormalized_on_sample_3(h, params, cfg, training):
        w, p = real_forward(h, params, cfg, training)
        w.data[3] *= 1e3                           # a normalization bug inflates the SINR
        return w, p

    monkeypatch.setattr(evaluation, "forward_graph", unnormalized_on_sample_3)
    ds = gen_dataset(TinyCfg(), count=6, seed=11)
    with pytest.raises(evaluation.RateBoundError,
                       match=r"NNBF-P at -30\.0 dB: rate .* on sample 3 exceeds the bound"):
        evaluate(ds, [-30.0], ["ZF", "MMSE", "NNBF-P"], {"NNBF-P": _small_model()})


@pytest.mark.parametrize("grid", [[5.0], [-5.0, 0.0, 5.0, 10.0, 15.0]])
def test_forward_runs_once_per_batch_whatever_the_grid(monkeypatch, grid):
    import beamopt.evaluation as evaluation

    calls = []
    real_forward = evaluation.forward_graph

    def counting(h, params, cfg, training):
        calls.append(h.shape[0])
        return real_forward(h, params, cfg, training)

    monkeypatch.setattr(evaluation, "forward_graph", counting)
    ds = gen_dataset(TinyCfg(), count=70, seed=10)
    nnbf = ModelConfig(m_tx=2, n_ue=2, k_sc=8, joint_power=False, fc_widths_bf=(16,))
    models = {"NNBF-P": _small_model(), "NNBF": (nnbf, init_params(nnbf, np.random.default_rng(1)))}
    evaluate(ds, grid, ["NNBF", "NNBF-P"], models)
    assert calls == [64, 6, 64, 6]                # ceil(70 / 64) = 2 forwards per model
