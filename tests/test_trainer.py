import numpy as np
import pytest

from beamopt import autodiff as ad
from beamopt import metrics, models
from beamopt.channel import gen_dataset, snr_db_to_noise_var
from beamopt.models import ModelConfig, forward_graph, init_params
from beamopt.trainer import TrainConfig, TrainingDiverged, train, validation_size


class SimpleCfg:
    profile = "TDL-A"
    delay_spread_ns = 30.0
    m_tx = 2
    n_ue = 2
    k_sc = 8
    scs_hz = 30e3
    jitter_db = 0.0


def small_setup(n_samples=8, seed=0):
    ds = gen_dataset(SimpleCfg(), count=n_samples, seed=seed)
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(32,), fc_widths_pw=(32,))
    params = init_params(cfg, np.random.default_rng(seed + 1))
    return ds, cfg, params


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(snr_sampling="sweep")

    @pytest.mark.parametrize("n, frac, n_val", [(2, 0.1, 1), (10, 0.25, 2), (512, 0.1, 51)])
    def test_validation_size(self, n, frac, n_val):
        assert validation_size(n, frac) == n_val

    @pytest.mark.parametrize("n, frac", [(1, 0.1), (2, 0.9), (4, 0.9)])
    def test_empty_training_split_rejected(self, n, frac):
        with pytest.raises(ValueError, match="train.val_fraction: .* leaves no training sample"):
            validation_size(n, frac)


class TestTrain:
    def test_zero_lr_leaves_params_unchanged(self):
        ds, cfg, params = small_setup(n_samples=2)
        before = {k: t.data.copy() for k, t in params.tensors.items()}
        tc = TrainConfig(epochs=1, batch_size=2, lr=0.0, seed=3, val_fraction=0.5,
                         snr_sampling="fixed")
        best, report = train(cfg, params, ds, tc)
        assert len(report.train_loss) == 1 and len(report.val_loss) == 1
        for name in before:
            np.testing.assert_array_equal(params.tensors[name].data, before[name])
            np.testing.assert_array_equal(best.tensors[name].data, before[name])

    def test_deterministic_given_seed(self):
        tc = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=11, snr_sampling="uniform")
        runs = []
        for _ in range(2):
            ds, cfg, params = small_setup(n_samples=8, seed=5)
            best, report = train(cfg, params, ds, tc)
            runs.append((best, report))
        (b1, r1), (b2, r2) = runs
        assert r1.train_loss == r2.train_loss
        assert r1.val_loss == r2.val_loss
        for name in b1.tensors:
            np.testing.assert_array_equal(b1.tensors[name].data, b2.tensors[name].data)
        for name in b1.bn_states:
            np.testing.assert_array_equal(b1.bn_states[name].mean, b2.bn_states[name].mean)

    def test_loss_decreases_at_small_scale(self):
        ds, cfg, params = small_setup(n_samples=64, seed=2)
        tc = TrainConfig(epochs=30, batch_size=16, lr=2e-3, seed=4,
                         snr_sampling="fixed", fixed_snr_db=5.0, early_stop_patience=0)
        _, report = train(cfg, params, ds, tc)
        assert report.train_loss[-1] < report.train_loss[0]

    def test_best_epoch_attains_min_val_loss(self):
        ds, cfg, params = small_setup(n_samples=32, seed=6)
        tc = TrainConfig(epochs=10, batch_size=8, lr=2e-3, seed=8,
                         snr_sampling="fixed", early_stop_patience=0)
        _, report = train(cfg, params, ds, tc)
        assert report.best_epoch == int(np.argmin(report.val_loss))
        assert report.best_val_loss == min(report.val_loss)

    def test_early_stopping_cuts_run_short(self, monkeypatch):
        ds = gen_dataset(SimpleCfg(), count=16, seed=7)
        # zero lr and frozen running stats: validation loss cannot improve
        monkeypatch.setattr(models, "BN_MOMENTUM", 0.0)
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(32,), fc_widths_pw=(32,))
        params = init_params(cfg, np.random.default_rng(8))
        tc = TrainConfig(epochs=50, batch_size=8, lr=0.0, seed=9,
                         snr_sampling="fixed", early_stop_patience=3)
        _, report = train(cfg, params, ds, tc)
        assert len(report.train_loss) == 4

    def test_batch_loss_negates_mean_sum_rate(self):
        ds, cfg, params = small_setup(n_samples=4, seed=10)
        sigma2 = snr_db_to_noise_var(5.0 + ds.ue_snr_offset_db)
        with ad.Tape() as tape:
            w, p = forward_graph(ds.h, params, cfg, training=True)
            loss = metrics.neg_sum_rate_graph(w, ds.h, p, sigma2)
        rates = [
            metrics.weighted_sum_rate(metrics.sinr_per_ue(
                ds.h[i],
                metrics.BeamformerSet(metrics.as_complex(w.data[i]), p.data[i],
                                      p_max=float(cfg.n_ue)),
                sigma2[i]))
            for i in range(len(ds))
        ]
        assert abs(loss.item() + np.mean(rates)) < 1e-12

    def test_nan_abort_names_sample(self):
        ds, cfg, params = small_setup(n_samples=8, seed=12)
        # poison one weight so the forward produces non-finite outputs
        params.tensors["bf0.w"].data[0, 0] = np.nan
        tc = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=13, snr_sampling="fixed")
        with pytest.raises(TrainingDiverged) as err:
            train(cfg, params, ds, tc)
        assert err.value.epoch == 0
        assert "sample" in str(err.value)

    def test_non_finite_gradient_aborts_before_the_step(self, monkeypatch):
        ds, cfg, params = small_setup(n_samples=8, seed=16)
        before = params.flat.copy()
        real_backward = ad.Tape.backward

        def nan_in_one_leaf_grad(tape, output):
            real_backward(tape, output)
            params.tensors["bf1.b"].grad[0] = np.nan

        monkeypatch.setattr(ad.Tape, "backward", nan_in_one_leaf_grad)
        tc = TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=17, snr_sampling="fixed")
        with pytest.raises(TrainingDiverged,
                           match="non-finite gradient norm at epoch 0, batch 0") as err:
            train(cfg, params, ds, tc)
        assert (err.value.epoch, err.value.batch, err.value.sample_index) == (0, 0, None)
        np.testing.assert_array_equal(params.flat, before)

    def test_no_improving_epoch_returns_final_params(self, monkeypatch):
        import beamopt.trainer as trainer_module
        ds, cfg, params = small_setup(n_samples=8, seed=18)
        monkeypatch.setattr(trainer_module, "_validation_loss", lambda *args: float("nan"))
        tc = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=19, snr_sampling="fixed")
        best, report = train(cfg, params, ds, tc)
        assert report.best_epoch == -1
        assert not np.shares_memory(best.flat, params.flat)
        np.testing.assert_array_equal(best.flat, params.flat)

    def test_training_consumes_no_baseline_code(self):
        import beamopt.trainer as trainer_module
        source = open(trainer_module.__file__).read()
        assert "from .baselines" not in source
        assert "import baselines" not in source

    def test_report_csv(self, tmp_path):
        ds, cfg, params = small_setup(n_samples=4, seed=14)
        tc = TrainConfig(epochs=2, batch_size=4, lr=1e-4, seed=15, val_fraction=0.25,
                         snr_sampling="fixed")
        _, report = train(cfg, params, ds, tc)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 3
