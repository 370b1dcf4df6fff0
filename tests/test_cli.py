import subprocess
import sys

import numpy as np
import pytest

from beamopt import autodiff, evaluation, models, verify
from beamopt.cli import main

TINY_CONFIG = """
[experiment]
schema_version = 1
id = tiny
profile = TDL-A
delay_spread_ns = 30
modulation = QPSK
m_tx = 2
n_ue = 2
k_sc = 8
snr_grid_db = -5, 5
jitter_db = 6
methods = ZF, MMSE, NNBF-P

[dataset]
train_samples = 8
test_samples = 4
seed = 3

[train]
epochs = 2
batch_size = 4
lr = 0.001
seed = 5
snr_sampling = fixed
"""


@pytest.fixture()
def tiny(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CONFIG)
    return tmp_path, cfg


def run(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_dataset_and_fingerprint(self, tiny, capsys):
        tmp, cfg = tiny
        out = tmp / "train.ds"
        assert run("generate", "--config", cfg, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "fingerprint" in printed
        assert out.exists()

    def test_same_seed_same_bytes(self, tiny):
        tmp, cfg = tiny
        a, b = tmp / "a.ds", tmp / "b.ds"
        run("generate", "--config", cfg, "--out", a)
        run("generate", "--config", cfg, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_bytes(self, tiny):
        tmp, cfg = tiny
        a, b = tmp / "a.ds", tmp / "b.ds"
        run("generate", "--config", cfg, "--out", a, "--threads", 1)
        run("generate", "--config", cfg, "--out", b, "--threads", 4)
        assert a.read_bytes() == b.read_bytes()

    def test_test_split_differs(self, tiny):
        tmp, cfg = tiny
        a, b = tmp / "train.ds", tmp / "test.ds"
        run("generate", "--config", cfg, "--out", a)
        run("generate", "--config", cfg, "--out", b, "--split", "test")
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_config_exit_2(self, tiny, capsys):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace("m_tx = 2", "m_tx = 1"))
        assert run("generate", "--config", cfg, "--out", tmp / "x.ds") == 2
        assert "m_tx" in capsys.readouterr().err

    def test_zero_sample_count_exit_2(self, tiny, capsys):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace("train_samples = 8", "train_samples = 0"))
        assert run("generate", "--config", cfg, "--out", tmp / "x.ds") == 2
        assert "train_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [("epochs = 2", "epochs = 0", "train.epochs"),
                                               ("lr = 0.001", "lr = -1", "train.lr"),
                                               ("seed = 5", "seed = 5\nval_fraction = 1.5",
                                                "train.val_fraction")])
    def test_invalid_train_value_exit_2(self, tiny, capsys, old, new, key):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace(old, new))
        assert run("generate", "--config", cfg, "--out", tmp / "x.ds") == 2
        assert f"config error: {key}:" in capsys.readouterr().err

    def test_env_var_thread_fallback(self, tiny, monkeypatch):
        tmp, cfg = tiny
        a, b = tmp / "a.ds", tmp / "b.ds"
        run("generate", "--config", cfg, "--out", a)
        monkeypatch.setenv("BEAMOPT_THREADS", "3")
        run("generate", "--config", cfg, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestTrainEval:
    def test_full_pipeline(self, tiny, capsys):
        tmp, cfg = tiny
        train_ds, test_ds = tmp / "train.ds", tmp / "test.ds"
        ckpt, csv_out, svg_out = tmp / "model.ckpt", tmp / "res.csv", tmp / "res.svg"
        assert run("generate", "--config", cfg, "--out", train_ds) == 0
        assert run("generate", "--config", cfg, "--out", test_ds, "--split", "test") == 0
        assert run("train", "--config", cfg, "--dataset", train_ds, "--ckpt", ckpt) == 0
        assert ckpt.exists() and (tmp / "model.ckpt.report.csv").exists()
        report = (tmp / "model.ckpt.report.csv").read_text().splitlines()
        assert report[0] == "epoch,train_loss,val_loss"
        assert len(report) == 3

        assert run("eval", "--config", cfg, "--dataset", test_ds,
                   "--ckpt", ckpt, "--out", csv_out) == 0
        text = csv_out.read_text().splitlines()
        assert text[0] == "experiment,method,snr_db,se_mean,se_std,n"
        assert len(text) == 1 + 3 * 2      # 3 methods x 2 SNRs
        assert run("plot", csv_out, "--out", svg_out) == 0
        assert svg_out.read_bytes().startswith(b"<svg")

    def test_missing_dataset_exit_3(self, tiny, capsys):
        tmp, cfg = tiny
        code = run("train", "--config", cfg, "--dataset", tmp / "missing.ds",
                   "--ckpt", tmp / "m.ckpt")
        assert code == 3
        assert "missing.ds" in capsys.readouterr().err

    def test_shape_mismatch_exit_3(self, tiny):
        tmp, cfg = tiny
        ds = tmp / "train.ds"
        run("generate", "--config", cfg, "--out", ds)
        bad_cfg = tmp / "bad.ini"
        bad_cfg.write_text(TINY_CONFIG.replace("m_tx = 2", "m_tx = 4"))
        assert run("train", "--config", bad_cfg, "--dataset", ds, "--ckpt", tmp / "m.ckpt") == 3

    def test_rerun_identical_checkpoint_and_csv(self, tiny):
        tmp, cfg = tiny
        train_ds, test_ds = tmp / "train.ds", tmp / "test.ds"
        run("generate", "--config", cfg, "--out", train_ds)
        run("generate", "--config", cfg, "--out", test_ds, "--split", "test")
        outs = []
        for tag in ("1", "2"):
            ckpt, csv_out = tmp / f"m{tag}.ckpt", tmp / f"r{tag}.csv"
            threads = "1" if tag == "1" else "4"
            run("train", "--config", cfg, "--dataset", train_ds, "--ckpt", ckpt)
            run("eval", "--config", cfg, "--dataset", test_ds, "--ckpt", ckpt,
                "--out", csv_out, "--threads", threads)
            outs.append((ckpt.read_bytes(), csv_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_incompatible_checkpoint_exit_5(self, tiny):
        tmp, cfg = tiny
        train_ds = tmp / "train.ds"
        run("generate", "--config", cfg, "--out", train_ds)
        ckpt = tmp / "model.ckpt"
        run("train", "--config", cfg, "--dataset", train_ds, "--ckpt", ckpt)
        other_cfg = tmp / "other.ini"
        other_cfg.write_text(TINY_CONFIG.replace("m_tx = 2", "m_tx = 4"))
        other_ds = tmp / "other.ds"
        run("generate", "--config", other_cfg, "--out", other_ds, "--split", "test")
        code = run("eval", "--config", other_cfg, "--dataset", other_ds,
                   "--ckpt", ckpt, "--out", tmp / "r.csv")
        assert code == 5

    def test_corrupt_checkpoint_exit_5(self, tiny):
        tmp, cfg = tiny
        test_ds = tmp / "test.ds"
        run("generate", "--config", cfg, "--out", test_ds, "--split", "test")
        bad = tmp / "bad.ckpt"
        bad.write_bytes(b"\x01" * 64)
        assert run("eval", "--config", cfg, "--dataset", test_ds,
                   "--ckpt", bad, "--out", tmp / "r.csv") == 5

    def test_non_finite_eval_rate_exit_1(self, tiny, monkeypatch, capsys):
        tmp, cfg = tiny
        test_ds, ckpt = tmp / "test.ds", tmp / "model.ckpt"
        run("generate", "--config", cfg, "--out", test_ds, "--split", "test")
        mc = models.ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        models.save_checkpoint(ckpt, mc, models.init_params(mc, np.random.default_rng(0)))
        real_forward = evaluation.forward_graph

        def nan_forward(h, params, model_cfg, training):
            wr, wi, p = real_forward(h, params, model_cfg, training)
            return wr * np.nan, wi, p

        monkeypatch.setattr(evaluation, "forward_graph", nan_forward)
        assert run("eval", "--config", cfg, "--dataset", test_ds, "--ckpt", ckpt,
                   "--out", tmp / "r.csv") == 1
        assert "NNBF-P at -5.0 dB: non-finite rate on sample 0" in capsys.readouterr().err
        assert not (tmp / "r.csv").exists()

    def test_non_finite_dataset_exit_3(self, tiny, capsys):
        tmp, cfg = tiny
        test_ds = tmp / "test.ds"
        run("generate", "--config", cfg, "--out", test_ds, "--split", "test")
        raw = bytearray(test_ds.read_bytes())
        raw[-8:] = np.float64(np.nan).tobytes()          # imag part of the last sample's last entry
        test_ds.write_bytes(bytes(raw))
        assert run("eval", "--config", cfg, "--dataset", test_ds, "--out", tmp / "r.csv") == 3
        assert "non-finite channel entry or SNR offset in sample 3" in capsys.readouterr().err
        assert not (tmp / "r.csv").exists()

    def test_diverged_training_exit_4(self, tiny, monkeypatch):
        tmp, cfg = tiny
        train_ds = tmp / "train.ds"
        run("generate", "--config", cfg, "--out", train_ds)
        from beamopt import cli as cli_module
        from beamopt.trainer import TrainingDiverged

        def explode(*args, **kwargs):
            raise TrainingDiverged(epoch=1, batch=2, sample_index=3)

        monkeypatch.setattr(cli_module, "train", explode)
        assert run("train", "--config", cfg, "--dataset", train_ds,
                   "--ckpt", tmp / "m.ckpt") == 4

    def test_baselines_only_eval(self, tiny):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace("ZF, MMSE, NNBF-P", "ZF, MMSE"))
        test_ds = tmp / "test.ds"
        run("generate", "--config", cfg, "--out", test_ds, "--split", "test")
        csv_out = tmp / "r.csv"
        assert run("eval", "--config", cfg, "--dataset", test_ds, "--out", csv_out) == 0
        lines = csv_out.read_text().splitlines()
        methods = {line.split(",")[1] for line in lines[1:]}
        assert methods == {"ZF", "MMSE"}


class TestPlot:
    def test_malformed_csv_exit_6(self, tiny):
        tmp, _ = tiny
        bad = tmp / "bad.csv"
        bad.write_text("not,a,results,file\n")
        assert run("plot", bad, "--out", tmp / "x.svg") == 6

    def test_empty_csv_exit_6(self, tiny):
        tmp, _ = tiny
        bad = tmp / "empty.csv"
        bad.write_text("")
        assert run("plot", bad, "--out", tmp / "x.svg") == 6

    def test_byte_identical_svg(self, tiny):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace("ZF, MMSE, NNBF-P", "ZF"))
        ds = tmp / "t.ds"
        run("generate", "--config", cfg, "--out", ds, "--split", "test")
        csv_out = tmp / "r.csv"
        run("eval", "--config", cfg, "--dataset", ds, "--out", csv_out)
        a, b = tmp / "a.svg", tmp / "b.svg"
        run("plot", csv_out, "--out", a)
        run("plot", csv_out, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_clean_build_passes(self, capsys):
        assert run("verify") == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_corrupted_gelu_constant_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(autodiff, "_INV_SQRT_2PI", 0.5)   # true value ~0.3989
        assert run("verify") == 1
        out = capsys.readouterr().out
        assert "grad_gelu" in out and "FAIL" in out

    def test_check_objects_report_names(self):
        results = verify.run_checks()
        assert all(r.passed for r in results)
        assert len({r.name for r in results}) == len(results)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "beamopt.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "verify" in proc.stdout

    def test_desk_scale_flag(self, tmp_path):
        import importlib.resources
        preset = importlib.resources.files("beamopt") / "presets" / "exp01.ini"
        cfg = tmp_path / "exp01.ini"
        cfg.write_text(preset.read_text())
        out = tmp_path / "d.ds"
        assert run("generate", "--config", cfg, "--out", out, "--desk-scale",
                   "--seed", 1) == 0
        from beamopt.channel import load_dataset
        ds = load_dataset(out)
        assert ds.shape == (512, 8, 4, 4)
