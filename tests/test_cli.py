import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamopt
from beamopt import autodiff, channel, evaluation, models, results, verify
from beamopt.cli import main

TINY_CONFIG = """
[experiment]
schema_version = 1
id = tiny
profile = TDL-A
delay_spread_ns = 30
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

    @pytest.mark.parametrize("line", ["modulation = QPSK", "resource_blocks = 4",
                                      "allow_snr_outside_range = false"])
    def test_retired_key_exit_2(self, tiny, capsys, line):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace("k_sc = 8", f"k_sc = 8\n{line}"))
        assert run("generate", "--config", cfg, "--out", tmp / "x.ds") == 2
        key = line.split(" =")[0]
        assert f"config error: experiment.{key}: unknown key" in capsys.readouterr().err
        assert not (tmp / "x.ds").exists()

    @pytest.mark.parametrize("old, new", [("delay_spread_ns = 30", "delay_spread_ns = nan"),
                                          ("jitter_db = 6", "jitter_db = inf")])
    def test_non_finite_experiment_value_exit_2(self, tiny, capsys, old, new):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace(old, new))
        assert run("generate", "--config", cfg, "--out", tmp / "x.ds") == 2
        key = old.split(" =")[0]
        assert f"config error: experiment.{key}: must be finite" in capsys.readouterr().err
        assert not (tmp / "x.ds").exists()

    def test_zero_sample_count_exit_2(self, tiny, capsys):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace("train_samples = 8", "train_samples = 0"))
        assert run("generate", "--config", cfg, "--out", tmp / "x.ds") == 2
        assert "train_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [("epochs = 2", "epochs = 0", "train.epochs"),
                                               ("lr = 0.001", "lr = -1", "train.lr"),
                                               ("seed = 5", "seed = 5\nval_fraction = 1.5",
                                                "train.val_fraction"),
                                               ("seed = 5", "seed = 5\nfixed_snr_db = 500",
                                                "train.fixed_snr_db"),
                                               ("seed = 5", "seed = 5\nlr_dcay = 0.5",
                                                "train.lr_dcay")])
    def test_invalid_train_value_exit_2(self, tiny, capsys, old, new, key):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace(old, new))
        assert run("generate", "--config", cfg, "--out", tmp / "x.ds") == 2
        assert f"config error: {key}:" in capsys.readouterr().err


class TestTrainEval:
    def test_empty_training_split_exit_2(self, tiny, capsys):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace("train_samples = 8", "train_samples = 2")
                       .replace("seed = 5", "seed = 5\nval_fraction = 0.9"))
        assert run("train", "--config", cfg, "--dataset", tmp / "train.ds",
                   "--ckpt", tmp / "m.ckpt") == 2
        assert "config error: train.val_fraction: 0.9 of 2 samples leaves no training sample" \
            in capsys.readouterr().err

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

    def test_dataset_smaller_than_train_samples_exit_3(self, tiny, capsys):
        tmp, cfg = tiny
        test_ds = tmp / "test.ds"
        run("generate", "--config", cfg, "--out", test_ds, "--split", "test")
        capsys.readouterr()
        assert run("train", "--config", cfg, "--dataset", test_ds, "--ckpt", tmp / "m.ckpt") == 3
        assert "dataset has 4 samples, config wants train_samples = 8" in capsys.readouterr().err
        assert not (tmp / "m.ckpt").exists()

    def test_dataset_smaller_than_test_samples_exit_3(self, tiny, capsys):
        tmp, cfg = tiny
        small_cfg, test_ds = tmp / "small.ini", tmp / "test.ds"
        small_cfg.write_text(TINY_CONFIG.replace("test_samples = 4", "test_samples = 2"))
        run("generate", "--config", small_cfg, "--out", test_ds, "--split", "test")
        capsys.readouterr()
        assert run("eval", "--config", cfg, "--dataset", test_ds, "--out", tmp / "r.csv") == 3
        assert "dataset has 2 samples, config wants test_samples = 4" in capsys.readouterr().err
        assert not (tmp / "r.csv").exists()

    def test_rerun_identical_checkpoint_and_csv(self, tiny):
        tmp, cfg = tiny
        train_ds, test_ds = tmp / "train.ds", tmp / "test.ds"
        run("generate", "--config", cfg, "--out", train_ds)
        run("generate", "--config", cfg, "--out", test_ds, "--split", "test")
        outs = []
        for tag in ("1", "2"):
            ckpt, csv_out = tmp / f"m{tag}.ckpt", tmp / f"r{tag}.csv"
            run("train", "--config", cfg, "--dataset", train_ds, "--ckpt", ckpt)
            run("eval", "--config", cfg, "--dataset", test_ds, "--ckpt", ckpt,
                "--out", csv_out)
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

    def test_non_finite_checkpoint_exit_5(self, tiny, capsys):
        tmp, cfg = tiny
        test_ds, ckpt = tmp / "test.ds", tmp / "model.ckpt"
        run("generate", "--config", cfg, "--out", test_ds, "--split", "test")
        mc = models.ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        params = models.init_params(mc, np.random.default_rng(0))
        params.tensors["bf0.w"].data[0, 0] = np.nan
        models.save_checkpoint(ckpt, mc, params)
        assert run("eval", "--config", cfg, "--dataset", test_ds, "--ckpt", ckpt,
                   "--out", tmp / "r.csv") == 5
        assert "non-finite value in tensor 'bf0.w'" in capsys.readouterr().err
        assert not (tmp / "r.csv").exists()

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
            w, p = real_forward(h, params, model_cfg, training)
            return w * np.nan, p

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

    def test_zf_singular_sample_named_on_stderr_and_left_out(self, tiny, capsys):
        tmp, cfg = tiny
        cfg.write_text(TINY_CONFIG.replace("ZF, MMSE, NNBF-P", "ZF, MMSE"))
        test_ds, csv_out = tmp / "test.ds", tmp / "r.csv"
        run("generate", "--config", cfg, "--out", test_ds, "--split", "test")
        ds = channel.load_dataset(test_ds)
        ds.h[1, :, :, 1] = ds.h[1, :, :, 0]          # two UEs share one channel: singular Gram
        channel.save_dataset(ds, test_ds)
        capsys.readouterr()
        assert run("eval", "--config", cfg, "--dataset", test_ds, "--out", csv_out) == 0
        assert "dropped 1 ZF-singular samples from every method: 1" in capsys.readouterr().err
        rows = results.read_results_csv(csv_out)
        assert len(rows) == 4 and all(r.n == 3 for r in rows)

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
        assert {"grad_basic_block", "grad_sum_rates"} <= {r.name for r in results}

    def test_each_check_reports_its_wall_time(self, capsys):
        assert run("verify") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if " PASS " in l]
        assert len(lines) == len(verify.ALL_CHECKS)
        assert all(float(l.split()[2]) >= 0.0 and l.split()[3] == "ms" for l in lines)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "beamopt.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "verify" in proc.stdout

    def test_import_loads_no_scipy(self):
        code = ("import sys, beamopt.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "[]"

    def test_kernels_are_built_lazily_and_leave_no_files(self, tiny):
        """`train` without a compiler on PATH writes the compiled kernels' checkpoint, and
        `init_params` their bytes; neither run leaves a file in TMPDIR, and importing
        builds nothing."""
        tmp, cfg = tiny
        assert run("generate", "--config", cfg, "--out", tmp / "train.ds") == 0
        src = str(Path(beamopt.__file__).resolve().parents[1])
        no_cc = tmp / "bin-without-cc"
        no_cc.mkdir()
        init = ("import hashlib, numpy as np, beamopt.cli, beamopt.kernels as k; "
                "print(k.build.cache_info().currsize); "
                "from beamopt.models import ModelConfig, init_params; "
                "p = init_params(ModelConfig(m_tx=4, n_ue=2, k_sc=48), np.random.default_rng(9)); "
                "print(hashlib.sha256(p.flat.tobytes()).hexdigest(), k.build().normal is not None)")
        checkpoints, inits = {}, {}
        for kernel, path in (("c", os.environ.get("PATH", os.defpath)), ("numpy", str(no_cc))):
            tmpdir = tmp / f"tmpdir-{kernel}"
            tmpdir.mkdir()
            env = dict(os.environ, PATH=path, TMPDIR=str(tmpdir), PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "beamopt.cli", "train", "--config", str(cfg), "--dataset",
                 str(tmp / "train.ds"), "--ckpt", str(tmp / f"{kernel}.ckpt")],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0 and "RuntimeWarning" not in proc.stderr, proc.stderr
            checkpoints[kernel] = (tmp / f"{kernel}.ckpt").read_bytes()
            proc = subprocess.run([sys.executable, "-c", init], env=env, capture_output=True,
                                  text=True, timeout=60, check=True)
            built, digest, compiled = proc.stdout.split()
            assert built == "0"                        # `import beamopt.cli` built nothing
            assert compiled == str(kernel == "c") or shutil.which("cc") is None
            inits[kernel] = digest
            assert list(tmpdir.iterdir()) == []
        assert checkpoints["c"] == checkpoints["numpy"]
        assert inits["c"] == inits["numpy"]

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
