"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure (run with `pytest tests/test_acceptance.py -v -s`).
Criterion 8 trains the desk-scale model and takes a couple of minutes; the
rest are fast.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import beamopt as bo
from beamopt import autodiff as ad
from beamopt import metrics
from beamopt.evaluation import evaluate
from beamopt.models import forward_graph
from beamopt.verify import run_checks


def announce(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def rand_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@pytest.fixture(scope="module")
def zf_corpus():
    """100 random 4x4 channels with 48 subcarriers, shared by criteria 2-3."""
    rng = np.random.default_rng(2024)
    return [rand_complex(rng, 48, 4, 4) for _ in range(100)]


def test_criterion_01_metric_oracle_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(n, 9))
        k = int(rng.integers(1, 17))
        h = rand_complex(rng, k, m, n)
        w = rand_complex(rng, k, m, n)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        p = rng.uniform(0.05, 1.0, n)
        p *= n / max(p.sum(), n)           # keep within the budget
        sigma2 = rng.uniform(0.2, 3.0, n)
        bf = metrics.BeamformerSet(w_tilde=w, p=p, p_max=float(n))
        gamma = metrics.sinr_per_ue(h, bf, sigma2)
        wsr = metrics.weighted_sum_rate(gamma)

        # scalar transcription of the SINR and sum-rate definitions
        wsr_oracle = 0.0
        for kk in range(k):
            for nn in range(n):
                sig = p[nn] * abs(np.dot(h[kk, :, nn], w[kk, :, nn])) ** 2
                intf = sum(p[ii] * abs(np.dot(h[kk, :, nn], w[kk, :, ii])) ** 2
                           for ii in range(n) if ii != nn)
                g = sig / (intf + sigma2[nn])
                worst = max(worst, abs(gamma[kk, nn] - g))
                wsr_oracle += np.log2(1.0 + g)
        worst = max(worst, abs(wsr - wsr_oracle / k))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    announce(1, f"max deviation {worst:.2e} over 1000 instances in {elapsed:.1f}s")


def test_criterion_02_zf_nulling(zf_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for h in zf_corpus:
        for k in range(48):
            w, _ = bo.zf_beamformer(h[k])
            cross = h[k].T @ w
            np.fill_diagonal(cross, 0.0)
            worst = max(worst, float(np.max(np.abs(cross))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    announce(2, f"max cross gain {worst:.2e} over 100x48 slices in {elapsed:.1f}s")


def test_criterion_03_mmse_limit_and_ordering(zf_corpus):
    worst = 0.0
    for h in zf_corpus:
        for k in range(48):
            w_zf, _ = bo.zf_beamformer(h[k])
            w_mm, _ = bo.mmse_beamformer(h[k], 1e-12)
            for i in range(4):
                phase = np.vdot(w_zf[:, i], w_mm[:, i])
                phase /= max(abs(phase), 1e-300)
                worst = max(worst, float(np.linalg.norm(w_mm[:, i] - phase * w_zf[:, i])))
    assert worst <= 1e-5

    rng = np.random.default_rng(3)
    sigma2 = 10.0 ** (-0.5)                       # 5 dB
    zf_se, mm_se = [], []
    for _ in range(500):
        h = rand_complex(rng, 1, 4, 4)
        noise = np.full(4, sigma2)
        for se, reg in ((zf_se, 0.0), (mm_se, sigma2)):
            w, _ = bo.baselines.inverse_directions(h, reg)
            bf = bo.BeamformerSet(w_tilde=w, p=bo.equal_power(4, 4.0), p_max=4.0)
            se.append(metrics.weighted_sum_rate(metrics.sinr_per_ue(h, bf, noise)))
    assert np.mean(mm_se) >= np.mean(zf_se)
    announce(3, f"aligned distance {worst:.2e}; SE(MMSE)={np.mean(mm_se):.3f} >= "
                f"SE(ZF)={np.mean(zf_se):.3f} at 5 dB over 500 samples")


def test_criterion_04_duality_structure():
    rng = np.random.default_rng(4)
    worst_cos = 0.0
    for lam in (0.0, 1.0, 10.0, 100.0):
        h = rand_complex(rng, 4, 1)
        w, _ = bo.optimal_structure_bf(h, bo.VirtualUplinkPowers(np.array([lam])),
                                       np.ones(1), 1.0)
        mf = bo.matched_filter(h)
        worst_cos = max(worst_cos, abs(abs(np.vdot(mf[:, 0], w[:, 0])) - 1.0))
    assert worst_cos <= 1e-12

    worst = 0.0
    for _ in range(50):
        h = rand_complex(rng, 4, 4)
        lam = rng.uniform(0.1, 3.0, 4)
        sigma2 = float(rng.uniform(0.3, 2.0))
        w, _ = bo.optimal_structure_bf(h, bo.VirtualUplinkPowers(lam), np.ones(4), sigma2)
        a = h.conj()
        cov = np.eye(4) + (a * lam) @ a.conj().T / sigma2
        oracle = np.linalg.inv(cov) @ a
        oracle /= np.linalg.norm(oracle, axis=0, keepdims=True)
        worst = max(worst, float(np.max(np.abs(w - oracle))))
    assert worst <= 1e-10
    announce(4, f"collinearity dev {worst_cos:.2e}; inverse-oracle dev {worst:.2e}")


def test_criterion_05_fixed_point_self_consistency():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        h = rand_complex(rng, 2, 2)
        sigma2 = float(rng.uniform(0.3, 2.0))
        lam = bo.solve_virtual_uplink_powers(h, np.ones(2), sigma2)
        sinrs = bo.baselines.virtual_uplink_sinrs(h, lam.lam, sigma2)
        worst = max(worst, float(np.max(np.abs(sinrs - 1.0))))
    assert worst <= 1e-8
    announce(5, f"max target deviation {worst:.2e} on 100 feasible 2x2 instances")


def fd_grad_entries(loss_of, x0, indices, step=1e-6):
    vals = np.empty(len(indices))
    for j, i in enumerate(indices):
        hi, lo = x0.copy(), x0.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        vals[j] = (loss_of(hi) - loss_of(lo)) / (2 * step)
    return vals


def test_criterion_06_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)

    def layer_check(build, x0, rel_tol=1e-5):
        t = ad.Tensor(x0.copy(), requires_grad=True)
        with ad.Tape() as tape:
            out = build(t)
        tape.backward(out)
        numeric = fd_grad_entries(lambda x: build(ad.Tensor(x)).item(), x0,
                                  range(x0.size))
        denom = max(np.max(np.abs(numeric)), 1e-12)
        rel = np.max(np.abs(t.grad.ravel() - numeric)) / denom
        assert rel <= rel_tol, f"layer gradient mismatch: {rel:.2e}"
        return rel

    worst_layer = 0.0
    conv_w = rng.standard_normal((3, 2, 3))
    lin_w = rng.standard_normal((4, 6))
    lin_b = rng.standard_normal(4)
    mix_sm = rng.standard_normal((3, 5))
    mix_bn = rng.standard_normal((2, 3, 4))
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3)

    def mean_square(y):
        return ad.tmean(y * y)

    layers = [
        (lambda t: ad.tmean(ad.gelu(t)), rng.standard_normal(12)),
        (lambda t: mean_square(ad.linear(t, ad.Tensor(lin_w), ad.Tensor(lin_b))),
         rng.standard_normal((3, 6))),
        (lambda t: ad.tmean(ad.softmax(t, axis=1) * mix_sm), rng.standard_normal((3, 5))),
        (lambda t: mean_square(ad.conv1d(t, ad.Tensor(conv_w), stride=2, padding=1)),
         rng.standard_normal((2, 2, 8))),
        (lambda t: ad.tmean(ad.batchnorm1d(t, ad.Tensor(gamma), ad.Tensor(beta),
                                           ad.BatchNormState.fresh(3), training=True) * mix_bn),
         rng.standard_normal((2, 3, 4))),
        (lambda t: mean_square(ad.flatten_groups(t, group=2)), rng.standard_normal((4, 3, 2))),
    ]
    for build, x0 in layers:
        worst_layer = max(worst_layer, layer_check(build, x0))

    # full NNBF-P loss graph, M = N = 2, K = 4
    cfg = bo.ModelConfig(m_tx=2, n_ue=2, k_sc=4)
    params = bo.init_params(cfg, rng)
    h = rand_complex(rng, 1, 4, 2, 2)
    sigma2 = rng.uniform(0.4, 1.2, (1, 2))

    with ad.Tape() as tape:
        w, p = forward_graph(h, params, cfg, training=True)
        loss = metrics.neg_sum_rate_graph(w, h, p, sigma2)
    tape.backward(loss)

    worst_full = 0.0
    for name, tensor in params.tensors.items():
        x0 = tensor.data.copy()

        def loss_of(flat, tensor=tensor, x0=x0):
            tensor.data = flat.reshape(x0.shape)
            states = {k: v.copy() for k, v in params.bn_states.items()}
            w_, p_ = forward_graph(h, params, cfg, training=True)
            for k in params.bn_states:
                params.bn_states[k] = states[k]
            val = -metrics.per_sample_sum_rates(metrics.as_complex(w_.data), h, p_.data,
                                                sigma2).mean()
            tensor.data = x0
            return val

        analytic = tensor.grad.ravel()
        if x0.size <= 64:
            indices = list(range(x0.size))
        else:                      # largest-gradient coordinates of the big FC tensors
            indices = list(np.argsort(np.abs(analytic))[-32:])
        numeric = fd_grad_entries(loss_of, x0.ravel(), indices)
        denom = max(np.max(np.abs(numeric)), np.max(np.abs(analytic[indices])), 1e-9)
        rel = np.max(np.abs(analytic[indices] - numeric)) / denom
        assert rel <= 1e-4, f"{name}: full-graph gradient mismatch {rel:.2e}"
        worst_full = max(worst_full, rel)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(6, f"layer rel err {worst_layer:.2e}, full-graph rel err {worst_full:.2e} "
                f"in {elapsed:.1f}s")


def test_criterion_07_constraints_by_construction():
    rng = np.random.default_rng(7)
    cfg = bo.ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(32,), fc_widths_pw=(32,))
    worst_norm, worst_pow = 0.0, 0.0
    for _ in range(1000):
        params = bo.init_params(cfg, rng)
        for t in params.tensors.values():
            t.data = t.data + rng.standard_normal(t.data.shape) * 0.3
        h = rand_complex(rng, 1, 8, 2, 2)
        w, p = forward_graph(h, params, cfg, training=False)
        norms = np.linalg.norm(metrics.as_complex(w.data), axis=2)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
        worst_pow = max(worst_pow, float(np.max(np.abs(p.data.sum(axis=1) - cfg.n_ue))))
    assert worst_norm <= 1e-9
    assert worst_pow <= 1e-12
    announce(7, f"1000 random-parameter passes: norm dev {worst_norm:.2e}, "
                f"power dev {worst_pow:.2e}")


class DeskCfg:
    profile = "TDL-A"
    delay_spread_ns = 30.0
    m_tx = 2
    n_ue = 2
    k_sc = 8
    scs_hz = 30e3
    jitter_db = 0.0


def test_criterion_08_desk_scale_training():
    t0 = time.perf_counter()
    train_ds = bo.gen_dataset(DeskCfg(), count=512, seed=101)
    test_ds = bo.gen_dataset(DeskCfg(), count=256, seed=102)

    cfg = bo.ModelConfig(m_tx=2, n_ue=2, k_sc=8, joint_power=True)
    params = bo.init_params(cfg, np.random.default_rng(5))
    tc = bo.TrainConfig(epochs=200, batch_size=16, lr=1e-3, seed=7,
                        snr_sampling="fixed", fixed_snr_db=5.0, early_stop_patience=0)
    best, report = bo.train(cfg, params, train_ds, tc)

    assert report.train_loss[-1] <= 0.8 * report.train_loss[0], \
        f"final {report.train_loss[-1]:.4f} vs 0.8 x initial {report.train_loss[0]:.4f}"

    rows = evaluate(test_ds, [5.0], ["MMSE", "NNBF-P"], {"NNBF-P": (cfg, best)})
    se = {r.method: r.se_mean for r in rows}
    assert se["NNBF-P"] >= se["MMSE"], \
        f"NNBF-P {se['NNBF-P']:.4f} < MMSE {se['MMSE']:.4f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    announce(8, f"loss {report.train_loss[0]:.3f} -> {report.train_loss[-1]:.3f}; "
                f"SE(NNBF-P)={se['NNBF-P']:.4f} >= SE(MMSE)={se['MMSE']:.4f}; "
                f"{elapsed:.0f}s")


TINY_CONFIG = """
[experiment]
schema_version = 1
id = determinism
profile = TDL-C
delay_spread_ns = 100
m_tx = 2
n_ue = 2
k_sc = 8
snr_grid_db = -5, 5
jitter_db = 10
methods = ZF, MMSE, NNBF-P

[dataset]
train_samples = 16
test_samples = 8
seed = 11

[train]
epochs = 2
batch_size = 8
lr = 0.001
seed = 13
snr_sampling = fixed
"""


def test_criterion_09_end_to_end_determinism(tmp_path):
    """The CLI pipeline in fresh processes on 1 and 2 BLAS threads writes the same bytes."""
    cfg_path = tmp_path / "det.ini"
    cfg_path.write_text(TINY_CONFIG)
    src = str(Path(bo.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    artifacts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=pythonpath)
        train_ds, test_ds = tmp_path / f"train_{threads}.ds", tmp_path / f"test_{threads}.ds"
        ckpt, csv_out = tmp_path / f"model_{threads}.ckpt", tmp_path / f"res_{threads}.csv"
        for argv in (["generate", "--config", cfg_path, "--out", train_ds],
                     ["generate", "--config", cfg_path, "--out", test_ds, "--split", "test"],
                     ["train", "--config", cfg_path, "--dataset", train_ds, "--ckpt", ckpt],
                     ["eval", "--config", cfg_path, "--dataset", test_ds, "--ckpt", ckpt,
                      "--out", csv_out]):
            proc = subprocess.run([sys.executable, "-m", "beamopt.cli", *map(str, argv)],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        artifacts.append((train_ds.read_bytes(), test_ds.read_bytes(),
                          ckpt.read_bytes(), csv_out.read_bytes()))
    assert artifacts[0] == artifacts[1]
    announce(9, "dataset, checkpoint and CSV byte-identical on 1 and 2 BLAS threads")


def test_criterion_10_verify_fast_and_green():
    t0 = time.perf_counter()
    checks = run_checks()
    elapsed = time.perf_counter() - t0
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"failed checks: {failed}"
    assert elapsed < 60.0
    announce(10, f"{len(checks)} verify checks green in {elapsed:.1f}s")
