import json
import os
import struct
import subprocess
import sys
import textwrap
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import erf

from beamopt import autodiff as ad
from beamopt import metrics
from beamopt.models import (CHECKPOINT_ALIGN, CHECKPOINT_VERSION, CheckpointError, ModelConfig,
                            basic_block, channel_to_input,
                            forward_graph, init_params, load_checkpoint, save_checkpoint)


def rand_batch(rng, b, k, m, n):
    return (rng.standard_normal((b, k, m, n)) + 1j * rng.standard_normal((b, k, m, n))) / np.sqrt(2)


def gelu_ref(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


class TestModelConfig:
    def test_flatten_width_is_8nmk(self):
        cfg = ModelConfig(m_tx=4, n_ue=4, k_sc=48)
        assert cfg.flat_features == 8 * 4 * 4 * 48 == 6144

    def test_k_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(m_tx=2, n_ue=2, k_sc=6)

    def test_backbone_feature_budget_enforced(self):
        with pytest.raises(ValueError, match="8K features"):
            ModelConfig(m_tx=2, n_ue=2, k_sc=8,
                        bb_spec=((2, 16, False), (16, 16, True), (16, 16, True)))

    def test_first_block_must_take_iq(self):
        with pytest.raises(ValueError, match="I/Q"):
            ModelConfig(m_tx=2, n_ue=2, k_sc=8, bb_spec=((4, 32, True), (32, 32, True)))

    def test_json_round_trip(self):
        cfg = ModelConfig(m_tx=4, n_ue=2, k_sc=16, joint_power=False, fc_widths_bf=(64, 32))
        assert ModelConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


class TestInitParams:
    def test_deterministic_per_seed(self):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        a = init_params(cfg, np.random.default_rng(42))
        b = init_params(cfg, np.random.default_rng(42))
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name].data, b.tensors[name].data)

    def test_kaiming_scale(self):
        cfg = ModelConfig(m_tx=4, n_ue=4, k_sc=48)
        params = init_params(cfg, np.random.default_rng(0))
        w = params.tensors["bf0.w"].data        # fan_in = 8NMK = 6144, large sample
        assert w.std() == pytest.approx(np.sqrt(2.0 / w.shape[1]), rel=0.05)
        conv = params.tensors["bb1.conv.w"].data
        assert conv.std() == pytest.approx(np.sqrt(2.0 / (16 * 3)), rel=0.05)

    def test_biases_zero_gamma_one(self):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        params = init_params(cfg, np.random.default_rng(1))
        np.testing.assert_array_equal(params.tensors["bf0.b"].data, np.zeros(1024))
        np.testing.assert_array_equal(params.tensors["bb0.bn.gamma"].data, np.ones(16))
        np.testing.assert_array_equal(params.tensors["bb0.bn.beta"].data, np.zeros(16))

    def test_forward_finite_for_many_random_configs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 5))
            cfg = ModelConfig(m_tx=m, n_ue=n, k_sc=8,
                              joint_power=bool(rng.integers(0, 2)),
                              fc_widths_bf=(32,), fc_widths_pw=(32,))
            params = init_params(cfg, rng)
            h = rand_batch(rng, 2, 8, m, n)
            w, p = forward_graph(h, params, cfg, training=False)
            assert np.all(np.isfinite(w.data))
            assert np.all(np.isfinite(p.data))


class TestChannelToInput:
    def test_shape_and_iq_layout(self):
        rng = np.random.default_rng(3)
        h = rand_batch(rng, 2, 4, 3, 2)
        x = channel_to_input(h)
        assert x.shape == (2 * 2 * 3, 4, 2)
        # pair index (n, m) lexicographic within each batch element
        b, n, m, k = 1, 1, 2, 3
        row = b * (2 * 3) + n * 3 + m
        assert x[row, k, 0] == h[b, k, m, n].real
        assert x[row, k, 1] == h[b, k, m, n].imag


class TestBasicBlock:
    def test_channel_expansion_keeps_length(self):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.standard_normal((6, 48, 2)))
        w = ad.Tensor(rng.standard_normal((16, 2, 3)) * 0.1)
        out = basic_block(x, w, ad.Tensor(np.ones(16)), ad.Tensor(np.zeros(16)),
                          ad.BatchNormState.fresh(16), downsample=False, training=True)
        assert out.data.shape == (6, 48, 16)

    def test_downsample_halves_length(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.standard_normal((6, 48, 16)))
        w = ad.Tensor(rng.standard_normal((32, 16, 3)) * 0.1)
        out = basic_block(x, w, ad.Tensor(np.ones(32)), ad.Tensor(np.zeros(32)),
                          ad.BatchNormState.fresh(32), downsample=True, training=True)
        assert out.data.shape == (6, 24, 32)

    def test_matches_layerwise_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 2, 8))
        w = rng.standard_normal((16, 2, 3)) * 0.3
        gamma = rng.uniform(0.5, 1.5, 16)
        beta = rng.standard_normal(16) * 0.2
        out = basic_block(ad.Tensor(x.transpose(0, 2, 1)), ad.Tensor(w), ad.Tensor(gamma),
                          ad.Tensor(beta), ad.BatchNormState.fresh(16), downsample=False,
                          training=True).data.transpose(0, 2, 1)

        xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
        conv = np.zeros((4, 16, 8))
        for bb in range(4):
            for oo in range(16):
                for tt in range(8):
                    conv[bb, oo, tt] = np.sum(w[oo] * xp[bb, :, tt:tt + 3])
        mu = conv.mean(axis=(0, 2), keepdims=True)
        var = conv.var(axis=(0, 2), keepdims=True)
        normed = (conv - mu) / np.sqrt(var + 1e-5)
        expected = gelu_ref(gamma[None, :, None] * normed + beta[None, :, None])
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestForward:
    def test_output_shapes(self):
        cfg = ModelConfig(m_tx=4, n_ue=4, k_sc=48, fc_widths_bf=(64,), fc_widths_pw=(64,))
        params = init_params(cfg, np.random.default_rng(7))
        h = rand_batch(np.random.default_rng(8), 2, 48, 4, 4)
        w, p = forward_graph(h, params, cfg, training=False)
        assert w.data.shape == (2, 48, 4, 4, 2)
        assert p.data.shape == (2, 4)

    def test_constraints_for_arbitrary_parameters(self):
        rng = np.random.default_rng(9)
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(32,), fc_widths_pw=(32,))
        for _ in range(50):
            params = init_params(cfg, rng)
            for t in params.tensors.values():        # arbitrary, not just init-scaled
                t.data += rng.standard_normal(t.data.shape) * 0.5
            h = rand_batch(rng, 3, 8, 2, 2)
            w, p = forward_graph(h, params, cfg, training=False)
            norms = np.linalg.norm(metrics.as_complex(w.data), axis=2)
            assert np.max(np.abs(norms - 1.0)) <= 1e-9
            np.testing.assert_allclose(p.data.sum(axis=1), np.full(3, float(cfg.n_ue)),
                                       atol=1e-12)
            assert np.all(p.data >= 0)

    def test_nnbf_mode_equal_power(self):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, joint_power=False)
        params = init_params(cfg, np.random.default_rng(10))
        h = rand_batch(np.random.default_rng(11), 2, 8, 2, 2)
        _, p = forward_graph(h, params, cfg, training=False)
        np.testing.assert_array_equal(p.data, np.ones((2, 2)))

    def test_nnbf_and_nnbf_p_share_directions_for_same_seed(self):
        cfg_p = ModelConfig(m_tx=2, n_ue=2, k_sc=8, joint_power=True)
        cfg_e = ModelConfig(m_tx=2, n_ue=2, k_sc=8, joint_power=False)
        params_p = init_params(cfg_p, np.random.default_rng(12))
        params_e = init_params(cfg_e, np.random.default_rng(12))
        h = rand_batch(np.random.default_rng(13), 2, 8, 2, 2)
        w_p, _ = forward_graph(h, params_p, cfg_p, training=False)
        w_e, _ = forward_graph(h, params_e, cfg_e, training=False)
        np.testing.assert_array_equal(w_p.data, w_e.data)

    def test_duplicate_samples_get_identical_outputs(self):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        params = init_params(cfg, np.random.default_rng(14))
        single = rand_batch(np.random.default_rng(15), 1, 8, 2, 2)
        doubled = np.concatenate([single, single], axis=0)
        w, p = forward_graph(doubled, params, cfg, training=False)
        np.testing.assert_array_equal(w.data[0], w.data[1])
        np.testing.assert_array_equal(p.data[0], p.data[1])

    def test_shape_mismatch_rejected(self):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        params = init_params(cfg, np.random.default_rng(18))
        with pytest.raises(ValueError, match="does not match config"):
            forward_graph(rand_batch(np.random.default_rng(19), 1, 8, 3, 2), params, cfg,
                          training=False)

    def test_gradient_reaches_every_parameter(self):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        params = init_params(cfg, np.random.default_rng(20))
        h = rand_batch(np.random.default_rng(21), 4, 8, 2, 2)
        sigma2 = np.full((4, 2), 0.5)
        with ad.Tape() as tape:
            w, p = forward_graph(h, params, cfg, training=True)
            loss = metrics.neg_sum_rate_graph(w, h, p, sigma2)
        tape.backward(loss)
        for name, t in params.tensors.items():
            assert t.grad is not None, f"{name} missing grad"
            assert np.max(np.abs(t.grad)) > 0, f"{name} has all-zero grad"


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        params = init_params(cfg, np.random.default_rng(24))
        params.bn_states["bb0.bn"].mean[:] = 0.123
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == cfg
        for name in params.tensors:
            np.testing.assert_array_equal(params2.tensors[name].data, params.tensors[name].data)
        np.testing.assert_array_equal(params2.bn_states["bb0.bn"].mean,
                                      params.bn_states["bb0.bn"].mean)

    def test_identical_bytes_for_identical_params(self, tmp_path):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        params = init_params(cfg, np.random.default_rng(25))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, cfg, params)
        save_checkpoint(p2, cfg, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_rejected(self, tmp_path):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        params = init_params(cfg, np.random.default_rng(26))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params)
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda t: t.pop("bf0.w"), "missing parameter 'bf0.w'"),
        (lambda t: t.update({"pw1.b": np.zeros(3)}), "'pw1.b' shaped"),
        (lambda t: t.pop("bb1.bn.run_var"), "buffer 'bb1.bn.run_var'"),
        (lambda t: t.update({"extra": np.zeros(1)}), r"unexpected tensors \['extra'\]"),
        (lambda t: t.move_to_end("bb0.conv.w"), r"arrays in the order \['bb0.bn.gamma'"),
    ])
    def test_tensor_set_checked_against_config(self, tmp_path, edit, match):
        """A version 3 file whose array table, written here from the format's
        description, differs from the config's."""
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(16,), fc_widths_pw=(16,))
        tensors = init_params(cfg, np.random.default_rng(27)).flat_arrays()
        edit(tensors)
        header = json.dumps({"model": asdict(cfg),
                             "tensors": [[name, list(a.shape)] for name, a in tensors.items()]},
                            sort_keys=True).encode()
        header += b" " * (-(12 + len(header)) % CHECKPOINT_ALIGN)
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as f:
            f.write(b"BMCK" + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header)
            for a in tensors.values():
                f.write(a.tobytes())
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, bad", [("bf0.w", np.nan), ("pw1.b", np.inf),
                                           ("bb2.bn.run_var", -np.inf)])
    def test_non_finite_tensor_rejected(self, tmp_path, name, bad):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(16,), fc_widths_pw=(16,))
        params = init_params(cfg, np.random.default_rng(28))
        params.flat_arrays()[name].flat[-1] = bad
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params)
        with pytest.raises(CheckpointError, match=f"non-finite value in tensor '{name}'"):
            load_checkpoint(path)

    def test_huge_finite_tensor_loads(self, tmp_path):
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(16,), fc_widths_pw=(16,))
        params = init_params(cfg, np.random.default_rng(30))
        params.tensors["bf0.w"].data[:] = 1e200       # the sum of squares overflows
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params)
        _, back = load_checkpoint(path)
        np.testing.assert_array_equal(back.flat, params.flat)

    def test_version_1_rejected(self, tmp_path):
        """Versions 1 and 2 (the named-tensor container) are both rejected."""
        cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(29)))
        raw = bytearray(path.read_bytes())
        for version in (1, 2):
            raw[4:8] = struct.pack("<I", version)
            path.write_bytes(bytes(raw))
            with pytest.raises(CheckpointError, match=f"checkpoint version {version}, expected 3"):
                load_checkpoint(path)

    def test_loaded_values_survive_a_save_to_the_same_path(self, tmp_path):
        """The loaded parameters map the file. A save to the same path must leave
        them as they were; a child process runs it, so that a SIGBUS from a
        truncated mapping fails this test instead of killing the test run."""
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from beamopt.models import ModelConfig, init_params, load_checkpoint, save_checkpoint
            path = sys.argv[1]
            cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(16,), fc_widths_pw=(16,))
            save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(31)))
            with open(path, "rb") as f:
                first = f.read()
            _, loaded = load_checkpoint(path)
            assert not loaded.flat.flags.owndata or sys.byteorder == "big"
            save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(32)))
            with open(path, "rb") as f:
                assert f.read() != first
            payload = b"".join(a.tobytes() for a in loaded.flat_arrays().values())
            assert payload == first[len(first) - len(payload):], "loaded values changed"
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(metrics.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "m.ckpt")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr}"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00" * 128)
        with pytest.raises(CheckpointError, match="not a model checkpoint"):
            load_checkpoint(path)
