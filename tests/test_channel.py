import numpy as np
import pytest

from beamopt.channel import (ChannelDataset, CorruptDatasetError, DatasetShapeError,
                             DatasetVersionError, TdlProfile, draw_ue_snrs, gen_channel,
                             gen_dataset, gen_taps, load_dataset, sample_rng, save_dataset,
                             snr_db_to_noise_var, taps_to_freq)

# A few anchor values transcribed independently from the 3GPP TR 38.901
# NLOS tables (normalized delay, power dB) to pin the embedded data.
TDLA_ANCHORS = [(0.0, -13.4), (0.3819, 0.0), (9.6586, -29.7)]
TDLC_ANCHORS = [(0.0, -4.4), (0.6366, 0.0), (8.6523, -22.8)]


class SimpleCfg:
    def __init__(self, profile="TDL-A", delay_spread_ns=30.0, m_tx=2, n_ue=2,
                 k_sc=8, scs_hz=30e3, jitter_db=0.0):
        self.profile = profile
        self.delay_spread_ns = delay_spread_ns
        self.m_tx = m_tx
        self.n_ue = n_ue
        self.k_sc = k_sc
        self.scs_hz = scs_hz
        self.jitter_db = jitter_db


class TestTdlProfile:
    @pytest.mark.parametrize("name,anchors", [("TDL-A", TDLA_ANCHORS), ("TDL-C", TDLC_ANCHORS)])
    def test_anchor_taps_present(self, name, anchors):
        prof = TdlProfile.load(name)
        lin = 10.0 ** (np.array([p for _, p in anchors]) / 10.0)
        scale = prof.powers[np.searchsorted(prof.delays, anchors[0][0])] / lin[0]
        for (delay, _), power in zip(anchors, lin):
            idx = np.searchsorted(prof.delays, delay)
            assert prof.delays[idx] == pytest.approx(delay, abs=1e-12)
            assert prof.powers[idx] == pytest.approx(power * scale, rel=1e-12)

    @pytest.mark.parametrize("name", ["TDL-A", "TDL-C"])
    def test_power_normalization(self, name):
        prof = TdlProfile.load(name)
        assert abs(prof.powers.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", ["TDL-A", "TDL-C"])
    def test_delays_strictly_increasing(self, name):
        prof = TdlProfile.load(name)
        assert prof.delays[0] >= 0
        assert np.all(np.diff(prof.delays) > 0)

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown delay profile"):
            TdlProfile.load("TDL-B")

    def test_load_is_memoised_and_read_only(self):
        prof = TdlProfile.load("TDL-C")
        assert TdlProfile.load("TDL-C") is prof
        with pytest.raises(ValueError, match="read-only"):
            prof.powers[0] = 1.0


class TestGenTaps:
    def test_single_tap_unit_power(self):
        prof = TdlProfile(name="flat", delays=np.array([0.0]), powers=np.array([1.0]))
        rng = np.random.default_rng(0)
        second_moment = np.mean([abs(gen_taps(prof, 30.0, rng)[0][1]) ** 2
                                 for _ in range(100_000)])
        assert second_moment == pytest.approx(1.0, rel=0.02)

    def test_two_equal_taps_split_power(self):
        prof = TdlProfile(name="two", delays=np.array([0.0, 1.0]),
                          powers=np.array([0.5, 0.5]))
        rng = np.random.default_rng(1)
        draws = np.array([[abs(g) ** 2 for _, g in gen_taps(prof, 100.0, rng)]
                          for _ in range(100_000)])
        np.testing.assert_allclose(draws.mean(axis=0), [0.5, 0.5], rtol=0.05)

    def test_tdla_delays_scale_with_spread(self):
        prof = TdlProfile.load("TDL-A")
        rng = np.random.default_rng(2)
        delays = np.array([d for d, _ in gen_taps(prof, 30.0, rng)])
        np.testing.assert_allclose(delays, prof.delays * 30e-9, rtol=1e-12)

    def test_nonpositive_spread_rejected(self):
        prof = TdlProfile.load("TDL-A")
        with pytest.raises(ValueError, match="positive"):
            gen_taps(prof, 0.0, np.random.default_rng(3))


class TestTapsToFreq:
    def test_delta_at_origin(self):
        h = taps_to_freq([(0.0, 1.0 + 0.0j)], 8, 30e3)
        np.testing.assert_allclose(h, np.ones(8), atol=1e-15)

    def test_flat_gain(self):
        g = 0.3 - 0.7j
        h = taps_to_freq([(0.0, g)], 16, 30e3)
        np.testing.assert_allclose(h, np.full(16, g), atol=1e-15)
        assert np.max(np.abs(np.abs(h) - abs(g))) < 1e-15

    def test_two_taps_match_direct_sum(self):
        taps = [(10e-9, 0.5 + 0.1j), (150e-9, -0.2 + 0.4j)]
        k_sc, scs = 12, 30e3
        h = taps_to_freq(taps, k_sc, scs)
        for k in range(k_sc):
            expected = sum(g * np.exp(-2j * np.pi * k * scs * tau) for tau, g in taps)
            assert abs(h[k] - expected) < 1e-12

    def test_bad_args(self):
        with pytest.raises(ValueError):
            taps_to_freq([(0.0, 1.0)], 0, 30e3)
        with pytest.raises(ValueError):
            taps_to_freq([(0.0, 1.0)], 4, 0.0)


class TestDrawUeSnrs:
    def test_zero_jitter(self):
        out = draw_ue_snrs(5.0, 0.0, "gaussian", 4, np.random.default_rng(4))
        np.testing.assert_array_equal(out, np.full(4, 5.0))

    def test_moments_match_rule(self):
        rng = np.random.default_rng(5)
        draws = np.concatenate([draw_ue_snrs(5.0, 20.0, "gaussian", 10, rng)
                                for _ in range(10_000)])
        assert draws.mean() == pytest.approx(5.0, abs=0.3)
        # sigma = jitter/2 = 10 dB, mildly shrunk by the +/-20 dB clipping
        assert draws.std() == pytest.approx(10.0, rel=0.05)

    def test_clipping_bounds(self):
        rng = np.random.default_rng(6)
        draws = np.concatenate([draw_ue_snrs(5.0, 20.0, "gaussian", 10, rng)
                                for _ in range(10_000)])
        assert draws.min() >= -15.0 and draws.max() <= 25.0

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            draw_ue_snrs(5.0, 20.0, "uniform", 4, np.random.default_rng(7))


class TestGenChannel:
    def test_shape_matches_table_dimensions(self):
        cfg = SimpleCfg(m_tx=4, n_ue=4, k_sc=48)
        h, offsets = gen_channel(cfg, np.random.default_rng(8))
        assert h.shape == (48, 4, 4) and offsets.shape == (4,)
        assert h.shape[0] == 12 * 4

    def test_unit_average_gain_single_tap(self):
        cfg = SimpleCfg(m_tx=1, n_ue=1, k_sc=1)
        cfg.profile = TdlProfile(name="flat", delays=np.array([0.0]), powers=np.array([1.0]))
        rng = np.random.default_rng(9)
        gains = np.array([abs(gen_channel(cfg, rng)[0][0, 0, 0]) ** 2 for _ in range(100_000)])
        assert gains.mean() == pytest.approx(1.0, rel=0.03)

    def test_antenna_pairs_uncorrelated(self):
        cfg = SimpleCfg(m_tx=2, n_ue=1, k_sc=1, delay_spread_ns=100.0)
        rng = np.random.default_rng(10)
        draws = np.array([gen_channel(cfg, rng)[0][0, :, 0] for _ in range(100_000)])
        corr = np.mean(draws[:, 0] * np.conj(draws[:, 1]))
        assert abs(corr) < 0.02

    def test_parseval_energy_across_subcarriers(self):
        cfg = SimpleCfg(m_tx=1, n_ue=1, k_sc=16, profile="TDL-C", delay_spread_ns=300.0)
        rng = np.random.default_rng(11)
        energy = np.mean([np.mean(np.abs(gen_channel(cfg, rng)[0]) ** 2)
                          for _ in range(20_000)])
        assert energy == pytest.approx(1.0, rel=0.03)


class TestDataset:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = SimpleCfg(jitter_db=20.0)
        ds = gen_dataset(cfg, count=10, seed=42)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.h, ds.h)
        np.testing.assert_array_equal(back.ue_snr_offset_db, ds.ue_snr_offset_db)
        assert back.fingerprint() == ds.fingerprint()
        assert (back.profile, back.delay_spread_ns, back.seed) == ("TDL-A", 30.0, 42)

    def test_truncated_file_rejected(self, tmp_path):
        cfg = SimpleCfg()
        ds = gen_dataset(cfg, count=4, seed=1)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(CorruptDatasetError, match="bytes"):
            load_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CorruptDatasetError, match="magic"):
            load_dataset(path)

    def test_version_mismatch_distinct_error(self, tmp_path):
        cfg = SimpleCfg()
        ds = gen_dataset(cfg, count=2, seed=1)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # version byte
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetVersionError, match="version 99"):
            load_dataset(path)

    def test_shape_inconsistency_distinct_error(self, tmp_path):
        cfg = SimpleCfg()
        ds = gen_dataset(cfg, count=2, seed=1)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (0).to_bytes(4, "little")  # M = 0
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetShapeError, match="implausible"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [("h", np.nan), ("h", np.inf),
                                              ("offset", np.nan), ("offset", -np.inf)])
    def test_non_finite_entries_rejected(self, tmp_path, field, value):
        ds = gen_dataset(SimpleCfg(jitter_db=6.0), count=5, seed=1)
        if field == "h":
            ds.h[3, 2, 1, 0] = complex(0.5, value)
        else:
            ds.ue_snr_offset_db[3, 1] = value
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        with pytest.raises(CorruptDatasetError, match=r"non-finite .* in sample 3 \(1 samples\)"):
            load_dataset(path)

    def test_fingerprint_tracks_delay_spread(self):
        ds30 = gen_dataset(SimpleCfg(delay_spread_ns=30.0), count=2, seed=5)
        ds300 = gen_dataset(SimpleCfg(delay_spread_ns=300.0), count=2, seed=5)
        assert ds30.fingerprint() != ds300.fingerprint()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            gen_dataset(SimpleCfg(), count=0, seed=1)

    def test_deterministic_and_thread_invariant(self):
        cfg = SimpleCfg(jitter_db=20.0)
        a = gen_dataset(cfg, count=16, seed=9, threads=1)
        b = gen_dataset(cfg, count=16, seed=9, threads=4)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.ue_snr_offset_db, b.ue_snr_offset_db)
        assert a.fingerprint() == b.fingerprint()

    def test_sample_streams_independent_of_order(self):
        cfg = SimpleCfg()
        h5, _ = gen_channel(cfg, sample_rng(3, 5))
        full = gen_dataset(cfg, count=8, seed=3)
        np.testing.assert_array_equal(full.h[5], h5)

    @pytest.mark.parametrize("cfg", [SimpleCfg(jitter_db=6.0),
                                     SimpleCfg("TDL-C", 300.0, m_tx=3, n_ue=2, k_sc=12)])
    def test_gen_channel_bit_identical_to_per_pair_taps(self, cfg):
        """The tap oracle: gen_taps + taps_to_freq per (m, n) pair, then the offsets."""
        prof = TdlProfile.load(cfg.profile)
        for i in range(4):
            rng = sample_rng(7, i)
            h = np.empty((cfg.k_sc, cfg.m_tx, cfg.n_ue), dtype=complex)
            for m in range(cfg.m_tx):
                for n in range(cfg.n_ue):
                    h[:, m, n] = taps_to_freq(gen_taps(prof, cfg.delay_spread_ns, rng),
                                              cfg.k_sc, cfg.scs_hz)
            offsets = draw_ue_snrs(0.0, cfg.jitter_db, "gaussian", cfg.n_ue, rng)
            sample_h, sample_offsets = gen_channel(cfg, sample_rng(7, i))
            np.testing.assert_array_equal(sample_h, h)
            np.testing.assert_array_equal(sample_offsets, offsets)


def test_snr_to_noise_var_convention():
    np.testing.assert_allclose(snr_db_to_noise_var(np.array([0.0, 10.0, -10.0])),
                               [1.0, 0.1, 10.0], rtol=1e-12)
