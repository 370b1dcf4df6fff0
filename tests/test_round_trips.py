"""Round trips through the three file formats on drawn contents: a dataset
comes back bit for bit, signed zeros and subnormals included, a
checkpoint of any valid architecture re-saves to the same bytes, and any
valid experiment config parses back from its serialized text."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beamopt.channel import _TDL_TABLES, MAX_SEED, ChannelDataset, load_dataset, save_dataset
from beamopt.config import KNOWN_METHODS, ExperimentConfig, parse_config_text
from beamopt.models import (DOWNSAMPLING, ModelConfig, init_params, load_checkpoint,
                            save_checkpoint)
from beamopt.reference import serialize_config
from beamopt.trainer import SNR_RANGE_DB, TrainConfig

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
POSITIVE = st.floats(5e-324, 1e300)
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7976931348623157e308])


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 3))
    s, k, m = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(n, 4))
    parts = draw(arrays(np.float64, (s, k, m, n, 2), elements=FINITE))
    return ChannelDataset(h=parts[..., 0] + 1j * parts[..., 1],
                          ue_snr_offset_db=draw(arrays(np.float64, (s, n), elements=FINITE)),
                          profile=draw(st.sampled_from(("TDL-A", "TDL-C"))),
                          delay_spread_ns=draw(st.floats(1e-300, 1e300)),
                          jitter_db=draw(st.sampled_from((0.0, 6.0, 20.0, 5e-324))),
                          seed=draw(st.integers(-2 ** 63, 2 ** 63 - 1)))


@PROPERTY
@given(datasets())
def test_dataset_round_trip_is_bit_exact(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("ds") / "d.ds"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.h.tobytes() == ds.h.tobytes()
    assert back.ue_snr_offset_db.tobytes() == ds.ue_snr_offset_db.tobytes()
    assert (back.profile, back.seed) == (ds.profile, ds.seed)
    assert np.float64(back.delay_spread_ns).tobytes() == np.float64(ds.delay_spread_ns).tobytes()
    assert np.float64(back.jitter_db).tobytes() == np.float64(ds.jitter_db).tobytes()


@st.composite
def model_configs(draw):
    """Any valid model on the fixed backbone: K a multiple of its downsampling."""
    n = draw(st.integers(1, 3))
    widths = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple)
    return ModelConfig(m_tx=draw(st.integers(n, 3)), n_ue=n,
                       k_sc=DOWNSAMPLING * draw(st.integers(1, 3)),
                       joint_power=draw(st.booleans()),
                       fc_widths_bf=draw(widths), fc_widths_pw=draw(widths))


@PROPERTY
@given(model_configs(), st.integers(0, 2 ** 32 - 1))
def test_checkpoint_round_trip_resaves_the_same_bytes(tmp_path_factory, cfg, seed):
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    flat = params.flat
    flat[rng.random(flat.size) < 0.2] = rng.choice(EDGES)
    for state in params.bn_states.values():
        state.mean[:] = rng.choice(EDGES, state.mean.shape)
        state.var[:] = rng.choice(EDGES, state.var.shape)
    root = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(root / "a.ckpt", cfg, params)
    cfg2, params2 = load_checkpoint(root / "a.ckpt")
    assert cfg2 == cfg
    save_checkpoint(root / "b.ckpt", cfg2, params2)
    assert (root / "b.ckpt").read_bytes() == (root / "a.ckpt").read_bytes()
    assert params2.flat.tobytes() == flat.tobytes()


@st.composite
def experiment_configs(draw):
    """Any valid config. An INI value is one line without surrounding whitespace."""
    n = draw(st.integers(1, 8))
    snr = st.floats(*SNR_RANGE_DB)
    train = TrainConfig(epochs=draw(st.integers(1, 10 ** 6)),
                        batch_size=draw(st.integers(1, 4096)),
                        lr=draw(st.floats(0.0, 1e3)),
                        lr_decay=draw(st.floats(5e-324, 1.0)),
                        seed=draw(st.integers(0, MAX_SEED)),
                        val_fraction=draw(st.floats(5e-324, 0.5)),
                        early_stop_patience=draw(st.integers(0, 1000)),
                        snr_sampling=draw(st.sampled_from(("uniform", "fixed"))),
                        fixed_snr_db=draw(snr))
    chars = st.one_of(st.sampled_from("%$#;=:[]{} "),          # INI syntax, interpolation
                      st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")))
    ident = draw(st.text(chars, min_size=1).map(str.strip).filter(bool))
    methods = tuple(draw(st.lists(st.sampled_from(KNOWN_METHODS), min_size=1, max_size=4,
                                       unique=True)))
    k_step = 4 if {"NNBF", "NNBF-P"} & set(methods) else 1     # the backbone halves K twice
    return ExperimentConfig(id=ident, profile=draw(st.sampled_from(sorted(_TDL_TABLES))),
                            delay_spread_ns=draw(POSITIVE), m_tx=draw(st.integers(n, 64)),
                            n_ue=n, k_sc=k_step * draw(st.integers(1, 4096 // k_step)),
                            scs_hz=draw(POSITIVE),
                            snr_grid_db=tuple(draw(st.lists(snr, min_size=1, max_size=20,
                                                            unique=True))),
                            jitter_db=draw(st.floats(0.0, 1e300)),
                            methods=methods,
                            train_samples=draw(st.integers(2, 10 ** 6)),
                            test_samples=draw(st.integers(1, 10 ** 6)),
                            seed=draw(st.integers(0, MAX_SEED - 1)), train=train)


@PROPERTY
@given(experiment_configs())
def test_config_round_trip_is_identity(cfg):
    assert parse_config_text(serialize_config(cfg)) == cfg
