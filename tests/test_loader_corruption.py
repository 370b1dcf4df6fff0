"""Corrupt files through the two loaders: a checkpoint or dataset cut short
or with bytes flipped either loads finite values of the shapes its header
describes or raises only the loader's documented exception."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamopt.channel import DatasetError, gen_dataset, load_dataset, save_dataset
from beamopt.models import (CheckpointError, ModelConfig, init_params, load_checkpoint,
                            param_spec, save_checkpoint)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

# about a quarter of the file is the header: the config and the array table
TINY_MODEL = ModelConfig(m_tx=1, n_ue=1, k_sc=2, bb_spec=((2, 8, False),),
                         fc_widths_bf=(2,), fc_widths_pw=(2,))


class TinyCfg:
    profile = "TDL-A"
    delay_spread_ns = 30.0
    m_tx = 2
    n_ue = 2
    k_sc = 4
    scs_hz = 30e3
    jitter_db = 6.0


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    ckpt, ds = root / "model.ckpt", root / "data.ds"
    save_checkpoint(ckpt, TINY_MODEL, init_params(TINY_MODEL, np.random.default_rng(1)))
    save_dataset(gen_dataset(TinyCfg(), count=2, seed=2), ds)
    return {"ckpt": ckpt.read_bytes(), "ds": ds.read_bytes(), "path": root / "mutated"}


def flipped(raw: bytes, flips) -> bytes:
    out = bytearray(raw)
    for where, mask in flips:
        out[int(where * len(out)) % len(out)] ^= mask
    return bytes(out)


FLIPS = st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
                 min_size=1, max_size=3)
CUT = st.floats(0.0, 1.0, exclude_max=True)


def check_checkpoint_load(path):
    try:
        cfg, params = load_checkpoint(path)
    except CheckpointError:
        return
    for name, shape, init in param_spec(cfg):
        arrays = ([params.bn_states[name].mean, params.bn_states[name].var] if init == "bn"
                  else [params.tensors[name].data])
        for arr in arrays:
            assert arr.shape == shape and np.isfinite(arr).all()


def check_dataset_load(path):
    try:
        ds = load_dataset(path)
    except DatasetError:
        return
    s, k, m, n = ds.h.shape
    assert ds.ue_snr_offset_db.shape == (s, n) and min(s, k, m, n) >= 1
    assert np.isfinite(ds.h).all() and np.isfinite(ds.ue_snr_offset_db).all()
    assert np.isfinite([ds.delay_spread_ns, ds.jitter_db]).all()


@PROPERTY
@given(CUT)
def test_truncated_checkpoint_rejected(files, cut):
    files["path"].write_bytes(files["ckpt"][:int(cut * len(files["ckpt"]))])
    with pytest.raises(CheckpointError):
        load_checkpoint(files["path"])


@PROPERTY
@given(FLIPS)
def test_flipped_checkpoint_loads_finite_or_raises_checkpoint_error(files, flips):
    files["path"].write_bytes(flipped(files["ckpt"], flips))
    check_checkpoint_load(files["path"])


@PROPERTY
@given(CUT)
def test_truncated_dataset_rejected(files, cut):
    files["path"].write_bytes(files["ds"][:int(cut * len(files["ds"]))])
    with pytest.raises(DatasetError):
        load_dataset(files["path"])


@PROPERTY
@given(FLIPS)
def test_flipped_dataset_loads_finite_or_raises_dataset_error(files, flips):
    files["path"].write_bytes(flipped(files["ds"], flips))
    check_dataset_load(files["path"])


# Edits that random flips rarely hit: a JSON number turned into a float,
# and dataset metadata outside the range a config allows.

def test_non_integer_width_in_config_rejected(tmp_path):
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(100,), fc_widths_pw=(16,))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(3)))
    raw = path.read_bytes()
    assert raw.count(b'"fc_widths_bf": [100]') == 1
    path.write_bytes(raw.replace(b'"fc_widths_bf": [100]', b'"fc_widths_bf": [1e2]'))
    with pytest.raises(CheckpointError, match="bad config header: .*positive integers"):
        load_checkpoint(path)


@pytest.mark.parametrize("offset, value", [(37, np.nan), (37, np.inf), (37, 0.0),
                                           (45, -1.0), (45, np.nan)])
def test_implausible_spread_or_jitter_rejected(files, offset, value):
    raw = bytearray(files["ds"])
    raw[offset:offset + 8] = struct.pack("<d", value)     # 37: delay spread, 45: jitter
    files["path"].write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="implausible delay spread"):
        load_dataset(files["path"])
