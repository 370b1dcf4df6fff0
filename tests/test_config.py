import importlib.resources

import pytest

from beamopt.config import (ConfigError, apply_desk_scale, parse_config, parse_config_text,
                            serialize_config)

MINIMAL = """
[experiment]
schema_version = 1
id = t1
profile = TDL-A
delay_spread_ns = 30
modulation = QPSK
m_tx = 4
n_ue = 2
k_sc = 8
snr_grid_db = -5, 5
jitter_db = 0
methods = ZF, MMSE

[dataset]
train_samples = 8
test_samples = 4
seed = 3

[train]
epochs = 2
batch_size = 4
lr = 0.001
seed = 5
"""


def test_minimal_parse():
    cfg = parse_config_text(MINIMAL)
    assert cfg.id == "t1"
    assert cfg.k_sc == 8
    assert cfg.snr_grid_db == (-5.0, 5.0)
    assert cfg.methods == ("ZF", "MMSE")
    assert cfg.train.epochs == 2
    assert cfg.scs_hz == 30e3          # default


def test_round_trip_identity():
    cfg = parse_config_text(MINIMAL)
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_resource_blocks_sets_subcarriers():
    text = MINIMAL.replace("k_sc = 8", "resource_blocks = 4")
    assert parse_config_text(text).k_sc == 48


def test_field_level_messages():
    with pytest.raises(ConfigError, match="experiment.m_tx"):
        parse_config_text(MINIMAL.replace("m_tx = 4", "m_tx = 1"))
    with pytest.raises(ConfigError, match="train.epochs"):
        parse_config_text(MINIMAL.replace("epochs = 2", "epochs = two"))
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config_text(MINIMAL.replace("jitter_db = 0\n", ""))
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config_text(MINIMAL.replace("schema_version = 1", "schema_version = 9"))
    with pytest.raises(ConfigError, match="missing section"):
        parse_config_text(MINIMAL.replace("[dataset]", "[data]"))


@pytest.mark.parametrize("key, line", [
    ("train.epochs", "epochs = 0"),
    ("train.batch_size", "batch_size = 0"),
    ("train.lr", "lr = -1"),
    ("train.lr", "lr = nan"),
    ("train.lr", "lr = inf"),
    ("train.lr_decay", "lr_decay = 0"),
    ("train.lr_decay", "lr_decay = 1.5"),
    ("train.val_fraction", "val_fraction = 1.5"),
    ("train.snr_sampling", "snr_sampling = sweep"),
])
def test_invalid_train_values_name_the_key(key, line):
    name = line.split(" =")[0]
    text = "".join(l for l in MINIMAL.splitlines(True) if not l.startswith(name + " ="))
    with pytest.raises(ConfigError, match=key.replace(".", r"\.") + ":"):
        parse_config_text(text + line + "\n")


def test_zero_lr_and_unit_decay_accepted():
    cfg = parse_config_text(MINIMAL.replace("lr = 0.001", "lr = 0\nlr_decay = 1"))
    assert (cfg.train.lr, cfg.train.lr_decay) == (0.0, 1.0)


def test_snr_range_guard():
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text(MINIMAL.replace("-5, 5", "-5, 60"))
    allowed = MINIMAL + "\n"
    allowed = allowed.replace("jitter_db = 0", "jitter_db = 0\nallow_snr_outside_range = yes")
    cfg = parse_config_text(allowed.replace("-5, 5", "-5, 60"))
    assert cfg.snr_grid_db == (-5.0, 60.0)


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match="experiment.methods"):
        parse_config_text(MINIMAL.replace("ZF, MMSE", "ZF, WMMSE"))


def test_desk_scale_shrinks():
    cfg = parse_config_text(MINIMAL.replace("k_sc = 8", "k_sc = 48")
                            .replace("train_samples = 8", "train_samples = 4096")
                            .replace("epochs = 2", "epochs = 500"))
    desk = apply_desk_scale(cfg)
    assert desk.k_sc == 8
    assert desk.train_samples == 512
    assert desk.train.epochs == 60
    # already-small values are left alone
    assert apply_desk_scale(parse_config_text(MINIMAL)).train.epochs == 2


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "nope.ini")


@pytest.mark.parametrize("name", [f"exp{i:02d}{suffix}" for i in range(1, 13)
                                  for suffix in ("", "-desk")])
def test_bundled_presets_parse_and_round_trip(name):
    text = (importlib.resources.files("beamopt") / "presets" / f"{name}.ini").read_text()
    cfg = parse_config_text(text)
    assert cfg.id == name
    assert parse_config_text(serialize_config(cfg)) == cfg
    if name.endswith("-desk"):
        assert cfg.k_sc == 8
    else:
        assert cfg.k_sc == 48
        assert len(cfg.snr_grid_db) == 15
