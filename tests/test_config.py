import importlib.resources
from dataclasses import replace

import pytest

from beamopt.config import SCHEMA, ConfigError, apply_desk_scale, parse_config, parse_config_text
from beamopt.reference import serialize_config
from beamopt.trainer import TrainConfig

MINIMAL = """
[experiment]
schema_version = 1
id = t1
profile = TDL-A
delay_spread_ns = 30
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


def test_optional_keys_take_the_dataclass_defaults():
    """MINIMAL leaves out the six optional keys; each takes its field's default,
    which is written only in the dataclass."""
    assert [key for _, key, _, _, optional in SCHEMA if optional] == [
        "subcarrier_spacing_hz", "lr_decay", "val_fraction", "early_stop_patience",
        "snr_sampling", "fixed_snr_db"]
    cfg = parse_config_text(MINIMAL)
    assert cfg.scs_hz == 30e3
    t = cfg.train
    assert (t.lr_decay, t.val_fraction, t.early_stop_patience, t.snr_sampling,
            t.fixed_snr_db) == (1.0, 0.1, 20, "uniform", 5.0)
    assert t == TrainConfig(epochs=2, batch_size=4, lr=0.001, seed=5)


def test_round_trip_identity():
    cfg = parse_config_text(MINIMAL)
    assert parse_config_text(serialize_config(cfg)) == cfg


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
    for old, new, message in [
            ("id = t1", "id = ", "experiment.id: must be non-empty"),
            ("profile = TDL-A", "profile = TDL-B", "experiment.profile: unknown profile 'TDL-B'"),
            ("k_sc = 8", "k_sc = 0", "experiment.k_sc: must be at least 1"),
            ("snr_grid_db = -5, 5", "snr_grid_db =", "experiment.snr_grid_db: must list at least"),
            ("methods = ZF, MMSE", "methods =", "experiment.methods: must list at least one"),
            ("[experiment]", "stray line\n[experiment]", "config syntax: .*no section headers")]:
        with pytest.raises(ConfigError, match=message):
            parse_config_text(MINIMAL.replace(old, new))


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
    ("train.fixed_snr_db", "fixed_snr_db = 500"),
    ("train.fixed_snr_db", "fixed_snr_db = -16"),
    ("train.fixed_snr_db", "fixed_snr_db = nan"),
    ("train.val_fraction", "val_fraction = 0.95"),     # 8 of 8 train_samples
    ("train.early_stop_patience", "early_stop_patience = -3"),
])
def test_invalid_train_values_name_the_key(key, line):
    name = line.split(" =")[0]
    text = "".join(l for l in MINIMAL.splitlines(True) if not l.startswith(name + " ="))
    with pytest.raises(ConfigError, match=key.replace(".", r"\.") + ":"):
        parse_config_text(text + line + "\n")


@pytest.mark.parametrize("key, old, new", [
    ("dataset.seed", "seed = 3", "seed = -1"),
    ("dataset.seed", "seed = 3", "seed = 9223372036854775807"),     # the test split's + 1 overflows
    ("train.seed", "seed = 5", "seed = -7"),
])
def test_out_of_range_seeds_name_the_key(key, old, new):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.") + ": must"):
        parse_config_text(MINIMAL.replace(old, new))


@pytest.mark.parametrize("methods, ok", [("ZF, MMSE", True), ("ZF, NNBF", False),
                                         ("NNBF-P", False)])
def test_k_not_divisible_by_the_backbone_downsampling_needs_no_network(methods, ok):
    text = MINIMAL.replace("k_sc = 8", "k_sc = 6").replace("ZF, MMSE", methods)
    if ok:
        assert parse_config_text(text).k_sc == 6
    else:
        with pytest.raises(ConfigError, match=r"experiment\.k_sc: NNBF and NNBF-P need K "
                                              r"divisible by 4, got 6"):
            parse_config_text(text)


def test_seed_and_patience_range_ends_accepted():
    cfg = parse_config_text(MINIMAL.replace("seed = 3", "seed = 9223372036854775806")
                            .replace("seed = 5", "seed = 0\nearly_stop_patience = 0"))
    assert (cfg.seed, cfg.train.seed, cfg.train.early_stop_patience) == (2 ** 63 - 2, 0, 0)


@pytest.mark.parametrize("key, old", [("delay_spread_ns", "delay_spread_ns = 30"),
                                      ("jitter_db", "jitter_db = 0"),
                                      ("subcarrier_spacing_hz", None)])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_experiment_values_rejected(key, old, value):
    text = (MINIMAL.replace(old, f"{key} = {value}") if old
            else MINIMAL.replace("k_sc = 8", f"k_sc = 8\n{key} = {value}"))
    with pytest.raises(ConfigError, match=rf"^experiment\.{key}: must be finite"):
        parse_config_text(text)


@pytest.mark.parametrize("section, anchor, line", [
    ("experiment", "id = t1", "m_txx = 4"),
    ("experiment", "id = t1", "snr_grid = 0, 5"),
    ("dataset", "seed = 3", "test_sample = 3"),
    ("train", "lr = 0.001", "lr_dcay = 0.5"),
])
def test_unknown_key_rejected(section, anchor, line):
    key = line.split(" =")[0]
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown key$"):
        parse_config_text(MINIMAL.replace(anchor, f"{anchor}\n{line}"))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"^model: unknown section$"):
        parse_config_text(MINIMAL + "\n[model]\nwidth = 3\n")


def test_zero_lr_and_unit_decay_accepted():
    cfg = parse_config_text(MINIMAL.replace("lr = 0.001", "lr = 0\nlr_decay = 1"))
    assert (cfg.train.lr, cfg.train.lr_decay) == (0.0, 1.0)


def test_snr_range_guard():
    with pytest.raises(ConfigError, match=r"experiment\.snr_grid_db: \[60\.0\] outside"):
        parse_config_text(MINIMAL.replace("-5, 5", "-5, 60"))
    assert parse_config_text(MINIMAL.replace("-5, 5", "-15, 50")).snr_grid_db == (-15.0, 50.0)


@pytest.mark.parametrize("grid", ["5, 5.0, 10", "-5, 5, -5", "0, -0.0"])
def test_repeated_snr_rejected(grid):
    with pytest.raises(ConfigError, match=r"experiment\.snr_grid_db: .* lists an SNR twice"):
        parse_config_text(MINIMAL.replace("-5, 5", grid))


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match="experiment.methods"):
        parse_config_text(MINIMAL.replace("ZF, MMSE", "ZF, WMMSE"))


@pytest.mark.parametrize("methods", ["ZF, MMSE, zf", "NNBF, NNBF", "NNBF_P, NNBF-P"])
def test_repeated_method_rejected(methods):
    with pytest.raises(ConfigError, match=r"experiment\.methods: .* lists a method twice"):
        parse_config_text(MINIMAL.replace("ZF, MMSE", methods))


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


PRESET_DIR = importlib.resources.files("beamopt") / "presets"
PRESETS = sorted(p.name[:-len(".ini")] for p in PRESET_DIR.iterdir() if p.name.endswith(".ini"))


def load_preset(name):
    return parse_config_text((PRESET_DIR / f"{name}.ini").read_text())


def paper_setting(cfg):
    """A config with its identity and its seeds set aside: what the run computes."""
    return replace(cfg, id="-", seed=0, train=replace(cfg.train, seed=0))


@pytest.mark.parametrize("name", PRESETS)
def test_bundled_presets_parse_and_round_trip(name):
    cfg = load_preset(name)
    assert cfg.id == name
    assert parse_config_text(serialize_config(cfg)) == cfg
    if name.endswith("-desk"):
        assert cfg.k_sc == 8
    else:
        assert cfg.k_sc == 48
        assert len(cfg.snr_grid_db) == 15


def test_no_two_bundled_presets_share_a_setting():
    seen = {}
    for name in PRESETS:
        setting = paper_setting(load_preset(name))
        assert setting not in seen, f"{name} duplicates {seen[setting]} up to id and seeds"
        seen[setting] = name
    assert len(seen) == 18
