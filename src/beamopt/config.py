"""Experiment configuration: a versioned INI format with [experiment],
[dataset] and [train] sections, whose keys SCHEMA lists once. Parsing
reports field-level errors; reference.serialize_config is its inverse
(round-trip identity at the dataclass level).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .channel import _TDL_TABLES, MAX_SEED
from .evaluation import CLASSICAL_METHODS, NEURAL_METHODS
from .models import DOWNSAMPLING
from .trainer import SNR_RANGE_DB, TrainConfig, validation_size

SCHEMA_VERSION = 1

KNOWN_METHODS = CLASSICAL_METHODS + NEURAL_METHODS


def _parse_float_list(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _parse_methods(raw: str) -> tuple:
    return tuple(tok.strip().upper().replace("NNBF_P", "NNBF-P")
                 for tok in raw.split(",") if tok.strip())


# (section, key, field, cast, optional): field names the ExperimentConfig (under [train]
# the TrainConfig) attribute, None the schema version; an optional key that a file leaves
# out takes the field's dataclass default.
SCHEMA = (
    ("experiment", "schema_version", None, int, False),
    ("experiment", "id", "id", str, False),
    ("experiment", "profile", "profile", str, False),
    ("experiment", "delay_spread_ns", "delay_spread_ns", float, False),
    ("experiment", "m_tx", "m_tx", int, False),
    ("experiment", "n_ue", "n_ue", int, False),
    ("experiment", "k_sc", "k_sc", int, False),
    ("experiment", "subcarrier_spacing_hz", "scs_hz", float, True),
    ("experiment", "snr_grid_db", "snr_grid_db", _parse_float_list, False),
    ("experiment", "jitter_db", "jitter_db", float, False),
    ("experiment", "methods", "methods", _parse_methods, False),
    ("dataset", "train_samples", "train_samples", int, False),
    ("dataset", "test_samples", "test_samples", int, False),
    ("dataset", "seed", "seed", int, False),
    ("train", "epochs", "epochs", int, False),
    ("train", "batch_size", "batch_size", int, False),
    ("train", "lr", "lr", float, False),
    ("train", "lr_decay", "lr_decay", float, True),
    ("train", "seed", "seed", int, False),
    ("train", "val_fraction", "val_fraction", float, True),
    ("train", "early_stop_patience", "early_stop_patience", int, True),
    ("train", "snr_sampling", "snr_sampling", str, True),
    ("train", "fixed_snr_db", "fixed_snr_db", float, True),
)

KNOWN_KEYS = {section: tuple(key for s, key, *_ in SCHEMA if s == section)
              for section in ("experiment", "dataset", "train")}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending section.key."""


@dataclass(frozen=True)
class ExperimentConfig:
    id: str
    profile: str
    delay_spread_ns: float
    m_tx: int
    n_ue: int
    k_sc: int
    snr_grid_db: tuple
    jitter_db: float
    methods: tuple
    train_samples: int
    test_samples: int
    seed: int
    train: TrainConfig
    scs_hz: float = 30e3

    def __post_init__(self):
        if not self.id:
            raise ConfigError("experiment.id: must be non-empty")
        if self.profile not in _TDL_TABLES:
            raise ConfigError(f"experiment.profile: unknown profile {self.profile!r}")
        if not (math.isfinite(self.delay_spread_ns) and self.delay_spread_ns > 0):
            raise ConfigError(f"experiment.delay_spread_ns: must be finite and positive, "
                              f"got {self.delay_spread_ns!r}")
        if self.n_ue < 1 or self.m_tx < self.n_ue:
            raise ConfigError(f"experiment.m_tx/n_ue: need M >= N >= 1, got {self.m_tx}x{self.n_ue}")
        if self.k_sc < 1:
            raise ConfigError("experiment.k_sc: must be at least 1")
        if self.k_sc % DOWNSAMPLING and self.neural_methods:
            raise ConfigError(f"experiment.k_sc: NNBF and NNBF-P need K divisible by "
                              f"{DOWNSAMPLING}, got {self.k_sc}")
        if not (math.isfinite(self.scs_hz) and self.scs_hz > 0):
            raise ConfigError(f"experiment.subcarrier_spacing_hz: must be finite and positive, "
                              f"got {self.scs_hz!r}")
        if not self.snr_grid_db:
            raise ConfigError("experiment.snr_grid_db: must list at least one SNR")
        lo, hi = SNR_RANGE_DB
        bad = [s for s in self.snr_grid_db if not lo <= s <= hi]
        if bad:
            raise ConfigError(f"experiment.snr_grid_db: {bad} outside [{lo}, {hi}]")
        if len(set(self.snr_grid_db)) < len(self.snr_grid_db):
            raise ConfigError(f"experiment.snr_grid_db: {list(self.snr_grid_db)} lists an "
                              f"SNR twice")
        if not (math.isfinite(self.jitter_db) and self.jitter_db >= 0):
            raise ConfigError(f"experiment.jitter_db: must be finite and non-negative, "
                              f"got {self.jitter_db!r}")
        if not self.methods:
            raise ConfigError("experiment.methods: must list at least one method")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"experiment.methods: unknown {unknown}; choose from {KNOWN_METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"experiment.methods: {list(self.methods)} lists a method twice")
        if self.train_samples < 1 or self.test_samples < 1:
            raise ConfigError("dataset.train_samples/test_samples: must be at least 1")
        if not 0 <= self.seed < MAX_SEED:
            raise ConfigError(f"dataset.seed: must lie in [0, {MAX_SEED - 1}] (the test split "
                              f"uses seed + 1), got {self.seed!r}")
        validation_size(self.train_samples, self.train.val_fraction)

    @property
    def neural_methods(self) -> tuple:
        return tuple(m for m in self.methods if m in NEURAL_METHODS)


def _get(parser, section: str, key: str, cast):
    if not parser.has_option(section, key):
        raise ConfigError(f"{section}.{key}: missing required key")
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from exc


def _fields(parser, section: str) -> dict:
    return {field: _get(parser, section, key, cast)
            for s, key, field, cast, optional in SCHEMA if s == section and field
            and (parser.has_option(section, key) or not optional)}


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    for section, known in KNOWN_KEYS.items():
        if not parser.has_section(section):
            raise ConfigError(f"{section}: missing section")
        unknown = [key for key in parser.options(section) if key not in known]
        if unknown:
            raise ConfigError(f"{section}.{unknown[0]}: unknown key")
    extra = [section for section in parser.sections() if section not in KNOWN_KEYS]
    if extra:
        raise ConfigError(f"{extra[0]}: unknown section")
    version = _get(parser, "experiment", "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"experiment.schema_version: got {version}, expected {SCHEMA_VERSION}")

    try:
        train = TrainConfig(**_fields(parser, "train"))
        return ExperimentConfig(**_fields(parser, "experiment"), **_fields(parser, "dataset"),
                                train=train)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r") as f:
            return parse_config_text(f.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def apply_desk_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """Shrink a config to laptop scale: K=8, small dataset, short training."""
    return replace(
        cfg,
        k_sc=min(cfg.k_sc, 8),
        train_samples=min(cfg.train_samples, 512),
        test_samples=min(cfg.test_samples, 256),
        train=replace(cfg.train, epochs=min(cfg.train.epochs, 60),
                      batch_size=min(cfg.train.batch_size, 32)),
    )
