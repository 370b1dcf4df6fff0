"""Experiment configuration: a versioned INI format with [experiment],
[dataset] and [train] sections. Parsing reports field-level errors;
serialize(parse(text)) reproduces an equivalent config (round-trip
identity at the dataclass level).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace

from .channel import _TDL_TABLES
from .trainer import SNR_RANGE_DB, TrainConfig

SCHEMA_VERSION = 1

KNOWN_METHODS = ("ZF", "MMSE", "NNBF", "NNBF-P")
MODULATIONS = ("QPSK", "16QAM")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending section.key."""


@dataclass(frozen=True)
class ExperimentConfig:
    id: str
    profile: str
    delay_spread_ns: float
    modulation: str              # carried through to results; does not alter computation
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
    allow_snr_outside_range: bool = False

    def __post_init__(self):
        if not self.id:
            raise ConfigError("experiment.id: must be non-empty")
        if self.profile not in _TDL_TABLES:
            raise ConfigError(f"experiment.profile: unknown profile {self.profile!r}")
        if self.delay_spread_ns <= 0:
            raise ConfigError("experiment.delay_spread_ns: must be positive")
        if self.modulation not in MODULATIONS:
            raise ConfigError(f"experiment.modulation: expected one of {MODULATIONS}")
        if self.n_ue < 1 or self.m_tx < self.n_ue:
            raise ConfigError(f"experiment.m_tx/n_ue: need M >= N >= 1, got {self.m_tx}x{self.n_ue}")
        if self.k_sc < 1:
            raise ConfigError("experiment.k_sc: must be at least 1")
        if self.scs_hz <= 0:
            raise ConfigError("experiment.subcarrier_spacing_hz: must be positive")
        if not self.snr_grid_db:
            raise ConfigError("experiment.snr_grid_db: must list at least one SNR")
        if not self.allow_snr_outside_range:
            lo, hi = SNR_RANGE_DB
            bad = [s for s in self.snr_grid_db if not lo <= s <= hi]
            if bad:
                raise ConfigError(f"experiment.snr_grid_db: {bad} outside [{lo}, {hi}] "
                                  "(set allow_snr_outside_range to override)")
        if self.jitter_db < 0:
            raise ConfigError("experiment.jitter_db: must be non-negative")
        if not self.methods:
            raise ConfigError("experiment.methods: must list at least one method")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"experiment.methods: unknown {unknown}; choose from {KNOWN_METHODS}")
        if self.train_samples < 1 or self.test_samples < 1:
            raise ConfigError("dataset.train_samples/test_samples: must be at least 1")

    @property
    def neural_methods(self) -> tuple:
        return tuple(m for m in self.methods if m in ("NNBF", "NNBF-P"))


def _get(parser, section: str, key: str, cast, fallback=None):
    if not parser.has_option(section, key):
        if fallback is not None:
            return fallback
        raise ConfigError(f"{section}.{key}: missing required key")
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from exc


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_list(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _parse_methods(raw: str) -> tuple:
    return tuple(tok.strip().upper().replace("NNBF_P", "NNBF-P")
                 for tok in raw.split(",") if tok.strip())


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    for section in ("experiment", "dataset", "train"):
        if not parser.has_section(section):
            raise ConfigError(f"{section}: missing section")
    version = _get(parser, "experiment", "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"experiment.schema_version: got {version}, expected {SCHEMA_VERSION}")

    if parser.has_option("experiment", "k_sc"):
        k_sc = _get(parser, "experiment", "k_sc", int)
    elif parser.has_option("experiment", "resource_blocks"):
        k_sc = 12 * _get(parser, "experiment", "resource_blocks", int)
    else:
        raise ConfigError("experiment.k_sc: set k_sc or resource_blocks")

    try:
        train = TrainConfig(
            epochs=_get(parser, "train", "epochs", int),
            batch_size=_get(parser, "train", "batch_size", int),
            lr=_get(parser, "train", "lr", float),
            lr_decay=_get(parser, "train", "lr_decay", float, fallback=1.0),
            seed=_get(parser, "train", "seed", int),
            val_fraction=_get(parser, "train", "val_fraction", float, fallback=0.1),
            early_stop_patience=_get(parser, "train", "early_stop_patience", int, fallback=20),
            snr_sampling=_get(parser, "train", "snr_sampling", str, fallback="uniform"),
            fixed_snr_db=_get(parser, "train", "fixed_snr_db", float, fallback=5.0),
        )
        return ExperimentConfig(
            id=_get(parser, "experiment", "id", str),
            profile=_get(parser, "experiment", "profile", str),
            delay_spread_ns=_get(parser, "experiment", "delay_spread_ns", float),
            modulation=_get(parser, "experiment", "modulation", str).upper(),
            m_tx=_get(parser, "experiment", "m_tx", int),
            n_ue=_get(parser, "experiment", "n_ue", int),
            k_sc=k_sc,
            scs_hz=_get(parser, "experiment", "subcarrier_spacing_hz", float, fallback=30e3),
            snr_grid_db=_get(parser, "experiment", "snr_grid_db", _parse_float_list),
            jitter_db=_get(parser, "experiment", "jitter_db", float),
            methods=_get(parser, "experiment", "methods", _parse_methods),
            train_samples=_get(parser, "dataset", "train_samples", int),
            test_samples=_get(parser, "dataset", "test_samples", int),
            seed=_get(parser, "dataset", "seed", int),
            train=train,
            allow_snr_outside_range=_get(parser, "experiment", "allow_snr_outside_range",
                                         _parse_bool, fallback=False),
        )
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


def serialize_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    parser["experiment"] = {
        "schema_version": str(SCHEMA_VERSION),
        "id": cfg.id,
        "profile": cfg.profile,
        "delay_spread_ns": repr(cfg.delay_spread_ns),
        "modulation": cfg.modulation,
        "m_tx": str(cfg.m_tx),
        "n_ue": str(cfg.n_ue),
        "k_sc": str(cfg.k_sc),
        "subcarrier_spacing_hz": repr(cfg.scs_hz),
        "snr_grid_db": ", ".join(repr(s) for s in cfg.snr_grid_db),
        "jitter_db": repr(cfg.jitter_db),
        "methods": ", ".join(cfg.methods),
        "allow_snr_outside_range": str(cfg.allow_snr_outside_range).lower(),
    }
    parser["dataset"] = {
        "train_samples": str(cfg.train_samples),
        "test_samples": str(cfg.test_samples),
        "seed": str(cfg.seed),
    }
    parser["train"] = {
        "epochs": str(cfg.train.epochs),
        "batch_size": str(cfg.train.batch_size),
        "lr": repr(cfg.train.lr),
        "lr_decay": repr(cfg.train.lr_decay),
        "seed": str(cfg.train.seed),
        "val_fraction": repr(cfg.train.val_fraction),
        "early_stop_patience": str(cfg.train.early_stop_patience),
        "snr_sampling": cfg.train.snr_sampling,
        "fixed_snr_db": repr(cfg.train.fixed_snr_db),
    }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


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
