"""MU-MISO channel generation from tapped-delay-line power-delay profiles.

Each dataset sample is one coherence-time snapshot: per (tx antenna, UE)
pair an independent set of Rayleigh tap gains is drawn and converted to a
per-subcarrier frequency response. Doppler is carried as metadata only;
channel variation within a sample lives across subcarriers.

Per-UE SNR heterogeneity is realized as jitter *offsets* stored with each
sample; the nominal SNR is added downstream (training/evaluation), so one
dataset serves the whole SNR sweep with identical draws for every method.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

DATASET_MAGIC = b"BFDS"
DATASET_VERSION = 1
MAX_SEED = 2 ** 63 - 1          # the largest seed the header's int64 holds

# TR 38.901 NLOS tapped-delay-line profiles (normalized delays, powers in
# dB), sorted by delay at load time. Powers are renormalized to unit total
# regardless of the tabulated values.
_TDL_TABLES = {
    "TDL-A": (
        [0.0000, 0.3819, 0.4025, 0.5868, 0.4610, 0.5375, 0.6708, 0.5750,
         0.7618, 1.5375, 1.8978, 2.2242, 2.1718, 2.4942, 2.5119, 3.0582,
         4.0810, 4.4579, 4.5695, 4.7966, 5.0066, 5.3043, 9.6586],
        [-13.4, 0.0, -2.2, -4.0, -6.0, -8.2, -9.9, -10.5, -7.5, -15.9,
         -6.6, -16.7, -12.4, -15.2, -10.8, -11.3, -12.7, -16.2, -18.3,
         -18.9, -16.6, -19.9, -29.7],
    ),
    "TDL-C": (
        [0.0000, 0.2099, 0.2219, 0.2329, 0.2176, 0.6366, 0.6448, 0.6560,
         0.6584, 0.7935, 0.8213, 0.9336, 1.2285, 1.3083, 2.1704, 2.7105,
         4.2589, 4.6003, 5.4902, 5.6077, 6.3065, 6.6374, 7.0427, 8.6523],
        [-4.4, -1.2, -3.5, -5.2, -2.5, 0.0, -2.2, -3.9, -7.4, -7.1,
         -10.7, -11.1, -5.1, -6.8, -8.7, -13.2, -13.9, -13.9, -15.8,
         -17.1, -16.0, -15.7, -21.6, -22.8],
    ),
}

_PROFILE_IDS = {"TDL-A": 0, "TDL-C": 1}
_PROFILE_NAMES = {v: k for k, v in _PROFILE_IDS.items()}


class DatasetError(Exception):
    """Base class for dataset file errors."""


class DatasetVersionError(DatasetError):
    pass


class CorruptDatasetError(DatasetError):
    pass


class DatasetShapeError(DatasetError):
    pass


@dataclass(frozen=True, eq=False)
class TdlProfile:
    """Power-delay profile: normalized delays and unit-sum linear tap powers.

    Profiles compare and hash by identity (their fields are arrays).
    """

    name: str
    delays: np.ndarray      # normalized (unitless), strictly increasing
    powers: np.ndarray      # linear, sums to 1

    def __post_init__(self):
        d = np.array(self.delays, dtype=np.float64)
        p = np.array(self.powers, dtype=np.float64)
        if d.shape != p.shape or d.ndim != 1 or d.size == 0:
            raise ValueError("delays and powers must be matching non-empty 1-D arrays")
        if d[0] < 0 or np.any(np.diff(d) <= 0):
            raise ValueError("tap delays must be non-negative and strictly increasing")
        if abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
            raise ValueError("tap powers must be non-negative and sum to 1")
        d.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "powers", p)

    @classmethod
    def load(cls, name: str) -> "TdlProfile":
        """Load a built-in profile by name, sorting taps and normalizing powers."""
        if name not in _TDL_TABLES:
            raise ValueError(f"unknown delay profile {name!r}; choose from {sorted(_TDL_TABLES)}")
        delays, powers_db = _TDL_TABLES[name]
        order = np.argsort(delays)
        d = np.asarray(delays, dtype=np.float64)[order]
        p = 10.0 ** (np.asarray(powers_db, dtype=np.float64)[order] / 10.0)
        return cls(name=name, delays=d, powers=p / p.sum())


@dataclass
class ChannelDataset:
    """Packed collection of channel samples sharing (M, N, K) and a config fingerprint."""

    h: np.ndarray                  # complex128, (S, K, M, N)
    ue_snr_offset_db: np.ndarray   # float64, (S, N)
    profile: str
    delay_spread_ns: float
    jitter_db: float
    seed: int

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.complex128)
        self.ue_snr_offset_db = np.asarray(self.ue_snr_offset_db, dtype=np.float64)
        if self.h.ndim != 4:
            raise DatasetShapeError(f"samples must be shaped (S, K, M, N), got {self.h.shape}")
        s, _, _, n = self.h.shape
        if self.ue_snr_offset_db.shape != (s, n):
            raise DatasetShapeError(
                f"SNR offsets shaped {self.ue_snr_offset_db.shape}, expected ({s}, {n})")

    def __len__(self) -> int:
        return self.h.shape[0]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.h.shape

    def fingerprint(self) -> str:
        s, k, m, n = self.h.shape
        return config_fingerprint(self.profile, self.delay_spread_ns, self.jitter_db,
                                  m, n, k, s, self.seed)


def config_fingerprint(profile: str, delay_spread_ns: float, jitter_db: float,
                       m_tx: int, n_ue: int, k_sc: int, count: int, seed: int) -> str:
    key = (f"v{DATASET_VERSION}|{profile}|{delay_spread_ns!r}|{jitter_db!r}"
           f"|{m_tx}|{n_ue}|{k_sc}|{count}|{seed}")
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _phase_matrix(delays_s: np.ndarray, k_sc: int, scs_hz: float) -> np.ndarray:
    """(K, L) matrix exp(-j 2 pi f_k tau_l) mapping tap gains to subcarriers."""
    if k_sc < 1:
        raise ValueError("need at least one subcarrier")
    if scs_hz <= 0:
        raise ValueError("subcarrier spacing must be positive")
    freqs = np.arange(k_sc, dtype=np.float64) * scs_hz
    return np.exp(-2j * np.pi * np.outer(freqs, delays_s))


def snr_db_to_noise_var(snr_db) -> np.ndarray:
    """Noise variance for unit-average channel gain and reference power P_max/N = 1."""
    return 10.0 ** (-np.asarray(snr_db, dtype=np.float64) / 10.0)


def sample_rng(master_seed: int, sample_index: int) -> np.random.Generator:
    """Independent per-sample stream; identical regardless of generation order."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, sample_index))))


def gen_dataset(cfg, count: int, seed: int) -> ChannelDataset:
    """`count` independent samples for a config exposing profile (a built-in
    profile name), delay_spread_ns, m_tx, n_ue, k_sc, scs_hz and jitter_db.

    The loop only draws: sample i's stream, sample_rng(seed, i), gives its
    (M, N, 2, L) tap normals, then its N offset normals. The rest runs once
    over the stack, so a file's first s samples are the s-sample file, and
    each sample is bit-identical to reference.gen_taps + taps_to_freq per
    (m, n) pair, then reference.ue_snr_offsets, on its stream.
    """
    if count < 1:
        raise ValueError("dataset must contain at least one sample")
    if cfg.delay_spread_ns <= 0:
        raise ValueError("delay spread must be positive")
    profile = TdlProfile.load(cfg.profile)
    phase = _phase_matrix(profile.delays * cfg.delay_spread_ns * 1e-9, cfg.k_sc, cfg.scs_hz)
    z = np.empty((count, cfg.m_tx, cfg.n_ue, 2, profile.delays.size))
    delta = np.empty((count, cfg.n_ue))
    for i in range(count):
        rng = sample_rng(seed, i)
        rng.standard_normal(out=z[i])
        rng.standard_normal(out=delta[i])
    gains = z[..., 0, :] + 1j * z[..., 1, :]
    del z                                       # so the draws and h are never held together
    gains *=np.sqrt(profile.powers / 2.0)      # in place: one fewer stack-sized array
    h = np.empty((count, cfg.k_sc, cfg.m_tx, cfg.n_ue), dtype=np.complex128)
    np.matmul(phase, gains[..., None], out=h.transpose(0, 2, 3, 1)[..., None])
    jitter = cfg.jitter_db
    # 0.0 + turns the -0.0 that clip leaves at jitter 0 into +0.0
    offsets = 0.0 + np.clip(delta * (jitter / 2), -jitter, jitter)
    return ChannelDataset(h=h, ue_snr_offset_db=offsets, profile=profile.name,
                          delay_spread_ns=float(cfg.delay_spread_ns), jitter_db=float(jitter),
                          seed=int(seed))


_HEADER = struct.Struct("<4sIIIIQqBdd")  # magic, version, M, N, K, count, seed, profile, spread, jitter


def save_dataset(ds: ChannelDataset, path) -> None:
    """Write the self-describing little-endian binary dataset format.

    The channel payload is h itself: complex128 already interleaves the
    real and imaginary float64 of every entry, so it is written uncopied.
    """
    s, k, m, n = ds.h.shape
    profile_id = _PROFILE_IDS.get(ds.profile)
    if profile_id is None:
        raise ValueError(f"cannot serialize unknown profile {ds.profile!r}")
    header = _HEADER.pack(DATASET_MAGIC, DATASET_VERSION, m, n, k, s,
                          ds.seed, profile_id, ds.delay_spread_ns, ds.jitter_db)
    with open(path, "wb") as f:
        f.write(header)
        for arr in (np.asarray(ds.ue_snr_offset_db, dtype="<f8", order="C"),
                    np.asarray(ds.h, dtype="<c16", order="C")):
            f.write(memoryview(arr.reshape(-1)))


def _read_exact(f, arr: np.ndarray, path) -> np.ndarray:
    """Fill the C-contiguous float64/complex128 `arr` from little-endian bytes at f."""
    view = arr.reshape(-1).view(np.uint8)
    if f.readinto(view) != view.size:
        raise CorruptDatasetError(f"{path}: short read")
    if sys.byteorder == "big":
        arr.byteswap(inplace=True)
    return arr


def load_dataset(path) -> ChannelDataset:
    """Read a dataset file; raises distinct errors for version/corruption/shape
    faults, and DatasetError when the file cannot be opened.

    A NaN or Inf channel entry or SNR offset, and a delay spread or jitter
    that no config allows (non-finite, spread <= 0, jitter < 0), is corruption.
    The payload is read straight into the returned arrays.
    """
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    with f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CorruptDatasetError(f"{path}: file shorter than header")
        magic, version, m, n, k, s, seed, profile_id, spread, jitter = _HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise CorruptDatasetError(f"{path}: bad magic {magic!r}")
        if version != DATASET_VERSION:
            raise DatasetVersionError(f"{path}: format version {version}, expected {DATASET_VERSION}")
        if profile_id not in _PROFILE_NAMES:
            raise CorruptDatasetError(f"{path}: unknown profile id {profile_id}")
        if min(m, n, k, s) < 1 or m < n:
            raise DatasetShapeError(f"{path}: implausible header dims M={m} N={n} K={k} count={s}")
        if not (0.0 < spread < np.inf and 0.0 <= jitter < np.inf):
            raise CorruptDatasetError(f"{path}: implausible delay spread {spread!r} ns or "
                                      f"jitter {jitter!r} dB")
        size = os.fstat(f.fileno()).st_size
        expected = _HEADER.size + 8 * (s * n + s * k * m * n * 2)
        if size != expected:
            raise CorruptDatasetError(f"{path}: payload is {size} bytes, expected {expected}")
        offsets = _read_exact(f, np.empty((s, n)), path)
        h = _read_exact(f, np.empty((s, k, m, n), dtype=np.complex128), path)
    # a sum of squares is finite when every entry is, unless it overflows;
    # only then does the exact per-sample scan run
    parts = h.reshape(-1).view(np.float64)
    if not math.isfinite(np.vdot(parts, parts) + np.vdot(offsets, offsets)):
        finite = (np.isfinite(parts.reshape(s, -1)).all(axis=1)
                  & np.isfinite(offsets).all(axis=1))
        bad = np.flatnonzero(~finite)
        if bad.size:
            raise CorruptDatasetError(f"{path}: non-finite channel entry or SNR offset in sample "
                                      f"{int(bad[0])} ({bad.size} samples)")
    return ChannelDataset(h=h, ue_snr_offset_db=offsets,
                          profile=_PROFILE_NAMES[profile_id], delay_spread_ns=spread,
                          jitter_db=jitter, seed=seed)
