"""Results table persistence: a fixed-schema CSV keyed by experiment,
method and nominal SNR. Column names and order are stable; floats are
written with repr so files round-trip and regenerate byte-identically.
"""

from __future__ import annotations

import csv
import math

from .evaluation import ResultRow
from .trainer import SNR_RANGE_DB

CSV_COLUMNS = ("experiment", "method", "snr_db", "se_mean", "se_std", "n")


class CsvFormatError(ValueError):
    """Results CSV is missing, malformed, empty, or holds a non-finite value, an
    snr_db outside trainer.SNR_RANGE_DB or n < 1."""


def write_results_csv(rows, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([r.experiment, r.method, repr(r.snr_db),
                             repr(r.se_mean), repr(r.se_std), r.n])


def read_results_csv(path) -> list[ResultRow]:
    try:
        with open(path, "r", newline="") as f:
            reader = csv.reader(f)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError(f"{path}: empty file") from None
            if tuple(header) != CSV_COLUMNS:
                raise CsvFormatError(f"{path}: header {header} != {list(CSV_COLUMNS)}")
            rows = []
            for lineno, rec in enumerate(reader, start=2):
                if len(rec) != len(CSV_COLUMNS):
                    raise CsvFormatError(f"{path}:{lineno}: expected {len(CSV_COLUMNS)} fields")
                try:
                    row = ResultRow(experiment=rec[0], method=rec[1],
                                    snr_db=float(rec[2]), se_mean=float(rec[3]),
                                    se_std=float(rec[4]), n=int(rec[5]))
                except ValueError as exc:
                    raise CsvFormatError(f"{path}:{lineno}: {exc}") from exc
                for name, value in zip(CSV_COLUMNS[2:5], (row.snr_db, row.se_mean, row.se_std)):
                    if not math.isfinite(value):
                        raise CsvFormatError(f"{path}:{lineno}: {name} must be finite, got {value!r}")
                lo, hi = SNR_RANGE_DB
                if not lo <= row.snr_db <= hi:
                    raise CsvFormatError(f"{path}:{lineno}: snr_db {row.snr_db!r} outside [{lo}, {hi}]")
                if row.n < 1:
                    raise CsvFormatError(f"{path}:{lineno}: n must be at least 1, got {row.n}")
                rows.append(row)
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return rows
