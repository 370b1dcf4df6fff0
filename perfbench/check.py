"""Output checks run by every benchmark run.

Any seed: every result row is finite, no sample was dropped (each row's
n equals the test count), every (method, SNR) row is present, training
losses are finite, and every repetition wrote the same bytes.

The workload's default seed also compares against golden.json, recorded
from the seed commit:
- both dataset files match byte for byte (sha256);
- ZF and MMSE se_mean match within ZF_MMSE_RTOL, loose enough for a
  batched solve that moves the last bits;
- NNBF-P se_mean and the train/validation losses match within NN_RTOL.
  Scaling every initial weight by 1 + 1e-15 moves them by about 1e-14,
  so 1e-6 leaves room for reordered reductions and still catches a
  changed model or loss.
"""

from __future__ import annotations

import hashlib
import math

ZF_MMSE_RTOL = 1e-9
NN_RTOL = 1e-6


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint(rep) -> dict:
    """The observed outputs of one repetition, in golden.json's layout."""
    return {
        "train_sha256": sha256(rep.files["train"]),
        "test_sha256": sha256(rep.files["test"]),
        "results_sha256": sha256(rep.files["csv"]),
        "se_mean": {f"{r.method}@{r.snr_db!r}": r.se_mean for r in rep.rows},
        "train_loss": rep.train_loss,
        "val_loss": rep.val_loss,
    }


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def check_invariants(rep, snr_grid, methods, test_samples: int) -> list[str]:
    problems = []
    seen = {(r.method, r.snr_db) for r in rep.rows}
    missing = [(m, s) for m in methods for s in snr_grid if (m, float(s)) not in seen]
    if missing or len(rep.rows) != len(seen):
        problems.append(f"result rows: missing {missing}, {len(rep.rows)} rows for {len(seen)} keys")
    for r in rep.rows:
        if not (math.isfinite(r.se_mean) and math.isfinite(r.se_std)):
            problems.append(f"{r.method}@{r.snr_db}: non-finite se_mean/se_std")
        if r.n != test_samples:
            problems.append(f"{r.method}@{r.snr_db}: n={r.n}, expected {test_samples}")
    losses = rep.train_loss + rep.val_loss
    if not losses or not all(math.isfinite(x) for x in losses):
        problems.append(f"training losses not finite: {losses}")
    return problems


def check_repeat(first: dict, other: dict) -> list[str]:
    keys = ("train_sha256", "test_sha256", "results_sha256")
    return [f"{k} differs between repetitions" for k in keys if first[k] != other[k]]


def check_golden(observed: dict, golden: dict) -> list[str]:
    problems = [f"{k}: {observed[k]} != golden {golden[k]}"
                for k in ("train_sha256", "test_sha256") if observed[k] != golden[k]]
    for key, want in golden["se_mean"].items():
        got = observed["se_mean"].get(key)
        rtol = NN_RTOL if key.startswith("NNBF") else ZF_MMSE_RTOL
        if got is None or not _close(got, want, rtol):
            problems.append(f"se_mean {key}: {got!r} != golden {want!r} (rtol {rtol})")
    for k in ("train_loss", "val_loss"):
        got, want = observed[k], golden[k]
        if len(got) != len(want) or not all(_close(a, b, NN_RTOL) for a, b in zip(got, want)):
            problems.append(f"{k}: {got} != golden {want} (rtol {NN_RTOL})")
    return problems
