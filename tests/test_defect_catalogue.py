"""Known defects and the guard that must catch each.

Each CATALOGUE entry applies one defect in-process with monkeypatch and
names its guard: a callable that returns True while the program behaves,
built from a `verify` check or a test helper. The test requires every guard
to pass on the clean program and to fail under its defect. A defect that no
guard catches yet goes in UNCAUGHT, whose contents the README lists as the
known blind spots; a new guard that catches one moves it into CATALOGUE.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from beamopt import autodiff as ad
from beamopt import channel, evaluation, models, verify
from test_channel import SimpleCfg, matches_per_pair_oracle
from test_fused_ops import conv_bn_gelu_mismatches

README = Path(__file__).resolve().parents[1] / "README.md"


def mmse_at_four_times_the_regulariser(patch):
    real = evaluation.regularized_terms
    patch.setattr(evaluation, "regularized_terms", lambda eig, reg: real(eig, 4 * reg))


def sample_streams_shifted_by_one(patch):
    real = channel.sample_rng
    patch.setattr(channel, "sample_rng", lambda seed, i: real(seed, i + 1))


def running_variance_without_bessel_correction(patch):
    """Train-mode conv_bn_gelu folds the biased batch variance into run_var,
    not var * n / (n - 1)."""
    real = ad.conv_bn_gelu

    def biased(x, w, gamma, beta, state, training, stride=1, padding=0, eps=1e-5,
               momentum=0.1):
        old = state.var.copy()
        out = real(x, w, gamma, beta, state, training, stride, padding, eps, momentum)
        if training:
            n = out.data.shape[0] * out.data.shape[1]
            kept = (1.0 - momentum) * old
            state.var[:] = kept + (state.var - kept) * (n - 1) / n
        return out

    patch.setattr(ad, "conv_bn_gelu", biased)


def checkpoint_rewritten_in_place(patch):
    """save_checkpoint writes the new bytes into the old file instead of
    unlinking it, so a reader that mapped the old file sees them."""
    real = models.save_checkpoint

    def in_place(path, cfg, params):
        fresh = f"{path}.new"
        real(fresh, cfg, params)
        with open(fresh, "rb") as src, open(path, "r+b" if os.path.exists(path) else "wb") as dst:
            dst.write(src.read())
            dst.truncate()
        os.unlink(fresh)

    patch.setattr(models, "save_checkpoint", in_place)


# one train-mode block of block_cases: 2 -> 3 channels at stride 2 on 3 rows of length 8
TRAIN_MODE_BLOCK = (2, 3, 2, True, 3, 8)

# name -> (defect, guard)
CATALOGUE = {
    "evaluate regularises MMSE at 4x each sample's mean noise variance": (
        mmse_at_four_times_the_regulariser,
        lambda: verify.check_eval_classical_rows().passed),
    "gen_dataset draws sample i from the stream of sample i + 1": (
        sample_streams_shifted_by_one,
        lambda: matches_per_pair_oracle(SimpleCfg(jitter_db=6.0))),
    "train-mode batch norm updates run_var without the n/(n-1) correction": (
        running_variance_without_bessel_correction,
        lambda: not conv_bn_gelu_mismatches((*TRAIN_MODE_BLOCK, np.random.default_rng(5)))),
    "save_checkpoint rewrites its file in place instead of unlinking it": (
        checkpoint_rewritten_in_place,
        lambda: verify.check_checkpoint_mapping().passed),
}

UNCAUGHT: set = set()


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_guard_catches_the_defect(name, monkeypatch):
    defect, guard = CATALOGUE[name]
    assert guard(), f"the guard of {name!r} fails on the clean program"
    defect(monkeypatch)
    assert not guard(), f"the guard of {name!r} lets the defect through"


def test_uncaught_defects_are_the_readmes_blind_spots():
    line = next(line for line in README.read_text().splitlines() if "`UNCAUGHT`" in line)
    listed = line.split(":", 1)[1].strip().rstrip(".")
    assert (set() if listed == "none" else {name.strip() for name in listed.split(";")}) \
        == UNCAUGHT
    assert not UNCAUGHT & set(CATALOGUE)
