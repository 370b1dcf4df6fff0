"""Known defects and the guard that must catch each.

Each CATALOGUE entry applies one defect in-process with monkeypatch and
names its guard: a callable that returns True while the program behaves,
built from a `verify` check or a test helper. The test requires every guard
to pass on the clean program and to fail under its defect. A defect that no
guard catches yet goes in UNCAUGHT, whose contents the README lists as the
known blind spots; a new guard that catches one moves it into CATALOGUE.
"""

from pathlib import Path

import pytest

from beamopt import channel, evaluation, verify
from test_channel import SimpleCfg, matches_per_pair_oracle

README = Path(__file__).resolve().parents[1] / "README.md"


def mmse_at_four_times_the_regulariser(patch):
    real = evaluation.regularized_terms
    patch.setattr(evaluation, "regularized_terms", lambda eig, reg: real(eig, 4 * reg))


def sample_streams_shifted_by_one(patch):
    real = channel.sample_rng
    patch.setattr(channel, "sample_rng", lambda seed, i: real(seed, i + 1))


# name -> (defect, guard)
CATALOGUE = {
    "evaluate regularises MMSE at 4x each sample's mean noise variance": (
        mmse_at_four_times_the_regulariser,
        lambda: verify.check_eval_classical_rows().passed),
    "gen_dataset draws sample i from the stream of sample i + 1": (
        sample_streams_shifted_by_one,
        lambda: matches_per_pair_oracle(SimpleCfg(jitter_db=6.0))),
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
