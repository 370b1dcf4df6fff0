"""The user's pipeline, driven through beamopt's public functions.

One repetition runs what `beamopt generate` (train and test), `train`,
`eval` and `plot` run, in the same order and with the same seeds, and
times each phase. Every phase is a function of its own so that its arrays
are freed on return, as they would be when each command is its own process.
Functions are looked up on their modules at call time, so a tracer that
patches a module attribute sees every call.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from beamopt import channel, config, evaluation, models, plotting, results, trainer

from workloads import METHODS, Workload


@dataclass(frozen=True)
class Setup:
    """A workload's experiment config with its counts, epochs and seeds applied."""

    cfg: config.ExperimentConfig
    model_cfg: models.ModelConfig
    train_seed: int
    test_seed: int
    preset_seed: int


@dataclass
class Rep:
    """Phase wall times (a list per phase) and outputs of one pipeline repetition."""

    times: dict
    rows: list
    train_loss: list
    val_loss: list
    files: dict
    param_shapes: list


def setup(presets: Path, w: Workload, seed: int | None) -> Setup:
    """Parse the preset and build the NNBF-P ModelConfig, as `beamopt train` does.

    The dataset seed is `seed` (default: the preset's), the test split uses
    seed + 1 as the CLI does, and the training seed keeps the preset's
    offset from its dataset seed, so the default seed reproduces the preset.
    """
    base = config.parse_config(presets / f"{w.preset}.ini")
    seed = base.seed if seed is None else seed
    cfg = replace(base, train_samples=w.train_samples, test_samples=w.test_samples,
                  seed=seed, train=replace(base.train, epochs=w.epochs,
                                           seed=base.train.seed - base.seed + seed))
    mc = models.ModelConfig(m_tx=cfg.m_tx, n_ue=cfg.n_ue, k_sc=cfg.k_sc, joint_power=True)
    return Setup(cfg=cfg, model_cfg=mc, train_seed=cfg.train.seed, test_seed=seed + 1,
                 preset_seed=base.seed)


def _generate(s: Setup, files: dict) -> None:
    for split, count, seed in (("train", s.cfg.train_samples, s.cfg.seed),
                               ("test", s.cfg.test_samples, s.test_seed)):
        ds = channel.gen_dataset(s.cfg, count=count, seed=seed)
        channel.save_dataset(ds, files[split])


def _train(s: Setup, files: dict):
    ds = channel.load_dataset(files["train"])
    init_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((s.train_seed, 1))))
    params = models.init_params(s.model_cfg, init_rng)
    best, report = trainer.train(s.model_cfg, params, ds, s.cfg.train)
    models.save_checkpoint(files["ckpt"], s.model_cfg, best)
    return report, [t.data.shape for t in best.tensors.values()]


def _eval(s: Setup, files: dict) -> list:
    ds = channel.load_dataset(files["test"])
    mc, params = models.load_checkpoint(files["ckpt"])
    rows = evaluation.evaluate(ds, s.cfg.snr_grid_db, METHODS, {"NNBF-P": (mc, params)},
                               experiment=s.cfg.id)
    results.write_results_csv(rows, files["csv"])
    return rows


def _plot(files: dict) -> None:
    plotting.render_results_svg(results.read_results_csv(files["csv"]), files["svg"])


def run(s: Setup, workdir: Path, phase=lambda name: contextlib.nullcontext(),
        repeats: dict | None = None) -> Rep:
    """One repetition: the phases in order, each run `repeats[name]` times (default 1).

    `phase(name)` brackets every phase execution (the tracer's hook). A
    repeated phase rewrites the same files, so later phases see the same inputs.
    """
    files = {"train": workdir / "train.ds", "test": workdir / "test.ds",
             "ckpt": workdir / "model.nnbf_p.ckpt", "csv": workdir / "results.csv",
             "svg": workdir / "results.svg"}
    steps = {"generate": lambda: _generate(s, files), "train": lambda: _train(s, files),
             "eval": lambda: _eval(s, files), "plot": lambda: _plot(files)}
    times, out = {}, {}
    for name, step in steps.items():
        times[name] = []
        for _ in range((repeats or {}).get(name, 1)):
            t0 = time.perf_counter()
            with phase(name):
                out[name] = step()
            times[name].append(time.perf_counter() - t0)
    report, shapes = out["train"]
    return Rep(times=times, rows=out["eval"], train_loss=list(report.train_loss),
               val_loss=list(report.val_loss), files=files, param_shapes=shapes)
