"""Command-line harness: generate / train / eval / plot / verify.

Exit codes: 0 success; 1 verify failure, non-finite eval rate or
unexpected error; 2 invalid config; 3 dataset missing, corrupt (NaN/Inf
included) or shape-incompatible; 4 training diverged (non-finite loss);
5 incompatible checkpoint; 6 malformed results CSV.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import channel, evaluation, models, plotting, results, verify
from .config import ConfigError, ExperimentConfig, apply_desk_scale, parse_config
from .trainer import TrainingDiverged, train

EXIT_VERIFY_OR_ERROR = 1
EXIT_BAD_CONFIG = 2
EXIT_BAD_DATASET = 3
EXIT_DIVERGED = 4
EXIT_BAD_CHECKPOINT = 5
EXIT_BAD_CSV = 6


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    if getattr(args, "desk_scale", False):
        cfg = apply_desk_scale(cfg)
    return cfg


def _load_dataset_checked(path, cfg: ExperimentConfig) -> channel.ChannelDataset:
    if not os.path.exists(path):
        raise channel.DatasetShapeError(f"dataset file not found: {path}")
    ds = channel.load_dataset(path)
    _, k, m, n = ds.shape
    if (k, m, n) != (cfg.k_sc, cfg.m_tx, cfg.n_ue):
        raise channel.DatasetShapeError(
            f"{path}: dataset is K={k} M={m} N={n}, config wants "
            f"K={cfg.k_sc} M={cfg.m_tx} N={cfg.n_ue}")
    if ds.profile != cfg.profile or ds.delay_spread_ns != cfg.delay_spread_ns \
            or ds.jitter_db != cfg.jitter_db:
        raise channel.DatasetShapeError(
            f"{path}: dataset generated for {ds.profile}/{ds.delay_spread_ns}ns/"
            f"jitter {ds.jitter_db}dB, config wants {cfg.profile}/"
            f"{cfg.delay_spread_ns}ns/jitter {cfg.jitter_db}dB")
    return ds


def _model_config(cfg: ExperimentConfig, joint_power: bool) -> models.ModelConfig:
    return models.ModelConfig(m_tx=cfg.m_tx, n_ue=cfg.n_ue, k_sc=cfg.k_sc,
                              joint_power=joint_power)


def _ckpt_path(base: str, method: str, multi: bool) -> str:
    if not multi:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}.{method.lower().replace('-', '_')}{ext or '.ckpt'}"


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seed if args.seed is None else int(args.seed)
    if args.split == "test":
        seed = seed + 1 if args.seed is None else seed
        count = cfg.test_samples
    else:
        count = cfg.train_samples
    ds = channel.gen_dataset(cfg, count=count, seed=seed)
    channel.save_dataset(ds, args.out)
    print(f"wrote {count} samples (K={cfg.k_sc}, M={cfg.m_tx}, N={cfg.n_ue}) to {args.out}")
    print(f"fingerprint {ds.fingerprint()}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    ds = _load_dataset_checked(args.dataset, cfg)
    neural = cfg.neural_methods
    if not neural:
        print("config lists no neural methods (NNBF / NNBF-P); nothing to train",
              file=sys.stderr)
        return EXIT_BAD_CONFIG
    log = (lambda line: print(line, file=sys.stderr)) if args.verbose else None
    multi = len(neural) > 1
    for method in neural:
        mc = _model_config(cfg, joint_power=(method == "NNBF-P"))
        init_rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((cfg.train.seed, 1))))
        params = models.init_params(mc, init_rng)
        best, report = train(mc, params, ds, cfg.train, log=log)
        path = _ckpt_path(args.ckpt, method, multi)
        models.save_checkpoint(path, mc, best)
        report_path = path + ".report.csv"
        report.write_csv(report_path)
        print(f"{method}: best epoch {report.best_epoch} "
              f"(val loss {report.best_val_loss:+.6f}); checkpoint {path}, "
              f"report {report_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    ds = _load_dataset_checked(args.dataset, cfg)
    nn_models = {}
    for path in args.ckpt or []:
        mc, params = models.load_checkpoint(path)
        if (mc.m_tx, mc.n_ue, mc.k_sc) != (cfg.m_tx, cfg.n_ue, cfg.k_sc):
            raise models.CheckpointError(
                f"{path}: checkpoint is M={mc.m_tx} N={mc.n_ue} K={mc.k_sc}, config wants "
                f"M={cfg.m_tx} N={cfg.n_ue} K={cfg.k_sc}")
        method = "NNBF-P" if mc.joint_power else "NNBF"
        if method in nn_models:
            raise models.CheckpointError(f"{path}: duplicate checkpoint for {method}")
        nn_models[method] = (mc, params)
    methods = [m for m in cfg.methods if m in ("ZF", "MMSE") or m in nn_models]
    skipped = [m for m in cfg.methods if m not in methods]
    if skipped:
        print(f"skipping {skipped}: no checkpoint supplied", file=sys.stderr)
    rows = evaluation.evaluate(ds, cfg.snr_grid_db, methods, nn_models, experiment=cfg.id)
    results.write_results_csv(rows, args.out)
    print(f"wrote {len(rows)} result rows to {args.out}")
    return 0


def cmd_plot(args) -> int:
    rows = results.read_results_csv(args.results_csv)
    plotting.render_results_svg(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_verify(_args) -> int:
    checks = verify.run_checks()
    width = max(len(c.name) for c in checks)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {status}  {c.detail}")
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed: "
              + ", ".join(c.name for c in failed))
        return EXIT_VERIFY_OR_ERROR
    print(f"all {len(checks)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beamopt",
                                     description="MU-MISO beamforming benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    threads_help = "no effect; accepted for compatibility, as is BEAMOPT_THREADS"

    gen = sub.add_parser("generate", help="generate a channel dataset file")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None,
                     help="override the dataset seed from the config")
    gen.add_argument("--split", choices=("train", "test"), default="train",
                     help="which sample count to generate (test uses seed+1 by default)")
    gen.add_argument("--threads", type=int, default=None, help=threads_help)
    gen.add_argument("--desk-scale", action="store_true")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train the neural methods listed in the config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--ckpt", required=True, help="checkpoint output path")
    tr.add_argument("--verbose", action="store_true", help="log per-epoch losses")
    tr.add_argument("--threads", type=int, default=None, help=threads_help)
    tr.add_argument("--desk-scale", action="store_true")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="paired SNR sweep of the configured methods")
    ev.add_argument("--config", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--ckpt", action="append", default=[],
                    help="model checkpoint (repeatable)")
    ev.add_argument("--out", required=True, help="results CSV path")
    ev.add_argument("--threads", type=int, default=None, help=threads_help)
    ev.add_argument("--desk-scale", action="store_true")
    ev.set_defaults(func=cmd_eval)

    pl = sub.add_parser("plot", help="render a results CSV as an SVG line chart")
    pl.add_argument("results_csv")
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)

    ve = sub.add_parser("verify", help="run the fast invariant suite")
    ve.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except channel.DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATASET
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except models.CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_BAD_CHECKPOINT
    except results.CsvFormatError as exc:
        print(f"results error: {exc}", file=sys.stderr)
        return EXIT_BAD_CSV
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY_OR_ERROR


if __name__ == "__main__":
    sys.exit(main())
