#!/usr/bin/env python3
"""beamopt benchmark: one workload of the generate -> train -> eval -> plot pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 101 --seconds 36 --trace 0

The program under test is the beamopt package in this checkout's src/;
without it the run exits 2 and prints no result. `--trace 0` measures the
end-to-end metrics with nothing patched; `--trace 1` alternates untraced
and traced repetitions and reports the per-layer metrics. Either way the
outputs are checked (see check.py) and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A failed check
prints that line with "correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import METHODS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PRESETS = SRC / "beamopt" / "presets"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

END_TO_END = {
    "setup_s": "s",
    "generate_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
SETUP_PROBES = 5
MIN_TIMED_REPS = 2
TIMED_PHASES = ("generate", "train", "eval")
MIN_PHASE_S = 1.0
MAX_REPEATS = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="dataset seed (test split uses seed + 1); default: the preset's")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring window; at least one repetition always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, parse the preset and build the ModelConfig, then exit")
    p.add_argument("--write-golden", action="store_true",
                   help="record this run's outputs in golden.json (default seed only)")
    return p.parse_args(argv)


def use_checkout_source() -> None:
    """Import beamopt from this checkout's src/ and nowhere else."""
    if not (SRC / "beamopt" / "__init__.py").is_file():
        print(f"benchmark: no beamopt package at {SRC / 'beamopt'}; "
              "run from the root of a beamopt checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def blas_threads():
    """OpenBLAS's current thread count, read from the library numpy loaded."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in symbols:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def machine_record(workload: str, seed: int, ticks_at_start) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    ticks = cpu_ticks()
    steal = None
    if ticks and ticks_at_start and ticks[1] > ticks_at_start[1]:
        steal = (ticks[0] - ticks_at_start[0]) / (ticks[1] - ticks_at_start[1])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
        "peak_rss_mb": peak_rss_mb(),
        "cpu_steal_frac": steal,
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None where there is none.

    On a virtual machine, steal is time the host ran something else while a
    virtual CPU had work: it slows every phase of a run alike.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields[:8])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import, parse the preset and build the ModelConfig."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def eval_points(rep, n_test: int, n_grid: int) -> tuple[int, int]:
    """(points, dropped): evaluation points (sample x SNR x method) and those left out."""
    points = n_test * n_grid * len(METHODS)
    return points, points - sum(r.n for r in rep.rows)


def phase_repeats(warmup) -> dict:
    """Repeat counts for timed repetitions: a short phase runs until it covers MIN_PHASE_S."""
    return {name: min(MAX_REPEATS, max(1, math.ceil(MIN_PHASE_S / ts[0])))
            for name, ts in warmup.times.items() if name in TIMED_PHASES}


def phase_medians(reps) -> dict:
    """Median seconds per execution of each phase, pooled over the repetitions."""
    return {name: statistics.median(t for r in reps for t in r.times[name])
            for name in reps[0].times}


def file_bytes(rep) -> dict:
    """Sizes of the files a repetition wrote, read before the next one overwrites them."""
    return {"dataset_bytes": rep.files["train"].stat().st_size + rep.files["test"].stat().st_size,
            "checkpoint_bytes": rep.files["ckpt"].stat().st_size}


def main(argv=None) -> int:
    ticks_at_start = cpu_ticks()
    args = parse_args(argv)
    use_checkout_source()
    import check
    import pipeline
    import tracing

    w = WORKLOADS[args.workload]
    s = pipeline.setup(PRESETS, w, args.seed)
    if args.setup_probe:
        return 0
    seed, default_seed = s.cfg.seed, s.preset_seed
    if args.write_golden and seed != default_seed:
        sys.exit(f"benchmark: --write-golden needs the default seed {default_seed}")

    n_test, n_grid = s.cfg.test_samples, len(s.cfg.snr_grid_db)
    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=tag + "-", dir=OUT))
    fingerprints, problems = [], []
    attempted = failed = 0

    def checked(rep):
        nonlocal attempted, failed
        fp = check.fingerprint(rep)
        problems.extend(check.check_invariants(rep, s.cfg.snr_grid_db, METHODS, n_test))
        if fingerprints:
            problems.extend(check.check_repeat(fingerprints[0], fp))
        fingerprints.append(fp)
        points, dropped = eval_points(rep, n_test, n_grid)
        attempted += points + sum(len(ts) for ts in rep.times.values())
        failed += dropped
        return rep

    reps, traced = [], []  # traced: (tracer, rep, file sizes)
    min_reps = 1 if args.trace else MIN_TIMED_REPS
    try:
        start, durations = time.perf_counter(), []
        setup_times = [] if args.trace else setup_seconds(w.name, seed)
        # The first repetition warms the process (allocator, page cache, BLAS
        # threads): it is checked but not timed. setup_s covers the cold start.
        warmup = checked(pipeline.run(s, workdir))
        repeats = None if args.trace else phase_repeats(warmup)
        while True:
            t0 = time.perf_counter()
            reps.append(checked(pipeline.run(s, workdir, repeats=repeats)))
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    with tracer.phase("setup"):
                        pipeline.setup(PRESETS, w, seed)
                    rep = pipeline.run(s, workdir, tracer.phase)
                finally:
                    tracer.uninstall()
                traced.append((tracer, checked(rep), file_bytes(rep)))
            durations.append(time.perf_counter() - t0)
            if len(reps) >= min_reps and (time.perf_counter() - start
                                          + statistics.median(durations) > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        overhead = (sum(phase_medians([rep for _, rep, _ in traced]).values())
                    / sum(phase_medians(reps).values())) - 1.0
        layers = [tracing.layer_metrics(
            tracer.spans, test_samples=n_test, param_shapes=rep.param_shapes,
            batch_size=s.cfg.train.batch_size, eval_points=eval_points(rep, n_test, n_grid),
            overhead_frac=overhead, **sizes)
            for tracer, rep, sizes in traced]
        metrics = {name: {"value": statistics.median(layer[name] for layer in layers),
                          "unit": unit} for name, unit in tracing.LAYER_METRICS.items()}
        with open(OUT / f"{tag}.spans.jsonl", "w") as f:
            for i, (tracer, _, _) in enumerate(traced):
                tracer.write(f, rep=i)
    else:
        phases = phase_medians(reps)
        e2e = {"setup_s": statistics.median(setup_times),
               "generate_s": phases["generate"],
               "train_s": phases["train"],
               "eval_s": phases["eval"],
               # one execution of each phase in a row: first generate call to SVG written
               "pipeline_s": sum(phases.values()),
               "peak_rss_mb": peak_rss_mb(),
               "ok_frac": 1.0 - failed / attempted}
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.write_golden:
        observed = {k: v for k, v in fingerprints[0].items() if k != "results_sha256"}
        golden[w.name] = observed
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    elif seed == default_seed and w.name in golden:
        problems.extend(check.check_golden(fingerprints[0], golden[w.name]))

    machine = machine_record(w.name, seed, ticks_at_start)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"machine": machine, "warmup_times": warmup.times, "repeats": repeats,
              "timed_times": [r.times for r in reps], "setup_probes_s": setup_times,
              "problems": problems, **result}
    (OUT / f"{tag}.result.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"machine": machine, "timed_reps": len(reps)}))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
