"""Benchmark workloads: which preset each one runs and at what size.

Every workload drives the same generate -> train -> eval -> plot pipeline;
they differ in which phase dominates. Methods are ZF, MMSE and NNBF-P.
NNBF is left out because its forward pass is NNBF-P's minus the power
head, so it would add time without touching another code path.
"""

from __future__ import annotations

from dataclasses import dataclass

METHODS = ("ZF", "MMSE", "NNBF-P")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str          # file stem under src/beamopt/presets
    train_samples: int   # 10 % of these become the validation split
    test_samples: int
    epochs: int


WORKLOADS = {w.name: w for w in (
    # exp01-desk as shipped (M=N=4, K=8, B=16, 7 SNRs), 15 train steps: tiny
    # arrays, so per-call Python overhead dominates every phase.
    Workload("desk", "exp01-desk", train_samples=256, test_samples=64, epochs=1),
    # exp01 (K=48, 15 SNRs, 14.2 M params), one train step: the SNR sweep
    # dominates, and ZF and MMSE are about 3/4 of it.
    Workload("exp01-sweep", "exp01", train_samples=36, test_samples=12, epochs=1),
    # exp03 (M=16, 56.6 M params, B=32), one train step and a tiny test split:
    # Adam, the 24576->1024 GEMM, a 450 MB checkpoint and ~3 GB peak RSS dominate.
    Workload("exp03-train", "exp03", train_samples=36, test_samples=2, epochs=1),
    # Not in BENCHMARK.json: a seconds-long run for the benchmark's own tests.
    Workload("smoke", "exp01-desk", train_samples=24, test_samples=8, epochs=1),
)}
