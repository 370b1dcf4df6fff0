"""Tests of the benchmark itself, on the seconds-long `smoke` workload.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import tracing  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", "smoke",
           "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["desk", "exp01-sweep", "exp03-train"]
    assert all(w["name"] in WORKLOADS for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_untraced_smoke_run_passes_the_golden_check():
    result = result_of(bench("--trace", "0"))
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first = result_of(bench("--trace", "1", "--seed", "7"))["metrics"]
    second = result_of(bench("--trace", "1", "--seed", "7"))["metrics"]
    assert set(first) == set(tracing.LAYER_METRICS)
    for name in tracing.EXACT_METRICS:
        assert first[name] == second[name], name
    grid = 7  # exp01-desk SNR grid
    assert first["evaluation.zf_solves_per_sample"]["value"] == grid
    assert first["evaluation.nn_forwards_per_sample"]["value"] == grid
    assert first["trainer.steps"]["value"] == 2


def test_golden_check_catches_an_altered_dataset_or_zf_value():
    golden = json.loads((HERE / "golden.json").read_text())["smoke"]
    assert check.check_golden(copy.deepcopy(golden), golden) == []

    bad_dataset = copy.deepcopy(golden)
    bad_dataset["train_sha256"] = "0" + bad_dataset["train_sha256"][1:]
    assert any("train_sha256" in p for p in check.check_golden(bad_dataset, golden))

    bad_zf = copy.deepcopy(golden)
    key = next(k for k in bad_zf["se_mean"] if k.startswith("ZF@"))
    bad_zf["se_mean"][key] *= 1 + 1e-7
    assert any(key in p for p in check.check_golden(bad_zf, golden))


def test_invariants_catch_a_dropped_sample():
    row = SimpleNamespace(method="ZF", snr_db=5.0, se_mean=1.0, se_std=0.1, n=7)
    rep = SimpleNamespace(rows=[row], train_loss=[-1.0], val_loss=[-1.0])
    problems = check.check_invariants(rep, [5.0], ["ZF"], test_samples=8)
    assert problems == ["ZF@5.0: n=7, expected 8"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
