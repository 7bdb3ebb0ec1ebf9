"""Tests of the benchmark itself.

    python -m pytest -q bench

The smoke tests run every workload once at the shortest length, each in its
own process, as the benchmark is run; together they take about a minute.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from mupt import (DIAG_WEIGHTS, ModelParams, PTConfig, SeededRng,  # noqa: E402
                  mlm_logits, run_mfvi, val)
from dense_reference import reference_logits  # noqa: E402
import run as bench_run  # noqa: E402

TINY = PTConfig(width=8, rank=2, channels=3, topics=16, vocab_size=17,
                pos_bias=True, pos_buckets=8, pos_clip=4)


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("pos_bias", [True, False])
def test_reference_forward_matches_run_mfvi(pos_bias):
    config = TINY.with_(pos_bias=pos_bias)
    params = ModelParams.init(config, SeededRng(1)).tensors
    rng = SeededRng(2)
    if pos_bias:                       # non-zero position table and output bias
        params["P_rel"] = rng.normal(params["P_rel"].shape)
    params["b_out"] = rng.normal(params["b_out"].shape)
    tokens = rng.integers(0, config.vocab_size, (2, 10))
    token_mask = np.ones(tokens.shape, dtype=bool)
    token_mask[1, 7:] = False          # padding at the end of the second row
    state = run_mfvi(config, params, tokens, DIAG_WEIGHTS, token_mask=token_mask, iters=3)
    logits = val(mlm_logits(config, params, state))
    for b in range(tokens.shape[0]):
        ref = reference_logits(config, params, DIAG_WEIGHTS, tokens[b], token_mask[b], 3)
        assert np.abs(ref - logits[b]).max() <= 1e-12 * np.abs(logits[b]).max()


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_run.PER_LAYER)


@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_workload_smoke(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [name for name, _ in bench_run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_layer_metric():
    proc = _run("train-w256-rank", trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in bench_run.PER_LAYER]
    assert result["metrics"]["autodiff.tape_nodes"]["value"] > 0
    assert result["metrics"]["model.update_heads.ms"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("verify-w64", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not os.path.exists(tmp_path / ".bench_out")
