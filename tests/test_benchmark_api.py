"""The API the benchmark's own checks call, exercised at a tiny geometry.

`bench/workloads.py` checks every benchmark run against a central difference
of the tape gradient and against a dense reference forward, and
`bench/layer_trace.py` counts what a training step calls. Both correctness
checks also run on a corpus whose last chunk is padding at its end. The benchmark's
files are imported here from their directory, unchanged, so a change to the
package that breaks them fails this suite, not only `python -m pytest bench`
or a benchmark run.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from mupt import model, training
from mupt.config import PTConfig
from mupt.corpus import encode_corpus, synth_text
from mupt.mup import AdamW
from mupt.rng import SeededRng

BENCH = Path(__file__).resolve().parents[1] / "bench"
TINY = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=259,
                pos_buckets=8, pos_clip=4)


@pytest.fixture(scope="module")
def bench():
    """(workloads, layer_trace), imported from bench/ as run.py imports them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads"), importlib.import_module("layer_trace")


@pytest.fixture(scope="module")
def case():
    corpus = encode_corpus(synth_text(1 << 13, 0), seq_len=12)
    tensors = model.ModelParams.init(TINY, SeededRng(0).spawn("params")).tensors
    return corpus, tensors


@pytest.fixture(scope="module")
def padded():
    """Three full chunks and a tail chunk of 6 real tokens and 6 of padding:
    fewer chunks than a gradient-check batch, so the check reads every one,
    and at seed 7 the tail is the one held-out chunk."""
    corpus = encode_corpus(synth_text(12 * 3 + 7, 0), seq_len=12)
    assert corpus.token_mask(corpus.ids).sum(axis=1).tolist() == [12, 12, 12, 6]
    return corpus, 7


def test_the_gradient_check_passes(bench, case):
    workloads, _ = bench
    corpus, tensors = case
    ok, detail = workloads._check_gradient(TINY, tensors, corpus, seed=0)
    assert ok, detail


def test_evaluate_matches_the_dense_reference(bench, case):
    workloads, _ = bench
    corpus, tensors = case
    batches, _ = workloads._frozen_eval(TINY, corpus, seed=0, chunks=8)
    got = training.evaluate(TINY, tensors, workloads.HP, batches, workloads.ITERS)
    want = workloads.reference_eval_loss(TINY, tensors, workloads.HP.weights, batches,
                                         workloads.ITERS)
    assert abs(got - want) <= workloads.REFERENCE_RTOL * abs(want), (got, want)


def test_the_correctness_checks_pass_on_a_padded_tail(bench, case, padded):
    workloads, _ = bench
    tensors = case[1]
    corpus, seed = padded
    assert corpus.num_chunks <= workloads.BATCH
    ok, detail = workloads._check_gradient(TINY, tensors, corpus, seed=seed)
    assert ok, detail
    batches, _ = workloads._frozen_eval(TINY, corpus, seed=seed, chunks=8)
    assert any(not token_mask.all() for *_, token_mask in batches)
    got = training.evaluate(TINY, tensors, workloads.HP, batches, workloads.ITERS)
    want = workloads.reference_eval_loss(TINY, tensors, workloads.HP.weights, batches,
                                         workloads.ITERS)
    assert abs(got - want) <= workloads.REFERENCE_RTOL * abs(want), (got, want)


def test_the_tracer_counts_a_training_step(bench, case):
    workloads, layer_trace = bench
    corpus, tensors = case
    params = model.ModelParams(TINY, {k: v.copy() for k, v in tensors.items()})
    opt = AdamW(model.tensor_shapes(TINY), TINY.width, workloads.HP.lr)
    batch = (corpus.ids[:workloads.BATCH], SeededRng(0).spawn("mask"))
    original = training.train_steps
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        steps = training.train_steps(TINY, params, opt, workloads.HP, corpus, [batch], 0.15,
                                     workloads.ITERS)
        assert np.isfinite(next(steps))
    finally:
        tracer.uninstall()
    assert tracer.calls("model.update_heads") == workloads.ITERS
    assert tracer.calls("autodiff.reverse_grad") == tracer.backward_calls == 1
    assert tracer.train_forwards == 1
    assert tracer.calls("autodiff.matmul") == tracer.train_matmul_calls == 1
    assert tracer.tape_nodes == 1          # the loss: a chain keeps no graph to walk
    assert training.train_steps is original          # uninstalled
