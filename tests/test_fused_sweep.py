"""The fused sweep against the composed sweep it replaced.

`model.sweep` is one stage of the chain with a vjp derived by hand;
`composed_sweep` is the same sweep built from `reference_tape` ops, one node
per op. The forward must match bit for bit: every posterior and every logit
tensor of every sweep. The gradients of a masked-LM loss through the sweeps
must match to rounding, within 1e-12 of each tensor's largest entry,
because the vjp sums some cotangents in another order. The example test pins the position bias, a
padded position and both paradigms; the property test draws small
geometries, information weights and token masks: none, all true or padded.
The model always masks, so on an all-true mask it is held to the composed
sweep without one, which applies no mask at all. Both run the sweep in two
lanes, the size floor of `parallel.lanes` lowered to 0, and a third test
holds one lane against two, where the vjp forms Nz U, Nz V and the ternary
operands again instead of keeping them: every forward tensor and every
cotangent of every sweep's vjp must be the same bits.
"""
import contextlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_sweep
import reference_tape as tape
from mupt import autodiff as ad
from mupt import model, parallel
from mupt.config import InfoWeights, PTConfig
from mupt.mup import PARADIGMS, scale_width
from mupt.rng import SeededRng

# the position bias and, in the masked case, padded positions
TAPE_CFG = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
                    pos_buckets=8, pos_clip=4)
# every message family weighted differently, so a swapped weight shows
IW = InfoWeights(w_unary=1.3, w_tern_dep=0.7, w_tern_head=0.9, w_binary=1.1,
                 w_attn=0.8, w_topic=1.2)
SWEEPS = 3


@contextlib.contextmanager
def _lanes(n):
    """Every forward in the block decides on n lanes: no size floor, and n
    BLAS-sized shares of CPUs. Yields the MonkeyPatch for further patches."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "LANE_MIN_MACS", 0)
        mp.setattr(parallel, "_usable_cpus", lambda: n * parallel._blas_threads())
        yield mp


def _case(config, seed, batch, n):
    rng = SeededRng(seed)
    params = model.ModelParams.init(config, rng.spawn("params"))
    if config.pos_bias:
        params.tensors["P_rel"] = np.asarray(
            rng.spawn("p_rel").normal(params.tensors["P_rel"].shape, 1.0))
    tokens = np.asarray(rng.spawn("tokens").integers(0, config.vocab_size, (batch, n)))
    selected = np.zeros((batch, n), dtype=bool)
    selected[:, ::2] = True
    return params, tokens, selected


def _chain_grads(config, params, tokens, iw, token_mask, selected):
    """(loss, gradients) of a masked-LM loss through the model's chain."""
    leaves = params.as_vars()
    state = model.run_mfvi(config, leaves, tokens, iw, token_mask, iters=SWEEPS)
    loss = model.masked_ce_loss(model.mlm_logits(config, leaves, state), tokens, selected)
    return ad.val(loss), ad.reverse_grad(loss, leaves)


def _composed_grads(config, params, tokens, iw, token_mask, selected):
    """(loss, gradients) of the same loss through the composed sweeps."""
    leaves = {k: tape.Var(v) for k, v in params.tensors.items()}
    state = composed_sweep.run(config, leaves, tokens, iw, token_mask, iters=SWEEPS)
    loss = tape.loss(tape.readout(config, leaves, state), tokens, selected)
    return tape.val(loss), tape.reverse_grad(loss, leaves)


def _assert_matches_composed(config, params, tokens, iw, token_mask, oracle_mask, selected):
    """The model on token_mask against the composed sweep on oracle_mask:
    None there where token_mask is all true holds the always-masked sweep to
    the unmasked one."""
    fused = model.init_mfvi(config, params.tensors, tokens, iw, token_mask)
    assert fused.invariants.lanes == 2
    composed = composed_sweep.init(config, params.tensors, tokens, iw, oracle_mask)
    assert np.array_equal(fused.q_z, tape.val(composed.q_z))
    for t in range(1, SWEEPS + 1):
        fused, *f_logits = model.sweep(config, params.tensors, fused, iw)
        composed, *c_logits = composed_sweep.sweep(config, params.tensors, composed, iw)
        pairs = zip(("q_z", "q_h", "q_g", "F", "topic logits", "label logits"),
                    [fused.q_z, fused.q_h, fused.q_g, *f_logits],
                    [composed.q_z, composed.q_h, composed.q_g, *c_logits])
        for name, got, want in pairs:
            got, want = ad.val(got), tape.val(want)
            assert got.dtype == want.dtype and got.shape == want.shape, (t, name)
            assert got.tobytes() == want.tobytes(), (t, name)

    loss, grads = _chain_grads(config, params, tokens, iw, token_mask, selected)
    ref_loss, ref = _composed_grads(config, params, tokens, iw, oracle_mask, selected)
    assert loss == ref_loss
    assert grads.keys() == ref.keys()
    for name, want in ref.items():
        np.testing.assert_allclose(grads[name], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(), err_msg=name)


@pytest.mark.parametrize("masked", [False, True], ids=["no-mask", "padded"])
@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_fused_sweep_matches_the_composed_sweep(paradigm, width, masked):
    config = scale_width(TAPE_CFG, width, paradigm)
    token_mask = None
    if masked:
        token_mask = np.ones((2, 6), dtype=bool)
        token_mask[1, -1] = False
    params, tokens, selected = _case(config, 5, 2, 6)
    with _lanes(2):
        _assert_matches_composed(config, params, tokens, IW, token_mask, token_mask, selected)


@st.composite
def _geometries(draw):
    rank = draw(st.integers(1, 3))
    pos_clip = draw(st.integers(1, 3))
    config = PTConfig(width=draw(st.integers(rank, 8)), rank=rank,
                      channels=draw(st.integers(1, 3)), topics=draw(st.integers(1, 6)),
                      vocab_size=7, pos_bias=draw(st.booleans()),
                      pos_buckets=2 * pos_clip, pos_clip=pos_clip)
    batch, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    # (model's mask, oracle's mask): none, all true against none, or padded
    kind = draw(st.sampled_from(["none", "all-true", "padded"]))
    masks = (None, None)
    if kind == "all-true":
        masks = (np.ones((batch, n), dtype=bool), None)
    elif kind == "padded":
        # at least 2 real tokens per row, so every position has a head candidate
        rows = [draw(st.lists(st.booleans(), min_size=n, max_size=n)
                     .filter(lambda row: sum(row) >= 2)) for _ in range(batch)]
        masks = (np.array(rows, dtype=bool),) * 2
    weights = draw(st.lists(st.floats(0.25, 1.75), min_size=6, max_size=6))
    return config, batch, n, masks, InfoWeights.from_array(weights)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=_geometries(), seed=st.integers(0, 2**16))
def test_fused_sweep_matches_the_composed_sweep_on_random_geometries(case, seed):
    config, batch, n, (token_mask, oracle_mask), iw = case
    params, tokens, selected = _case(config, seed, batch, n)
    with _lanes(2):
        _assert_matches_composed(config, params, tokens, iw, token_mask, oracle_mask,
                                 selected)


def _in_lanes(n, config, params, tokens, token_mask, selected):
    """(every forward tensor of every sweep, what every sweep's vjp returned,
    the parameter gradients) of a masked-LM loss, run in n lanes, switching
    threads about every microsecond."""
    returned = []
    backward = model._sweep_backward

    def recording(*args):
        returned.append(backward(*args))
        return returned[-1]

    interval = sys.getswitchinterval()
    with _lanes(n) as mp:
        mp.setattr(model, "_sweep_backward", recording)
        sys.setswitchinterval(1e-6)
        try:
            leaves = params.as_vars()
            state = model.init_mfvi(config, leaves, tokens, IW, token_mask)
            assert state.invariants.lanes == n
            forward = [ad.val(state.q_z)]
            for _ in range(SWEEPS):
                state, *logits = model.sweep(config, leaves, state, IW)
                forward += [ad.val(state.q_z), state.q_h, state.q_g, *logits]
            loss = model.masked_ce_loss(model.mlm_logits(config, leaves, state), tokens,
                                        selected)
            grads = ad.reverse_grad(loss, leaves)
        finally:
            sys.setswitchinterval(interval)
    assert len(returned) == SWEEPS
    return forward, returned, grads


@pytest.mark.parametrize("masked", [False, True], ids=["no-mask", "padded"])
@pytest.mark.parametrize("pos_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_two_lanes_compute_the_same_bits_as_one(paradigm, pos_bias, masked):
    config = scale_width(TAPE_CFG.with_(pos_bias=pos_bias), 16, paradigm)
    token_mask = None
    if masked:
        token_mask = np.ones((2, 6), dtype=bool)
        token_mask[1, -1] = False
    params, tokens, selected = _case(config, 7, 2, 6)
    one, two = (_in_lanes(n, config, params, tokens, token_mask, selected) for n in (1, 2))
    for got, want in zip(two[0], one[0], strict=True):
        assert np.array_equal(got, want)
    for got, want in zip(two[1], one[1], strict=True):
        assert len(got) == len(want) == 6
        assert (got[5] is None) == (not pos_bias)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            assert g is None or np.array_equal(g, w)
    assert two[2].keys() == one[2].keys()
    assert all(np.array_equal(two[2][k], one[2][k]) for k in one[2])
