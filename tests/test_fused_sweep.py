"""The fused sweep against the composed sweep it replaced.

`model.sweep` is one tape node whose vjp is derived by hand; `composed_sweep`
is the same sweep built from autodiff ops, one node per op. The forward must
match bit for bit: every posterior and every logit tensor of every sweep. The
gradients of a masked-LM loss through the sweeps must match to rounding,
within 1e-12 of each tensor's largest entry, because the vjp sums some
cotangents in another order. The example test pins the position bias, a
padded position and both paradigms; the property test draws small
geometries, information weights and token masks.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_sweep
from mupt import autodiff as ad
from mupt import model
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


def _loss(run, config, params, tokens, iw, token_mask, selected):
    leaves = params.as_vars()
    state = run(config, leaves, tokens, iw, token_mask, iters=SWEEPS)
    logits = model.mlm_logits(config, leaves, state)
    return model.masked_ce_loss(logits, tokens, selected), leaves


def _assert_matches_composed(config, params, tokens, iw, token_mask, selected):
    fused = model.init_mfvi(config, params.tensors, tokens, iw, token_mask)
    composed = composed_sweep.init(config, params.tensors, tokens, iw, token_mask)
    assert np.array_equal(ad.val(fused.q_z), ad.val(composed.q_z))
    for t in range(1, SWEEPS + 1):
        fused, *f_logits = model.sweep(config, params.tensors, fused, iw)
        composed, *c_logits = composed_sweep.sweep(config, params.tensors, composed, iw)
        pairs = zip(("q_z", "q_h", "q_g", "F", "topic logits", "label logits"),
                    [fused.q_z, fused.q_h, fused.q_g, *f_logits],
                    [composed.q_z, composed.q_h, composed.q_g, *c_logits])
        for name, got, want in pairs:
            got, want = ad.val(got), ad.val(want)
            assert got.dtype == want.dtype and got.shape == want.shape, (t, name)
            assert got.tobytes() == want.tobytes(), (t, name)

    loss, leaves = _loss(model.run_mfvi, config, params, tokens, iw, token_mask, selected)
    ref_loss, ref_leaves = _loss(composed_sweep.run, config, params, tokens, iw,
                                 token_mask, selected)
    assert ad.val(loss) == ad.val(ref_loss)
    grads = ad.reverse_grad(loss, leaves)
    ref = ad.reverse_grad(ref_loss, ref_leaves)
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
    _assert_matches_composed(config, params, tokens, IW, token_mask, selected)


@st.composite
def _geometries(draw):
    rank = draw(st.integers(1, 3))
    pos_clip = draw(st.integers(1, 3))
    config = PTConfig(width=draw(st.integers(rank, 8)), rank=rank,
                      channels=draw(st.integers(1, 3)), topics=draw(st.integers(1, 6)),
                      vocab_size=7, pos_bias=draw(st.booleans()),
                      pos_buckets=2 * pos_clip, pos_clip=pos_clip)
    batch, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    token_mask = None
    if draw(st.booleans()):
        # at least 2 real tokens per row, so every position has a head candidate
        rows = [draw(st.lists(st.booleans(), min_size=n, max_size=n)
                     .filter(lambda row: sum(row) >= 2)) for _ in range(batch)]
        token_mask = np.array(rows, dtype=bool)
    weights = draw(st.lists(st.floats(0.25, 1.75), min_size=6, max_size=6))
    return config, batch, n, token_mask, InfoWeights.from_array(weights)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=_geometries(), seed=st.integers(0, 2**16))
def test_fused_sweep_matches_the_composed_sweep_on_random_geometries(case, seed):
    config, batch, n, token_mask, iw = case
    params, tokens, selected = _case(config, seed, batch, n)
    _assert_matches_composed(config, params, tokens, iw, token_mask, selected)
