"""The readout and loss stages against the NumPy expressions they run.

`model.mlm_logits` and `model.masked_ce_loss` are one stage of the chain
each, with a hand-written vjp. `_oracle` writes out the operations of the
composed ops they replaced, in their order: the quasi-labels, the RMS norm
through a mean square and a square root, the output map; the log-softmax
through a max-shifted logsumexp, the gather at the targets, the weighted
sum and its scaling. The forward must match it bit for bit, and so must the
loss's cotangent its closed form. The vjps are held to central finite
differences for every input, and asked for the cotangents of the Var
inputs only.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mupt import autodiff as ad
from mupt import model
from mupt.config import PTConfig

NAMES = ("q_z", "gamma", "W_out", "b_out")


@st.composite
def _cases(draw):
    """(config, {Q_z, gamma, W_out, b_out}, targets, selected): random Q_z
    rows, at least one selected position, and two positions sharing a target."""
    width, vocab = draw(st.integers(1, 6)), draw(st.integers(2, 7))
    batch, n = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    config = PTConfig(width=width, rank=1, channels=1, topics=1, vocab_size=vocab,
                      rms_eps=draw(st.sampled_from([0.0, 1e-6, 0.5])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = {"q_z": rng.dirichlet(np.ones(width), size=(batch, n)),
              "gamma": rng.normal(size=width), "W_out": rng.normal(size=(width, vocab)),
              "b_out": rng.normal(size=vocab)}
    cells = st.lists(st.booleans(), min_size=batch * n, max_size=batch * n)
    selected = np.array(draw(cells.filter(any))).reshape(batch, n)
    targets = rng.integers(0, vocab, (batch, n))
    targets.flat[-1] = targets.flat[0]
    return config, arrays, targets, selected


def _oracle(config, arrays, targets, selected):
    """(logits, loss) by the composed ops' expressions, their constants 0-d arrays."""
    width = config.width
    nz = arrays["q_z"] * np.asarray(float(width))
    ms = (nz * nz).sum(axis=-1, keepdims=True) * np.asarray(1.0 / width)
    feature = nz / np.sqrt(ms + np.asarray(config.rms_eps)) * arrays["gamma"]
    logits = np.matmul(feature, arrays["W_out"]) + arrays["b_out"]
    top = np.max(logits, axis=-1, keepdims=True)
    lse = top + np.log(np.exp(logits - top).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logits - lse, np.where(selected, targets, 0)[..., None],
                                axis=-1)
    total = (picked.reshape(selected.shape) * selected.astype(np.float64)).sum()
    return logits, total * np.asarray(-1.0 / int(selected.sum()))


def _logits(config, inputs):
    batch, n = ad.val(inputs["q_z"]).shape[:2]
    state = model.MFVIState(tokens=np.zeros((batch, n), dtype=np.int64), q_z=inputs["q_z"],
                            q_h=None, q_g=None)
    return model.mlm_logits(config, inputs, state)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=_cases())
def test_forward_is_the_composed_expressions_bit_for_bit(case):
    config, arrays, targets, selected = case
    want_logits, want_loss = _oracle(config, arrays, targets, selected)
    leaves = {k: ad.Var(v.copy()) for k, v in arrays.items()}
    for inputs in (arrays, leaves):
        logits = _logits(config, inputs)
        loss = model.masked_ce_loss(logits, targets, selected)
        assert isinstance(logits, ad.Var) == isinstance(loss, ad.Var) == (inputs is leaves)
        assert _bits(ad.val(logits)) == _bits(want_logits)
        assert _bits(ad.val(loss)) == _bits(want_loss)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=_cases())
def test_the_loss_cotangent_is_softmax_minus_one_hot_bit_for_bit(case):
    # -count^-1 at each selected target, -0.0 at an unselected one, summed
    # into zeros as np.add.at does; then the negated row sum times the softmax
    config, arrays, targets, selected = case
    x = ad.val(_logits(config, arrays))
    leaf = ad.Var(x.copy())
    got = ad.reverse_grad(model.masked_ce_loss(leaf, targets, selected), {"x": leaf})["x"]
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    want = np.zeros_like(x)
    rows = np.ogrid[0:selected.shape[0], 0:selected.shape[1]]
    np.add.at(want, (*rows, np.where(selected, targets, 0)),
              np.float64(-1.0 / int(selected.sum())) * selected.astype(np.float64))
    want = want + (-want).sum(axis=-1, keepdims=True) * soft
    assert _bits(got) == _bits(want)


def _fd_report(loss_fn, arrays):
    """The chain's gradients of loss_fn at arrays against central differences."""
    leaves = {k: ad.Var(v.copy()) for k, v in arrays.items()}
    grads = ad.reverse_grad(loss_fn(leaves), leaves)
    return ad.finite_diff_check(loss_fn, arrays, grads, rtol=1e-6)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(case=_cases())
def test_gradients_match_finite_differences(case):
    config, arrays, targets, selected = case
    report = _fd_report(lambda p: model.masked_ce_loss(_logits(config, p), targets, selected),
                        arrays)
    assert report.passed, report
    logits = ad.val(_logits(config, arrays))
    report = _fd_report(lambda p: model.masked_ce_loss(p["logits"], targets, selected),
                        {"logits": logits})
    assert report.passed, report


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=_cases(), taped=st.lists(st.booleans(), min_size=4, max_size=4).filter(any))
def test_a_constant_inputs_cotangent_is_never_computed(case, taped):
    config, arrays, targets, selected = case
    every = {k: ad.Var(v.copy()) for k, v in arrays.items()}
    want = ad.reverse_grad(model.masked_ce_loss(_logits(config, every), targets, selected),
                           every)
    asked = []
    backward = model._readout_backward

    def recording(g, wanted, *kept):
        out = backward(g, wanted, *kept)
        asked.append((wanted, tuple(c is not None for c in out)))
        return out

    leaves = {k: ad.Var(arrays[k].copy()) for k, t in zip(NAMES, taped) if t}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_readout_backward", recording)
        loss = model.masked_ce_loss(_logits(config, {**arrays, **leaves}), targets, selected)
        grads = ad.reverse_grad(loss, leaves)
    assert asked == [(tuple(taped), tuple(taped))]
    # what is computed is the same bits as with every input taped
    for name, g in grads.items():
        assert _bits(g) == _bits(want[name]), name
