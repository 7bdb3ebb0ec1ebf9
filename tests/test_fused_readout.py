"""The readout and loss stages against the NumPy expressions they run.

`model.mlm_logits` and `model.masked_ce_loss` are one stage of the chain
each, with a hand-written vjp. `_oracle` writes out the operations of the
composed ops they replaced, in their order: the quasi-labels, the RMS norm
through a mean square and a square root, the output map; the log-softmax
through a max-shifted logsumexp, the gather at the targets, the weighted
sum and its scaling. The forward must match it bit for bit, and so must the
loss's cotangent its closed form. The vjps are held to central finite
differences for every input. A recorded forward starts at init_mfvi, so the
stages' vjps are called here directly, as the chain calls them.
"""
import numpy as np
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
    batch, n = inputs["q_z"].shape[:2]
    state = model.MFVIState(tokens=np.zeros((batch, n), dtype=np.int64), q_z=inputs["q_z"],
                            q_h=None, q_g=None, token_mask=np.ones((batch, n), dtype=bool))
    return model.mlm_logits(config, inputs, state)


def _stage_grads(config, arrays, targets, selected):
    """(the logits' cotangent, {name: cotangent} of the readout's inputs) of
    the loss, by the two stages' vjps in the order the chain calls them."""
    logits, read = model._readout_forward(config, *(arrays[k] for k in NAMES))
    _, kept = model._ce_forward(logits, targets, selected)
    g_logits = model._ce_backward(np.ones(()), *kept)
    return g_logits, dict(zip(NAMES, model._readout_backward(g_logits, *read)))


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=_cases())
def test_forward_is_the_composed_expressions_bit_for_bit(case):
    config, arrays, targets, selected = case
    want_logits, want_loss = _oracle(config, arrays, targets, selected)
    logits = _logits(config, arrays)
    loss = model.masked_ce_loss(logits, targets, selected)
    assert type(logits) is np.ndarray and not isinstance(loss, ad.Var)
    assert _bits(logits) == _bits(want_logits)
    assert _bits(loss) == _bits(want_loss)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=_cases())
def test_the_loss_cotangent_is_softmax_minus_one_hot_bit_for_bit(case):
    # -count^-1 at each selected target, -0.0 at an unselected one, summed
    # into zeros as np.add.at does; then the negated row sum times the softmax
    config, arrays, targets, selected = case
    x = _logits(config, arrays)
    got = _stage_grads(config, arrays, targets, selected)[0]
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    want = np.zeros_like(x)
    rows = np.ogrid[0:selected.shape[0], 0:selected.shape[1]]
    np.add.at(want, (*rows, np.where(selected, targets, 0)),
              np.float64(-1.0 / int(selected.sum())) * selected.astype(np.float64))
    want = want + (-want).sum(axis=-1, keepdims=True) * soft
    assert _bits(got) == _bits(want)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(case=_cases())
def test_gradients_match_finite_differences(case):
    config, arrays, targets, selected = case
    g_logits, grads = _stage_grads(config, arrays, targets, selected)
    report = ad.finite_diff_check(
        lambda p: model.masked_ce_loss(_logits(config, p), targets, selected), arrays, grads)
    assert report.passed, report
    report = ad.finite_diff_check(lambda p: model.masked_ce_loss(p["logits"], targets, selected),
                                  {"logits": _logits(config, arrays)}, {"logits": g_logits})
    assert report.passed, report
