"""Tape correctness: hand oracles for the composites, finite differences for
everything else, and the error contracts the model relies on."""
import math
import weakref

import numpy as np
import pytest

from mupt import autodiff as ad
from mupt import model
from mupt.config import PTConfig
from mupt.diagnostics import DIAG_WEIGHTS
from mupt.rng import SeededRng


def _fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def _check_unary(op, x, tol=1e-6):
    leaf = ad.Var(x.copy())
    loss = ad.reduce_sum(ad.mul(op(leaf), np.cos(x) + 2.0))
    got = ad.reverse_grad(loss, {"x": leaf})["x"]
    want = _fd_grad(lambda v: float(np.sum((np.cos(x) + 2.0) * ad.val(op(v)))), x)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def test_elementwise_grads_match_finite_differences():
    rng = SeededRng(0)
    x = np.asarray(rng.uniform(0.2, 1.8, (3, 4)))
    _check_unary(ad.sqrt, x)
    _check_unary(ad.square, x)
    _check_unary(lambda v: ad.div(1.0, v), x)
    _check_unary(lambda v: ad.sub(0.0, v), x)


def test_arithmetic_operators_and_broadcasting():
    a = ad.Var(np.arange(6, dtype=float).reshape(2, 3))
    b = ad.Var(np.ones(3) * 2.0)
    out = ad.add(ad.sub(ad.mul(ad.add(a, b), b), ad.div(a, 2.0)), 1.5)
    np.testing.assert_allclose(
        ad.val(out), (np.arange(6).reshape(2, 3) + 2.0) * 2.0
        - np.arange(6).reshape(2, 3) / 2.0 + 1.5)
    grads = ad.reverse_grad(ad.reduce_sum(out), {"a": a, "b": b})
    np.testing.assert_allclose(grads["a"], np.full((2, 3), 1.5))
    # d/db sum((a+b)*b) = sum over rows of (a + 2b)
    np.testing.assert_allclose(grads["b"], (np.arange(6).reshape(2, 3)
                                            + 4.0).sum(axis=0))


def test_matmul_batched_grad():
    rng = SeededRng(1)
    a = np.asarray(rng.normal((2, 3, 4), 1.0))
    b = np.asarray(rng.normal((4, 5), 1.0))
    va, vb = ad.Var(a.copy()), ad.Var(b.copy())
    w = np.asarray(rng.normal((2, 3, 5), 1.0))
    loss = ad.reduce_sum(ad.mul(ad.matmul(va, vb), ad.Var(w)))
    grads = ad.reverse_grad(loss, {"a": va, "b": vb})
    np.testing.assert_allclose(grads["a"], w @ b.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads["b"], sum(a[k].T @ w[k] for k in range(2)),
                               rtol=1e-12, atol=1e-12)


def test_take_and_take_along_scatter_add():
    table = ad.Var(np.arange(10, dtype=float).reshape(5, 2))
    idx = np.array([1, 3, 1])
    out = ad.take(table, idx)
    np.testing.assert_allclose(ad.val(out), np.arange(10).reshape(5, 2)[idx])
    g = ad.reverse_grad(ad.reduce_sum(out), {"t": table})["t"]
    want = np.zeros((5, 2))
    np.add.at(want, idx, 1.0)   # repeated rows accumulate
    np.testing.assert_allclose(g, want)


def _bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gather_scatter_equals_add_at_bitwise():
    rng = SeededRng(6)
    # the cotangent reaches the gather unchanged: d sum(out * w) / d out = w
    table = np.asarray(rng.normal((4, 3), 1.0))
    idx = np.array([[2, 0, 2], [2, 3, 0]])
    w = np.asarray(rng.normal((2, 3, 3), 1.0))
    w[:, :, 1] = -0.0               # column 1 only ever receives -0.0
    # row 2 sums 1e16, 1, -1e16 in input order to 0; cancelling the 1e16s first gives 1
    w[0, 0, [0, 2]], w[0, 2, [0, 2]], w[1, 0, [0, 2]] = 1e16, 1.0, -1e16
    leaf = ad.Var(table.copy())
    got = ad.reverse_grad(ad.reduce_sum(ad.mul(ad.take(leaf, idx), w)), {"t": leaf})["t"]
    want = np.zeros_like(table)
    np.add.at(want, idx, w)
    assert _bits_equal(got, want)
    assert not np.signbit(got[:, 1]).any() and not got[1].any()
    assert got[2, 0] == got[2, 2] == 0.0

    lsm = np.asarray(rng.normal((2, 3, 5), 1.0))
    along = np.array([[[4], [4], [0]], [[1], [1], [1]]])
    w = np.asarray(rng.normal((2, 3, 1), 1.0))
    w[0, 2] = -0.0
    leaf = ad.Var(lsm.copy())
    got = ad.reverse_grad(ad.reduce_sum(ad.mul(ad.take_along(leaf, along, axis=-1), w)),
                          {"x": leaf})["x"]
    want = np.zeros_like(lsm)
    grids = np.ogrid[0:2, 0:3, 0:1]
    np.add.at(want, (grids[0], grids[1], along), w)
    assert _bits_equal(got, want)

    # 1-D table, repeated and negative indices
    vec = np.asarray(rng.normal((5,), 1.0))
    idx = np.array([1, 4, 1, -1, 1])
    w = np.array([0.1, 0.2, 0.3, -0.0, 1e16])
    leaf = ad.Var(vec.copy())
    got = ad.reverse_grad(ad.reduce_sum(ad.mul(ad.take(leaf, idx), w)), {"v": leaf})["v"]
    want = np.zeros_like(vec)
    np.add.at(want, idx, w)
    assert _bits_equal(got, want)


def test_logsumexp_matches_numpy_and_grad_is_softmax():
    x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    v = ad.Var(x.copy())
    out = ad.logsumexp(v, axis=-1)
    want = np.log(np.exp(x).sum(axis=-1))
    np.testing.assert_allclose(ad.val(out), want, rtol=1e-14)
    g = ad.reverse_grad(ad.reduce_sum(out), {"x": v})["x"]
    np.testing.assert_allclose(g, np.exp(x - want[:, None]), rtol=1e-12)


def test_softmax_rows_oracle_quarters():
    # logits [ln1, ln3] put exactly 1/4 and 3/4 of the mass
    out = ad.val(ad.softmax_rows(np.array([[0.0, math.log(3.0)]])))
    np.testing.assert_allclose(out, [[0.25, 0.75]], rtol=1e-14)


def test_softmax_rows_shift_invariance_and_argmax():
    rng = SeededRng(2)
    x = np.asarray(rng.normal((6, 9), 2.0))
    a = ad.val(ad.softmax_rows(x))
    b = ad.val(ad.softmax_rows(x + 123.456))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
    assert (a.argmax(axis=-1) == x.argmax(axis=-1)).all()
    np.testing.assert_allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_softmax_rows_mask_zeroes_and_degenerate_row_raises():
    x = np.zeros((2, 3))
    mask = np.array([[True, False, True], [True, True, True]])
    out = ad.val(ad.softmax_rows(x, mask))
    np.testing.assert_allclose(out[0], [0.5, 0.0, 0.5])
    assert out[0, 1] == 0.0
    with pytest.raises(ValueError, match="degenerate distribution support"):
        ad.softmax_rows(x, np.zeros((2, 3), dtype=bool))


def test_softmax_rows_and_vjp_equal_the_plain_expressions_bitwise():
    rng = SeededRng(7)
    x = np.asarray(rng.normal((3, 4, 7), 3.0))
    w = np.asarray(rng.normal((3, 4, 7), 1.0))
    mask = np.asarray(rng.uniform(0.0, 1.0, (1, 4, 7))) < 0.6
    mask[..., 0] = True
    for m in (None, mask):
        if m is None:
            e = np.exp(x - x.max(axis=-1, keepdims=True))
        else:
            shifted = np.where(m, x, -np.inf)
            e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        leaf = ad.Var(x.copy())
        out = ad.softmax_rows(leaf, m)
        assert _bits_equal(ad.val(out), p)
        # the cotangent reaching softmax_rows is w itself
        got = ad.reverse_grad(ad.reduce_sum(ad.mul(out, w)), {"x": leaf})["x"]
        assert _bits_equal(got, p * (w - (w * p).sum(axis=-1, keepdims=True)))


def test_rms_norm_oracle():
    # rms([3,4]) = sqrt(12.5); zero eps makes the oracle exact
    out = ad.val(ad.rms_norm(np.array([[3.0, 4.0]]), np.array([1.0, 1.0]), eps=0.0))
    np.testing.assert_allclose(out, np.array([[3.0, 4.0]]) / math.sqrt(12.5),
                               rtol=1e-15)
    gained = ad.val(ad.rms_norm(np.array([[3.0, 4.0]]), np.array([2.0, 0.5]), eps=0.0))
    np.testing.assert_allclose(gained, out * np.array([2.0, 0.5]), rtol=1e-15)


def test_reverse_grad_returns_exact_zeros_for_untouched_params():
    x = ad.Var(np.ones(3))
    unused = ad.Var(np.ones(4))
    loss = ad.reduce_sum(ad.square(x))
    grads = ad.reverse_grad(loss, {"x": x, "unused": unused})
    np.testing.assert_allclose(grads["x"], 2.0 * np.ones(3))
    assert grads["unused"].shape == (4,)
    assert (grads["unused"] == 0.0).all()


def test_backward_frees_what_its_vjps_read_and_walks_a_tape_once():
    x = ad.Var(np.arange(3.0))
    w = np.full(3, 2.0)
    read = weakref.ref(w)
    loss = ad.reduce_sum(ad.mul(x, w))      # mul's vjp reads w
    del w
    assert read() is not None
    np.testing.assert_array_equal(ad.reverse_grad(loss, {"x": x})["x"], np.full(3, 2.0))
    assert read() is None                   # freed by the walk, the loss still alive
    with pytest.raises(ValueError, match="earlier backward pass"):
        ad.reverse_grad(loss, {"x": x})
    # the leaf starts a new tape
    np.testing.assert_array_equal(
        ad.reverse_grad(ad.reduce_sum(ad.square(x)), {"x": x})["x"], 2.0 * np.arange(3.0))


def test_ops_on_constants_stay_off_the_tape():
    leaf = ad.Var(np.ones(3))
    const = ad.mul(np.ones(3), 2.0)
    assert leaf.on_tape and not ad.as_var(np.ones(3)).on_tape
    assert not const.on_tape and const._parents == ()
    mixed = ad.sub(const, leaf)
    assert mixed.on_tape and mixed._link._parents == (leaf._link,)
    np.testing.assert_array_equal(ad.reverse_grad(ad.reduce_sum(mixed), {"x": leaf})["x"],
                                  -np.ones(3))


# a small model with the position bias and a padded position, so the masks
# and every op of a sweep take part
TAPE_CFG = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
                    pos_buckets=8, pos_clip=4)


def _tape_case():
    rng = SeededRng(5)
    params = model.ModelParams.init(TAPE_CFG, rng.spawn("params"))
    tokens = np.asarray(rng.spawn("tokens").integers(0, TAPE_CFG.vocab_size, (2, 6)))
    token_mask = np.ones((2, 6), dtype=bool)
    token_mask[1, -1] = False
    selected = np.zeros((2, 6), dtype=bool)
    selected[:, 1:4] = True
    return params, tokens, token_mask, selected


def _taped_loss():
    params, tokens, token_mask, selected = _tape_case()
    leaves = params.as_vars()
    state = model.run_mfvi(TAPE_CFG, leaves, tokens, DIAG_WEIGHTS,
                           token_mask=token_mask, iters=2)
    logits = model.mlm_logits(TAPE_CFG, leaves, state)
    return model.masked_ce_loss(logits, tokens, selected), leaves


def test_forward_on_plain_arrays_builds_no_tape():
    params, tokens, token_mask, _ = _tape_case()
    state = model.run_mfvi(TAPE_CFG, params.tensors, tokens, DIAG_WEIGHTS,
                           token_mask=token_mask, iters=2)
    logits = model.mlm_logits(TAPE_CFG, params.tensors, state)
    for out in (state.q_z, state.q_h, state.q_g, logits):
        assert isinstance(out, ad.Var)
        assert not out.on_tape and out._link is None


def test_gradients_equal_those_of_a_tape_that_records_every_operand(monkeypatch):
    loss, leaves = _taped_loss()
    grads = ad.reverse_grad(loss, leaves)
    # every operand a leaf on the tape: the constants get (unread) cotangents too
    monkeypatch.setattr(ad, "as_var", lambda x: x if isinstance(x, ad.Var) else ad.Var(x))
    loss_all, leaves_all = _taped_loss()
    assert ad.val(loss_all) == ad.val(loss)
    for name, g in ad.reverse_grad(loss_all, leaves_all).items():
        assert np.array_equal(g, grads[name]), name
    assert any(np.any(g) for g in grads.values())


def test_backward_never_calls_the_vjp_of_a_constant(monkeypatch):
    on_tape = []
    node = ad._node

    def spy(a, vjp):
        def wrapped(g):
            on_tape.append(a.on_tape)
            return vjp(g)
        return wrapped

    monkeypatch.setattr(ad, "_node", lambda value, inputs, vjps: node(
        value, inputs, tuple(spy(a, f) for a, f in zip(inputs, vjps))))
    loss, leaves = _taped_loss()
    ad.reverse_grad(loss, leaves)
    assert on_tape and all(on_tape)


def test_tape_keeps_only_what_backward_reads(monkeypatch):
    want = ad.reverse_grad(*_taped_loss())
    dead, alive = [], []
    mul, add, matmul, softmax_rows = ad.mul, ad.add, ad.matmul, ad.softmax_rows

    def spy_mul(a, b):
        out = mul(a, b)
        if isinstance(b, float) and b == 1.0 / TAPE_CFG.rank and out.ndim == 4:  # F / r
            dead.append(weakref.ref(out.value))
        return out

    def spy_add(a, b):
        out = add(a, b)
        if out.ndim == 4:                                  # F + position bias
            dead.append(weakref.ref(out.value))
        return out

    def spy_matmul(a, b):
        if not alive:
            alive.append(weakref.ref(ad.val(a)))
        return matmul(a, b)

    def spy_softmax_rows(x, mask=None):
        out = softmax_rows(x, mask)
        if len(alive) == 1:
            alive.append(weakref.ref(out.value))
        return out

    for name, spy in (("mul", spy_mul), ("add", spy_add), ("matmul", spy_matmul),
                      ("softmax_rows", spy_softmax_rows)):
        monkeypatch.setattr(ad, name, spy)
    loss, leaves = _taped_loss()
    assert len(dead) == 4 and len(alive) == 2
    assert all(ref() is None for ref in dead)
    assert all(ref() is not None for ref in alive)
    for name, g in ad.reverse_grad(loss, leaves).items():
        assert np.array_equal(g, want[name]), name
    del loss
    assert all(ref() is None for ref in alive)


def test_walking_parents_counts_exactly_the_toposorted_links():
    loss, _ = _taped_loss()
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    order = ad._toposort(loss._link)
    assert len(seen) == len(order) > 100
    assert order[-1] is loss._link


def test_finite_diff_check_passes_on_smooth_composite():
    rng = SeededRng(3)
    w0 = np.asarray(rng.normal((4, 3), 0.5))
    b0 = np.asarray(rng.normal((3,), 0.5))

    def loss_fn(params):
        h = ad.matmul(params["w"], ad.swapaxes(params["w"], 0, 1))
        z = ad.reduce_sum(ad.softmax_rows(h), axis=0)
        return ad.reduce_sum(ad.mul(ad.square(ad.reduce_mean(params["b"])), ad.reduce_sum(z)))

    report = ad.finite_diff_check(loss_fn, {"w": w0, "b": b0})
    assert report.passed, report.worst_coord
    assert report.worst_ratio <= 1.0


def test_finite_diff_check_detects_wrong_gradient():
    # a loss that lies about itself: the second evaluation differs
    x0 = np.array([1.0, 1.0 + 1e-7])
    calls = []

    def lying_loss(params):
        calls.append(0)
        jitter = 1e-3 if len(calls) > 1 else 0.0
        return ad.reduce_sum(ad.mul(params["x"], np.array([1.0, 1.0 + jitter])))

    with pytest.raises(ValueError, match="deterministic"):
        ad.finite_diff_check(lying_loss, {"x": x0})
