"""Reverse mode: the model's chain of stages against the general tape it
replaced, the tape's own ops against hand oracles and finite differences,
and the error and memory contracts the training step relies on.

`reference_tape` is the oracle: a general reverse-mode engine that composes
the model's stage forwards and vjps as tape nodes. The chain (`mupt.autodiff`
and model.py) must give the same loss and every gradient bit for bit."""
import contextlib
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tape as tape
from mupt import autodiff as ad
from mupt import model, parallel
from mupt.config import InfoWeights, PTConfig
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


def _sum(x):
    """The sum of x's entries as one node, whose vjp hands every entry the
    cotangent of the sum."""
    x = tape.as_var(x)
    shape = x.value.shape
    return tape.fused(x.value.sum(), (x,), lambda g, wanted: (np.broadcast_to(g, shape).copy(),))


def _check_unary(op, x, tol=1e-6):
    leaf = tape.Var(x.copy())
    loss = _sum(tape.mul(op(leaf), np.cos(x) + 2.0))
    got = tape.reverse_grad(loss, {"x": leaf})["x"]
    want = _fd_grad(lambda v: float(np.sum((np.cos(x) + 2.0) * tape.val(op(v)))), x)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def test_elementwise_grads_match_finite_differences():
    rng = SeededRng(0)
    x = np.asarray(rng.uniform(0.2, 1.8, (3, 4)))
    _check_unary(lambda v: tape.mul(v, v), x)            # one Var, both operands
    _check_unary(lambda v: tape.add(tape.mul(v, -3.0), v), x)
    _check_unary(lambda v: tape.mul(v, tape.add(v, 1.0)), x)


def test_arithmetic_operators_and_broadcasting():
    a = tape.Var(np.arange(6, dtype=float).reshape(2, 3))
    b = tape.Var(np.ones(3) * 2.0)
    out = tape.add(tape.add(tape.mul(tape.add(a, b), b), tape.mul(a, -0.5)), 1.5)
    np.testing.assert_allclose(
        tape.val(out), (np.arange(6).reshape(2, 3) + 2.0) * 2.0
        - np.arange(6).reshape(2, 3) / 2.0 + 1.5)
    grads = tape.reverse_grad(_sum(out), {"a": a, "b": b})
    np.testing.assert_allclose(grads["a"], np.full((2, 3), 1.5))
    # d/db sum((a+b)*b) = sum over rows of (a + 2b)
    np.testing.assert_allclose(grads["b"], (np.arange(6).reshape(2, 3)
                                            + 4.0).sum(axis=0))


def test_matmul_batched_grad():
    rng = SeededRng(1)
    a = np.asarray(rng.normal((2, 3, 4), 1.0))
    b = np.asarray(rng.normal((4, 5), 1.0))
    va, vb = tape.Var(a.copy()), tape.Var(b.copy())
    w = np.asarray(rng.normal((2, 3, 5), 1.0))
    loss = _sum(tape.mul(tape.matmul(va, vb), tape.Var(w)))
    grads = tape.reverse_grad(loss, {"a": va, "b": vb})
    np.testing.assert_allclose(grads["a"], w @ b.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads["b"], sum(a[k].T @ w[k] for k in range(2)),
                               rtol=1e-12, atol=1e-12)
    # the library's product, the readout's forward GEMM, is np.matmul checked
    assert np.array_equal(ad.matmul(a, b), np.matmul(a, b))
    with pytest.raises(ValueError, match="ndim >= 2"):
        ad.matmul(a, b[0])


def test_take_scatter_adds_repeated_rows():
    table = tape.Var(np.arange(10, dtype=float).reshape(5, 2))
    idx = np.array([1, 3, 1])
    out = tape.take(table, idx)
    np.testing.assert_allclose(tape.val(out), np.arange(10).reshape(5, 2)[idx])
    g = tape.reverse_grad(_sum(out), {"t": table})["t"]
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
    leaf = tape.Var(table.copy())
    got = tape.reverse_grad(_sum(tape.mul(tape.take(leaf, idx), w)), {"t": leaf})["t"]
    want = np.zeros_like(table)
    np.add.at(want, idx, w)
    assert _bits_equal(got, want)
    assert not np.signbit(got[:, 1]).any() and not got[1].any()
    assert got[2, 0] == got[2, 2] == 0.0

    # 1-D table, repeated and negative indices
    vec = np.asarray(rng.normal((5,), 1.0))
    idx = np.array([1, 4, 1, -1, 1])
    w = np.array([0.1, 0.2, 0.3, -0.0, 1e16])
    leaf = tape.Var(vec.copy())
    got = tape.reverse_grad(_sum(tape.mul(tape.take(leaf, idx), w)), {"v": leaf})["v"]
    want = np.zeros_like(vec)
    np.add.at(want, idx, w)
    assert _bits_equal(got, want)


def test_softmax_rows_oracle_quarters():
    # logits [ln1, ln3] put exactly 1/4 and 3/4 of the mass
    out = tape.val(tape.softmax_rows(np.array([[0.0, math.log(3.0)]])))
    np.testing.assert_allclose(out, [[0.25, 0.75]], rtol=1e-14)


def test_softmax_rows_shift_invariance_and_argmax():
    rng = SeededRng(2)
    x = np.asarray(rng.normal((6, 9), 2.0))
    a = tape.val(tape.softmax_rows(x))
    b = tape.val(tape.softmax_rows(x + 123.456))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
    assert (a.argmax(axis=-1) == x.argmax(axis=-1)).all()
    np.testing.assert_allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_softmax_rows_mask_zeroes_and_degenerate_row_raises():
    x = np.zeros((2, 3))
    mask = np.array([[True, False, True], [True, True, True]])
    out = tape.val(tape.softmax_rows(x, mask))
    np.testing.assert_allclose(out[0], [0.5, 0.0, 0.5])
    assert out[0, 1] == 0.0
    with pytest.raises(ValueError, match="degenerate distribution support"):
        tape.softmax_rows(x, np.zeros((2, 3), dtype=bool))


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
        leaf = tape.Var(x.copy())
        out = tape.softmax_rows(leaf, m)
        assert _bits_equal(tape.val(out), p)
        # the cotangent reaching softmax_rows is w itself
        got = tape.reverse_grad(_sum(tape.mul(out, w)), {"x": leaf})["x"]
        assert _bits_equal(got, p * (w - (w * p).sum(axis=-1, keepdims=True)))


# a small model with the position bias and a padded position, so the masks
# and every stage of a training forward take part
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


def _chain_loss(iters=2):
    """(loss, leaves) of a training forward through the model's chain."""
    params, tokens, token_mask, selected = _tape_case()
    leaves = params.as_vars()
    state = model.run_mfvi(TAPE_CFG, leaves, tokens, DIAG_WEIGHTS,
                           token_mask=token_mask, iters=iters)
    logits = model.mlm_logits(TAPE_CFG, leaves, state)
    return model.masked_ce_loss(logits, tokens, selected), leaves


def _taped_loss(iters=2):
    """(loss, leaves) of the same forward on the reference tape."""
    case, tokens, token_mask, selected = _tape_case()
    leaves = {k: tape.Var(v) for k, v in case.tensors.items()}
    state = tape.run(TAPE_CFG, leaves, tokens, DIAG_WEIGHTS, token_mask=token_mask,
                     iters=iters)
    logits = tape.readout(TAPE_CFG, leaves, state)
    return tape.loss(logits, tokens, selected), leaves


def test_reverse_grad_returns_exact_zeros_for_untouched_params():
    loss, leaves = _chain_loss()
    unused = ad.Var(np.ones(4))
    grads = ad.reverse_grad(loss, {**leaves, "unused": unused})
    assert grads["unused"].shape == (4,)
    assert (grads["unused"] == 0.0).all()
    assert all(np.any(grads[k]) for k in leaves)
    # with no sweep the loss never touches B, U, V or the position bias
    loss, leaves = _chain_loss(iters=0)
    grads = ad.reverse_grad(loss, leaves)
    for name in ("U", "V", "B", "P_rel"):
        assert grads[name].shape == leaves[name].value.shape
        assert not np.signbit(grads[name]).any() and not grads[name].any(), name
    assert all(np.any(grads[k]) for k in ("S", "gamma", "W_out", "b_out"))


def test_backward_frees_what_its_vjps_read_and_walks_a_tape_once(monkeypatch):
    read = []
    forward = model._ce_forward

    def spy(*args):
        loss, kept = forward(*args)
        read.append(weakref.ref(kept[0]))      # the softmax the loss's vjp reads
        return loss, kept

    monkeypatch.setattr(model, "_ce_forward", spy)
    loss, leaves = _chain_loss()
    assert read[0]() is not None
    grads = ad.reverse_grad(loss, leaves)
    assert read[0]() is None                   # freed by the backward, the loss still alive
    with pytest.raises(ValueError, match="earlier backward pass"):
        ad.reverse_grad(loss, leaves)
    # the leaves start a new chain, and it gives the same gradients
    params, tokens, token_mask, selected = _tape_case()
    state = model.run_mfvi(TAPE_CFG, leaves, tokens, DIAG_WEIGHTS, token_mask=token_mask,
                           iters=2)
    loss = model.masked_ce_loss(model.mlm_logits(TAPE_CFG, leaves, state), tokens, selected)
    for name, g in ad.reverse_grad(loss, leaves).items():
        assert _bits_equal(g, grads[name]), name


def test_a_chain_is_extended_from_its_latest_output_only():
    params, tokens, token_mask, selected = _tape_case()
    leaves = params.as_vars()
    state = model.run_mfvi(TAPE_CFG, leaves, tokens, DIAG_WEIGHTS, token_mask=token_mask,
                           iters=1)
    model.sweep(TAPE_CFG, leaves, state, DIAG_WEIGHTS)
    with pytest.raises(ValueError, match="latest output"):
        model.mlm_logits(TAPE_CFG, leaves, state)
    # a leaf is no chain's latest output: a recorded forward starts at init_mfvi
    leaf_q_z = ad.Var(ad.val(state.q_z).copy())
    with pytest.raises(ValueError, match="latest output"):
        model.sweep(TAPE_CFG, leaves, replace(state, q_z=leaf_q_z), DIAG_WEIGHTS)
    with pytest.raises(ValueError, match="latest output"):
        model.mlm_logits(TAPE_CFG, leaves, replace(state, q_z=leaf_q_z))
    logits = model.mlm_logits(TAPE_CFG, params.tensors, replace(state, q_z=leaf_q_z.value))
    with pytest.raises(ValueError, match="latest output"):
        model.masked_ce_loss(ad.Var(logits), tokens, selected)


@pytest.mark.parametrize("plain", ["S", "gamma", "P_rel"])
def test_a_forward_with_only_some_parameters_as_leaves_raises(plain):
    params, tokens, token_mask, _ = _tape_case()
    leaves = {k: v if k == plain else ad.Var(v) for k, v in params.tensors.items()}
    with pytest.raises(ValueError, match="every parameter as a Var leaf"):
        model.run_mfvi(TAPE_CFG, leaves, tokens, DIAG_WEIGHTS, token_mask=token_mask,
                       iters=1)


def test_ops_on_constants_stay_off_the_tape():
    leaf = tape.Var(np.ones(3))
    const = tape.mul(np.ones(3), 2.0)
    assert leaf.on_tape and not tape.as_var(np.ones(3)).on_tape
    assert not const.on_tape and const._parents == ()
    mixed = tape.add(const, leaf)
    assert mixed.on_tape and mixed._link._parents == (leaf._link,)
    np.testing.assert_array_equal(tape.reverse_grad(_sum(mixed), {"x": leaf})["x"], np.ones(3))


def test_forward_on_plain_arrays_builds_no_tape():
    params, tokens, token_mask, selected = _tape_case()
    state = model.run_mfvi(TAPE_CFG, params.tensors, tokens, DIAG_WEIGHTS,
                           token_mask=token_mask, iters=2)
    logits = model.mlm_logits(TAPE_CFG, params.tensors, state)
    loss = model.masked_ce_loss(logits, tokens, selected)
    inv = state.invariants
    for out in (state.q_z, state.q_h, state.q_g, logits, inv.s_rows, inv.u_s, inv.v_s,
                inv.bias):
        assert type(out) is np.ndarray
    assert not isinstance(loss, ad.Var) and np.shape(loss) == ()


def test_gradients_equal_those_of_a_tape_that_records_every_operand(monkeypatch):
    loss, leaves = _taped_loss()
    grads = tape.reverse_grad(loss, leaves)
    # every operand a leaf on the tape: the constants get (unread) cotangents too
    monkeypatch.setattr(tape, "as_var", lambda x: x if isinstance(x, tape.Var) else tape.Var(x))
    loss_all, leaves_all = _taped_loss()
    assert tape.val(loss_all) == tape.val(loss)
    for name, g in tape.reverse_grad(loss_all, leaves_all).items():
        assert np.array_equal(g, grads[name]), name
    assert any(np.any(g) for g in grads.values())


def test_backward_never_calls_the_vjp_of_a_constant(monkeypatch):
    on_tape = []
    node = tape._node

    def spy(a, vjp):
        def wrapped(g):
            on_tape.append(a.on_tape)
            return vjp(g)
        return wrapped

    monkeypatch.setattr(tape, "_node", lambda value, inputs, vjps: node(
        value, inputs, tuple(spy(a, f) for a, f in zip(inputs, vjps))))
    loss, leaves = _taped_loss()
    tape.reverse_grad(loss, leaves)
    assert on_tape and all(on_tape)


def test_tape_keeps_only_what_backward_reads(monkeypatch):
    want = ad.reverse_grad(*_chain_loss())
    dead, alive = [], []
    update_heads, softmax_np = model.update_heads, ad._softmax_np

    def spy_update_heads(*args):
        f, q_h = update_heads(*args)
        dead.append(weakref.ref(f))         # F: the sweep hands it back, run_mfvi drops it
        alive.append(weakref.ref(q_h))      # Q_h: the sweep's vjp reads it
        return f, q_h

    def spy_softmax_np(x, mask):
        if x.ndim == 4:                     # w_attn * F
            dead.append(weakref.ref(x))
        return softmax_np(x, mask)

    monkeypatch.setattr(model, "update_heads", spy_update_heads)
    monkeypatch.setattr(ad, "_softmax_np", spy_softmax_np)
    loss, leaves = _chain_loss()
    assert len(dead) == 4 and len(alive) == 2
    assert all(ref() is None for ref in dead)
    assert all(ref() is not None for ref in alive)
    for name, g in ad.reverse_grad(loss, leaves).items():
        assert np.array_equal(g, want[name]), name
    assert all(ref() is None for ref in alive)     # freed by the backward


def test_each_sweeps_record_is_released_once_its_vjp_has_run(monkeypatch):
    kept_q_h, released = [], []
    forward, backward = model._sweep_forward, model._sweep_backward

    def spy_forward(*args):
        out = forward(*args)
        kept_q_h.append(weakref.ref(out[6].q_h))
        return out

    def spy_backward(config, iw, kept, g):
        out = backward(config, iw, kept, g)
        released.append([ref() is None for ref in kept_q_h])
        return out

    monkeypatch.setattr(model, "_sweep_forward", spy_forward)
    monkeypatch.setattr(model, "_sweep_backward", spy_backward)
    loss, leaves = _chain_loss(iters=3)
    assert len(kept_q_h) == 3 and all(ref() is not None for ref in kept_q_h)
    ad.reverse_grad(loss, leaves)
    # each vjp runs while its own record is alive, after the later sweeps' went
    assert released == [[False, False, False], [False, False, True], [False, True, True]]
    assert all(ref() is None for ref in kept_q_h)


def _tape_links(iters):
    """The links of a loss's tape, counted by walking `_parents`; the walk
    must find the toposorted links."""
    loss, _ = _taped_loss(iters)
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    order = tape._toposort(loss._link)
    assert len(seen) == len(order)
    assert order[-1] is loss._link
    return len(order)


def test_walking_parents_counts_exactly_the_toposorted_links():
    # a sweep is one link, and the invariants it reads are formed once per
    # forward: each further sweep adds exactly one link
    counts = [_tape_links(iters) for iters in (1, 2, 3)]
    assert counts[1] - counts[0] == counts[2] - counts[1] == 1


def test_finite_diff_check_passes_on_smooth_composite():
    rng = SeededRng(3)
    w0 = np.asarray(rng.normal((4, 3), 0.5))
    b0 = np.asarray(rng.normal((3,), 0.5))

    c = np.asarray(rng.normal((4, 4), 1.0))

    def loss_fn(params):
        h = tape.matmul(params["w"], tape.swapaxes(params["w"], 0, 1))
        mean_b = tape.mul(_sum(params["b"]), 1.0 / 3.0)
        return _sum(tape.mul(tape.mul(tape.softmax_rows(h), c), tape.mul(mean_b, mean_b)))

    leaves = {"w": tape.Var(w0.copy()), "b": tape.Var(b0.copy())}
    grads = tape.reverse_grad(loss_fn(leaves), leaves)
    report = ad.finite_diff_check(lambda p: tape.val(loss_fn(p)), {"w": w0, "b": b0}, grads)
    assert report.passed, report.worst_coord
    assert report.worst_ratio <= 1.0
    grads["b"] = grads["b"] * 1.01           # a wrong gradient fails
    report = ad.finite_diff_check(lambda p: tape.val(loss_fn(p)), {"w": w0, "b": b0}, grads)
    assert not report.passed and report.worst_coord[0] == "b"


def test_finite_diff_check_detects_wrong_gradient():
    # a loss that lies about itself: the second evaluation differs
    x0 = np.array([1.0, 1.0 + 1e-7])
    calls = []

    def lying_loss(params):
        calls.append(0)
        jitter = 1e-3 if len(calls) > 1 else 0.0
        return np.sum(params["x"] * np.array([1.0, 1.0 + jitter]))

    with pytest.raises(ValueError, match="deterministic"):
        ad.finite_diff_check(lying_loss, {"x": x0}, {"x": np.ones(2)})


@contextlib.contextmanager
def _lanes(n):
    """Every forward in the block decides on n lanes, with no size floor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "LANE_MIN_MACS", 0)
        mp.setattr(parallel, "_usable_cpus", lambda: n * parallel._blas_threads())
        yield


@st.composite
def _training_forwards(draw):
    """(config, params, tokens, token_mask, selected, iw, sweeps, lanes): a
    small geometry, the position bias on or off, float32 or float64
    parameters, a padding mask or none, one lane or two."""
    rank = draw(st.integers(1, 3))
    pos_clip = draw(st.integers(1, 3))
    config = PTConfig(width=draw(st.integers(rank, 8)), rank=rank,
                      channels=draw(st.integers(1, 3)), topics=draw(st.integers(1, 6)),
                      vocab_size=7, pos_bias=draw(st.booleans()),
                      pos_buckets=2 * pos_clip, pos_clip=pos_clip)
    batch, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    rng = SeededRng(draw(st.integers(0, 2**16)))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    params = model.ModelParams.init(config, rng.spawn("params"), dtype=dtype).tensors
    if config.pos_bias:
        params["P_rel"] = rng.spawn("p_rel").normal(params["P_rel"].shape, 1.0).astype(dtype)
    tokens = np.asarray(rng.spawn("tokens").integers(0, config.vocab_size, (batch, n)))
    token_mask = None
    if draw(st.booleans()):
        # at least 2 real tokens per row, so every position has a head candidate
        rows = [draw(st.lists(st.booleans(), min_size=n, max_size=n)
                     .filter(lambda row: sum(row) >= 2)) for _ in range(batch)]
        token_mask = np.array(rows, dtype=bool)
    cells = st.lists(st.booleans(), min_size=batch * n, max_size=batch * n)
    selected = np.array(draw(cells.filter(any))).reshape(batch, n)
    iw = InfoWeights.from_array(draw(st.lists(st.floats(0.25, 1.75), min_size=6, max_size=6)))
    return (config, params, tokens, token_mask, selected, iw, draw(st.integers(0, 3)),
            draw(st.sampled_from([1, 2])))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=_training_forwards())
def test_the_chain_gives_the_tapes_loss_and_gradients_bit_for_bit(case):
    config, params, tokens, token_mask, selected, iw, sweeps, lanes = case
    with _lanes(lanes):
        leaves = {k: ad.Var(v) for k, v in params.items()}
        state = model.run_mfvi(config, leaves, tokens, iw, token_mask, iters=sweeps)
        assert state.invariants.lanes == lanes
        loss = model.masked_ce_loss(model.mlm_logits(config, leaves, state), tokens, selected)
        grads = ad.reverse_grad(loss, leaves)

        ref_leaves = {k: tape.Var(v) for k, v in params.items()}
        ref_state = tape.run(config, ref_leaves, tokens, iw, token_mask, iters=sweeps)
        ref_loss = tape.loss(tape.readout(config, ref_leaves, ref_state), tokens, selected)
        ref = tape.reverse_grad(ref_loss, ref_leaves)
    assert _bits_equal(ad.val(loss), tape.val(ref_loss))
    assert grads.keys() == ref.keys()
    for name, want in ref.items():
        assert _bits_equal(grads[name], want), name
