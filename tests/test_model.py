"""Inference-engine oracles and invariants.

The small hand-computed cases fix the semantics of every message family:
attention logits from quasi-labels, topic logits, label updates, and the
vocabulary head. The property tests then pin the distributional invariants
(normalization, masking, equivariance, uniform fixed point) on random
instances.
"""
import numpy as np
import pytest

from mupt import autodiff as ad
from mupt.autodiff import Var, val
from mupt.config import InfoWeights, PTConfig
from mupt.errors import ConfigError
from mupt.mup import PARADIGMS, scale_width
from mupt.model import (
    MFVIState,
    ModelParams,
    init_mfvi,
    masked_ce_loss,
    mlm_logits,
    param_count,
    position_buckets,
    run_mfvi,
    sweep,
    tensor_order,
    tensor_shapes,
    uniform_posteriors,
    low_rank_products,
    ternary_messages,
    topic_message,
    update_heads,
    update_topics,
    update_z,
)
from mupt.rng import SeededRng

IW = InfoWeights()


def _tiny_config(**kw):
    base = dict(width=2, rank=1, channels=1, topics=2, vocab_size=2, pos_bias=False)
    base.update(kw)
    return PTConfig(**base)


def _tiny_params(config):
    shapes = tensor_shapes(config)
    return {name: np.zeros(shape) for name, shape in shapes.items()}


def _products(cfg, state):
    """The plain invariants of `state` and `low_rank_products` of its Q_z."""
    inv = state.invariants.arrays()
    return inv, low_rank_products(inv, cfg.width * val(state.q_z))


def _label_logits(cfg, iw, inv, b, q_h, q_g, products):
    """update_z's label logits from the topic and ternary messages of its lanes."""
    binary = topic_message(cfg, iw, b, q_g)
    return update_z(cfg, iw, inv, binary, ternary_messages(cfg, iw, inv, q_h, *products)[0])[0]


def _heads(cfg, state):
    """update_heads on the incoming Q_z of `state`: (F, Q_h)."""
    inv, products = _products(cfg, state)
    return update_heads(cfg, IW, inv, *products)


# ---------------------------------------------------------------- hand oracles

def test_attention_logits_hand_case():
    # two tokens, one rank-1 channel; F[i,j] = (Nz_i U)(Nz_j V) / r
    cfg = _tiny_config()
    params = _tiny_params(cfg)
    params["S"] = np.array([[0.0, 0.0], [0.0, np.log(3.0)]])
    params["U"] = np.array([[[0.3], [0.1]]])
    params["V"] = np.array([[[0.2], [0.2]]])

    state = init_mfvi(cfg, params, np.array([[0, 1]]), IW)
    np.testing.assert_allclose(val(state.q_z)[0], [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)

    f = _heads(cfg, state)[0][0]
    assert f.shape == (1, 2, 2)
    # Nz = [[1, 1], [0.5, 1.5]]; q = [0.4, 0.3]; k = [0.4, 0.4]
    np.testing.assert_allclose(f[0, 0, 1], 0.16, atol=1e-14)
    np.testing.assert_allclose(f[0, 1, 0], 0.12, atol=1e-14)


def test_update_heads_two_tokens_deterministic():
    # with only one candidate head per position the posterior is a point mass
    cfg = _tiny_config()
    params = _tiny_params(cfg)
    state = init_mfvi(cfg, params, np.array([[0, 1]]), IW)
    q_h = _heads(cfg, state)[1][0]
    np.testing.assert_array_equal(np.diagonal(q_h, axis1=-2, axis2=-1), 0.0)
    np.testing.assert_allclose(q_h[0], [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_topic_update_hand_case():
    cfg = _tiny_config(topics=2)
    params = _tiny_params(cfg)
    params["B"] = np.array([[np.log(2.0) / 2, np.log(2.0) / 2], [0.0, 0.0]])
    nz = cfg.width * np.full((1, 2, 2), 0.5)
    # topic logits = (M/N) Nz B^T = [ln 2, 0] per row
    g, q_g = (x[0] for x in update_topics(cfg, IW, params["B"], nz))
    np.testing.assert_allclose(g, [[np.log(2.0), 0.0]] * 2, atol=1e-15)
    np.testing.assert_allclose(q_g, [[2 / 3, 1 / 3], [2 / 3, 1 / 3]], atol=1e-14)


def test_z_logits_decompose_by_weights():
    # each message family is isolated by zeroing the other multipliers
    cfg = _tiny_config(topics=2)
    params = _tiny_params(cfg)
    params["S"] = np.array([[1.0, 2.0], [3.0, 4.0]])
    params["B"] = np.array([[0.5, -0.5], [0.25, 0.0]])
    tokens = np.array([0, 1])
    state = init_mfvi(cfg, params, tokens[None], InfoWeights(w_unary=1.0))

    only_unary = InfoWeights(w_unary=1.0, w_tern_dep=0.0, w_tern_head=0.0,
                             w_binary=0.0, w_attn=0.0, w_topic=0.0)
    inv, products = _products(cfg, state)
    lz = _label_logits(cfg, only_unary, inv, params["B"], state.q_h, state.q_g, products)[0]
    np.testing.assert_allclose(lz, params["S"][tokens], atol=1e-15)

    only_binary = InfoWeights(w_unary=0.0, w_tern_dep=0.0, w_tern_head=0.0,
                              w_binary=1.0, w_attn=0.0, w_topic=0.0)
    lz = _label_logits(cfg, only_binary, inv, params["B"], state.q_h, state.q_g, products)[0]
    ng = state.q_g[0] * float(cfg.topics)
    np.testing.assert_allclose(lz, ng @ params["B"], atol=1e-14)


def test_mlm_logits_hand_case():
    cfg = _tiny_config(vocab_size=3, rms_eps=0.0)
    params = _tiny_params(cfg)
    params["gamma"] = np.ones(2)
    params["W_out"] = np.array([[1.0, 2.0, 0.0], [0.5, 0.0, 1.0]])
    params["b_out"] = np.array([0.1, 0.2, 0.3])
    q_z = np.full((1, 2, 2), 0.5)  # Nz = [1, 1], rms = 1, feature = [1, 1]
    state = MFVIState(tokens=np.array([[0, 1]]), q_z=Var(q_z),
                      q_h=np.zeros((1, 1, 2, 2)), q_g=np.full((1, 2, 2), 0.5))
    out = val(mlm_logits(cfg, params, state))[0]
    np.testing.assert_allclose(out, [[1.6, 2.2, 1.3]] * 2, atol=1e-14)


def test_masked_ce_loss_hand_case():
    logits = Var(np.array([[0.0, np.log(3.0)], [0.0, 0.0]]))
    targets = np.array([1, 0])
    loss = val(masked_ce_loss(logits, targets, np.array([True, False])))
    np.testing.assert_allclose(loss, np.log(4.0 / 3.0), atol=1e-14)
    both = val(masked_ce_loss(logits, targets, np.array([True, True])))
    np.testing.assert_allclose(both, (np.log(4.0 / 3.0) + np.log(2.0)) / 2, atol=1e-14)
    with pytest.raises(ConfigError):
        masked_ce_loss(logits, targets, np.array([False, False]))


def test_position_buckets_oracle():
    expected = np.array([
        [0, 1, 0, 0],
        [2, 0, 1, 0],
        [3, 2, 0, 1],
        [3, 3, 2, 0],
    ])
    np.testing.assert_array_equal(position_buckets(4, 4, 2), expected)
    with pytest.raises(ConfigError):
        position_buckets(4, 6, 2)


def test_position_bias_enters_attention():
    cfg = _tiny_config(pos_bias=True, pos_buckets=4, pos_clip=2)
    params = _tiny_params(cfg)
    params["P_rel"] = np.array([[1.0, 2.0, 3.0, 4.0]])
    state = init_mfvi(cfg, params, np.array([[0, 1, 0]]), IW)
    f = _heads(cfg, state)[0]
    # all bilinear terms are zero, so F is exactly the bucketed bias table
    buckets = position_buckets(3, 4, 2)
    np.testing.assert_array_equal(f[0, 0], params["P_rel"][0][buckets])


# ------------------------------------------------------------------ invariants

def _random_setup(seed=0, n=6, batch=1):
    cfg = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17, pos_bias=False)
    rng = SeededRng(seed)
    params = ModelParams.init(cfg, rng.spawn("params"))
    tokens = rng.spawn("tokens").integers(0, cfg.vocab_size, (batch, n))
    return cfg, params.tensors, tokens


def test_posteriors_are_distributions():
    cfg, params, tokens = _random_setup()
    state = run_mfvi(cfg, params, tokens, IW, iters=3)
    q_z, q_h, q_g = val(state.q_z), val(state.q_h), val(state.q_g)
    np.testing.assert_allclose(q_z.sum(-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(q_g.sum(-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(q_h.sum(-1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(np.diagonal(q_h, axis1=-2, axis2=-1), 0.0)
    assert q_z.min() >= 0 and q_h.min() >= 0 and q_g.min() >= 0
    assert state.sweeps == 3


def test_quasi_rows_average_to_one():
    cfg, params, tokens = _random_setup(seed=1)
    state = run_mfvi(cfg, params, tokens, IW, iters=2)
    nz = val(state.q_z) * float(cfg.width)
    ng = state.q_g * float(cfg.topics)
    np.testing.assert_allclose(nz.mean(-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(ng.mean(-1), 1.0, atol=1e-12)


def test_batched_matches_single():
    # each row of a batch is exactly that row run as a batch of one
    cfg, params, tokens = _random_setup(seed=2, batch=3)
    batched = run_mfvi(cfg, params, tokens, IW, iters=3)
    out_b = val(mlm_logits(cfg, params, batched))
    for b in range(tokens.shape[0]):
        single = run_mfvi(cfg, params, tokens[b:b + 1], IW, iters=3)
        for name in ("q_z", "q_h", "q_g"):
            np.testing.assert_array_equal(val(getattr(batched, name))[b],
                                          val(getattr(single, name))[0])
        np.testing.assert_array_equal(out_b[b], val(mlm_logits(cfg, params, single))[0])


def test_permutation_equivariance_without_position_bias():
    cfg, params, tokens = _random_setup(seed=3)
    perm = SeededRng(9).permutation(tokens.shape[-1])
    a = run_mfvi(cfg, params, tokens, IW, iters=3)
    b = run_mfvi(cfg, params, tokens[:, perm], IW, iters=3)
    np.testing.assert_allclose(val(b.q_z), val(a.q_z)[:, perm], atol=1e-12)
    np.testing.assert_allclose(val(b.q_g), val(a.q_g)[:, perm], atol=1e-12)
    np.testing.assert_allclose(val(b.q_h), val(a.q_h)[:, :, perm][..., perm], atol=1e-12)
    np.testing.assert_allclose(val(mlm_logits(cfg, params, b)),
                               val(mlm_logits(cfg, params, a))[:, perm], atol=1e-12)


def test_zero_params_give_uniform_fixed_point():
    cfg = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17, pos_bias=False)
    params = {name: np.zeros(shape) for name, shape in tensor_shapes(cfg).items()}
    tokens = np.array([[0, 5, 3, 16, 2]])
    state = run_mfvi(cfg, params, tokens, IW, iters=4)
    q_z, q_h, q_g = uniform_posteriors(cfg, 5)
    np.testing.assert_array_equal(val(state.q_z)[0], q_z)
    np.testing.assert_array_equal(val(state.q_h)[0], q_h)
    np.testing.assert_array_equal(val(state.q_g)[0], q_g)


def test_token_mask_zeroes_padding():
    cfg, params, tokens = _random_setup(seed=4)
    mask = np.array([True, True, True, True, False, False])
    state = run_mfvi(cfg, params, tokens, IW, token_mask=mask[None], iters=2)
    q_h = val(state.q_h)[0]
    # padded positions are never selected as heads and select none themselves
    np.testing.assert_array_equal(q_h[:, :, mask == False], 0.0)  # noqa: E712
    np.testing.assert_array_equal(q_h[:, mask == False, :], 0.0)  # noqa: E712
    np.testing.assert_allclose(q_h[:, mask].sum(-1), 1.0, atol=1e-12)


def _masked_batch_setup(paradigm=None):
    """Width 8 with position bias and padding; width 16 under `paradigm` if given."""
    cfg = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
                   pos_bias=True, pos_buckets=8, pos_clip=4)
    if paradigm is not None:
        cfg = scale_width(cfg, 16, paradigm)
    rng = SeededRng(5)
    params = ModelParams.init(cfg, rng.spawn("params")).tensors
    params["P_rel"] = rng.spawn("p_rel").normal(params["P_rel"].shape, 1.0)
    tokens = rng.spawn("tokens").integers(0, cfg.vocab_size, (3, 6))
    mask = np.ones((3, 6), dtype=bool)
    mask[1, 4:] = False
    mask[2, 3:] = False
    return cfg, params, tokens, mask


def test_run_mfvi_is_iterated_sweep():
    cfg, params, tokens, mask = _masked_batch_setup()
    state = init_mfvi(cfg, params, tokens, IW, token_mask=mask)
    for _ in range(3):
        state = sweep(cfg, params, state, IW)[0]
    ref = run_mfvi(cfg, params, tokens, IW, token_mask=mask, iters=3)
    assert state.sweeps == ref.sweeps == 3
    for name in ("q_z", "q_h", "q_g"):
        np.testing.assert_array_equal(val(getattr(state, name)), val(getattr(ref, name)))


def test_sweep_logits_reproduce_posteriors():
    cfg, params, tokens, mask = _masked_batch_setup()
    state = run_mfvi(cfg, params, tokens, IW, token_mask=mask, iters=1)
    swept, f, g, z = sweep(cfg, params, state, IW)
    support = ~np.eye(tokens.shape[-1], dtype=bool)[None, None] & mask[:, None, None, :]
    q_h = val(ad.softmax_rows(val(f) * IW.w_attn, support)) * mask[:, None, :, None]
    np.testing.assert_array_equal(q_h, val(swept.q_h))
    np.testing.assert_array_equal(val(ad.softmax_rows(val(g))), val(swept.q_g))
    np.testing.assert_array_equal(val(ad.softmax_rows(val(z))), val(swept.q_z))
    # F is read off the incoming state, before any posterior is refreshed
    np.testing.assert_array_equal(f, _heads(cfg, state)[0])
    assert swept.sweeps == state.sweeps + 1


@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_fused_ternary_messages_equal_per_channel_sum(paradigm):
    # the channel sum inside one GEMM against the stacked factor equals the
    # plain sum over channels of Q_h[c] (Nz V_c) U_c^T and of its transpose
    cfg, params, tokens, mask = _masked_batch_setup(paradigm)
    state = run_mfvi(cfg, params, tokens, IW, token_mask=mask, iters=2)
    nz, q_h = cfg.width * val(state.q_z), val(state.q_h)
    u, v = params["U"], params["V"]
    dep_ref = sum(q_h[:, c] @ (nz @ v[c]) @ u[c].T for c in range(cfg.channels))
    head_ref = sum(q_h[:, c].swapaxes(-1, -2) @ (nz @ u[c]) @ v[c].T
                   for c in range(cfg.channels))

    inv, products = _products(cfg, state)
    none = dict(w_unary=0.0, w_binary=0.0, w_tern_dep=0.0, w_tern_head=0.0)
    dep, head = (_label_logits(cfg, InfoWeights(**{**none, w: 1.0}), inv, params["B"], q_h,
                               state.q_g, products)
                 for w in ("w_tern_dep", "w_tern_head"))
    # an entry that cancels to far below the others' size carries their
    # rounding error, hence the floor at 1e-13 of the largest entry
    for got, ref in ((dep, dep_ref), (head, head_ref)):
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_stacked_factor_columns_are_channels():
    cfg, params, tokens, mask = _masked_batch_setup("scale_channels")
    state = init_mfvi(cfg, params, tokens, IW, token_mask=mask)
    inv, (nz_u, nz_v) = _products(cfg, state)
    u_s, v_s, r = inv.u_s, inv.v_s, cfg.rank
    assert u_s.shape == v_s.shape == (cfg.width, cfg.channels * r)
    assert nz_u.shape == nz_v.shape == tokens.shape + (cfg.channels * r,)
    for c in range(cfg.channels):
        np.testing.assert_array_equal(u_s[:, c * r:(c + 1) * r], params["U"][c])
        np.testing.assert_array_equal(v_s[:, c * r:(c + 1) * r], params["V"][c])


def test_sweep_forms_low_rank_products_once_and_no_channel_expansion(monkeypatch):
    # the sweep's GEMMs run on plain arrays, so every np.matmul is recorded,
    # those of the forward and of the sweep's hand-derived vjp alike
    cfg, params, tokens, mask = _masked_batch_setup("scale_channels")
    batch, n = tokens.shape
    c, width, r = cfg.channels, cfg.width, cfg.rank
    assert cfg.topics != c * r  # keeps Nz B^T apart from Nz U and Nz V
    shapes = {"forward": [], "backward": []}
    phase = "forward"
    matmul = np.matmul

    def recording(a, b):
        out = matmul(a, b)
        shapes[phase].append((a.shape, b.shape, out.shape))
        return out

    monkeypatch.setattr(np, "matmul", recording)
    iters = 3
    leaves = ModelParams(cfg, params).as_vars()
    state = run_mfvi(cfg, leaves, tokens, IW, token_mask=mask, iters=iters)
    loss = masked_ce_loss(mlm_logits(cfg, leaves, state), tokens, mask)
    phase = "backward"
    ad.reverse_grad(loss, leaves)
    assert shapes["forward"] and shapes["backward"]
    for recorded in shapes.values():
        assert all(out != (batch, c, n, width) for _, _, out in recorded)
    low_rank = [s for s in shapes["forward"] if s[:2] == ((batch * n, width), (width, c * r))]
    assert len(low_rank) == 2 * iters


def test_input_validation():
    cfg, params, _ = _random_setup()
    for tokens in (np.array([0, 1]), np.zeros((1, 2, 2), dtype=int)):
        with pytest.raises(ConfigError, match=r"shape \(batch, n\)"):
            init_mfvi(cfg, params, tokens, IW)
    with pytest.raises(ConfigError, match="single-token"):
        init_mfvi(cfg, params, np.array([[3]]), IW)
    with pytest.raises(ConfigError, match="out of range"):
        init_mfvi(cfg, params, np.array([[0, 17]]), IW)
    with pytest.raises(ConfigError, match="integers"):
        init_mfvi(cfg, params, np.array([[0.0, 1.0]]), IW)
    for mask in (np.ones(2, dtype=bool), np.ones((1, 3), dtype=bool)):
        with pytest.raises(ConfigError, match="token_mask must have"):
            init_mfvi(cfg, params, np.array([[0, 1], [1, 0]]), IW, token_mask=mask)
    with pytest.raises(ConfigError, match="degenerate distribution support"):
        init_mfvi(cfg, params, np.array([[0, 1, 2], [0, 1, 2]]), IW,
                  token_mask=np.array([[True, True, False], [True, False, False]]))
    with pytest.raises(ConfigError, match="iters"):
        run_mfvi(cfg, params, np.array([[0, 1]]), IW, iters=-1)
    state = init_mfvi(cfg, params, np.array([[0, 1]]), IW)
    with pytest.raises(ConfigError, match="init_mfvi"):
        sweep(cfg, params, MFVIState(tokens=state.tokens, q_z=state.q_z, q_h=state.q_h,
                                     q_g=state.q_g), IW)


# ------------------------------------------------------------------- plumbing

def test_tensor_shapes_and_order():
    cfg = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
                   pos_bias=True, pos_buckets=8, pos_clip=4)
    shapes = tensor_shapes(cfg)
    assert tensor_order(cfg) == ("S", "U", "V", "B", "gamma", "W_out", "b_out", "P_rel")
    assert shapes["S"] == (17, 8)
    assert shapes["U"] == (2, 8, 2)
    assert shapes["V"] == (2, 8, 2)
    assert shapes["B"] == (16, 8)
    assert shapes["gamma"] == (8,)
    assert shapes["W_out"] == (8, 17)
    assert shapes["b_out"] == (17,)
    assert shapes["P_rel"] == (2, 8)
    assert "P_rel" not in tensor_shapes(cfg.with_(pos_bias=False))
    assert param_count(cfg) == sum(int(np.prod(s)) for s in shapes.values())


def test_init_determinism_and_zero_tensors():
    cfg = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
                   pos_bias=True, pos_buckets=8, pos_clip=4)
    a = ModelParams.init(cfg, SeededRng(7))
    b = ModelParams.init(cfg, SeededRng(7))
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
    np.testing.assert_array_equal(a.tensors["P_rel"], 0.0)
    np.testing.assert_array_equal(a.tensors["b_out"], 0.0)
    assert a.n_params == param_count(cfg)
    c = a.copy()
    c.tensors["S"][0, 0] += 1.0
    assert a.tensors["S"][0, 0] != c.tensors["S"][0, 0]
