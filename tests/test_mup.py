"""Grouped parametrization: classification, scales, optimizer, width scaling."""
import numpy as np
import pytest

from mupt import mup
from mupt.config import PTConfig, SCALE_CHANNELS, SCALE_RANK
from mupt.errors import ConfigError
from mupt.model import param_count
from mupt.mup import (AdamW, WidthScaler, classify_param, group_lr, init_sigma, scale_width,
                      tensor_sigma)

BASE = PTConfig(width=64, rank=16, channels=2, topics=128, vocab_size=64, pos_bias=False)


def test_classification_table():
    assert classify_param("S") == "input"
    assert classify_param("gamma") == "input"
    assert classify_param("P_rel") == "input"
    assert classify_param("U") == "hidden"
    assert classify_param("V") == "hidden"
    assert classify_param("B") == "hidden"
    assert classify_param("W_out") == "output"
    assert classify_param("b_out") == "bias"
    with pytest.raises(ConfigError):
        classify_param("mystery")


def test_init_sigma_values():
    assert init_sigma("input", 64) == 1.0
    assert init_sigma("hidden", 64) == 0.125
    assert init_sigma("output", 64) == 1.0 / 64
    assert init_sigma("bias", 64) == 0.0
    with pytest.raises(ConfigError):
        init_sigma("nope", 64)


def test_tensor_sigma_values():
    # the group's scale, except for the zero-initialized position table
    assert tensor_sigma("S", 64) == 1.0
    assert tensor_sigma("U", 64) == 0.125
    assert tensor_sigma("W_out", 64) == 1.0 / 64
    assert tensor_sigma("b_out", 64) == 0.0
    assert tensor_sigma("P_rel", 64) == 0.0
    with pytest.raises(ConfigError):
        tensor_sigma("mystery", 64)


def test_group_lr_table():
    eta = 0.02
    assert group_lr("input", eta, 64) == eta
    assert group_lr("bias", eta, 64) == eta
    assert group_lr("hidden", eta, 64) == eta / 64
    assert group_lr("hidden", eta, 128) == eta / 128
    assert group_lr("output", eta, 64) == eta / 64
    assert group_lr("hidden", eta, 64, hidden_lr_scaling="constant") == eta
    with pytest.raises(ConfigError):
        group_lr("hidden", eta, 64, hidden_lr_scaling="bogus")


def test_adamw_first_step_closed_form():
    # after one step from zero moments the update is g / (|g| + eps)
    shapes = {"S": (2, 2), "gamma": (2,)}
    eta, wd, eps = 0.1, 0.01, 1e-8
    opt = AdamW(shapes, width=4, eta=eta, eps=eps, weight_decay=wd)
    params = {"S": np.array([[1.0, -2.0], [0.5, 4.0]]), "gamma": np.array([1.0, 1.0])}
    grads = {"S": np.array([[1.0, -2.0], [0.0, 0.3]]), "gamma": np.array([0.5, 0.0])}
    p0 = {k: v.copy() for k, v in params.items()}
    opt.step(params, grads)

    b1, b2 = 0.9, 0.999
    for name in shapes:
        g = grads[name]
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        unit = (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        if name in mup.DECAY_NAMES:
            expected = p0[name] - eta * (unit + wd * p0[name])
        else:
            expected = p0[name] - eta * unit
        np.testing.assert_allclose(params[name], expected, rtol=1e-14)
    assert opt.t == 1


def test_adamw_steps_equal_the_closed_form_bitwise():
    rng = np.random.default_rng(3)
    shapes = {"S": (3, 4), "U": (2, 4, 2), "gamma": (4,), "b_out": (5,)}
    eta, wd, eps, b1, b2 = 0.03, 0.01, 1e-8, 0.9, 0.999
    opt = AdamW(shapes, width=4, eta=eta, eps=eps, weight_decay=wd)
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    want = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    for t in range(1, 6):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        opt.step(params, grads)
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            mhat = m[k] / (1.0 - b1 ** t)
            vhat = v[k] / (1.0 - b2 ** t)
            update = mhat / (np.sqrt(vhat) + eps)
            if k in mup.DECAY_NAMES:
                update = update + wd * want[k]
            want[k] = want[k] - opt.lr_of[k] * update
    for k in shapes:
        assert params[k].tobytes() == want[k].tobytes(), k
        assert opt.m[k].tobytes() == m[k].tobytes() and opt.v[k].tobytes() == v[k].tobytes(), k


def test_adamw_zero_grad_fixed_point_without_decay():
    shapes = {"gamma": (3,), "b_out": (3,)}
    opt = AdamW(shapes, width=8, eta=0.1, weight_decay=0.0)
    params = {"gamma": np.array([1.0, 2.0, 3.0]), "b_out": np.zeros(3)}
    zeros = {k: np.zeros(3) for k in shapes}
    before = {k: v.copy() for k, v in params.items()}
    for _ in range(5):
        opt.step(params, zeros)
    for name in shapes:
        np.testing.assert_array_equal(params[name], before[name])


def test_adamw_decay_touches_only_weight_matrices():
    shapes = {"S": (2,), "gamma": (2,), "b_out": (2,)}
    opt = AdamW(shapes, width=8, eta=0.1, weight_decay=0.01)
    params = {k: np.ones(2) for k in shapes}
    zeros = {k: np.zeros(2) for k in shapes}
    opt.step(params, zeros)
    assert params["S"][0] < 1.0
    np.testing.assert_array_equal(params["gamma"], 1.0)
    np.testing.assert_array_equal(params["b_out"], 1.0)


def test_adamw_group_lrs_precomputed():
    shapes = {"S": (1,), "U": (1,), "W_out": (1,), "b_out": (1,)}
    opt = AdamW(shapes, width=64, eta=0.01)
    assert opt.lr_of["S"] == 0.01
    assert opt.lr_of["U"] == 0.01 / 64
    assert opt.lr_of["W_out"] == 0.01 / 64
    assert opt.lr_of["b_out"] == 0.01
    control = AdamW(shapes, width=64, eta=0.01, hidden_lr_scaling="constant")
    assert control.lr_of["U"] == 0.01


def test_scale_channels_geometry():
    cfg = scale_width(BASE, 512, SCALE_CHANNELS)
    assert (cfg.width, cfg.rank, cfg.channels, cfg.topics) == (512, 16, 16, 1024)
    assert cfg.tau == 32.0
    assert BASE.tau == 4.0


def test_scale_rank_geometry():
    cfg = scale_width(BASE, 512, SCALE_RANK)
    assert (cfg.width, cfg.rank, cfg.channels, cfg.topics) == (512, 128, 2, 1024)
    assert cfg.tau == 4.0  # pinned across widths


def test_scale_width_identity_and_validation():
    assert scale_width(BASE, 64, SCALE_CHANNELS) == BASE
    with pytest.raises(ConfigError):
        scale_width(BASE, 100, SCALE_CHANNELS)  # channels would not be integral
    with pytest.raises(ConfigError):
        scale_width(BASE, 0, SCALE_CHANNELS)
    with pytest.raises(ConfigError):
        scale_width(BASE, 128, "grow_everything")


def test_width_scaler():
    scaler = WidthScaler(BASE, SCALE_CHANNELS)
    assert scaler.config_at(64) == BASE
    assert scaler.config_at(256).channels == 8
    with pytest.raises(ConfigError):
        WidthScaler(BASE, "bogus")


def test_param_count_grows_quadratically():
    # U/V/B dominate at large width, so doubling N roughly quadruples params
    scaler = WidthScaler(BASE, SCALE_CHANNELS)
    ratio = param_count(scaler.config_at(512)) / param_count(scaler.config_at(256))
    assert 3.5 < ratio < 4.5
