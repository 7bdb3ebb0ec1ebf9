"""Validation and round-trip behavior of the configuration dataclasses."""
import numpy as np
import pytest

from mupt.config import HPPoint, InfoWeights, PTConfig, PARADIGMS, SCALE_CHANNELS, SCALE_RANK
from mupt.errors import ConfigError


def _cfg(**kw):
    base = dict(width=8, rank=2, channels=2, topics=16, vocab_size=17)
    base.update(kw)
    return PTConfig(**base)


def test_tau_is_width_over_rank():
    assert _cfg(width=8, rank=2).tau == 4.0
    assert _cfg(width=24, rank=24).tau == 1.0


def test_with_replaces_fields():
    cfg = _cfg()
    wide = cfg.with_(width=32, rank=8)
    assert wide.width == 32 and wide.rank == 8
    assert wide.vocab_size == cfg.vocab_size
    assert cfg.width == 8  # original untouched


@pytest.mark.parametrize("field", ["width", "rank", "channels", "topics", "vocab_size"])
def test_positive_integer_fields(field):
    with pytest.raises(ConfigError):
        _cfg(**{field: 0})
    with pytest.raises(ConfigError):
        _cfg(**{field: -3})
    with pytest.raises(ConfigError):
        _cfg(**{field: 2.0})


def test_rank_cannot_exceed_width():
    with pytest.raises(ConfigError):
        _cfg(width=4, rank=8)


def test_position_geometry_validated():
    with pytest.raises(ConfigError):
        _cfg(pos_buckets=1)
    with pytest.raises(ConfigError):
        _cfg(pos_clip=0)


def test_paradigm_constants():
    assert PARADIGMS == (SCALE_CHANNELS, SCALE_RANK)
    assert SCALE_CHANNELS == "scale_channels"
    assert SCALE_RANK == "scale_rank"


def test_info_weights_order_and_roundtrip():
    iw = InfoWeights(w_unary=0.5, w_tern_dep=0.25, w_tern_head=0.25,
                     w_binary=0.125, w_attn=0.25, w_topic=0.125)
    arr = iw.to_array()
    np.testing.assert_array_equal(arr, [0.5, 0.25, 0.25, 0.125, 0.25, 0.125])
    assert InfoWeights.from_array(arr) == iw


def test_info_weights_validation():
    with pytest.raises(ConfigError):
        InfoWeights(w_attn=-0.1)
    with pytest.raises(ConfigError):
        InfoWeights(w_unary=float("nan"))
    with pytest.raises(ConfigError):
        InfoWeights.from_array(np.ones(5))


def test_hp_point_roundtrip():
    hp = HPPoint(lr=3e-3, weights=InfoWeights(w_binary=0.125))
    arr = hp.to_array()
    assert arr.shape == (HPPoint.DIM,)
    assert arr[0] == 3e-3
    back = HPPoint.from_array(arr)
    assert back == hp
    d = hp.to_dict()
    assert list(d) == ["lr", *InfoWeights.ORDER]
    assert d["lr"] == 3e-3 and d["w_binary"] == 0.125
    assert HPPoint.from_dict(d) == hp


def test_hp_point_validation():
    with pytest.raises(ConfigError):
        HPPoint(lr=0.0)
    with pytest.raises(ConfigError):
        HPPoint(lr=float("inf"))
    with pytest.raises(ConfigError):
        HPPoint.from_array(np.ones(6))
    with pytest.raises(ConfigError):
        HPPoint.from_dict({"lr": 1e-3})
    with pytest.raises(ConfigError):
        HPPoint.from_dict({**HPPoint().to_dict(), "w_extra": 1.0})


def test_with_lr_keeps_weights():
    iw = InfoWeights(w_topic=0.125)
    hp = HPPoint(lr=1e-3, weights=iw).with_lr(1e-2)
    assert hp.lr == 1e-2
    assert hp.weights == iw
