"""Artifacts are written atomically: a write that fails or is killed part-way
leaves the previous file byte for byte and no temporary file beside it."""
import os

import pytest

from mupt import cli, svgplot
from mupt.checkpoint import save_checkpoint
from mupt.config import PTConfig
from mupt.model import ModelParams, tensor_order
from mupt.rng import SeededRng
from mupt.util import atomic_write

CFG = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
               pos_bias=True, pos_buckets=8, pos_clip=4)
OLD = "the previous content\n"


def _params(seed):
    return ModelParams.init(CFG, SeededRng(seed).spawn("params")).tensors


def test_a_write_that_raises_part_way_leaves_the_previous_file(tmp_path):
    path = tmp_path / "artifact"
    path.write_text(OLD, encoding="utf-8")
    with pytest.raises(RuntimeError, match="part-way"):
        with atomic_write(path) as f:
            f.write(b"half of the new")
            f.flush()
            raise RuntimeError("killed part-way")
    assert path.read_text(encoding="utf-8") == OLD
    assert os.listdir(tmp_path) == ["artifact"]


def test_a_finished_write_replaces_the_file_with_open_s_permissions(tmp_path):
    path, plain = tmp_path / "artifact", tmp_path / "plain"
    path.write_text(OLD, encoding="utf-8")
    with atomic_write(path) as f:
        f.write("new ünïcode\n".encode("utf-8"))
    assert path.read_bytes() == "new ünïcode\n".encode("utf-8")
    with open(plain, "w", encoding="utf-8"):
        pass
    assert os.stat(path).st_mode == os.stat(plain).st_mode
    assert sorted(os.listdir(tmp_path)) == ["artifact", "plain"]


class _FailingParams(dict):
    """Tensors whose last one fails on its second read: save_checkpoint reads
    every tensor once to check it, then again to write its payload."""

    def __init__(self, tensors):
        super().__init__(tensors)
        self.reads = 0

    def __getitem__(self, name):
        if name == tensor_order(CFG)[-1]:
            self.reads += 1
            if self.reads == 2:
                raise RuntimeError("killed part-way")
        return super().__getitem__(name)


def test_a_checkpoint_failing_part_way_leaves_the_previous_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, CFG, _params(0), extra={"step": 1})
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="part-way"):
        save_checkpoint(path, CFG, _FailingParams(_params(1)), extra={"step": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def _checkpoint(path):
    save_checkpoint(path, CFG, _params(1))


def _text(path):
    cli._write(str(path), "new text")


def _line(path):
    svgplot.line_svg(path, [("a", [(1.0, 2.0), (2.0, 3.0)])])


def _scatter(path):
    svgplot.scatter_svg(path, [(1.0, 2.0), (2.0, 3.0)])


@pytest.mark.parametrize("writer", [_checkpoint, _text, _line, _scatter],
                         ids=["checkpoint", "cli", "line_svg", "scatter_svg"])
def test_every_writer_leaves_the_previous_file_when_the_write_fails(tmp_path, writer):
    path = tmp_path / "artifact"
    path.write_text(OLD, encoding="utf-8")

    def refuse(src, dst):
        raise OSError("no replace")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no replace"):
            writer(path)
    assert path.read_text(encoding="utf-8") == OLD
    assert os.listdir(tmp_path) == ["artifact"]
    writer(path)
    assert path.read_bytes() != OLD.encode("utf-8")
    assert os.listdir(tmp_path) == ["artifact"]
