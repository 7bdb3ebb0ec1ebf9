"""SVG writers: well-formed output, escaping, log axes, annotations."""
import xml.etree.ElementTree as ET

import pytest

from mupt.errors import ConfigError
from mupt.svgplot import line_svg, scatter_svg


def _load(path):
    text = path.read_text()
    assert text.lstrip().startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    return ET.fromstring(text), text


def test_scatter_svg_well_formed(tmp_path):
    path = tmp_path / "s.svg"
    scatter_svg(path, [(0.1, 1.0), (0.2, 0.5), (0.3, 2.0)],
                title="spread", xlabel="x", ylabel="y",
                highlight=(0.0, 0.0), highlight_label="base")
    root, text = _load(path)
    assert root.tag.endswith("svg")
    assert "spread" in text and "base" in text
    assert "<circle" in text


def test_line_svg_multi_series_and_vline(tmp_path):
    path = tmp_path / "l.svg"
    line_svg(path, [("a", [(1, 1.0), (2, 2.0)]), ("b", [(1, 3.0), (2, 1.5)])],
             title="curves", xlabel="step", ylabel="loss",
             vline=1.5, vline_label="cut")
    root, text = _load(path)
    assert text.count("<polyline") >= 2
    assert "cut" in text and "curves" in text


def test_log_axes(tmp_path):
    path = tmp_path / "log.svg"
    line_svg(path, [("v", [(64, 1e-2), (128, 5e-3), (256, 2.4e-3)])],
             logx=True, logy=True)
    _load(path)
    with pytest.raises(ConfigError, match="positive"):
        line_svg(tmp_path / "bad.svg", [("v", [(64, -1.0), (128, 1.0)])], logy=True)


def test_labels_are_escaped(tmp_path):
    path = tmp_path / "esc.svg"
    scatter_svg(path, [(1.0, 1.0)], title="a<b & c>d", xlabel="p<q")
    root, text = _load(path)  # parse fails if escaping is wrong
    assert "a&lt;b &amp; c&gt;d" in text


def test_empty_input_rejected(tmp_path):
    with pytest.raises(ConfigError, match="nothing to plot"):
        scatter_svg(tmp_path / "e.svg", [])
    with pytest.raises(ConfigError, match="nothing to plot"):
        line_svg(tmp_path / "e.svg", [("empty", [])])


def test_single_point_degenerate_ranges(tmp_path):
    # a single point collapses both ranges; the writer must still pad and draw
    path = tmp_path / "one.svg"
    scatter_svg(path, [(1.0, 1.0)])
    _load(path)


def test_non_finite_points_are_left_out(tmp_path):
    # a diverged run records +inf losses, and an overflowed one NaN
    path = tmp_path / "d.svg"
    line_svg(path, [("run", [(1, 2.0), (2, float("inf")), (3, float("nan"))])])
    scatter_svg(tmp_path / "s.svg", [(0.1, float("nan")), (0.2, 1.0)])
    for name in ("d.svg", "s.svg"):
        _, text = _load(tmp_path / name)
        assert "nan" not in text and "inf" not in text
    assert _load(path)[1].count("<circle") == 1
    with pytest.raises(ConfigError, match="nothing to plot"):
        line_svg(tmp_path / "e.svg", [("run", [(1, float("inf")), (2, float("nan"))])])
    with pytest.raises(ConfigError, match="nothing to plot"):
        scatter_svg(tmp_path / "e.svg", [(float("inf"), 1.0)])
