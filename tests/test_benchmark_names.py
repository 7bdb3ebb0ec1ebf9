"""The benchmark's per-layer timings name functions that still exist.

BENCHMARK.json lists per-layer metrics as `<layer>.<name>.ms`; the benchmark
times them by wrapping `mupt.<layer>.<name>`. A rename or a deletion would
leave that metric silently at zero, so every such name must resolve to a
public function defined in its module, or to one of the timed methods.
"""
import importlib
import inspect
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMED_METHODS = {("model", "ModelParams", "init"), ("mup", "AdamW", "step")}


def _timed_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        per_layer = json.load(f)["per_layer"]
    return [m["name"][:-len(".ms")] for m in per_layer if m["name"].endswith(".ms")]


@pytest.mark.parametrize("name", _timed_names())
def test_timed_name_resolves(name):
    layer, *rest = name.split(".")
    module = importlib.import_module(f"mupt.{layer}")
    if len(rest) == 1:
        fn = getattr(module, rest[0], None)
        assert not rest[0].startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name
    else:
        assert tuple([layer, *rest]) in TIMED_METHODS, name
        cls_name, method = rest
        assert callable(getattr(getattr(module, cls_name), method)), name
