"""The package namespace: lazy public names and a NumPy-free CLI import."""
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import mupt

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(code: str) -> str:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_numpy_unloaded():
    # the CLI pins the BLAS thread pools, which only works before NumPy loads
    out = _python("import sys, mupt.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_star_import_resolves_every_public_name():
    out = _python("import mupt\n"
                  "from mupt import *\n"
                  "missing = [n for n in mupt.__all__ if n not in globals()]\n"
                  "print(len(mupt.__all__), missing)")
    assert out.strip() == f"{len(mupt.__all__)} []"


def test_public_names_are_unique_and_unknown_names_raise():
    assert len(set(mupt.__all__)) == len(mupt.__all__)
    assert mupt.train_run is mupt.training.train_run
    with pytest.raises(AttributeError, match="no_such_name"):
        mupt.no_such_name


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(mupt.__path__)))
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"mupt.{module}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
