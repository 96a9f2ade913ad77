"""Every corrgeo function the benchmark reports by name exists.

``perfbench/run.py`` times library functions by wrapping the attributes of
the traced modules, and a per-layer metric whose function is renamed or
removed silently reads 0.0.  This checks the names it reports for the
geometry, hyperbolic and layers modules against the library.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402

CHECKED = ("geometry", "hyperbolic", "layers")
TRACED = sorted({
    tuple(name.split(".")[:2]) for name, _ in run.per_layer_names() if name.split(".")[0] in CHECKED
})


def test_some_names_checked():
    assert {module for module, _ in TRACED} == set(CHECKED)


@pytest.mark.parametrize("module,func", TRACED)
def test_traced_function_exists(module, func):
    fn = getattr(importlib.import_module(f"corrgeo.{module}"), func, None)
    assert inspect.isfunction(fn), f"corrgeo.{module}.{func}"
