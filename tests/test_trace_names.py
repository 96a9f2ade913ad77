"""Every corrgeo function the benchmark reports by name exists.

``perfbench/run.py`` times library functions by wrapping the attributes of
the traced modules, and a per-layer metric whose function is renamed or
removed silently reads 0.0.  This checks every corrgeo name it reports
against the library; ``train.optimizer_step`` names both optimizers' ``step``.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402

CHECKED = ("solvers", "kernels", "geometry", "hyperbolic", "layers", "train", "data")
TRACED = sorted({
    tuple(name.split(".")[:2]) for name, _ in run.per_layer_names() if name.split(".")[0] in CHECKED
})
METHODS = {("train", "optimizer_step"): ("Adam.step", "Sgd.step")}


def test_some_names_checked():
    assert {module for module, _ in TRACED} == set(CHECKED)


@pytest.mark.parametrize("module,func", TRACED)
def test_traced_function_exists(module, func):
    for path in METHODS.get((module, func), (func,)):
        fn = importlib.import_module(f"corrgeo.{module}")
        for attr in path.split("."):
            fn = getattr(fn, attr, None)
        assert inspect.isfunction(fn), f"corrgeo.{module}.{path}"
