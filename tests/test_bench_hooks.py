"""The library names that the benchmark's tracer looks up still resolve.

perfbench/tracer.py is compiled from its source and executed in a fresh
module namespace, so nothing is written next to it.
"""

import importlib
import inspect
import types
from pathlib import Path

from qlcst.qlcst import qlcst_forward
from qlcst.window import fixed_gaussian

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_targets_resolve():
    for modname, fname, *_ in load_tracer().TARGETS:
        assert callable(getattr(importlib.import_module(modname), fname))


def test_forward_takes_window_second():
    """_forward_variant reads the window as the second positional argument."""
    assert list(inspect.signature(qlcst_forward).parameters)[:2] == ["f", "window"]
    label = load_tracer()._forward_variant((None, fixed_gaussian(1, 1)), {})
    assert label == "qlcst.qlcst_forward.fixed-gauss"
