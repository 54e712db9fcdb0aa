"""The library names that the benchmark's tracer and worker use still resolve.

perfbench/tracer.py is compiled from its source and executed in a fresh
module namespace, so nothing is written next to it; perfbench/worker.py and
perfbench/run.py are only parsed.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

from qlcst.generators import gen_signal
from qlcst.io import WINDOW_CODES
from qlcst.lct import ParamMatrix, validate_param
from qlcst.qlcst import QLCSTCoefficients, qlcst_forward
from qlcst.signal import Grid2D, QSignal2D
from qlcst.verify import MATRIX_CASES, SUITES
from qlcst.window import (constant_window, fixed_gaussian, s_gaussian,
                          table_window)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKER = PERFBENCH / "worker.py"
RUN = PERFBENCH / "run.py"


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


def test_tracer_window_variants_cover_every_family():
    assert set(load_tracer().WINDOW_VARIANTS) == set(WINDOW_CODES)


TABLE = table_window(QSignal2D(np.random.default_rng(3).standard_normal((5, 5, 4)),
                               Grid2D.centered(3.0, 5)))


@pytest.mark.parametrize("window", [fixed_gaussian(1, 1), s_gaussian(),
                                    constant_window(), TABLE],
                         ids=lambda w: w.family)
def test_tracer_forward_measures_run(window):
    """The tracer's label and size of a qlcst_forward call read the window's
    family, the stored set's data, window and grids, and the signal's grid:
    they run on a small stored set of every window family."""
    tracer = load_tracer()
    m = validate_param(0, 1, -1, 0)
    args = (gen_signal("gaussian", Grid2D.centered(3.0, 4)), window, m, m)
    c = qlcst_forward(*args)
    assert tracer._forward_variant(args, {}) == (
        "qlcst.qlcst_forward." + tracer.WINDOW_VARIANTS[window.family])
    size = tracer._forward_size(args, {}, c)
    assert size["out_mb"] == c.data.nbytes / 1e6
    assert ("gflop" in size) == window.separable
    assert all(v > 0 for v in size.values())


def test_worker_names_resolve():
    """Every name the worker imports from qlcst, and every attribute it reads
    through a module alias (Q, U, V, qio, cli), exists in the library."""
    tree = ast.parse(WORKER.read_text(), str(WORKER))
    aliases = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "qlcst"):
            continue
        module = importlib.import_module(node.module)
        for name in node.names:
            if node.module == "qlcst":  # submodules, read through aliases
                aliases[name.asname or name.name] = importlib.import_module(
                    "qlcst." + name.name)
            else:
                assert hasattr(module, name.name), (node.module, name.name)
    assert {"Q", "U", "V", "qio", "cli"} <= set(aliases)
    reads = [(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in aliases]
    assert reads
    for alias, attr in reads:
        assert hasattr(aliases[alias], attr), (alias, attr)
    # The worker compares stored coefficients through their interleaved copy.
    assert isinstance(QLCSTCoefficients.data, property)


def test_suites_and_matrix_cases_stay_plain_calls():
    """The tracer wraps each SUITES value and times the call, which must do
    the whole suite (a generator function would be timed at about 0 s), and
    the worker calls MATRIX_CASES[k][1]() for a matrix pair."""
    assert not any(inspect.isgeneratorfunction(fn) for fn in SUITES.values())
    passed, lines = SUITES["special-case"]()
    assert type(passed) is bool
    assert lines and all(line.startswith(("PASS ", "FAIL ", "INFO ")) for line in lines)
    for _, make in MATRIX_CASES:
        pair = make()
        assert len(pair) == 2 and all(isinstance(m, ParamMatrix) for m in pair)


def test_run_lists_every_verify_suite_in_order():
    """run.py names a verify.<suite>.* metric for each entry of its
    VERIFY_SUITES, so a renamed or reordered suite would drop its metrics
    without an error."""
    tree = ast.parse(RUN.read_text(), str(RUN))
    found = [ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["VERIFY_SUITES"]]
    assert found == [tuple(SUITES)]
