"""The library names that the benchmark's tracer and worker use still resolve.

perfbench/tracer.py is compiled from its source and executed in a fresh
module namespace, so nothing is written next to it; perfbench/worker.py is
only parsed.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

from qlcst.lct import ParamMatrix
from qlcst.qlcst import QLCSTCoefficients, qlcst_forward
from qlcst.verify import MATRIX_CASES, SUITES
from qlcst.window import fixed_gaussian

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKER = PERFBENCH / "worker.py"


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
