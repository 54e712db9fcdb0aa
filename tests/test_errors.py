"""Every refusal of the package leaves through a QlcstError."""

import ast
from pathlib import Path

import qlcst.errors as errors

SRC = Path(__file__).resolve().parents[1] / "src" / "qlcst"


def _raised(path):
    """(line, expression) of what each raise of path raises; a bare re-raise
    raises nothing new and is skipped."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, ast.unparse(exc)


def test_every_raise_names_a_qlcst_error():
    """Each raise in src/qlcst names a QlcstError subclass of the errors
    module, so no bad input leaves as a builtin exception."""
    raised = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
              for line, name in _raised(path)]
    assert len(raised) > 50  # the parse found the package's refusals
    bad = [r for r in raised
           if not issubclass(getattr(errors, r[2], object), errors.QlcstError)]
    assert not bad
