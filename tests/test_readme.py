"""The README names only what the code defines."""

import re
import tracemalloc
from pathlib import Path

import pytest

from qlcst.verify import run_suite

ROOT = Path(__file__).resolve().parents[1]
# snake_case or ALL_CAPS with an underscore: words that prose only uses as code
CODE_NAME = re.compile(r"_?[a-z][a-z0-9]*(_[a-z0-9]+)+|_?[A-Z][A-Z0-9]*(_[A-Z0-9]+)+")


def _words(text):
    return set(re.findall(r"\w+", text))


def test_readme_names_resolve():
    """Every snake_case or ALL_CAPS name in an inline code span of README.md
    is a word of src/qlcst/*.py or tests/*.py, so deleting a function fails
    here until the README stops naming it."""
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = {w for span in re.findall(r"`([^`\n]+)`", readme) for w in _words(span)
             if CODE_NAME.fullmatch(w)}
    assert len(names) > 30  # the code spans were found
    files = [*ROOT.glob("src/qlcst/*.py"), *ROOT.glob("tests/*.py")]
    code = set().union(*(_words(p.read_text()) for p in files))
    assert sorted(names - code) == []


@pytest.mark.parametrize("suite", ["orthogonality", "energy", "heisenberg",
                                   "log-uncertainty", "lemma41", "marginal",
                                   "reconstruction", "covariance"])
def test_readme_peaks_are_measured(suite):
    """The traced peak that README.md gives for a suite ("<suite> <x> MB")
    is within 10% of the tracemalloc peak of its second run in this
    process, so the figure cannot go stale when the streamed working set
    changes."""
    figures = re.findall(r"\b%s (\d+(?:\.\d+)?) MB" % suite,
                         (ROOT / "README.md").read_text())
    assert len(figures) == 1
    run_suite(suite)  # the first run of the process sets up caches
    tracemalloc.start()
    try:
        passed, _ = run_suite(suite)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert passed
    assert abs(peak - float(figures[0])) <= 0.1 * float(figures[0]), peak
