"""The collector forms every verify line and verdict from a suite's checks,
and the matrix-case suites keep their cases."""

import numpy as np
import pytest

from qlcst.verify import SUITES, _collect


def checks(*pairs):
    """A suite that yields the given (ok, text) checks."""
    return lambda: iter(pairs)


def test_a_failing_check_fails_the_suite():
    passed, lines = _collect(checks((True, "a"), (False, "b")))()
    assert passed is False and lines == ["PASS a", "FAIL b"]


def test_an_info_line_never_fails_a_suite():
    assert _collect(checks((None, "n")))() == (True, ["INFO n"])
    assert _collect(checks((True, "a"), (None, "n")))() == (True, ["PASS a", "INFO n"])


def test_checks_after_a_failure_still_run():
    ran = []

    def suite():
        yield False, "first"
        ran.append("second")
        yield True, "second"
        yield None, "third"

    assert _collect(suite)() == (False, ["FAIL first", "PASS second", "INFO third"])
    assert ran == ["second"]


def test_numpy_verdicts_give_a_bool():
    """Comparisons of numpy scalars yield numpy bools; the verdict is a bool."""
    for x, want in ((np.float64(1.0), True), (np.float64(3.0), False)):
        passed, lines = _collect(checks((x < 2.0, "x")))()
        assert passed is want
        assert lines == [("PASS x" if want else "FAIL x")]


MATRICES = ("fourier", "fractional(pi/3)", "fresnel(B=2)")
BATTERY = ("gaussian", "shifted-gaussian", "dilated(a=0.5)", "dilated(a=2)",
           "hermite(1,0)", "hermite-combo(seed=7)")
CASE_LABELS = {
    "roundtrip": ["PASS roundtrip %s %s" % (m, s)
                  for m in MATRICES for s in ("gaussian", "hermite(1,0)")],
    "plancherel": ["PASS plancherel %s" % m for m in MATRICES],
    "orthogonality": [line for m in MATRICES
                      for line in ("PASS orthogonality %s (f=g)" % m,
                                   "INFO orthogonality %s (f!=g)" % m)],
    "energy": ["PASS energy %s" % m for m in MATRICES],
    "reconstruction": ["PASS reconstruction %s" % m for m in MATRICES],
    "heisenberg": ["PASS heisenberg %s %s axis=%d" % (m, s, axis)
                   for m in MATRICES for s in BATTERY for axis in (1, 2)],
    "log-uncertainty": ["PASS digamma constant"] + [
        "PASS log-uncertainty %s %s" % (m, s) for m in MATRICES for s in BATTERY],
}


@pytest.mark.parametrize("name", list(CASE_LABELS))
def test_matrix_case_suites_keep_their_cases(name):
    """The seven suites that run under each matrix case print one line per
    case, in order: a dropped, renamed or reordered case fails here."""
    passed, lines = SUITES[name]()
    assert passed is True
    assert [line.split(":")[0] for line in lines] == CASE_LABELS[name]
