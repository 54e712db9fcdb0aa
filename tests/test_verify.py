"""The collector forms every verify line and verdict from a suite's checks."""

import numpy as np

from qlcst.verify import _collect


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
