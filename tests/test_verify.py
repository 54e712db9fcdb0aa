"""The collector forms every verify line and verdict from a suite's checks,
and every suite keeps its checks and cases."""

import json
import subprocess
import sys
from pathlib import Path

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
    "oracle-equivalence": ["PASS oracle-equivalence"],
    "plancherel": ["PASS plancherel %s" % m for m in MATRICES],
    "orthogonality": [line for m in MATRICES
                      for line in ("PASS orthogonality %s (f=g)" % m,
                                   "INFO orthogonality %s (f!=g)" % m)],
    "energy": ["PASS energy %s" % m for m in MATRICES],
    "reconstruction": ["PASS reconstruction %s" % m for m in MATRICES],
    "marginal": ["PASS marginal s-gaussian", "PASS marginal narrow fixed-gaussian"],
    "covariance": ["PASS parity", "PASS shift", "PASS modulation"],
    "heisenberg": ["PASS heisenberg %s %s axis=%d" % (m, s, axis)
                   for m in MATRICES for s in BATTERY for axis in (1, 2)],
    "log-uncertainty": ["PASS digamma constant"] + [
        "PASS log-uncertainty %s %s" % (m, s) for m in MATRICES for s in BATTERY],
    "lemma41": ["PASS lemma41 %s axis=%d" % (s, axis)
                for s in ("gaussian", "narrow-gaussian") for axis in (1, 2)],
    "special-case": ["PASS stockwell matrices = (0,1,-1,0) per axis",
                     "PASS fractional(pi/2) reduces to the fourier case",
                     "PASS constant window reproduces the QLCT"],
}


@pytest.mark.parametrize("name", list(SUITES))
def test_matrix_case_suites_keep_their_cases(name):
    """Every suite prints one line per check, in order, and the suites that
    run under the matrix cases one per case: a dropped, renamed or reordered
    check or case fails here, and so does a suite with no labels pinned."""
    passed, lines = SUITES[name]()
    assert passed is True
    assert [line.split(":")[0] for line in lines] == CASE_LABELS[name]


SEQUENCE = """
import json, tracemalloc
from qlcst.verify import SUITES
tracemalloc.start()
passed = [suite()[0] for suite in SUITES.values()]
print(json.dumps([passed, tracemalloc.get_traced_memory()[1]]))
"""


def test_suite_sequence_traced_peak():
    """All twelve suites, run in order in one fresh process as the
    acceptance gate runs them, stay below 7.0 MB of traced allocations,
    the caches of the first runs included.  The bound was set once from
    measurement: the sequence reads 6.56 MB, bounded by the marginal's
    wide-u s-gaussian analysis, and read 9.89 MB when the covariance's two
    producers held two default tiles of mu2 factors and two block products
    of each check."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", SEQUENCE], capture_output=True,
                          text=True, timeout=300,
                          env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    passed, peak = json.loads(proc.stdout)
    assert passed == [True] * len(SUITES)
    assert peak < 7.0e6
