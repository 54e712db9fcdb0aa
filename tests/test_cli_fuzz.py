"""A grammar fuzz of the CLI: every argv ends in exit 0 with an output its
reader accepts, or in exit 1 with one error line (or argparse's usage
error) and no output; no exception leaves cli_main."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlcst.cli import cli_main
from qlcst.generators import KINDS, gen_signal
from qlcst.io import read_coefficients, read_signal, write_signal
from qlcst.signal import Grid2D

ODD = ["0", "-0", "1e300", "-1e300", "1e-300", "nan", "inf", "", "a", "1,,2",
       "9" * 30]
CHEAP_SUITES = ["oracle-equivalence", "plancherel", "roundtrip", "special-case"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Signal and coefficient files of N <= 12, junk and missing inputs, and
    an output directory, as (directory, signals, coefficients, junk)."""
    d = tmp_path_factory.mktemp("fuzz")
    write_signal(d / "f.qsg", gen_signal("gaussian", Grid2D.centered(4.0, 8)))
    write_signal(d / "t.qsg", gen_signal("gaussian", Grid2D.centered(2.0, 5)))
    coefficients = []
    for window in ("fixed-gauss:1,1", "s-gauss", "table:%s" % (d / "t.qsg")):
        coefficients.append(str(d / ("c-%s.qcf" % window.split(":")[0])))
        assert cli_main(["qlcst", "-i", str(d / "f.qsg"), "-o", coefficients[-1],
                         "--m1", "0,1,-1,0", "--m2", "0.5,1,-0.75,0.5",
                         "--window", window]) == 0
    (d / "junk.bin").write_bytes(b"junk" * 9)
    (d / "empty.bin").write_bytes(b"")
    (d / "cut.qsg").write_bytes((d / "f.qsg").read_bytes()[:-9])
    (d / "out").mkdir()
    junk = [str(d / n) for n in ("junk.bin", "empty.bin", "cut.qsg", "missing.qsg")]
    return d, [str(d / "f.qsg"), str(d / "t.qsg")], coefficients, junk + [str(d), ""]


def _odd(fields=1, numbers=("1", "-1", "2", "0.5")):
    """An odd token, or a join of fields - 1 to fields + 1 odd tokens and
    plain numbers."""
    return st.one_of(st.sampled_from(ODD), st.lists(
        st.sampled_from(ODD + list(numbers)), min_size=max(1, fields - 1),
        max_size=fields + 1).map(",".join))


def _value(good, odd=_odd()):
    """A good value two times in three, else an odd one."""
    return st.integers(0, 2).flatmap(lambda i: odd if i == 2 else st.sampled_from(good))


def _options(draw, spec):
    """--name=value for each (name, strategy, required) of spec, drawn nine
    times in ten if required, else every other time."""
    return ["--%s=%s" % (name, draw(value)) for name, value, required in spec
            if draw(st.integers(0, 9)) < (9 if required else 5)]


@st.composite
def argvs(draw, signals, coefficients, junk):
    """(command, argv) of one of the six subcommands, without its output."""
    inputs = st.sampled_from(signals + coefficients + junk)
    matrix = _value(["0,1,-1,0", "0.5,1,-0.75,0.5", "1,2,0,1", "1,0,0,1",
                     "1,1,1,1", "0,1e-300,-1e300,0", "0,1e300,-1e-300,0",
                     "1,1e300,0,1", "1e300,1,-1,0"], _odd(4))
    window = _value(["fixed-gauss:1,1", "fixed-gauss:0.5,2", "s-gauss", "boxcar"]
                    + ["table:" + p for p in signals[1:] + coefficients[:1] + junk],
                    _odd(2).map("fixed-gauss:{}".format))
    command = draw(st.sampled_from(["gen", "qlct", "qlcst", "reconstruct",
                                    "export", "verify"]))
    if command == "gen":
        size = _value(["2", "5", "8", "12"], st.sampled_from(ODD))
        return command, [command] + _options(draw, [
            ("kind", _value(KINDS, st.sampled_from(ODD)), True),
            ("sigma", _value(["1", "0.5"]), False),
            ("center", _value(["1,0", "2,-1"], _odd(2)), False),
            ("a", _value(["2", "0.5"]), False),
            ("modes", _value(["1,0", "3,2", "11,0"],
                             _odd(2, ("0", "1", "11", "12", "0.5"))), False),
            ("n", size, False), ("n2", size, False),
            ("extent", _value(["4", "0.5"]), False)])
    if command == "verify":
        return command, [command, draw(_value(CHEAP_SUITES, st.sampled_from(ODD)))]
    ours = signals[:1] if command in ("qlct", "qlcst") else coefficients
    argv = [command] + _options(draw, [("input", _value(ours, inputs), True)])
    if command in ("qlct", "qlcst", "reconstruct"):
        required = command != "reconstruct"
        argv += _options(draw, [("m1", matrix, required), ("m2", matrix, required)])
    if command == "qlct":
        argv += [flag for flag in ("--inverse", "--fast") if draw(st.booleans())]
    if command in ("qlcst", "reconstruct"):
        argv += _options(draw, [("window", window, command == "qlcst")])
    if command == "export":
        argv += _options(draw, [
            ("slice", _value(["u", "w"], st.sampled_from(ODD)), True),
            ("index", _value(["0,0", "3,4", "7,7", "8,0", "-1,0"],
                             _odd(2, ("0", "1", "7", "8", "-1"))), True),
            ("format", _value(["csv", "pgm"], st.sampled_from(ODD)), False)])
    return command, argv


def _read_back(command, out):
    """Read the output of an exit-0 command as its reader does, which raises
    on anything it refuses (a non-finite value among them)."""
    if command == "qlcst":
        read_coefficients(out)
    elif command != "export":
        read_signal(out)
    elif (raw := out.read_bytes()).startswith(b"P5\n"):
        w, h = map(int, raw.split(b"\n")[1].split())
        assert len(raw) == len(b"P5\n%d %d\n255\n" % (w, h)) + w * h
    else:
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", ndmin=2)))


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_cli_grammar_fuzz(files, data):
    d, signals, coefficients, junk = files
    command, argv = data.draw(argvs(signals, coefficients, junk))
    out = d / "out" / data.draw(st.sampled_from(["o.bin", "", "no/o.bin"]))
    if command != "verify":
        argv = argv + ["--output=%s" % out]
    err, stdout = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
        rc = cli_main(argv)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert not lines
        if command == "verify":
            assert "FAIL" not in stdout.getvalue()
        else:
            _read_back(command, out)
            out.unlink()
    else:
        assert rc == 1, (argv, rc)
        usage = lines[0].startswith("usage: ") and ": error: " in lines[-1]
        assert usage or (len(lines) == 1 and lines[0].startswith("error: ")), \
            (argv, lines)
    assert list((d / "out").iterdir()) == [], argv


OVERSIZED = [
    ["gen", "--kind", "gaussian", "--n", "100000"],
    ["gen", "--kind", "gaussian", "--n", "12000", "--n2", "12000"],
    ["qlcst", "--m1", "0,1,-1,0", "--m2", "0,1,-1,0", "--window", "s-gauss"],
    ["qlcst", "--m1", "0,1,-1,0", "--m2", "0,1,-1,0", "--window",
     "fixed-gauss:1,1"],
]

CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from qlcst.cli import cli_main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    results.append((rc, err.getvalue().splitlines()))
print(json.dumps(results))
"""


def test_cli_oversized_inputs_refused_under_an_address_limit(tmp_path):
    """Requests beyond what the machine holds end in one refusal line that
    names the binding limit, and the process is not killed.  The signals
    of `gen`, beyond the 2 GB address space limit of the one child process
    that runs them all, end in `error: out of memory` or a TooLarge line
    naming that limit.  The N=640 coefficient files of `qlcst` (5.4 TB) are
    streamed in a working set far below it, and end in a TooLarge line
    naming the free space of the output's file system, before a tile is
    computed or a byte written.  Written to /dev/null, which is written in
    place and so has no free space to refuse, the s-gauss analysis ends in
    a TooLarge line naming that limit: its 4.2 GB of window profiles are
    refused before any exists."""
    big = tmp_path / "big.qsg"
    write_signal(big, gen_signal("gaussian", Grid2D.centered(8.0, 640)))
    argvs_ = [argv + (["-i", str(big)] if argv[0] == "qlcst" else [])
              + ["-o", str(tmp_path / "o.bin")] for argv in OVERSIZED]
    argvs_.append(OVERSIZED[2] + ["-i", str(big), "-o", os.devnull])
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs_)],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    for argv, (rc, lines) in zip(argvs_, json.loads(proc.stdout), strict=True):
        assert rc == 1 and len(lines) == 1, (argv, lines)
        if argv[-1] == os.devnull:
            assert lines[0] == ("error: window profiles of 4.19 GB do not fit in the "
                                "2.15 GB of the address-space limit (RLIMIT_AS)"), lines
        elif argv[0] == "qlcst":
            assert lines[0].startswith("error: an output of 5.37e+03 GB does not "
                                       "fit in the "), (argv, lines)
            assert lines[0].endswith(" GB free on %s" % os.path.realpath(tmp_path)), \
                (argv, lines)
        else:
            assert (lines[0] == "error: out of memory"
                    or "GB of the address-space limit (RLIMIT_AS)" in lines[0]), \
                (argv, lines)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.qsg"]
