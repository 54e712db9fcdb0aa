"""One workload in one fresh process: set up, run passes, check every output.

Started by run.py, never imported by it.  The parent sets the BLAS thread
variables in this process's environment before numpy is imported here, and
records the wall clock just before the spawn, so set-up time covers the
interpreter start, the imports and the input generation.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        --seconds S --out RESULT.json --workdir DIR

MODE is "setup" (set up, then stop), "measure" (untraced passes until S
seconds are used; always at least one) or "trace" (one untraced pass, then
one traced pass with tracemalloc).
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import qlcst  # noqa: E402
from qlcst import cli, io as qio, qlcst as Q, uncertainty as U, verify as V  # noqa: E402
from qlcst.generators import random_hermite_combo  # noqa: E402
from qlcst.signal import Grid1D, Grid2D, QSignal2D, relative_l2  # noqa: E402
from qlcst.window import fixed_gaussian, s_gaussian, window_eval  # noqa: E402

import tracer  # noqa: E402

if os.path.dirname(os.path.abspath(qlcst.__file__)) != os.path.join(SRC, "qlcst"):
    sys.exit("qlcst was imported from %s, not from this checkout" % qlcst.__file__)

EXTENT = 8.0
MARGIN_CAP = 4.0


class Tally:
    """Calls and checks attempted, failures, and the gated accuracy margins."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.margins = []
        self.errors = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def cli(self, argv):
        self.attempted += 1
        code = cli.cli_main(argv)
        if code != 0:
            raise RuntimeError("qlcst %s exited with %d" % (argv[0], code))

    def verdict(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append("check failed: %s" % name)

    def gate(self, name, residual, tol):
        """residual < tol, with margin min(4, log10(tol / residual)) digits."""
        ok = math.isfinite(residual) and residual < tol
        self.verdict("%s residual=%.3e tol=%.0e" % (name, residual, tol), ok)
        if residual <= 0.0:
            self.margins.append(MARGIN_CAP)
        elif math.isfinite(residual):
            self.margins.append(min(MARGIN_CAP, math.log10(tol / residual)))
        else:
            self.margins.append(-math.inf)

    def failure(self, exc):
        self.failed += 1
        self.errors.append("%s: %s" % (type(exc).__name__, exc))


class AnalysisN64:
    """Q-LCST analysis and synthesis at N=64: the 537 MB coefficient tensor."""

    def __init__(self, seed, workdir):
        self.f = random_hermite_combo(Grid2D.centered(EXTENT, 64), seed=seed)
        self.m1, self.m2 = V.MATRIX_CASES[seed % len(V.MATRIX_CASES)][1]()

    def run_pass(self, t):
        f, m1, m2 = self.f, self.m1, self.m2
        c = t.call(Q.qlcst_forward, f, fixed_gaussian(1.0, 1.0), m1, m2)
        t.gate("energy identity", t.call(Q.energy_identity_gap, c, f), 1e-3)
        for s in (1, 2):
            d = t.call(U.spectral_dispersion, c, s)
            t.verdict("spectral dispersion s=%d positive" % s, d > 0.0)
        t.verdict("spectral log moment finite",
                  math.isfinite(t.call(U.spectral_log_moment, c)))
        rec = t.call(Q.qlcst_reconstruct, c)
        t.gate("reconstruction", relative_l2(rec.data, f.data), 1e-3)
        del c
        cs = t.call(Q.qlcst_forward, f, s_gaussian(), m1, m2)
        d = t.call(U.spectral_dispersion, cs, 1)
        t.verdict("s-gaussian spectral dispersion positive", d > 0.0)

    def close(self):
        pass


class VerifyGate:
    """All twelve verification suites in their fixed order; the seed changes
    nothing because the suites fix their own inputs."""

    def __init__(self, seed, workdir):
        self.suites = list(V.SUITES)

    def run_pass(self, t):
        for name in self.suites:
            try:
                passed, _ = t.call(V.run_suite, name)
            except Exception as exc:  # a suite that raises is a failed suite
                t.failure(exc)
                continue
            t.verdict("verify %s" % name, passed)

    def close(self):
        pass


def _matrix_text(m):
    return ",".join(repr(v) for v in (m.a, m.b, m.c, m.d))


class CliFiles:
    """The CLI on QSG1/QCF1 files in a temp directory of this run.

    The seed picks the signals only.  The matrices stay at the Stockwell
    case, because run time differs by matrix case by about 10% here and
    would otherwise hide a regression of that size across seeds.
    """

    def __init__(self, seed, workdir):
        self.tmp = tempfile.mkdtemp(prefix="cli-files-", dir=workdir)
        m1, m2 = Q.special_case_matrix("stockwell")
        self.mats = ["--m1", _matrix_text(m1), "--m2", _matrix_text(m2)]
        self.sig = {n: random_hermite_combo(Grid2D.centered(EXTENT, n),
                                            seed=seed + k)
                    for k, n in enumerate((48, 32, 8))}
        for n, f in self.sig.items():
            qio.write_signal(self.path("s%d.qsg" % n), f)
        # fixed-gauss:1,1 sampled at every offset u - x of the N=8 grid, so
        # the table lookup lands on lattice points and matches the separable
        # path to roundoff.
        g = self.sig[8].grid.axis1
        lattice = Grid1D(2 * g.n - 1, -(g.n - 1) * g.spacing, g.spacing)
        t1 = lattice.points
        table = window_eval(fixed_gaussian(1.0, 1.0),
                            (t1[:, None], t1[None, :]), (1.0, 1.0))
        qio.write_signal(self.path("table8.qsg"),
                         QSignal2D(table, Grid2D(lattice, lattice)))
        self.table_ref = Q.qlcst_forward(self.sig[8], fixed_gaussian(1.0, 1.0),
                                         m1, m2).data

    def path(self, name):
        return os.path.join(self.tmp, name)

    def run_pass(self, t):
        p, mats = self.path, self.mats
        t.cli(["qlct", "--fast", "-i", p("s48.qsg"), "-o", p("F48.qsg")] + mats)
        t.cli(["qlct", "--fast", "--inverse", "-i", p("F48.qsg"),
               "-o", p("R48.qsg")] + mats)
        t.cli(["qlct", "-i", p("s32.qsg"), "-o", p("D32.qsg")] + mats)
        t.cli(["qlct", "--fast", "-i", p("s32.qsg"), "-o", p("F32.qsg")] + mats)
        t.cli(["qlcst", "--window", "fixed-gauss:1,1", "-i", p("s48.qsg"),
               "-o", p("C48.qcf")] + mats)
        t.cli(["reconstruct", "--window", "fixed-gauss:1,1", "-i", p("C48.qcf"),
               "-o", p("rec48.qsg")] + mats)
        t.cli(["export", "-i", p("C48.qcf"), "-o", p("u.csv"), "--slice", "u",
               "--index", "24,24", "--format", "csv"])
        t.cli(["export", "-i", p("C48.qcf"), "-o", p("w.pgm"), "--slice", "w",
               "--index", "24,24", "--format", "pgm"])
        t.cli(["qlcst", "--window", "table:" + p("table8.qsg"),
               "-i", p("s8.qsg"), "-o", p("C8.qcf")] + mats)

        def read(name):
            return t.call(qio.read_signal, p(name)).data
        s48 = self.sig[48].data
        t.gate("fast QLCT round trip", relative_l2(read("R48.qsg"), s48), 1e-6)
        t.gate("direct vs fast QLCT",
               relative_l2(read("F32.qsg"), read("D32.qsg")), 1e-8)
        t.gate("reconstruction", relative_l2(read("rec48.qsg"), s48), 1e-3)
        c8 = t.call(qio.read_coefficients, p("C8.qcf")).data
        t.gate("table window vs fixed-gauss", relative_l2(c8, self.table_ref),
               1e-10)
        u = np.loadtxt(p("u.csv"), delimiter=",", ndmin=2)
        t.verdict("csv u-slice is 48x48, finite, non-negative",
                  u.shape == (48, 48) and bool(np.all(np.isfinite(u) & (u >= 0))))
        with open(p("w.pgm"), "rb") as fh:
            pgm = fh.read()
        header = b"P5\n48 48\n255\n"
        t.verdict("pgm w-slice is a 48x48 P5 image",
                  pgm.startswith(header) and len(pgm) == len(header) + 48 * 48)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {"analysis-n64": AnalysisN64, "verify-gate": VerifyGate,
             "cli-files": CliFiles}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or 0 if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return 0
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return 0


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    llc, llc_level = "", -1
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        try:
            with open(os.path.join(cache, index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(cache, index, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if level > llc_level:
            llc, llc_level = size, level
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "llc": llc,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}}


def timed_pass(workload, tally):
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        workload.run_pass(tally)
    except Exception as exc:  # counted as a failure; the run reports it
        tally.failure(exc)
    return time.perf_counter() - wall, time.process_time() - cpu


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "first_call_at": time.time()}
    tally = Tally()
    try:
        if args.mode == "measure":
            start = time.perf_counter()
            runs = []
            while True:
                runs.append(timed_pass(workload, tally))
                elapsed = time.perf_counter() - start
                if elapsed + sorted(r[0] for r in runs)[len(runs) // 2] > args.seconds:
                    break
            result["run_s"] = [r[0] for r in runs]
            result["cpu_s"] = [r[1] for r in runs]
        elif args.mode == "trace":
            result["run_s"], result["cpu_s"] = timed_pass(workload, tally)
            tracemalloc.start()
            recorder = tracer.Recorder(run_id="%s/seed=%d" % (args.workload, args.seed))
            uninstall = tracer.install(recorder)
            try:
                result["traced_run_s"], _ = timed_pass(workload, tally)
            finally:
                uninstall()
                tracemalloc.stop()
            result["spans"] = [s.record() for s in recorder.spans]
    finally:
        workload.close()
    result.update(attempted=tally.attempted, failed=tally.failed,
                  margins=tally.margins, errors=tally.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  * 1024 / 1e6,
                  env=environment())
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
