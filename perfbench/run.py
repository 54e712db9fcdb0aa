"""qlcst benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each a closed loop of one client in a fresh process):
  analysis-n64  Q-LCST analysis/synthesis at N=64 (537 MB tensor, > LLC)
  verify-gate   the twelve verification suites, as the acceptance gate runs
  cli-files     the CLI on QSG1/QCF1 files, including the table-window path

--trace 0 spawns SETUP_REPEATS set-up-only processes and one measuring
process that runs untraced passes for S seconds (at least one pass), and
reports run_s, setup_s and peak_rss_mb.  --trace 1 spawns one process that
runs an untraced pass and then a traced pass, and one single-threaded
reference process (OPENBLAS_NUM_THREADS=1), and reports the per-layer
metrics.  Every output is checked; the last stdout line is the JSON result.
Records (environment, samples, spans) go to perfbench/out/.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("analysis-n64", "verify-gate", "cli-files")
SETUP_REPEATS = 4
DEADLINE_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

VERIFY_SUITES = ("roundtrip", "oracle-equivalence", "plancherel",
                 "orthogonality", "energy", "reconstruction", "marginal",
                 "covariance", "heisenberg", "log-uncertainty", "lemma41",
                 "special-case")
UNITS = {"s": "s", "total_s": "s", "calls": "count", "peak_mb": "MB",
         "mb": "MB", "out_mb": "MB", "gflop": "GFLOP"}
# Per-layer metrics read from spans: "<span name>.<quantity>".  A span name
# also matches its variants ("qlcst.qlcst_forward" covers ".fixed-gauss").
SPAN_METRICS = (
    ["qlcst.qlcst_forward.fixed-gauss.s", "qlcst.qlcst_forward.fixed-gauss.peak_mb",
     "qlcst.qlcst_forward.s-gauss.s", "qlcst.qlcst_forward.custom-table.s",
     "qlcst.qlcst_forward.custom-table.calls", "qlcst.qlcst_forward.calls",
     "qlcst.qlcst_forward.gflop", "qlcst.qlcst_forward.out_mb",
     "qlcst.qlcst_reconstruct.s", "qlcst.qlcst_reconstruct.peak_mb",
     "qlcst.qlcst_pointwise_inverse.calls", "qlcst.energy_identity_gap.s",
     "qlcst.covariance_residuals.s", "qlcst.covariance_residuals.peak_mb",
     "qlct.qlct_forward.s", "qlct.qlct_forward.calls",
     "qlct.qlct_fast_forward.calls", "qlct.qlct_fast_inverse.s",
     "qlct.qlct_fast_inverse.calls",
     "uncertainty.spectral_dispersion.s", "uncertainty.spectral_log_moment.s",
     "uncertainty.heisenberg_report.s", "uncertainty.log_uncertainty_report.s",
     "uncertainty.lemma_41_gap.s", "window.lambda_psi.s", "window.lambda_psi.calls"]
    + ["verify.%s.%s" % (suite, q) for suite in VERIFY_SUITES
       for q in ("s", "total_s", "peak_mb")]
    + ["io.%s.%s" % (fn, q) for fn in ("write_signal", "read_signal",
                                       "write_coefficients", "read_coefficients",
                                       "export_slice") for q in ("s", "mb")]
    + ["cli.%s.s" % cmd for cmd in ("qlct", "qlcst", "reconstruct", "export")])
PROC_METRICS = (("proc.run_s", "s"), ("proc.cpu_s", "s"),
                ("proc.blas_threads", "count"), ("proc.st_run_s", "s"),
                ("trace.overhead_s", "s"), ("trace.unaccounted_s", "s"))


class WorkerFailed(RuntimeError):
    pass


def spawn(workload, seed, mode, workdir, seconds=0.0, threads=None, deadline=None):
    """Run worker.py in a fresh process; return its record with setup_s."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({k: str(threads or nproc) for k in THREAD_VARS})
    # Nothing is written under src/, so every process compiles qlcst afresh.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = os.path.join(workdir, "%s-%d.json" % (mode, time.monotonic_ns()))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--out", out, "--workdir", workdir]
    started = time.time()
    timeout = max(1.0, deadline - time.monotonic())
    # stdout goes to stderr so that the JSON result stays the last stdout line.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(out):
        raise WorkerFailed("%s worker (%s) exited with %d"
                           % (workload, mode, proc.returncode))
    with open(out) as fh:
        rec = json.load(fh)
    rec["setup_s"] = rec["first_call_at"] - started
    return rec


def high_percentile(values):
    """(p, value) for the highest nearest-rank percentile with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100.0 * n))
    return p, sorted(values)[rank - 1]


def span_metric(spans, name):
    span_name, quantity = name.rsplit(".", 1)
    hits = [s for s in spans
            if s["name"] == span_name or s["name"].startswith(span_name + ".")]
    if quantity == "calls":
        return len(hits)
    if quantity == "s":
        return sum(s["self_s"] for s in hits)
    if quantity == "total_s":
        return sum(s["end"] - s["start"] for s in hits)
    if quantity in ("peak_mb", "out_mb"):
        return max((s.get(quantity, 0.0) for s in hits), default=0.0)
    return sum(s.get(quantity, 0.0) for s in hits)


def layer_metrics(traced, single):
    spans = traced["spans"]
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    values = {name: (span_metric(spans, name), UNITS[name.rsplit(".", 1)[1]])
              for name in SPAN_METRICS}
    proc = {"proc.run_s": traced["run_s"], "proc.cpu_s": traced["cpu_s"],
            "proc.blas_threads": traced["env"]["blas_threads"],
            "proc.st_run_s": single["run_s"][0],
            "trace.overhead_s": traced["traced_run_s"] - traced["run_s"],
            "trace.unaccounted_s": traced["traced_run_s"] - top}
    values.update({name: (proc[name], unit) for name, unit in PROC_METRICS})
    return values


def run(args, workdir):
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        traced = spawn(args.workload, args.seed, "trace", workdir, deadline=deadline)
        single = spawn(args.workload, args.seed, "measure", workdir, threads=1,
                       deadline=deadline)
        records = [traced, single]
        metrics = layer_metrics(traced, single)
    else:
        setups = [spawn(args.workload, args.seed, "setup", workdir,
                        deadline=deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        measured = spawn(args.workload, args.seed, "measure", workdir,
                         seconds=args.seconds, deadline=deadline)
        setups.append(measured["setup_s"])
        records = [measured]
        measured["setup_samples"] = setups
        metrics = {"run_s": (statistics.median(measured["run_s"]), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (measured["peak_rss_mb"], "MB")}
    return records, metrics


def report(args, records, metrics):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    margins = [m for r in records for m in r["margins"]]
    env = records[0]["env"]
    lines = ["workload=%s seed=%d trace=%d" % (args.workload, args.seed, args.trace),
             "env: nproc=%(nproc)d cpu=%(cpu)r llc=%(llc)s python=%(python)s "
             "numpy=%(numpy)s blas=%(blas)s blas_threads=%(blas_threads)d" % env]
    if args.trace:
        lines += ["%s %.6g %s" % (name, value, unit)
                  for name, (value, unit) in metrics.items()]
        lines.append("single-threaded reference (OPENBLAS_NUM_THREADS=1, "
                     "not gated): run_s %.4f s" % records[1]["run_s"][0])
    else:
        runs = records[0]["run_s"]
        hi = high_percentile(runs)
        lines.append("run_s median=%.4f s %s n=%d" % (
            metrics["run_s"][0],
            "p%d=%.4f s" % hi if hi else "(no percentile has ten samples beyond it)",
            len(runs)))
        lines.append("setup_s median=%.4f s n=%d" % (
            metrics["setup_s"][0], len(records[0]["setup_samples"])))
        lines.append("peak_rss_mb %.1f MB n=1" % metrics["peak_rss_mb"][0])
    lines.append("fail_frac %.6g (%d failed / %d checks and calls)"
                 % (failed / attempted, failed, attempted))
    if margins:
        lines.append("accuracy_margin_digits %.4f digits n=%d"
                     % (min(margins), len(margins)))
    else:
        lines.append("accuracy_margin_digits n/a (no tolerance-gated residual)")
    for r in records:
        lines += ["error: %s" % e for e in r["errors"]]
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qlcst", "__init__.py")):
        sys.exit("error: no qlcst sources at %s" % os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-seed%d-" % (args.workload, args.seed),
                               dir=OUT)
    try:
        records, metrics = run(args, workdir)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        sys.exit("error: %s" % exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"args": vars(args), "records": records,
                   "metrics": metrics}, fh)
    report(args, records, metrics)


if __name__ == "__main__":
    main()
