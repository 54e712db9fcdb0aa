"""In-memory span recorder that wraps qlcst's public functions from outside.

Nothing under src/ is edited: `install` replaces each traced function in
every loaded ``qlcst`` module namespace that holds it, so calls made by
``verify`` and ``cli`` through their own imports are timed too.  Each span
keeps its name, start, end, parent span, run id, self time and the
tracemalloc peak reached inside it.
"""

import functools
import os
import sys
import time
import tracemalloc

WINDOW_VARIANTS = {"fixed-gaussian": "fixed-gauss", "s-gaussian": "s-gauss",
                   "custom-table": "custom-table", "constant": "constant"}


class Span:
    __slots__ = ("id", "name", "run_id", "parent", "start", "end", "child_s",
                 "base_bytes", "peak_bytes", "peak_mb", "extra")

    def __init__(self, sid, name, run_id, parent, base_bytes):
        self.id = sid
        self.name = name
        self.run_id = run_id
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.base_bytes = base_bytes
        self.peak_bytes = base_bytes
        self.peak_mb = 0.0
        self.extra = {}

    @property
    def total_s(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.total_s - self.child_s

    def record(self):
        return {"id": self.id, "name": self.name, "run": self.run_id,
                "parent": self.parent, "start": self.start, "end": self.end,
                "self_s": self.self_s, "peak_mb": self.peak_mb, **self.extra}


class Recorder:
    """Collects spans; `open` and `close` bracket each call of a wrapped function."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, name):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self._stack[-1]
            parent.peak_bytes = max(parent.peak_bytes, peak)
        tracemalloc.reset_peak()
        span = Span(len(self.spans), name, self.run_id,
                    self._stack[-1].id if self._stack else None, current)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        span.peak_bytes = max(span.peak_bytes, peak)
        span.peak_mb = (span.peak_bytes - span.base_bytes) / 1e6
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.total_s
            parent.peak_bytes = max(parent.peak_bytes, span.peak_bytes)

    def wrap(self, fn, label, measure=None):
        """Return fn timed under the span name label(args, kwargs)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(label(args, kwargs))
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span.extra.update(measure(args, kwargs, result))
                return result
            finally:
                self.close(span)
        return traced


def _fixed(name):
    return lambda args, kwargs: name


def _forward_variant(args, kwargs):
    window = args[1] if len(args) > 1 else kwargs["window"]
    return "qlcst.qlcst_forward." + WINDOW_VARIANTS[window.family]


def _forward_size(args, kwargs, c):
    """Output bytes, and for separable windows the matmul flop count
    16 * nw1*nw2 * (nu1*n1*n2 + nu1*n2*nu2), which is 32*N^5 when all are N."""
    f = args[0] if args else kwargs["f"]
    out = {"out_mb": c.data.nbytes / 1e6}
    if c.window.separable:
        n1, n2 = f.grid.shape
        nu1, nu2 = c.ugrid.shape
        nw1, nw2 = c.wgrid.shape
        out["gflop"] = 16.0 * nw1 * nw2 * (nu1 * n1 * n2 + nu1 * n2 * nu2) / 1e9
    return out


def _file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _cli_label(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return "cli." + argv[0]


# (module, function, label, measure): the public functions the per-layer
# metrics are read from.
TARGETS = (
    ("qlcst.qlcst", "qlcst_forward", _forward_variant, _forward_size),
    ("qlcst.qlcst", "qlcst_reconstruct", None, None),
    ("qlcst.qlcst", "qlcst_pointwise_inverse", None, None),
    ("qlcst.qlcst", "energy_identity_gap", None, None),
    ("qlcst.qlcst", "covariance_residuals", None, None),
    ("qlcst.qlct", "qlct_forward", None, None),
    ("qlcst.qlct", "qlct_fast_forward", None, None),
    ("qlcst.qlct", "qlct_fast_inverse", None, None),
    ("qlcst.uncertainty", "spectral_dispersion", None, None),
    ("qlcst.uncertainty", "spectral_log_moment", None, None),
    ("qlcst.uncertainty", "heisenberg_report", None, None),
    ("qlcst.uncertainty", "log_uncertainty_report", None, None),
    ("qlcst.uncertainty", "lemma_41_gap", None, None),
    ("qlcst.window", "lambda_psi", None, None),
    ("qlcst.io", "write_signal", None, _file_mb),
    ("qlcst.io", "read_signal", None, _file_mb),
    ("qlcst.io", "write_coefficients", None, _file_mb),
    ("qlcst.io", "read_coefficients", None, _file_mb),
    ("qlcst.io", "export_slice_csv", _fixed("io.export_slice"), _file_mb),
    ("qlcst.io", "export_slice_pgm", _fixed("io.export_slice"), _file_mb),
    ("qlcst.cli", "cli_main", _cli_label, None),
)


def install(recorder):
    """Wrap every target in each qlcst namespace that imports it, and every
    verification suite in the shared SUITES table.  Returns an undo callable."""
    modules = [m for name, m in list(sys.modules.items())
               if (name == "qlcst" or name.startswith("qlcst.")) and m is not None]
    undo = []
    for modname, fname, label, measure in TARGETS:
        original = getattr(sys.modules[modname], fname)
        short = modname.split(".", 1)[1]
        wrapped = recorder.wrap(original, label or _fixed("%s.%s" % (short, fname)),
                                measure)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))
    suites = sys.modules["qlcst.verify"].SUITES
    originals = dict(suites)
    for name, fn in originals.items():
        suites[name] = recorder.wrap(fn, _fixed("verify." + name))

    def uninstall():
        for module, attr, original in undo:
            setattr(module, attr, original)
        suites.update(originals)
    return uninstall
