"""Named verification suites with pass/fail reporting.

Each suite is a generator of checks (ok, text): ok is the verdict of an
asserted check, or None for a value that is reported but not asserted.  One
collector (_collect), applied in the SUITES table, runs a suite to the end
and forms its lines and its verdict, so every SUITES value is a plain
callable returning (passed, lines); the CLI prints the lines and maps the
flag onto its exit code.  The seven suites that check a result under each
of the MATRIX_CASES take their grid size, matrices and signal from one case
rule (_cases).  Tolerances are fixed here, not configurable, so a "pass"
always means the same thing.
"""

import time

import numpy as np

from .errors import BadParameter
from .generators import gen_signal, random_hermite_combo
from .lct import validate_param
from .qlct import (plancherel_gap, qlct_fast_forward, qlct_fast_inverse,
                   qlct_forward)
from .qlcst import (covariance_residuals, energy_identity_gap,
                    marginal_qlct_gap, orthogonality_form, qlcst_analysis,
                    qlcst_forward, qlcst_reconstruct, special_case_matrix)
from .quaternion import qnorm, symplectic_join
from .signal import Grid2D, QSignal2D, relative_l2
from .uncertainty import (digamma_constant, heisenberg_report, lemma_41_gap,
                          log_uncertainty_report)
from .window import constant_window, fixed_gaussian, lambda_psi, s_gaussian

EXTENT = 8.0

MATRIX_CASES = (
    ("fourier", lambda: special_case_matrix("stockwell")),
    ("fractional(pi/3)", lambda: special_case_matrix("fractional", np.pi / 3)),
    ("fresnel(B=2)", lambda: special_case_matrix("fresnel", 2.0)),
)


def _gaussian(grid):
    return (("gaussian", gen_signal("gaussian", grid)),)


def _battery(grid):
    return _gaussian(grid) + (
        ("shifted-gaussian", gen_signal("shifted-gaussian", grid, center=(2.0, 0.0))),
        ("dilated(a=0.5)", gen_signal("dilated-gaussian", grid, a=0.5)),
        ("dilated(a=2)", gen_signal("dilated-gaussian", grid, a=2.0)),
        ("hermite(1,0)", gen_signal("hermite", grid, n=(1, 0))),
        ("hermite-combo(seed=7)", random_hermite_combo(grid, seed=7)))


def _cases(n, signals):
    """Yield (mname, m1, m2, sname, f) for every MATRIX_CASES entry (outer)
    and every named signal of signals(grid) (inner), on the centered grid
    of n points per axis; the signals are built once per call."""
    named = signals(Grid2D.centered(EXTENT, n))
    for mname, make in MATRIX_CASES:
        m1, m2 = make()
        for sname, f in named:
            yield mname, m1, m2, sname, f


def suite_roundtrip():
    """Fast-path inverse-of-forward for Gaussian and Hermite signals."""
    def signals(grid):
        return _gaussian(grid) + (("hermite(1,0)", gen_signal("hermite", grid, n=(1, 0))),)
    for mname, m1, m2, sname, f in _cases(64, signals):
        t0 = time.time()
        err = relative_l2(qlct_fast_inverse(qlct_fast_forward(f, m1, m2), m1, m2,
                                            f.grid).data, f.data)
        dt = time.time() - t0
        yield (err < 1e-6 and dt < 30.0, "roundtrip %s %s: rel_l2=%.3e (%.2fs)"
               % (mname, sname, err, dt))


def suite_oracle_equivalence():
    """Fast chirp-FFT forward vs direct quadrature on seeded random signals."""
    grid = Grid2D.centered(EXTENT, 32)
    rng = np.random.default_rng(2024)
    matrices = []
    for _ in range(3):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        c = rng.uniform(-1.0, 1.0)
        matrices.append(validate_param(a, b, c, (1.0 + b * c) / a))
    worst = 0.0
    for i in range(20):
        f = QSignal2D(rng.standard_normal(grid.shape + (4,)), grid)
        m1 = matrices[i % 3]
        m2 = matrices[(i + 1) % 3]
        err = relative_l2(qlct_fast_forward(f, m1, m2).data,
                          qlct_forward(f, m1, m2).data)
        worst = max(worst, err)
    yield worst < 1e-8, "oracle-equivalence: 20 signals, worst rel_l2=%.3e" % worst


def suite_plancherel():
    for mname, m1, m2, _, f in _cases(64, _gaussian):
        gap = plancherel_gap(f, m1, m2)
        yield gap < 1e-6, "plancherel %s: gap=%.3e" % (mname, gap)


def suite_orthogonality():
    """Energy form of the orthogonality relation; the f != g residual is
    reported without being asserted."""
    win = fixed_gaussian(1.0, 1.0)
    lam = lambda_psi(win)
    for mname, m1, m2, _, f in _cases(32, _gaussian):
        cf = qlcst_analysis(f, win, m1, m2)
        val = orthogonality_form(cf, cf)
        target = lam * f.energy()
        gap = abs(val[0] - target) / target
        imag = float(np.linalg.norm(val[1:])) / target
        yield (gap < 1e-3 and imag < 1e-6, "orthogonality %s (f=g): gap=%.3e imag=%.3e"
               % (mname, gap, imag))
        g = gen_signal("hermite", f.grid, n=(1, 0))
        cross = orthogonality_form(cf, qlcst_analysis(g, win, m1, m2))
        yield None, ("orthogonality %s (f!=g): |form|=%.3e (reported, not asserted; "
                     "expect ~lam<f,g>=0)" % (mname, float(qnorm(cross))))


def suite_energy():
    win = fixed_gaussian(1.0, 1.0)
    for mname, m1, m2, _, f in _cases(32, _gaussian):
        gap = energy_identity_gap(qlcst_analysis(f, win, m1, m2), f)
        yield gap < 1e-3, "energy %s: gap=%.3e" % (mname, gap)


def suite_reconstruction():
    win = fixed_gaussian(1.0, 1.0)
    for mname, m1, m2, _, f in _cases(32, _gaussian):
        t0 = time.time()
        rec = qlcst_reconstruct(qlcst_analysis(f, win, m1, m2))
        err = relative_l2(rec.data, f.data)
        dt = time.time() - t0
        yield (err < 1e-3 and dt < 300.0, "reconstruction %s: rel_l2=%.3e (%.1fs)"
               % (mname, err, dt))


def suite_marginal():
    """u-marginal identity.  The u quadrature grid is matched to the window:
    the adaptive window has 1/|w| tails and needs 3x the signal extent, while
    the narrow fixed window needs a spacing comparable to its width."""
    grid = Grid2D.centered(EXTENT, 32)
    f = gen_signal("gaussian", grid)
    m1, m2 = special_case_matrix("stockwell")
    wide_u = Grid2D.centered(3.0 * EXTENT, 96)
    gap = marginal_qlct_gap(qlcst_analysis(f, s_gaussian(), m1, m2, ugrid=wide_u), f)
    yield gap < 1e-3, "marginal s-gaussian: gap=%.3e" % gap
    fine_u = Grid2D.centered(EXTENT, 256)
    small_w = Grid2D.centered(2.0, 8)
    gap2 = marginal_qlct_gap(qlcst_analysis(f, fixed_gaussian(0.05, 0.05), m1, m2,
                                            ugrid=fine_u, wgrid=small_w), f)
    yield gap2 < 5e-3, "marginal narrow fixed-gaussian: gap=%.3e" % gap2


def suite_covariance():
    grid = Grid2D.centered(EXTENT, 48)
    f = gen_signal("gaussian", grid)
    win = fixed_gaussian(1.0, 1.0)
    m1, m2 = special_case_matrix("stockwell")
    rep = covariance_residuals(f, win, m1, m2, alpha=(1.0, 0.0), s=(1.0, 1.0))
    yield rep.parity < 1e-10, "parity: residual=%.3e" % rep.parity
    yield rep.shift < 1e-3, "shift: residual=%.3e" % rep.shift
    yield rep.modulation < 1e-2, "modulation: residual=%.3e" % rep.modulation


def suite_heisenberg():
    win = fixed_gaussian(1.0, 1.0)
    for mname, m1, m2, sname, f in _cases(32, _battery):
        c = qlcst_analysis(f, win, m1, m2)
        for s in (1, 2):
            rep = heisenberg_report(c, f, s)
            ok = rep.ratio >= 0.98 and (sname != "gaussian" or rep.ratio > 1.0)
            yield ok, ("heisenberg %s %s axis=%d: ratio=%.4f"
                       % (mname, sname, s, rep.ratio))


def suite_log_uncertainty():
    win = fixed_gaussian(1.0, 1.0)
    dg = digamma_constant()
    ref = -0.5772156649015329 - 2.0 * np.log(2.0) - np.log(2.0)
    yield abs(dg - ref) < 1e-10, "digamma constant: %.10f (ref %.10f)" % (dg, ref)
    for mname, m1, m2, sname, f in _cases(32, _battery):
        rep = log_uncertainty_report(qlcst_analysis(f, win, m1, m2), f)
        yield rep.gap >= -0.02, ("log-uncertainty %s %s: gap=%.4f"
                                 % (mname, sname, rep.gap))


def suite_lemma41():
    grid = Grid2D.centered(EXTENT, 24)
    win = fixed_gaussian(1.0, 1.0)
    m1, m2 = special_case_matrix("stockwell")
    for sname, f in (("gaussian", gen_signal("gaussian", grid)),
                     ("narrow-gaussian", gen_signal("dilated-gaussian", grid, a=2.0))):
        tol = 5e-3 if sname == "gaussian" else 1e-2
        for s, gap in enumerate(lemma_41_gap(qlcst_analysis(f, win, m1, m2), f), 1):
            yield gap < tol, "lemma41 %s axis=%d: gap=%.3e" % (sname, s, gap)


def suite_special_case():
    """Named matrix reductions and the constant-window collapse to the QLCT."""
    m1, m2 = special_case_matrix("stockwell")
    ok = (m1.a, m1.b, m1.c, m1.d) == (0.0, 1.0, -1.0, 0.0) and m1 == m2
    yield ok, "stockwell matrices = (0,1,-1,0) per axis"
    f1, _ = special_case_matrix("fractional", np.pi / 2)
    ok = max(abs(f1.a - 0.0), abs(f1.b - 1.0), abs(f1.c + 1.0), abs(f1.d)) < 1e-12
    yield ok, "fractional(pi/2) reduces to the fourier case"
    grid = Grid2D.centered(EXTENT, 16)
    f = gen_signal("gaussian", grid)
    c = qlcst_forward(f, constant_window(), m1, m2)
    q = qlct_fast_forward(f, m1, m2)
    worst = max(relative_l2(symplectic_join(*c.slice_planes("u", (i, j))), q.data)
                for i, j in np.ndindex(grid.shape))
    yield worst < 1e-10, ("constant window reproduces the QLCT: worst rel_l2=%.3e"
                          % worst)


def _collect(suite):
    """The suite as a plain callable that runs its checks to the end, also
    past a failure, and returns (passed, lines): each line is PASS, FAIL or
    INFO (ok None) and the text, and passed is whether every asserted check
    passed."""
    def run():
        passed, lines = True, []
        for ok, text in suite():
            if ok is None:
                lines.append("INFO " + text)
            else:
                lines.append(("PASS " if ok else "FAIL ") + text)
                passed = passed and bool(ok)
        return passed, lines
    return run


SUITES = {name: _collect(suite) for name, suite in (
    ("roundtrip", suite_roundtrip),
    ("oracle-equivalence", suite_oracle_equivalence),
    ("plancherel", suite_plancherel),
    ("orthogonality", suite_orthogonality),
    ("energy", suite_energy),
    ("reconstruction", suite_reconstruction),
    ("marginal", suite_marginal),
    ("covariance", suite_covariance),
    ("heisenberg", suite_heisenberg),
    ("log-uncertainty", suite_log_uncertainty),
    ("lemma41", suite_lemma41),
    ("special-case", suite_special_case),
)}


def run_suite(name):
    if name not in SUITES:
        raise BadParameter("unknown verification suite %r" % name)
    return SUITES[name]()
