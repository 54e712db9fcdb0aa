import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlcst.errors import (AdmissibilityError, BadParameter, NonFinite, QlcstError,
                          ZeroSignal)
from qlcst.generators import gen_signal, random_hermite_combo
from qlcst.io import open_coefficients, write_coefficients
from qlcst.lct import validate_param
from qlcst.qlct import qlct_inverse
from qlcst.qlcst import (_w_inverse_rows, covariance_residuals, energy_identity_gap,
                         marginal_qlct_gap, qlcst_analysis, qlcst_forward,
                         qlcst_reconstruct)
from qlcst.quaternion import qnormsq
from qlcst.signal import Grid1D, Grid2D, QSignal2D, QSpectrum2D, sandwich_phase
from qlcst.uncertainty import (_axis_sq, _lemma_41_rhs, digamma, digamma_constant, heisenberg_report,
                               lemma_41_gap, log_uncertainty_report,
                               spatial_dispersion, spatial_log_moment,
                               spectral_dispersion, spectral_log_moment)
from qlcst.verify import MATRIX_CASES
from qlcst.window import constant_window, fixed_gaussian, lambda_psi, s_gaussian

FOURIER = validate_param(0, 1, -1, 0)
EULER_GAMMA = 0.5772156649015329


def coefficients(f):
    return qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER)


def test_lambda_checks_refuse_constant_window():
    """The identities that scale by lambda refuse the constant window and the
    s-gaussian, which have none, for the zero signal too, instead of
    reporting numbers that no lambda scales."""
    g = Grid2D.centered(8.0, 16)
    for window in (constant_window(), s_gaussian()):
        for f in (gen_signal("gaussian", g), QSignal2D(np.zeros(g.shape + (4,)), g)):
            c = qlcst_forward(f, window, FOURIER, FOURIER)
            for check in (lambda: energy_identity_gap(c, f),
                          lambda: heisenberg_report(c, f, 1),
                          lambda: log_uncertainty_report(c, f),
                          lambda: lemma_41_gap(c, f)[0]):
                with pytest.raises(AdmissibilityError):
                    check()


def test_lambda_checks_hold_for_a_narrow_window():
    """A window of width 0.05 on a grid fine enough for it: with the exact
    lambda the energy and Lemma 4.1 identities hold to 1e-9 (a quadrature of
    lambda on a fixed [-12, 12] box gave 0.293 for both)."""
    f = gen_signal("gaussian", Grid2D.centered(1.0, 64), sigma=0.2)
    c = qlcst_forward(f, fixed_gaussian(0.05, 0.05), FOURIER, FOURIER)
    assert energy_identity_gap(c, f) < 1e-9
    assert all(gap < 1e-9 for gap in lemma_41_gap(c, f))


@pytest.mark.parametrize("check,axis", [
    (heisenberg_report, 3),
    (lambda c, f, s: spatial_dispersion(f, s), 3),
    (lambda c, f, s: spectral_dispersion(c, s), -1),
], ids=["heisenberg", "spatial", "spectral"])
def test_bad_axis_is_refused(check, axis):
    f = gen_signal("gaussian", Grid2D.centered(8.0, 8))
    with pytest.raises(BadParameter):
        check(coefficients(f), f, axis)


def test_digamma_reference_points():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-12
    assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-12
    # recurrence psi(x+1) = psi(x) + 1/x
    assert abs(digamma(1.5) - digamma(0.5) - 2.0) < 1e-12
    for x in (0.1, 0.7, 3.2, 25.0):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12


def test_digamma_against_external_oracle():
    scipy_special = pytest.importorskip("scipy.special")
    for x in (0.5, 1.0, 1.31, 2.7, 8.0, 40.0):
        assert abs(digamma(x) - scipy_special.digamma(x)) < 1e-12


def test_digamma_rejects_nonpositive():
    for x in (0.0, -0.5, -3.0, math.nan):
        with pytest.raises(QlcstError):
            digamma(x)


def test_digamma_constant_value():
    ref = -EULER_GAMMA - 2.0 * math.log(2.0) - math.log(2.0)
    assert abs(digamma_constant() - ref) < 1e-10
    assert abs(digamma_constant() - (-2.6566572066)) < 1e-9


def unit_gaussian(grid):
    """pi^{-1/2} e^{-|x|^2/2}, unit L2 norm."""
    f = gen_signal("gaussian", grid)
    return QSignal2D(f.data / math.sqrt(math.pi), grid)


def test_spatial_dispersion_gaussian_moments():
    g = Grid2D.centered(8.0, 64)
    f = unit_gaussian(g)
    assert abs(spatial_dispersion(f, 1) - 0.5) < 1e-6
    assert abs(spatial_dispersion(f, 2) - 0.5) < 1e-6
    shifted = gen_signal("shifted-gaussian", g, center=(2.0, 0.0))
    shifted = QSignal2D(shifted.data / math.sqrt(math.pi), g)
    assert abs(spatial_dispersion(shifted, 1) - 4.5) < 1e-5
    assert abs(spatial_dispersion(shifted, 2) - 0.5) < 1e-5


def test_spatial_dispersion_impulse_at_origin():
    # grid with a sample exactly at the origin so the impulse sits at x = 0
    ax = Grid1D(9, -4.0, 1.0)
    g = Grid2D(ax, ax)
    f = gen_signal("impulse", g)
    assert spatial_dispersion(f, 1) == 0.0
    assert spatial_dispersion(f, 2) == 0.0


def test_spectral_dispersion_zero():
    g = Grid2D.centered(8.0, 8)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    c = qlcst_forward(zero, fixed_gaussian(1, 1), FOURIER, FOURIER)
    assert spectral_dispersion(c, 1) == 0.0


def test_spectral_dispersion_tail_coverage():
    """Doubling the w-grid extent changes the value only marginally.

    The signal is sampled at dx = 0.25 so both w grids stay inside the
    alias-free range pi/dx of the quadrature.
    """
    g = Grid2D.centered(8.0, 64)
    f = gen_signal("gaussian", g)
    win = fixed_gaussian(1, 1)
    ug = Grid2D.centered(8.0, 16)
    c1 = qlcst_forward(f, win, FOURIER, FOURIER, ugrid=ug,
                       wgrid=Grid2D.centered(2.0 * math.pi, 32))
    c2 = qlcst_forward(f, win, FOURIER, FOURIER, ugrid=ug,
                       wgrid=Grid2D.centered(4.0 * math.pi, 64))
    v1 = spectral_dispersion(c1, 1)
    v2 = spectral_dispersion(c2, 1)
    assert abs(v1 - v2) / v2 < 1e-6


def test_spatial_log_moment_origin_guard():
    ax = Grid1D(9, -4.0, 1.0)  # includes x = 0 exactly
    g = Grid2D(ax, ax)
    f = gen_signal("impulse", g)
    with pytest.raises(NonFinite):
        spatial_log_moment(f)


def test_spectral_log_moment_origin_guard():
    """An odd point count puts w = 0 on the FFT-compatible spectrum grid."""
    f = gen_signal("gaussian", Grid2D.centered(8.0, 9))
    with pytest.raises(NonFinite):
        spectral_log_moment(coefficients(f))


def test_heisenberg_gaussian():
    g = Grid2D.centered(8.0, 24)
    f = gen_signal("gaussian", g)
    rep = heisenberg_report(coefficients(f), f, 1)
    assert rep.ratio > 1.0
    assert rep.lhs == pytest.approx(math.sqrt(rep.spectral * rep.spatial))


def test_heisenberg_scale_invariance():
    g = Grid2D.centered(8.0, 16)
    f = gen_signal("gaussian", g)
    r1 = heisenberg_report(coefficients(f), f, 1)
    f2 = QSignal2D(2.0 * f.data, g)
    r2 = heisenberg_report(coefficients(f2), f2, 1)
    assert abs(r1.ratio - r2.ratio) < 1e-10


def test_heisenberg_zero_signal():
    g = Grid2D.centered(8.0, 8)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    with pytest.raises(ZeroSignal):
        heisenberg_report(coefficients(zero), zero, 1)


def test_log_uncertainty_zero_signal():
    g = Grid2D.centered(8.0, 8)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    with pytest.raises(ZeroSignal):
        log_uncertainty_report(coefficients(zero), zero)


def test_log_uncertainty_gaussian_family():
    g = Grid2D.centered(8.0, 24)
    for a in (0.5, 1.0, 2.0):
        f = gen_signal("dilated-gaussian", g, a=a)
        rep = log_uncertainty_report(coefficients(f), f)
        assert rep.gap >= 0.0


def test_reports_invariant_under_right_phase():
    """f -> f * exp(mu2 theta) leaves |f| and both report magnitudes alone."""
    g = Grid2D.centered(8.0, 16)
    f = gen_signal("gaussian", g)
    rot = sandwich_phase(f, np.zeros(g.axis1.n), np.full(g.axis2.n, 0.9))
    r0 = heisenberg_report(coefficients(f), f, 1)
    r1 = heisenberg_report(coefficients(rot), rot, 1)
    assert abs(r0.spatial - r1.spatial) < 1e-12
    assert abs(r0.ratio - r1.ratio) < 1e-10


def test_lemma41_zero_signal():
    g = Grid2D.centered(8.0, 8)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    assert lemma_41_gap(coefficients(zero), zero) == (0.0, 0.0)


@pytest.mark.parametrize("abcd", [(0, 1, -1, 0), (0.8, -1.5, 0.4, 0.5)])
def test_lemma41_rhs_matches_pointwise_inverses(abcd):
    """The batched w-inverse gives the same moment integral as one direct
    (Riemann-sum) inverse QLCT per u-slice."""
    g = Grid2D.centered(8.0, 8)
    m = validate_param(*abcd)
    f = gen_signal("shifted-gaussian", g, center=(1.0, -0.5))
    c = qlcst_forward(f, fixed_gaussian(1, 1), m, m)
    data = c.data
    for s in (1, 2):
        acc = sum(float(np.sum(_axis_sq(g, s) * qnormsq(
            qlct_inverse(QSpectrum2D(data[i, j], c.wgrid), m, m, g).data)))
            for i in range(g.axis1.n) for j in range(g.axis2.n))
        want = acc * g.cell * c.ugrid.cell
        assert abs(_lemma_41_rhs(c, f)[s - 1] - want) < 1e-12 * want


def test_lemma41_gaussian_small():
    g = Grid2D.centered(8.0, 16)
    f = gen_signal("gaussian", g)
    assert max(lemma_41_gap(coefficients(f), f)) < 5e-3


def per_axis_lemma_41_gap(C, f, s):
    """The per-axis form that lemma_41_gap replaced, kept as the reference:
    one pass of the w-inverse for axis s alone."""
    xsq = _axis_sq(f.grid, s)[:, None, :]
    acc = 0.0
    for _, a, b in _w_inverse_rows(C, f.grid):
        acc += float(np.sum(xsq * (a.real ** 2 + a.imag ** 2
                                   + b.real ** 2 + b.imag ** 2)))
    rhs = acc * f.grid.cell * C.ugrid.cell
    lhs = lambda_psi(C.window) * spatial_dispersion(f, s)
    return abs(lhs - rhs) / abs(lhs)


def test_lemma41_one_pass_matches_per_axis(tmp_path):
    """Both gaps from one pass equal, bit for bit, one pass per axis, for a
    stored set, an unstored analysis and a QCF3 file, on a u grid whose N_u1
    the block size does not divide and matrices with A != D."""
    m = validate_param(0.8, -1.5, 0.4, 0.5)
    f = random_hermite_combo(Grid2D.centered(8.0, 12), seed=5)
    ugrid = Grid2D(Grid1D.centered(8.0, 13), Grid1D.centered(8.0, 12))
    args = (f, fixed_gaussian(1, 1), m, m, ugrid)
    stored = qlcst_forward(*args)
    write_coefficients(tmp_path / "c.qcf", stored)
    for C in (stored, qlcst_analysis(*args), open_coefficients(tmp_path / "c.qcf")):
        gaps = lemma_41_gap(C, f)
        assert gaps == tuple(per_axis_lemma_41_gap(C, f, s) for s in (1, 2))
        assert max(gaps) < 1e-2


def test_lemma41_signal_on_an_axis():
    """A signal on the line x1 = 0, whose axis-1 moment is 0, and an impulse
    at the origin, whose moments are both 0, give finite gaps: the absolute
    right side where the left side is 0."""
    ax = Grid1D(8, -4.0, 1.0)  # includes x = 0 exactly
    g = Grid2D(ax, ax)
    line = np.zeros(g.shape + (4,))
    line[4, :, 0] = 1.0
    line_gaps, impulse_gaps = (
        lemma_41_gap(qlcst_analysis(f, fixed_gaussian(1, 1), FOURIER, FOURIER), f)
        for f in (QSignal2D(line, g), gen_signal("impulse", g)))
    assert line_gaps[0] < 1e-20 and math.isfinite(line_gaps[1])
    assert max(impulse_gaps) < 1e-20


def finite_or_refused(check):
    """check() either returns finite numbers or raises a QlcstError."""
    try:
        out = check()
    except QlcstError:
        return
    if isinstance(out, QSignal2D):
        out = out.data
    elif not isinstance(out, (float, tuple)):
        out = astuple(out)
    assert np.all(np.isfinite(out))


@settings(max_examples=25, deadline=None)
@given(n=st.tuples(st.integers(6, 10), st.integers(6, 10)),
       origin=st.tuples(st.integers(0, 9), st.integers(0, 9)),
       at=st.tuples(st.integers(0, 9), st.integers(0, 9)),
       kind=st.sampled_from(["zero", "line1", "line2", "point"]),
       spacing=st.sampled_from([0.5, 1.0]),
       case=st.sampled_from([name for name, _ in MATRIX_CASES]),
       seed=st.integers(0, 2 ** 16))
@example(n=(8, 8), origin=(4, 4), at=(4, 0), kind="line1", spacing=1.0,
         case="fourier", seed=0)
def test_identities_on_degenerate_signals(n, origin, at, kind, spacing, case, seed):
    """The zero signal, one line and one point on grids that hold the
    origin, where a moment or the whole energy is 0: every identity and
    report returns finite values or raises a QlcstError."""
    g = Grid2D(*(Grid1D(m, -(k % m) * spacing, spacing) for m, k in zip(n, origin)))
    i, j = (k % m for m, k in zip(n, at))
    data = np.zeros(g.shape + (4,))
    if kind != "zero":
        where = {"line1": (i, slice(None)), "line2": (slice(None), j), "point": (i, j)}[kind]
        data[where] = np.random.default_rng(seed).standard_normal(data[where].shape)
    f = QSignal2D(data, g)
    window = fixed_gaussian(1, 1)
    m1, m2 = dict(MATRIX_CASES)[case]()
    c = qlcst_forward(f, window, m1, m2)
    for check in (lambda: energy_identity_gap(c, f),
                  lambda: marginal_qlct_gap(c, f),
                  lambda: lemma_41_gap(c, f),
                  lambda: heisenberg_report(c, f, 1),
                  lambda: heisenberg_report(c, f, 2),
                  lambda: log_uncertainty_report(c, f),
                  lambda: covariance_residuals(f, window, m1, m2),
                  lambda: qlcst_reconstruct(c)):
        finite_or_refused(check)
