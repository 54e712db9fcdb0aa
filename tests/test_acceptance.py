"""Acceptance gate: one check per criterion, each printing PASS/FAIL lines.

Every criterion delegates to a named verification suite (the same code the
`qlcst verify` subcommand runs), so the CLI and this gate cannot drift apart.
Run with `pytest -v -s tests/test_acceptance.py` to see the per-case lines.
"""

from qlcst.verify import run_suite


def _run(criterion, suite):
    passed, lines = run_suite(suite)
    for line in lines:
        print("criterion %s | %s" % (criterion, line))
    assert passed, "criterion %s failed; see printed lines" % criterion


def test_criterion_01_qlct_roundtrip():
    """Inverse-of-forward < 1e-6 at N=64 for all three matrix cases, < 30 s."""
    _run("1", "roundtrip")


def test_criterion_02_oracle_equivalence():
    """Fast chirp-FFT vs direct quadrature < 1e-8 on 20 seeded signals."""
    _run("2", "oracle-equivalence")


def test_criterion_03_plancherel():
    """QLCT energy gap < 1e-6 for the Gaussian at N=64."""
    _run("3", "plancherel")


def test_criterion_04_energy_identity():
    """Coefficient energy = admissibility constant times signal energy, < 1e-3."""
    _run("4a", "energy")
    _run("4b", "orthogonality")


def test_criterion_05_reconstruction():
    """Synthesis roundtrip < 1e-3 at N=32 for all matrix cases, < 5 min each."""
    _run("5", "reconstruction")


def test_criterion_06_marginal():
    """u-marginal of the coefficients equals the QLCT, gap < 1e-3."""
    _run("6", "marginal")


def test_criterion_07_covariance():
    """Parity < 1e-10; shift < 1e-3 and modulation < 1e-2 at N=48."""
    _run("7", "covariance")


def test_criterion_08_heisenberg():
    """Dispersion-product ratio >= 0.98 for the battery; Gaussian strictly > 1."""
    _run("8", "heisenberg")


def test_criterion_09_log_uncertainty():
    """Logarithmic inequality gap >= -0.02; digamma constant to 1e-10."""
    _run("9", "log-uncertainty")


def test_criterion_10_lemma41():
    """Moment identity via per-position inverse transforms, gap < 5e-3 at N=24."""
    _run("10", "lemma41")


def test_criterion_11_special_cases():
    """Named matrix reductions; constant window reproduces the QLCT to 1e-10."""
    _run("11", "special-case")
