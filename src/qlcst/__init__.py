"""Two-sided quaternion linear canonical transform (QLCT) and the quaternion
linear canonical S-transform (Q-LCST) on sampled 2D quaternion signals,
with a verification harness for their analytic identities."""

from .errors import (AdmissibilityError, BadMagic, BadParameter,
                     BasisAxisError, DegenerateAngle, DeterminantError,
                     GridMismatch, NonFinite, QlcstError, SpacingError,
                     TooLarge, TrailingBytes, TruncatedFile, Undersampled,
                     VersionMismatch, ZeroBError, ZeroFrequency, ZeroSignal,
                     ZeroWindow)
from .generators import gen_signal, random_hermite_combo
from .io import (read_coefficients, read_signal, write_coefficients,
                 write_signal)
from .lct import KernelSpec, ParamMatrix, kernel_eval, parse_matrix, validate_param
from .qlct import (plancherel_gap, qlct_fast_forward, qlct_fast_inverse,
                   qlct_forward, qlct_inverse)
from .qlcst import (QLCSTAnalysis, QLCSTCoefficients, covariance_residuals,
                    energy_identity_gap, marginal_qlct_gap, orthogonality_form,
                    qlcst_analysis, qlcst_forward, qlcst_pointwise_inverse,
                    qlcst_reconstruct, shift_signal, special_case_matrix)
from .quaternion import (MU1, MU2, MU3, ONE, qconj, qexp_axis, qmul, qnorm,
                         qnormsq, quat, symplectic_join, symplectic_split)
from .signal import (Grid1D, Grid2D, QSignal2D, QSpectrum2D, relative_l2,
                     sandwich_phase)
from .uncertainty import (digamma, digamma_constant, heisenberg_report,
                          lemma_41_gap, log_uncertainty_report)
from .verify import SUITES, run_suite
from .window import (WindowSpec, constant_window, fixed_gaussian, lambda_psi,
                     parse_window, s_gaussian, table_window, window_eval)

__version__ = "1.0.0"
