"""pwlab: a numerical laboratory for Toeplitz operators on band-limited
(Paley-Wiener) function spaces.

Layers, bottom up: `grid` (sampled functions and FFT spectra on uniform
lattices), `pwspace` (band projections, reproducing kernels, p-norm
machinery), `symbols` (symbol specifications), `toeplitz` (operator
application and Nyquist-basis matrices), `split` (three-part spectral
splitting and central-symbol recovery), `nehari` (minimal Hankel completions
and the bounded-symbol pipeline), `commutator` (the Toeplitz characterization
test, operator series, and symbol recovery), `factorize` (constructive weak
factorization and the duality pairing), `verify` (the identity suite), and
`cli` (the command-line surface).
"""

from .grid import (Grid, SampledFunction, evaluate_offgrid, fft_spectrum,
                   inverse_spectrum, lp_norm, symmetric_grid)
from .pwspace import (BandlimitedFunction, band_mask, band_residual, boyd_lower_bound,
                      default_grid, holder_conjugate, modulate, project_band,
                      project_halfline, projector_two_term,
                      riesz_constant_estimate, sinc_kernel, sinc_profile)
from .symbols import (SymbolSpec, bump_spectrum_symbol, gaussian_symbol,
                      mod_poly_symbol, sampled_symbol, samples, sup_norm)
from .toeplitz import (NyquistBasis, OperatorMatrix, assemble_matrix,
                       hankel_apply, identity_matrix, identity_residuals,
                       matrix_from_dict, matrix_pnorm, matrix_to_dict,
                       operator_norm_certified, toeplitz_apply,
                       toeplitz_matrix)
from .split import (SplitResult, bump_l1_norms, central_recover_sweep,
                    jensen_certificate, sinc_norm_constant, split_symbol)
from .nehari import (AAKSolution, BoundedSymbol, NehariResult, aak_solve,
                     bounded_symbol, hankel_norm_estimate, nehari_solve)
from .commutator import (ConformalFrame, RecoveredSymbol, build_frame,
                         commutator_test, defect_identity_residual,
                         lambda_ops, recover_symbol, recovery_roundtrip,
                         series_reconstruct, series_residual)
from .factorize import (Factorization, FejerAtomPlan, fejer_deconvolve,
                        fejer_triangle, pair, regroup_pairs, sinc_atom,
                        toeplitz_test_set, weak_factorize, xpq_sandwich)

__version__ = "0.1.0"
