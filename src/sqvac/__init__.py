"""Photon addition and subtraction on squeezed vacuum states.

Adding a photon to a pure squeezed vacuum produces, after renormalization,
exactly the same state as subtracting one — and the same holds for incoherent
mixtures of equally squeezed pure states, while impure, displaced or
unequal-width inputs break the coincidence. This package implements the
closed gaussian forms, a truncated number-basis route and a phase-space grid
route for these operations, together with cross-representation checks that
the three descriptions agree.
"""

from .errors import (ConfigurationError, DegenerateInputError, DomainError,
                     GeometryError, SqvacError, TruncationError)
from .fock import (FockVector, OutcomeRatio, annihilate, bogoliubov_annihilate,
                   coherent_state, create, lowering_matrix, outcome_ratio,
                   quadrature_moments, squeezed_vacuum, suggested_truncation)
from .gaussian import (AngularAverageSpec, GaussianComponent, GaussianWignerSpec,
                       angular_average_purity, angular_average_value, norm_ratio,
                       outcome_factors, spec_norm_ratio, squeeze_parameter,
                       wigner_value)
from .phasespace import (GridGeometry, IdentityCheck, WignerGrid, grid_metrics,
                         identity_residual, l1_relative_residual, outcome_integrals,
                         outcome_norm_ratio, photon_outcomes, policy_extent, rasterize,
                         refined_geometry, renormalize, state_grid, wigner_from_density)
from .special import bessel_i0_scaled, elliptic_k, hermite_psi_table
from .verify import SUITE_NAMES, CaseResult, VerificationReport, figure_data, run_suite

__version__ = "0.1.0"
