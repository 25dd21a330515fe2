"""Desk-scale spectral laboratory for mass-critical NLS on rescaled tori."""

__version__ = "0.1.0"

from .geometry import (SpectralField, TorusGeometry, build_geometry,
                       field_from_modes, free_evolve, from_physical, load_field,
                       lp_spacetime_norm, norm, random_field, save_field,
                       to_physical, zero_field)
from .smoothing import (ScalingPlan, SmoothingSymbol, apply_I, gwp_budget,
                        m_value, total_exponent)
from .multipliers import (SymbolSpec, alpha_n, bare_m6, m_multiplier_symbol,
                          omega, sigma_product, sigma_symbol)
from .classify import (ResonanceClassification, Thresholds, classify,
                       classify_batch_1d, classify_batch_2d)
from .energies import (CorrectionTables, correction_sums, correction_tables,
                       energy, energy_identity_residual, lambda_eval, mass)
from .dynamics import EvolutionConfig, evolve, galerkin_rhs, rk4_step, strang_step
