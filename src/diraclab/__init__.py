"""Numerical laboratory for gap eigenvalues of Dirac operators.

Computes the lowest eigenvalue in the spectral gap (-1, 1) of
D0 - mu * 1/|x| for point, radial, and multi-center charge
distributions, plus Hardy-quotient and Schroedinger comparison tools.
"""

__version__ = "0.1.0"

from .charges import (ChargeDistribution, PointCharge, RadialLayer, atom,
                      atoms, ball, combine, mix, potential_grid, pushforward,
                      radial_profile, scale_strengths, shell)
from .errors import (ChargeModelError, ConfigError, IllConditionedBasisError,
                     MergedAtomTooHeavyError, NoGapEigenvalueError,
                     SingularLocationError, UncertifiedEigenvalueError)
from .radial import (RadialGapResult, RadialGrid, RadialSolveConfig,
                     lowest_gap_eigenvalue_radial, q_form_radial,
                     schrodinger_ground_radial)
from .configio import (ConfigDoc, charge_descriptor, doc_from_charge,
                       emit_charge, emit_config, format_float, load_config,
                       parse_config)
from .gaussian import (QuadratureGrid, ScalarBasis, SpinorBasis, becke_weights,
                       boys, build_grid, default_spinor_basis, grid_for_basis)
from .multicenter import (GapProblem, GapResult, GapSolveConfig,
                          rkb_cross_check, schrodinger_ground_gaussian,
                          solve_gap)
from .hardy import (HardyResult, HardyScanRow, hardy_quotient_min, nu1_scan,
                    scan_minimum)
from .experiments import (ExperimentConfig, ExperimentReport, config_from_doc,
                          run_experiment)

__all__ = [name for name in dir() if not name.startswith("_")]
