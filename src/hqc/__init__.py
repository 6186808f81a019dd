"""Homogenized quasicontinuum solvers for periodic multilattice chains.

Equilibria of one-dimensional atomistic chains with a p-periodic
microstructure are computed three ways: a full atomistic reference solve,
a homogenized solve whose effective law is obtained on the fly from local
cell problems, and a coarse-grained piecewise-affine solve with a
post-processing corrector that restores the atomistic-scale oscillation.
A posteriori indicators drive adaptive mesh refinement, and a 2D linear
spring lattice exercises the same homogenize/correct pipeline in two
dimensions.
"""

from .exceptions import ConfigError, DomainError, SolverFailure, StabilityError
from .lattice import LatticeFn, LatticeGrid, diff_r, seminorm
from .potentials import (
    PotentialFamily,
    ground_microstructure,
    lj_family,
    nn_dominance_margin,
    quadratic_family,
)
from .microhom import HomogenizedLaw
from .atomistic import (
    AtomisticProblem,
    EquilibriumSolution,
    solve_atomistic,
)
from .coarse import (
    CoarseFn,
    CoarseSolution,
    EquivalenceReport,
    ForceFunctional,
    Mesh1D,
    corrector,
    equivalence_check,
    istar,
    solve_coarse,
    solve_coarse_meshes,
    uniform_mesh,
)
from .estimator import (
    ErrorReport,
    adapt_mesh,
    estimate_constants,
    indicator_terms,
)
from .lattice2d import (
    Displacement2D,
    Homogenized2D,
    SpringModel2D,
    chi_analytic,
    exp_sin_force,
    gradient_error,
    homogenize2d,
    solve2d,
)
from .config import ExperimentConfig, build_config, load_experiment_config, parse_config
from .study import StudyRow, fit_slope, run_study, run_study_2d, write_rows_csv

__version__ = "0.1.0"
