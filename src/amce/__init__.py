"""Planar solver and verification harness for the fourth-order system

    U^ij w_ij = f   in Omega,      w = (det D^2 u)^(theta - 1),
    u = phi,  w = psi   on the boundary,

with ``U`` the cofactor matrix of ``D^2 u`` and ``theta`` in ``[0, 1/2)``.
The package provides cut-cell finite differences on convex domains, damped
Newton and frozen-coefficient linear solvers, an alternating outer
iteration for the coupled system, convex-section geometry diagnostics,
and an audit battery for the qualitative estimates the scheme is supposed
to inherit (minimum principles, sup bounds, Hölder moduli, section
localization).
"""

from .config import FieldSpec, RunConfig, canonical_json, load_config, parse_config
from .convergence import ConvergenceRow, ConvergenceStudy, convergence_study
from .coupled import (
    CoupledOptions,
    ProblemData,
    SolveReport,
    check_theta,
    g_from_w,
    problem_from_exact,
    solve_system,
)
from .errors import (
    AmceError,
    ConfigError,
    ConvexityFailureError,
    ConvexityViolationError,
    DegenerateOperatorError,
    DegenerateSectionError,
    EmptyGridError,
    IncompleteDataError,
    InvalidDomainError,
    InvalidProblemError,
    InvalidShearError,
    NonConvergenceError,
    NonConvexProfileError,
    TooCloseToBoundaryError,
)
from .fixtures import (
    ExactSolution,
    fixture_names,
    get_fixture,
    radial_solution,
    sheared_quadratic,
)
from .geometry import Disk, Domain, Ellipse, LevelSetDomain, build_domain
from .grid import Grid, ScalarField, build_grid
from .lma import (
    LMAProblem,
    LMAReport,
    assemble_lma,
    offdiagonal_sign_audit,
    solve_lma,
)
from .ma import MAProblem, MAReport, MASolveOptions, initial_guess, solve_ma
from .operators import (
    HessianField,
    discrete_gradient,
    discrete_hessian,
    grid_operators,
    local_quadratic_fit,
    solve_poisson,
    value_and_gradient_at,
)
from .regularity import (
    CheckResult,
    HolderFit,
    abp_exponent,
    boundary_holder_check,
    boundary_holder_fit,
    cell_areas,
    fit_holder_exponent,
    min_principle_check,
    verify,
)
from .sections import (
    EllipsoidFit,
    LocalizationScan,
    NormalizedSection,
    Section,
    SeparationReport,
    extract_section,
    fit_john_ellipsoid,
    localization_scan,
    maximal_height,
    mvee,
    normalize_section,
    quadratic_separation,
)

__version__ = "0.1.0"
