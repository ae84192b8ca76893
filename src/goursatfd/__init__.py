"""Cell-marching spectral solver for nonlinear Goursat problems.

Solves u_xy + N(u) u = f on a rectangle with data on the coordinate axes by a
rank-m series of corrections: the rank-0 field freezes the multiplier N(u) at
each mesh cell's lower-left corner (making every cell a closed-form
constant-coefficient problem via the Riemann kernel), and each further rank
solves a linear correction problem whose source is assembled from Adomian
polynomials of the multiplier.  The error decays geometrically in the rank
with a ratio that shrinks as the mesh is refined.
"""

from .field import Grid, PiecewiseField, cheb_nodes, max_edge_jump
from .harness import (
    ErrorReport,
    ErrorRow,
    Preset,
    StudySpec,
    convergence_study,
    error_norm1,
    error_vs_exact,
    fd_solve,
    liouville_multiplier,
    liouville_problem,
    run_selftest,
)
from .kernels import KernelRangeError
from .series import Nonlinearity
from .solver import (
    FdExpansion,
    FdSolverError,
    GoursatProblem,
    residual_basic,
    residual_correction,
    solve_basic,
    solve_correction,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Grid", "PiecewiseField", "cheb_nodes", "max_edge_jump",
    "KernelRangeError", "Nonlinearity",
    "GoursatProblem", "FdExpansion", "FdSolverError", "solve_basic", "solve_correction",
    "residual_basic", "residual_correction",
    "Preset", "StudySpec", "ErrorRow", "ErrorReport", "fd_solve", "error_vs_exact",
    "error_norm1", "convergence_study", "liouville_problem",
    "liouville_multiplier", "run_selftest",
]
