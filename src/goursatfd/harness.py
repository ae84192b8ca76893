"""Full solves, error metrics, convergence sweeps, and method diagnostics.

This is the driving layer: it runs the basic solve plus corrections to a
requested rank, measures sup-norm errors against an exact solution on a
fixed, documented sample set, and sweeps meshes to produce convergence
tables.  It also houses the built-in benchmark problem and the two-index
linear recurrence used to sanity-check the method's a-priori bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .field import (
    Grid,
    _sample_2d,
    _sample_grid,
    bary_matrix,
    cheb_diff_matrix,
    corner_table,
    unit_cheb_nodes,
)
from .kernels import KernelRangeError
from .series import Nonlinearity
from .solver import FdExpansion, FdSolverError, GoursatProblem, solve_basic, solve_correction

__all__ = [
    "Preset",
    "StudySpec",
    "ErrorRow",
    "ErrorReport",
    "fd_solve",
    "error_vs_exact",
    "error_norm1",
    "convergence_study",
    "mu_recurrence",
    "mu_explicit",
    "mu_bound_check",
    "characteristic_transform",
    "liouville_problem",
    "run_selftest",
    "PRESETS",
]

MAX_RANK = 16
P_RANGE = (4, 24)


# ---------------------------------------------------------------------------
# built-in problem

_NU_TERMS = 60


def _liouville_nu(count: int = _NU_TERMS) -> np.ndarray:
    # nu_k = -2^(k+1) / (k+1)!
    nu = np.empty(count)
    fact = 1.0
    for k in range(count):
        fact *= k + 1
        nu[k] = -(2.0 ** (k + 1)) / fact
    return nu


_LIOUVILLE_NU = _liouville_nu()
_SERIES_BRANCH = 0.5


def _liouville_taylor(center, order: int) -> np.ndarray:
    """Taylor rows of N(u) = (1 - exp(2u)) / u around arbitrary centers.

    Away from zero the coefficients follow from dividing the shifted
    exponential series by (t + w); the division recurrence loses roughly a
    factor 1/|t| per order, so below |t| = 0.5 the globally convergent
    re-expansion of the power series is used instead, which also covers the
    removable singularity at t = 0.
    """
    t = np.asarray(center, dtype=float)
    tf = t.reshape(-1)
    out = np.empty((order + 1, tf.size))
    near = np.abs(tf) < _SERIES_BRANCH
    if np.any(near):
        out[:, near] = _series_taylor(tf[near], order)
    if np.any(~near):
        out[:, ~near] = _shifted_exp_taylor(tf[~near], order)
    return out.reshape((order + 1,) + t.shape)


def _series_taylor(t: np.ndarray, order: int) -> np.ndarray:
    # a_k = sum_j nu_{k+j} C(k+j, k) t^j, truncated when terms vanish
    nu = _LIOUVILLE_NU
    out = np.zeros((order + 1, t.size))
    for k in range(order + 1):
        binom = 1.0
        acc = np.full(t.size, nu[k]) if k < len(nu) else np.zeros(t.size)
        tp = np.ones(t.size)
        for j in range(1, len(nu) - k):
            binom *= (k + j) / j
            tp = tp * t
            term = nu[k + j] * binom * tp
            acc += term
            if np.max(np.abs(term)) < 1.0e-18 * max(1.0, np.max(np.abs(acc))):
                break
        out[k] = acc
    return out


def _shifted_exp_taylor(t: np.ndarray, order: int) -> np.ndarray:
    # (t + w) N(t + w) = 1 - e^{2t} e^{2w}; match coefficients of w^k
    e = np.exp(2.0 * t)
    a = np.empty((order + 1, t.size))
    a[0] = (1.0 - e) / t
    fact = 1.0
    pow2 = 1.0
    for k in range(1, order + 1):
        fact *= k
        pow2 *= 2.0
        bk = -e * pow2 / fact
        a[k] = (bk - a[k - 1]) / t
    return a


def liouville_multiplier() -> Nonlinearity:
    """N(u) = (1 - exp(2u)) / u, the multiplier of u_xy = exp(2u)."""
    return Nonlinearity(_LIOUVILLE_NU, taylor_fn=_liouville_taylor, name="liouville")


@dataclass(frozen=True)
class Preset:
    """A named problem plus its exact solution when one is known."""

    name: str
    problem: GoursatProblem
    exact: Callable[[float, float], float] | None = None


def liouville_problem() -> Preset:
    """Liouville equation u_xy = exp(2u) on [0, 4]^2, rewritten as
    u_xy + N(u) u = 1 with N(u) = (1 - exp(2u)) / u.

    Boundary data and the exact solution are the classical logarithmic ones:
    u(x, y) = (x + y)/2 - ln(e^x + e^y).
    """
    problem = GoursatProblem(
        X=4.0,
        Y=4.0,
        psi=lambda x: 0.5 * x - np.logaddexp(0.0, x),
        phi=lambda y: 0.5 * y - np.logaddexp(0.0, y),
        f=lambda x, y: 1.0,
        nonlinearity=liouville_multiplier(),
    )
    exact = lambda x, y: 0.5 * (x + y) - np.logaddexp(x, y)
    return Preset("liouville", problem, exact)


PRESETS = {
    "liouville": liouville_problem,
    "pr1": liouville_problem,  # historical alias
}


# ---------------------------------------------------------------------------
# solve driver and error metrics


def fd_solve(problem: GoursatProblem, n1: int, n2: int, m: int, p: int) -> FdExpansion:
    """Basic solve plus corrections 1..m; partial sums give every lower rank."""
    if m < 0:
        raise ValueError(f"rank must be non-negative, got {m}")
    if m > MAX_RANK:
        raise ValueError(f"rank capped at {MAX_RANK}, got {m}")
    if not P_RANGE[0] <= p <= P_RANGE[1]:
        raise ValueError(f"cheb order must lie in {P_RANGE[0]}..{P_RANGE[1]}, got {p}")
    grid = Grid(problem.X, problem.Y, n1, n2)
    expansion = FdExpansion(problem, grid, p)
    u0, table0, coeffs = solve_basic(problem, grid, p)
    expansion.corrections.append(u0)
    expansion.corner_tables.append(table0)
    expansion.cell_coeffs = coeffs
    for k in range(1, m + 1):
        uk = solve_correction(expansion, k)
        expansion.corrections.append(uk)
        expansion.corner_tables.append(corner_table(uk))
    return expansion


def _exact_on_fractions(exact, grid: Grid, fracs: np.ndarray) -> np.ndarray:
    """Exact values on every cell at fixed local fractions of the cell.

    One call on broadcast (N1, N2, F, F) coordinates when `exact` takes
    arrays; cell by cell otherwise.
    """
    nx = grid.x_nodes[:-1, None] + grid.h1 * fracs[None, :]
    ny = grid.y_nodes[:-1, None] + grid.h2 * fracs[None, :]
    out = _sample_grid(exact, nx[:, None, :, None], ny[None, :, None, :])
    if out is not None:
        return out
    out = np.empty((grid.N1, grid.N2, len(fracs), len(fracs)))
    for i in range(grid.N1):
        for j in range(grid.N2):
            out[i, j] = _sample_2d(exact, nx[i], ny[j])
    return out


def _eval_on_fractions(values: np.ndarray, p: int, fracs: np.ndarray) -> np.ndarray:
    """Interpolate per-cell tensors to fixed local fractions (same map per cell)."""
    s = unit_cheb_nodes(p)
    mat = bary_matrix(fracs, s)
    return np.einsum("ap,ijpm,bm->ijab", mat, values, mat, optimize=True)


def error_vs_exact(expansion: FdExpansion, exact, m: int, refine: int = 5) -> float:
    """Sup-norm error of the rank-m partial sum over the documented sample set."""
    if not 0 <= m <= expansion.rank:
        raise ValueError(f"rank {m} not in stored range 0..{expansion.rank}")
    grid, p = expansion.grid, expansion.order
    exact_nodes = _exact_on_fractions(exact, grid, unit_cheb_nodes(p))
    total = expansion.partial_sum(m).values
    err_ref = 0.0
    if refine > 1:
        r = np.linspace(0.0, 1.0, refine)
        exact_ref = _exact_on_fractions(exact, grid, r)
        approx_ref = _eval_on_fractions(total, p, r)
        err_ref = float(np.max(np.abs(approx_ref - exact_ref)))
    total -= exact_nodes  # in place: on the largest meshes this is the peak memory
    return max(float(np.max(np.abs(total, out=total))), err_ref)


def error_norm1(expansion: FdExpansion, exact, m: int) -> float:
    """Derivative-augmented sup norm of the rank-m error field.

    max of the plain sup norm and, cell by cell, the Euclidean combination of
    the sup norms of the two first derivatives (spectral, per cell).
    """
    grid, p = expansion.grid, expansion.order
    total = expansion.partial_sum(m).values
    s = unit_cheb_nodes(p)
    e = total - _exact_on_fractions(exact, grid, s)
    d01 = cheb_diff_matrix(s)
    ex = np.einsum("tp,ijpm->ijtm", d01, e) / grid.h1
    ey = np.einsum("um,ijpm->ijpu", d01, e) / grid.h2
    sup = float(np.max(np.abs(e)))
    sup_x = np.max(np.abs(ex), axis=(2, 3))
    sup_y = np.max(np.abs(ey), axis=(2, 3))
    return max(sup, float(np.max(np.hypot(sup_x, sup_y))))


# ---------------------------------------------------------------------------
# convergence study


@dataclass(frozen=True)
class StudySpec:
    """Sweep layout: meshes x ranks at one Chebyshev order."""

    problem: GoursatProblem
    exact: Callable[[float, float], float] | None
    meshes: tuple
    max_rank: int
    p: int = 12
    refine: int = 5

    def __post_init__(self):
        if self.max_rank < 0 or self.max_rank > MAX_RANK:
            raise ValueError(f"max rank must lie in 0..{MAX_RANK}, got {self.max_rank}")
        for n1, n2 in self.meshes:
            if n1 < 1 or n2 < 1:
                raise ValueError(f"mesh entries must be positive, got ({n1}, {n2})")
        if not P_RANGE[0] <= self.p <= P_RANGE[1]:
            raise ValueError(f"cheb order must lie in {P_RANGE[0]}..{P_RANGE[1]}, got {self.p}")


@dataclass(frozen=True)
class ErrorRow:
    n1: int
    n2: int
    h1: float
    h2: float
    m: int
    delta: float
    norm1_delta: float
    wall_ms: float
    p_order: int


@dataclass
class ErrorReport:
    rows: list = dc_field(default_factory=list)
    failures: list = dc_field(default_factory=list)


def convergence_study(spec: StudySpec) -> ErrorReport:
    """One row per (mesh, rank); failed meshes are recorded and skipped."""
    report = ErrorReport()
    for n1, n2 in spec.meshes:
        try:
            report.rows.extend(_study_mesh(spec, n1, n2))
        except (FdSolverError, KernelRangeError) as exc:
            report.failures.append((n1, n2, f"{type(exc).__name__}: {exc}"))
    return report


def _study_mesh(spec: StudySpec, n1: int, n2: int):
    problem = spec.problem
    grid_h1 = problem.X / n1
    grid_h2 = problem.Y / n2
    start = time.perf_counter()
    expansion = fd_solve(problem, n1, n2, 0, spec.p)
    walls = [1000.0 * (time.perf_counter() - start)]
    for k in range(1, spec.max_rank + 1):
        uk = solve_correction(expansion, k)
        expansion.corrections.append(uk)
        expansion.corner_tables.append(corner_table(uk))
        walls.append(1000.0 * (time.perf_counter() - start))
    rows = []
    for m in range(spec.max_rank + 1):
        if spec.exact is not None:
            delta = error_vs_exact(expansion, spec.exact, m, spec.refine)
            norm1 = error_norm1(expansion, spec.exact, m)
        else:
            delta = math.nan
            norm1 = math.nan
        rows.append(ErrorRow(n1, n2, grid_h1, grid_h2, m, delta, norm1, walls[m], spec.p))
    return rows


# ---------------------------------------------------------------------------
# two-index recurrence diagnostics


def mu_recurrence(a: float, b: float, c: float, n1: int, n2: int) -> np.ndarray:
    """mu_{i,j} = a mu_{i-1,j} + b mu_{i,j-1} + c with zero first row/column."""
    mu = np.zeros((n1 + 1, n2 + 1))
    for i in range(1, n1 + 1):
        for j in range(1, n2 + 1):
            mu[i, j] = a * mu[i - 1, j] + b * mu[i, j - 1] + c
    return mu


def mu_explicit(a: float, b: float, c: float, i: int, j: int) -> float:
    """Closed form c * sum_{k<j} sum_{p<i} C(k+p, k) a^p b^k.

    Binomial factors grow multiplicatively along each row, so no factorial
    is ever materialized.
    """
    if i < 0 or j < 0:
        raise ValueError(f"indices must be non-negative, got ({i}, {j})")
    if i == 0 or j == 0:
        return 0.0
    total = 0.0
    for k in range(j):
        binom = 1.0  # C(k+p, k) at p = 0
        apow = 1.0
        row = 0.0
        for p in range(i):
            if p > 0:
                binom *= (k + p) / p
                apow *= a
            row += binom * apow
        total += row * b**k
    return c * total


def mu_bound_check(a1: float, b1: float, c1: float, h: float,
                   X: float, Y: float, n1: int, n2: int) -> bool:
    """Check max mu <= h X c1 exp((X+Y) b1 + X a1) for the scaled recurrence.

    Requires the mesh anisotropy precondition h1 <= h2.
    """
    h1 = X / n1
    h2 = Y / n2
    if h1 > h2:
        raise ValueError(f"precondition h1 <= h2 violated: h1={h1}, h2={h2}")
    a = 1.0 + h1 * a1
    b = h1 * b1
    c = h1 * h * c1
    mu = mu_recurrence(a, b, c, n1, n2)
    bound = h * X * c1 * math.exp((X + Y) * b1 + X * a1)
    return bool(np.max(mu) <= bound)


def characteristic_transform(source: Callable[[float, float], float]) -> Callable:
    """Rewrite a wave-form source Phi(t, xi) in characteristic variables.

    Returns f(x, y) = Phi(x - y, x + y), the argument order being exactly the
    substitution t = x - y, xi = x + y.  Note the sign bookkeeping: under this
    substitution the wave operator v_tt - v_xixi maps to MINUS the mixed
    derivative u_xy (times 1), so callers moving a full equation between the
    two forms must reconcile signs themselves.
    """
    return lambda x, y: source(x - y, x + y)


# ---------------------------------------------------------------------------
# selftest


def run_selftest(tol: float = 1.0e-10, verbose: bool = True):
    """Cheap cross-module property checks; returns (passed, failed, lines)."""
    from . import kernels, series, solver
    from .field import integrate_1d, integrate_2d

    checks = []

    def check(name, fn):
        checks.append((name, fn))

    rng = np.random.default_rng(20240817)

    def adomian_oracle():
        for _ in range(40):
            nl = series.Nonlinearity.from_series(rng.uniform(-1, 1, size=rng.integers(1, 9)))
            v = series.TruncatedSeries(rng.uniform(-1, 1, size=rng.integers(1, 7)))
            comp = series.series_compose_nonlinearity(nl, v)
            for n in range(v.order + 1):
                ref = series.adomian_partition(nl, v.coeffs[: n + 1])
                if abs(comp.coeffs[n] - ref) > 1.0e-12:
                    return False
        return True

    check("adomian composition vs partition sum", adomian_oracle)

    def kernel_derivatives():
        for _ in range(30):
            k = kernels.RiemannKernel(float(rng.uniform(-10, 10)))
            xi, eta, x, y = rng.uniform(0, 1, size=4)
            step = 1.0e-6
            fd1 = (kernels.riemann(k, xi + step, eta, x, y) - kernels.riemann(k, xi - step, eta, x, y)) / (2 * step)
            fd2 = (kernels.riemann(k, xi, eta + step, x, y) - kernels.riemann(k, xi, eta - step, x, y)) / (2 * step)
            if abs(fd1 - kernels.riemann_d1(k, xi, eta, x, y)) > 1.0e-7:
                return False
            if abs(fd2 - kernels.riemann_d2(k, xi, eta, x, y)) > 1.0e-7:
                return False
        return True

    check("riemann kernel derivative consistency", kernel_derivatives)

    def quadrature_exactness():
        ok = abs(integrate_1d(lambda x: 1.0, 0.0, 1.0, 6) - 1.0) < 1.0e-14
        ok &= integrate_1d(lambda x: x**2, 2.0, 2.0, 6) == 0.0
        ok &= abs(integrate_2d(lambda x, y: x * y, (0, 1, 0, 1), 6) - 0.25) < 1.0e-14
        return bool(ok)

    check("clenshaw-curtis exactness", quadrature_exactness)

    def cell_cross_oracle():
        p = 10
        s = unit_cheb_nodes(p)
        for _ in range(8):
            c = float(rng.uniform(-5, 5))
            h1, h2 = rng.uniform(0.05, 0.25, size=2)
            bot = np.polynomial.polynomial.polyval(h1 * s, rng.normal(size=5))
            left = np.polynomial.polynomial.polyval(h2 * s, rng.normal(size=5))
            left = left - left[0] + bot[0]
            rect = (0.0, h1, 0.0, h2)
            rhs = lambda x, y: np.sin(x + 2 * y)
            a = solver.solve_cell_linear(c, left, bot, float(bot[0]), rhs, rect, p)
            b = solver.picard_cell_oracle(c, left, bot, float(bot[0]), rhs, rect, p, tol=min(tol, 1e-13))
            if np.max(np.abs(a - b)) > 1.0e-10:
                return False
        return True

    check("cell solver vs picard oracle", cell_cross_oracle)

    def mu_equivalence():
        for _ in range(10):
            a, b, c = rng.uniform(0, 2, size=3)
            n1, n2 = rng.integers(1, 12, size=2)
            mu = mu_recurrence(a, b, c, int(n1), int(n2))
            ref = mu_explicit(a, b, c, int(n1), int(n2))
            if abs(mu[n1, n2] - ref) > 1.0e-10 * (1.0 + abs(ref)):
                return False
        return True

    check("mu recurrence vs explicit formula", mu_equivalence)

    def tiny_solve():
        preset = liouville_problem()
        expansion = fd_solve(preset.problem, 8, 8, 3, 8)
        delta0 = error_vs_exact(expansion, preset.exact, 0)
        delta3 = error_vs_exact(expansion, preset.exact, 3)
        return delta3 < 0.2 * delta0 < 1.0

    check("benchmark problem rank-3 improves on rank-0", tiny_solve)

    passed = failed = 0
    lines = []
    for name, fn in checks:
        try:
            ok = bool(fn())
        except Exception as exc:
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        lines.append(("ok   " if ok else "FAIL ") + name)
        if ok:
            passed += 1
        else:
            failed += 1
    lines.append(f"selftest: {passed} passed, {failed} failed")
    if verbose:
        for line in lines:
            print(line)
    return passed, failed, lines
