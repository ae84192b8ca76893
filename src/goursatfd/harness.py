"""Full solves, error metrics, convergence sweeps, and method diagnostics.

This is the driving layer: it runs the basic solve plus corrections to a
requested rank, measures sup-norm errors against an exact solution on a
fixed, documented sample set, and sweeps meshes to produce convergence
tables.  It also houses the built-in benchmark problem and the selftest.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .field import (
    Grid,
    _sample_cells,
    bary_matrix,
    cheb_diff_matrix,
    unit_cheb_nodes,
)
from .kernels import KernelRangeError
from .series import Nonlinearity
from .solver import (
    FdExpansion,
    FdSolverError,
    GoursatProblem,
    _QUIET,
    _blocks,
    solve_basic,
    solve_correction,
)

__all__ = [
    "Preset",
    "StudySpec",
    "ErrorRow",
    "ErrorReport",
    "fd_solve",
    "error_vs_exact",
    "error_norm1",
    "convergence_study",
    "liouville_problem",
    "run_selftest",
    "PRESETS",
]

MAX_RANK = 16
P_RANGE = (4, 24)


# ---------------------------------------------------------------------------
# built-in problem

# the Taylor rows of N come from a backward recurrence, started this many
# orders above the highest row, for centers inside _BACKWARD_RANGE, and from
# the forward division outside it
_MILLER_START = 44
_BACKWARD_RANGE = (-5.0, 3.5)


@functools.lru_cache(maxsize=64)
def _exp2_rows(n: int) -> np.ndarray:
    # 2^j / j! for j = 0..n, each correctly rounded
    rows = np.array([2**j / math.factorial(j) for j in range(n + 1)])
    rows.setflags(write=False)
    return rows


def _liouville_value(t: np.ndarray) -> np.ndarray:
    # N(t) = -expm1(2t) / t, -2 at the removable singularity
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.expm1(2.0 * t) / t
    out[t == 0.0] = -2.0
    return out


def _liouville_taylor(center, order: int) -> np.ndarray:
    """Taylor rows a_j of N(u) = (1 - exp(2u)) / u around arbitrary centers.

    Row 0 is the closed form -expm1(2t)/t at every order, so `eval`, the
    corner rows and A_0(G) = t N(t) agree bit for bit.  The rows of G = uN =
    1 - e^(2u) are g_j = -e^(2t) 2^j / j! for j >= 1, and g_j = t a_j + a_(j-1)
    links the two.  For -5 < t < 3.5 the rows j >= 1 come from the backward
    recurrence a_(j-1) = g_j - t a_j, started at zero 44 orders above the
    highest row (Miller's algorithm; Gautschi, SIAM Review 9(1), 1967), whose
    truncation grows like (2|t|)^44 / 44!.  Elsewhere they come from the
    forward division a_j = (g_j - a_(j-1)) / t, which loses about a factor
    j/|2t| per order and so is accurate only there.  Against mpmath the rows
    through order 16 (`MAX_RANK`) stay within 4e-14 relative for t in
    [-5, 5] and 5e-15 for t in [-40, -5].
    """
    t = np.asarray(center, dtype=float)
    tf = t.reshape(-1)
    out = np.empty((order + 1, tf.size))
    out[0] = _liouville_value(tf)
    if order:
        coef = _exp2_rows(order + _MILLER_START)
        e = np.exp(2.0 * tf)
        back = (tf > _BACKWARD_RANGE[0]) & (tf < _BACKWARD_RANGE[1])
        # a_(j-1) = g_j - t a_j is -e^(2t) h_(j-1), h_(j-1) = 2^j / j! - t h_j
        tb, eb = -tf[back], -e[back]
        h = np.zeros_like(tb)
        rows = np.empty((order, tb.size))
        for j in range(coef.size - 1, 1, -1):
            h *= tb
            h += coef[j]
            if j <= order + 1:
                np.multiply(h, eb, out=rows[j - 2])
        out[1:, back] = rows
        fwd = ~back
        if fwd.any():
            tw, ew = tf[fwd], e[fwd]
            for j in range(1, order + 1):
                out[j, fwd] = (-coef[j] * ew - out[j - 1, fwd]) / tw
    return out.reshape((order + 1,) + t.shape)


def _liouville_term_adomian(v, n: int) -> np.ndarray:
    """A_n(G; v), n >= 1, of G(u) = 1 - e^(2u): -e^(2 v_0) E_n.

    E_j are the Taylor coefficients of exp(2 (v(tau) - v_0)), E_0 = 1 and
    j E_j = sum_{i=1}^{j} 2 i v_i E_(j-i), the recurrence of the exponential
    of a power series (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
    SIAM 2008, chapter 13): about n^2 / 2 row updates, and no row of G.
    """
    w = [np.multiply(v[i], 2.0 * i) for i in range(1, n + 1)]
    e = [None, w[0]]  # E_1..E_n; E_0 = 1 is never stored
    scratch = np.empty_like(w[0])
    for j in range(2, n + 1):
        acc = np.multiply(w[0], e[j - 1])
        for i in range(2, j):
            acc += np.multiply(w[i - 1], e[j - i], out=scratch)
        acc += w[j - 1]
        acc /= j
        e.append(acc)
    out = np.exp(np.multiply(v[0], 2.0), out=np.empty(np.shape(v[0])))
    out *= e[n]
    return np.negative(out, out=out)


def liouville_multiplier() -> Nonlinearity:
    """N(u) = (1 - exp(2u)) / u, the multiplier of u_xy = exp(2u)."""
    return Nonlinearity(_liouville_taylor, _liouville_term_adomian)


@dataclass(frozen=True)
class Preset:
    """A named problem plus its exact solution when one is known."""

    name: str
    problem: GoursatProblem
    exact: Callable[[float, float], float] | None = None


def _liouville_exact(x, y):
    """u(x, y) = (x + y)/2 - ln(e^x + e^y), as -d/2 - log1p(e^-d), d = |x - y|.

    The two forms are equal; this one forms no e^x and takes no logarithm
    of a sum, so it is accurate to an ulp or two of u.  It fills one output
    array and one scratch array; scalars give a scalar.
    """
    u = np.asarray(np.subtract(x, y, dtype=float))
    np.abs(u, out=u)
    t = np.negative(u, out=np.empty_like(u))
    np.exp(t, out=t)
    np.log1p(t, out=t)
    u *= -0.5
    u -= t
    return u[()]


def liouville_problem() -> Preset:
    """Liouville equation u_xy = exp(2u) on [0, 4]^2, rewritten as
    u_xy + N(u) u = 1 with N(u) = (1 - exp(2u)) / u.

    Boundary data and the exact solution are the classical logarithmic ones:
    u(x, y) = (x + y)/2 - ln(e^x + e^y), with psi(x) = u(x, 0) and
    phi(y) = u(0, y).
    """
    problem = GoursatProblem(
        X=4.0,
        Y=4.0,
        psi=lambda x: _liouville_exact(x, 0.0),
        phi=lambda y: _liouville_exact(0.0, y),
        f=lambda x, y: 1.0,
        nonlinearity=liouville_multiplier(),
    )
    return Preset("liouville", problem, _liouville_exact)


PRESETS = {
    "liouville": liouville_problem,
    "pr1": liouville_problem,  # historical alias
}


# ---------------------------------------------------------------------------
# solve driver and error metrics

# the error metrics also sample a uniform 5 x 5 lattice per cell, at these
# fractions of its sides
_LATTICE = np.linspace(0.0, 1.0, 5)


def fd_solve(problem: GoursatProblem, n1: int, n2: int, m: int, p: int) -> FdExpansion:
    """Basic solve plus corrections 1..m; partial sums give every lower rank.

    Records in `wall_ms` the cumulative time at which each rank completed.
    The solve holds the m + 1 fields it returns, N1 N2 P^2 doubles each,
    each correction having marched in its source's storage.  Beyond them it
    holds the temporaries of one source block, then a correction's series
    weights and N', (3 K + 1) / P^2 of a field for K kernel terms, built
    once the source is done, and the temporaries of one anti-diagonal,
    which grow at most with the mesh's side.  A caller that reads only the
    rank-m sum can add the corrections into u^(0)'s storage in place, in
    `partial_sum`'s order, and keep one field, as `solve` does.
    """
    if m < 0:
        raise ValueError(f"rank must be non-negative, got {m}")
    if m > MAX_RANK:
        raise ValueError(f"rank capped at {MAX_RANK}, got {m}")
    if not P_RANGE[0] <= p <= P_RANGE[1]:
        raise ValueError(f"cheb order must lie in {P_RANGE[0]}..{P_RANGE[1]}, got {p}")
    start = time.perf_counter()
    grid = Grid(problem.X, problem.Y, n1, n2)
    expansion = FdExpansion(problem, grid, p)
    u0 = solve_basic(problem, grid, p)
    expansion.corrections.append(u0)
    expansion.wall_ms.append(1000.0 * (time.perf_counter() - start))
    for k in range(1, m + 1):
        uk = solve_correction(expansion, k)
        expansion.corrections.append(uk)
        expansion.wall_ms.append(1000.0 * (time.perf_counter() - start))
    return expansion


def error_vs_exact(expansion: FdExpansion, exact, m: int) -> float:
    """Sup-norm error of the rank-m partial sum over the documented sample set."""
    return _rank_errors(expansion, exact, [m], norm1=False)[0][0]


def error_norm1(expansion: FdExpansion, exact, m: int) -> float:
    """Derivative-augmented sup norm of the rank-m error field.

    max of the plain sup norm and, cell by cell, the Euclidean combination of
    the sup norms of the two first derivatives (spectral, per cell).  The
    derivative amplifies rounding by about 2 P^2 / h, so values below about
    eps (2 P^2 / h) sup|u|, eps = 2^-52, carry only one or two digits.
    """
    return _rank_errors(expansion, exact, [m], delta=False)[0][1]


def _sup_abs(e: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> float:
    """max |e| over the samples (n, ...) of an error block of cells (ii, jj).

    No |e| temporary is formed.  A non-finite sup raises FdSolverError
    naming a cell where it fails, so the success path makes no extra pass.
    """
    sup = max(float(e.max()), -float(e.min()))
    if not math.isfinite(sup):
        n = np.argmin(np.isfinite(e).reshape(len(e), -1).all(axis=1))
        raise FdSolverError(f"cell ({ii[n]}, {jj[n]}): the error is not finite at a sample; "
                            "the exact solution must be finite on the whole domain")
    return sup


# points per block of the error pass, rounded down to whole cells.  Chosen by
# measurement (2-core Xeon, 2 MiB L2 per core): from 16 Ki to 128 Ki points the
# 8-rank pass of the 40x40, P = 12 study took 25-28 ms and error_vs_exact at
# 80x80, P = 16 took 19-21 ms, against 29 and 33 ms on the whole mesh.  The pass
# holds about five block-sized arrays at its peak, 1.3 MB at 32 Ki
_ERROR_BLOCK = 32768


def _rank_errors(expansion: FdExpansion, exact, ranks, delta: bool = True,
                 norm1: bool = True) -> list:
    """(delta, norm1_delta) of the partial sums of `ranks` (ascending), in one pass.

    The pass walks the cells in blocks, in flat (i, j) order.  A block samples
    `exact` on its tensor nodes and, for `delta` only, on a uniform 5 x 5
    lattice per cell, each point once; its running sum adds the corrections
    in the order `partial_sum` does, and each rank's sups fold into maxima
    over the blocks.  So no whole-mesh sample, sum or error is held, and the
    numbers are those of the whole mesh bit for bit.  A block's arrays are
    released before the next block samples: the pass holds about four
    block-sized arrays of doubles for one metric and five for both (1.3 MB
    at 32 Ki points).  `solve` passes a rank-0 expansion whose one field is
    the rank-m sum.  A metric not asked for reads nan.  A rank outside the
    stored ones raises ValueError, and an exact solution that is not finite
    at a sample FdSolverError naming its cell.
    """
    for m in (ranks[0], ranks[-1]):
        if not 0 <= m <= expansion.rank:
            raise ValueError(f"partial sum rank must be in 0..{expansion.rank}, got {m}")
    with np.errstate(**_QUIET):
        grid, p = expansion.grid, expansion.order
        s = unit_cheb_nodes(p)
        at_nodes, at_lattice = grid.cell_nodes(s), grid.cell_nodes(_LATTICE)
        diff, interp = cheb_diff_matrix(s), bary_matrix(_LATTICE, s)
        diff_t, interp_t = diff.T.copy(), interp.T.copy()
        fields = [u.values.reshape(-1, p, p) for u in expansion.corrections[:ranks[-1] + 1]]
        cells = np.arange(len(fields[0]))
        # per rank: the node, lattice and derivative sups
        sups = [[-math.inf] * 3 for _ in ranks]

        def fold(block):
            # one block's samples, sums and errors, all released on return
            ii, jj = np.divmod(cells[block], grid.N2)
            nodes = _sample_cells(exact, *at_nodes, ii, jj)
            if delta:
                lattice = _sample_cells(exact, *at_lattice, ii, jj)
            total = fields[0][block].copy()
            e, d = np.empty_like(total), np.empty_like(total) if norm1 else None
            done = 0
            for sup, m in zip(sups, ranks):
                for k in range(done + 1, m + 1):
                    total += fields[k][block]
                done = m
                sup[0] = max(sup[0], _sup_abs(np.subtract(total, nodes, out=e), ii, jj))
                if delta:
                    # (interp @ total) @ interp.T, the second product as one GEMM
                    u_lat = ((interp @ total).reshape(-1, p) @ interp_t).reshape(lattice.shape)
                    sup[1] = max(sup[1], _sup_abs(np.subtract(u_lat, lattice, out=u_lat), ii, jj))
                if norm1:
                    # rounding is monotone, so max|d| / h is max |d / h| bit for bit
                    np.matmul(diff, e, out=d)
                    sup_x = np.abs(d, out=d).max(axis=(1, 2)) / grid.h1
                    np.matmul(e.reshape(-1, p), diff_t, out=d.reshape(-1, p))
                    sup_y = np.abs(d, out=d).max(axis=(1, 2)) / grid.h2
                    sup[2] = max(sup[2], float(np.max(np.hypot(sup_x, sup_y))))

        for block in _blocks(len(cells), p, _ERROR_BLOCK):
            fold(block)
    return [(max(node, lat) if delta else math.nan, max(node, der) if norm1 else math.nan)
            for node, lat, der in sups]


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
    expansion = fd_solve(spec.problem, n1, n2, spec.max_rank, spec.p)
    grid = expansion.grid
    ranks = range(expansion.rank + 1)
    if spec.exact is not None:
        errors = _rank_errors(expansion, spec.exact, ranks)
    else:
        errors = [(math.nan, math.nan)] * len(ranks)
    return [ErrorRow(n1, n2, grid.h1, grid.h2, m, delta, norm1, wall, spec.p)
            for m, ((delta, norm1), wall) in enumerate(zip(errors, expansion.wall_ms))]


# ---------------------------------------------------------------------------
# selftest


def run_selftest():
    """Cheap checks of the pieces the solver runs; returns (passed, failed, lines), printing nothing.

    The kernel series, the moment stack, the Adomian compositions and the
    cell solve are reached through the solver's own module names, so the
    checks see what the march calls.
    """
    from . import solver

    checks = []

    def check(name, fn):
        checks.append((name, fn))

    rng = np.random.default_rng(20240817)

    def kernel_series():
        # 0F1(1; z) = I0(2 sqrt z) for z > 0; z0 puts 2 sqrt|z0| on the first zero of J0
        z = np.array([0.01, 0.5, 2.0, 10.0, 30.0])
        p = P_RANGE[1]
        terms = solver.series_terms(z, solver.series_length(float(z.max()), p))
        ok = np.all(np.abs(terms.sum(axis=1) / np.i0(2.0 * np.sqrt(z)) - 1.0) <= 1.0e-14)
        z0 = np.array([-1.4457964907366961])
        ok &= abs(solver.series_terms(z0, solver.series_length(-z0[0], p)).sum()) <= 1.0e-15
        return bool(ok)

    check("kernel series vs I0 and the first J0 zero", kernel_series)

    def moment_exactness():
        # A_0 integrates the cell interpolant over [0, sigma_t]: exact for degree < P
        for p in (4, 12, 24):
            eng = solver._engine(p)
            sigma, a0 = eng.sigma, eng.a[0]
            for j in range(p):
                if np.max(np.abs(a0 @ sigma**j - sigma ** (j + 1) / (j + 1))) > 1.0e-14:
                    return False
        return True

    check("moment matrix A_0 integrates sigma^j exactly", moment_exactness)

    def adomian_composition():
        # coefficient n of F(v(tau)) for a polynomial F is A_n(F; v); N composes
        # at the corners and G = u N, the polynomial [0, nu], at the points
        poly = np.polynomial.Polynomial
        for _ in range(40):
            nu = rng.uniform(-1, 1, size=rng.integers(1, 9))
            nl = Nonlinearity.from_series(nu)
            v = rng.uniform(-1, 1, size=rng.integers(1, 7))
            n = len(v)
            ref_n = np.pad(poly(nu)(poly(v)).coef, (0, n))[:n]
            ref_g = np.pad(poly(np.concatenate(([0.0], nu)))(poly(v)).coef, (0, n))[:n]
            # the tail's row 0 is never read, so v serves as the tail v - v_0
            comp = solver.compose(nl.taylor_at(v[0], n - 1), v)
            last = np.array([nl.term_adomian(v, k) for k in range(n)])
            if max(np.max(np.abs(comp - ref_n)), np.max(np.abs(last - ref_g))) > 1.0e-12:
                return False
        # the benchmark's G = 1 - e^(2u) by its recurrence, against the Horner
        # composition of G's closed-form rows -e^(2t) 2^j / j!
        one = np.eye(MAX_RANK, 1)
        v = rng.uniform(-1, 1, size=(MAX_RANK, 4)) - one
        rows = np.multiply.outer(-_exp2_rows(MAX_RANK - 1), np.exp(2.0 * v[0])) + one
        ref = solver.compose(rows, v)
        mine = np.array([liouville_multiplier().term_adomian(v, n) for n in range(MAX_RANK)])
        return bool(np.all(np.abs(mine - ref) <= 1.0e-12 * (1.0 + np.abs(ref))))

    check("adomian composition vs numpy polynomial composition", adomian_composition)

    def tiny_solve():
        # the residuals are 2.5e-10 (basic) and 2e-7 (corrections) on this mesh
        preset = liouville_problem()
        expansion = fd_solve(preset.problem, 8, 8, 3, 8)
        delta0 = error_vs_exact(expansion, preset.exact, 0)
        delta3 = error_vs_exact(expansion, preset.exact, 3)
        return (delta3 < 0.2 * delta0 < 1.0
                and solver.residual_basic(expansion).max() <= 1.0e-8
                and all(solver.residual_correction(expansion, k).max() <= 1.0e-5
                        for k in range(1, 4)))

    check("benchmark problem: rank 3 improves on rank 0, small residuals", tiny_solve)

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
    return passed, failed, lines
