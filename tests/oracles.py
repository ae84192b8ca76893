"""Reference implementations that the solver does not run, kept as test oracles.

- `hyp0f1` and the pointwise Riemann kernel `riemann`, `riemann_d1`,
  `riemann_d2`: scalar 0F1 summation, against which the batched moment
  solve and the kernel identities are checked;
- `integrate_1d`, `integrate_2d`: Clenshaw-Curtis quadrature of callables;
- `cell_rect`, `locate`, `evaluate_in_cell`, `sample_field`: one cell at a
  time, a cell's rectangle, the owning cell of one point by floor division,
  barycentric evaluation on the named cell's `cheb_nodes`, and a callable
  sampled onto a field, against which the vectorised
  `PiecewiseField.evaluate` is checked;
- `solve_cell_linear`: one constant-coefficient cell through the production
  batch solve `solver._solve_cells` and its `solver._kernel_weights`, and
  `picard_cell_oracle`, the same cell by Picard iteration on the integral
  form;
- `adomian_partition`: Adomian polynomials by enumeration of the defining
  partition sum, independent of every composition;
- `liouville_term_taylor`: the closed-form Taylor rows of the benchmark's
  G(u) = u N(u) = 1 - e^(2u), which a composition turned into A_n(G)
  before the exponential recurrence replaced it;
- `compose_with_tail`: every coefficient A_0..A_K of a composition by the
  partial Bell triangle, plain loops that import nothing from `series`,
  against which the production Horner composition `series.compose` is
  checked;
- `TruncatedSeries`, `series_compose_nonlinearity`: Adomian polynomials of
  one scalar series through `compose_with_tail`;
- `sine_gordon_problem`: the sine-Gordon kink 4 arctan(exp(x + y - 2)) on
  [0, 2]^2, a second exact solution, with N(u) = -sin(u) / u given by its
  two functions, `taylor_fn` (a backward recurrence) and `term_adomian_fn`
  (the paired sin/cos recurrence), checked against mpmath, its Maclaurin
  coefficients `SINE_GORDON_NU` and the partition sum;
- `correction_rhs`: the rank-k Adomian source F^(k) at one point of one
  cell, through the production assembly;
- `correction_source`: the whole rank-k cell source, corner term included,
  gathered from the march's whole-mesh F^(k);
- `solve_correction_per_wavefront`: a rank-k correction whose anti-diagonals
  take their own series weights, and so their own term counts, against
  which the march's mesh-wide weights are checked;
- `_ExactSamples`: an exact solution sampled on the whole mesh at once, and
  `delta` and `norm1_delta` of a whole partial-sum field from it, against
  which the blocked error pass of the harness is checked bit for bit;
- `eval_expression`: a problem-file expression evaluated by Python's own
  `eval` of the checked tree, against which the straight-line compiled
  expressions of `cli.compile_expression` are checked bit for bit;
- `cli_poly_text`: the problem file of the benchmark's cli-poly workload for
  one seed, from `perfbench/workloads.py`;
- `mu_recurrence`, `mu_explicit`, `mu_bound_check`: the two-index
  recurrence of the method's a-priori error bound, its closed form and the
  bound itself.
"""

from __future__ import annotations

import ast
import importlib
import math
import sys
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable

import numpy as np

from goursatfd import cli, solver
from goursatfd.field import (
    FdSolverError,
    Grid,
    PiecewiseField,
    _sample_cells,
    bary_matrix,
    cheb_diff_matrix,
    cheb_nodes,
    unit_cc_weights,
    unit_cheb_nodes,
)
from goursatfd.harness import Preset, liouville_multiplier
from goursatfd.kernels import KernelRangeError
from goursatfd.series import Nonlinearity
from goursatfd.solver import FdExpansion, _adomian_source, _corner_weights


# ---------------------------------------------------------------------------
# Riemann kernel by scalar series summation

# the oracle's own range and term cap, independent of the solver's
Z_MAX = 1.0e4
MAX_TERMS = 500


def hyp0f1(b: float, z: float) -> float:
    """Confluent limit function 0F1(b; z) by direct series summation.

    Terms follow t_{k+1} = t_k * z / ((b + k) * (k + 1)); summation stops when
    |t_k| drops below 1e-17 of the largest partial-sum magnitude seen, or
    after 500 terms.  Arguments with |z| > 1e4 are rejected.
    """
    if b <= 0:
        raise ValueError(f"lower parameter must be positive, got b={b}")
    if abs(z) > Z_MAX:
        raise KernelRangeError(f"|z| = {abs(z):.3g} exceeds {Z_MAX:.0g}; refine the mesh")
    total = 1.0
    term = 1.0
    peak = 1.0
    for k in range(MAX_TERMS):
        term *= z / ((b + k) * (k + 1))
        total += term
        peak = max(peak, abs(total))
        if abs(term) <= 1.0e-17 * peak:
            break
    return total


@dataclass(frozen=True)
class RiemannKernel:
    """Riemann function of u_xy + c*u with the signed cell coefficient c.

    R is normalized to 1 when the two argument pairs coincide.
    """

    c: float


def riemann(kernel: RiemannKernel, xi: float, eta: float, x: float, y: float) -> float:
    """R(xi, eta; x, y) = 0F1(1; -c*(xi - x)*(eta - y))."""
    return hyp0f1(1.0, -kernel.c * (xi - x) * (eta - y))


def riemann_d1(kernel: RiemannKernel, xi: float, eta: float, x: float, y: float) -> float:
    """Partial derivative of `riemann` in its first slot xi."""
    z = -kernel.c * (xi - x) * (eta - y)
    return hyp0f1(2.0, z) * kernel.c * (y - eta)


def riemann_d2(kernel: RiemannKernel, xi: float, eta: float, x: float, y: float) -> float:
    """Partial derivative of `riemann` in its second slot eta."""
    z = -kernel.c * (xi - x) * (eta - y)
    return hyp0f1(2.0, z) * kernel.c * (x - xi)


# ---------------------------------------------------------------------------
# Clenshaw-Curtis quadrature of callables


def integrate_1d(g: Callable[[float], float], a: float, b: float, p: int) -> float:
    """Clenshaw-Curtis quadrature of g over [a, b] with P nodes.

    A degenerate interval (a == b) integrates to exactly 0.
    """
    if a > b:
        raise ValueError(f"interval endpoints must satisfy a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    x = cheb_nodes(p, a, b)
    w = (b - a) * unit_cc_weights(p)
    return float(sum(wi * g(xi) for wi, xi in zip(w, x)))


def integrate_2d(g: Callable[[float, float], float], rect, p: int) -> float:
    """Tensorized Clenshaw-Curtis quadrature of g(x, y) over a rectangle.

    `rect` is (x0, x1, y0, y1); degenerate extents integrate to exactly 0.
    """
    x0, x1, y0, y1 = rect
    if x0 > x1 or y0 > y1:
        raise ValueError(f"degenerate rectangle must have x0 <= x1, y0 <= y1: {rect}")
    if x0 == x1 or y0 == y1:
        return 0.0
    xs = cheb_nodes(p, x0, x1)
    ys = cheb_nodes(p, y0, y1)
    wx = (x1 - x0) * unit_cc_weights(p)
    wy = (y1 - y0) * unit_cc_weights(p)
    vals = np.array([[g(x, y) for y in ys] for x in xs], dtype=float)
    return float(wx @ vals @ wy)


# ---------------------------------------------------------------------------
# one cell at a time: rectangles, point location, evaluation and sampling


def cell_rect(grid: Grid, i: int, j: int):
    """Closed cell (i, j), 0-based: [x_i, x_{i+1}] x [y_j, y_{j+1}]."""
    x, y = grid.x_nodes, grid.y_nodes
    return (x[i], x[i + 1], y[j], y[j + 1])


def locate(grid: Grid, x: float, y: float):
    """Owning cell of a point; edge points belong to the lower-index cell."""
    if not (0.0 <= x <= grid.X and 0.0 <= y <= grid.Y):
        raise ValueError(f"point ({x}, {y}) outside domain [0, {grid.X}] x [0, {grid.Y}]")
    return (_locate_1d(x, grid.h1, grid.N1), _locate_1d(y, grid.h2, grid.N2))


def _locate_1d(v: float, h: float, n: int) -> int:
    i = int(np.floor(v / h))
    i = min(max(i, 0), n - 1)
    if i > 0 and v <= i * h:
        i -= 1
    elif i < n - 1 and v > (i + 1) * h:
        i += 1
    return i


def evaluate_in_cell(field: PiecewiseField, i: int, j: int, x: float, y: float) -> float:
    """Barycentric tensor interpolation at (x, y) using cell (i, j)'s data."""
    x0, x1, y0, y1 = cell_rect(field.grid, i, j)
    p = field.order
    mx = bary_matrix([x], cheb_nodes(p, x0, x1))[0]
    my = bary_matrix([y], cheb_nodes(p, y0, y1))[0]
    return float(mx @ field.values[i, j] @ my)


def sample_field(grid: Grid, p: int, fn: Callable[[float, float], float]) -> PiecewiseField:
    """A callable sampled on every cell's tensor nodes."""
    return PiecewiseField(grid, _sample_cells(fn, *grid.cell_nodes(unit_cheb_nodes(p))))


# ---------------------------------------------------------------------------
# one constant-coefficient cell: the production solve and a Picard iteration


def _trace_values(trace, p: int) -> np.ndarray:
    values = np.asarray(trace, dtype=float)
    if values.shape != (p,):
        raise ValueError(f"trace must carry {p} CGL samples, got shape {values.shape}")
    return values


def _cell_inputs(left_trace, bottom_trace, corner_value: float, rhs, rect, p: int):
    """Checked inputs of a one-cell solve: (left, bottom, rhs samples, h1, h2).

    The rectangle must be non-degenerate, each trace must hold P samples and
    both traces must start at the corner value; rhs is sampled on the cell's
    tensor nodes.
    """
    x0, x1, y0, y1 = rect
    if not (x0 < x1 and y0 < y1):
        raise ValueError(f"degenerate cell rectangle {rect}")
    left, bottom = _trace_values(left_trace, p), _trace_values(bottom_trace, p)
    corner = float(corner_value)
    tol = solver.TRACE_MATCH_TOL * (1.0 + abs(corner))
    # written so that a NaN anywhere fails
    if not (abs(left[0] - corner) <= tol and abs(bottom[0] - corner) <= tol):
        raise ValueError(f"edge traces disagree with the corner value: left[0]={left[0]!r}, "
                         f"bottom[0]={bottom[0]!r}, corner={corner!r}")
    rhs_vals = _sample_cells(rhs, cheb_nodes(p, x0, x1)[None], cheb_nodes(p, y0, y1)[None])
    return left, bottom, rhs_vals[0, 0], x1 - x0, y1 - y0


def solve_cell_linear(c: float, left_trace, bottom_trace, corner_value: float,
                      rhs: Callable[[float, float], float], rect, p: int) -> np.ndarray:
    """Solve u_xy + c*u = rhs on one cell from its left/bottom traces.

    Traces are arrays of P CGL samples on the cell sides; the result is the
    P x P tensor on the cell nodes, whose left and bottom edges reproduce the
    traces.  Raises KernelRangeError when |c| h1 h2 exceeds
    `kernels.zeta_limit(p)`.
    """
    left, bottom, rhs_vals, h1, h2 = _cell_inputs(left_trace, bottom_trace, corner_value,
                                                  rhs, rect, p)
    zero = np.zeros(1, dtype=int)
    weights = solver._kernel_weights(Grid(h1, h2, 1, 1), p, np.array([float(c)]), zero, zero)
    return solver._solve_cells(solver._engine(p), weights, left[None], bottom[None],
                               rhs_vals[None])[0]


def picard_cell_oracle(c: float, left_trace, bottom_trace, corner_value: float,
                       rhs: Callable[[float, float], float], rect, p: int,
                       tol: float = 1.0e-13, max_iter: int = 100) -> np.ndarray:
    """Independent cell solution by Picard iteration on the integral form.

    Iterates u <- B + int int (rhs - c*u) over [x0, x] x [y0, y], where B is
    the boundary combination left(y) + bottom(x) - corner.  The iteration
    contracts only when |c| * h1 * h2 < 1; larger cells are rejected.  Shares
    no code with the Riemann representation path except the input checks and
    interpolation plumbing.
    """
    left, bottom, rhs_vals, h1, h2 = _cell_inputs(left_trace, bottom_trace, corner_value,
                                                  rhs, rect, p)
    if abs(c) * h1 * h2 >= 1.0:
        raise ValueError(f"no contraction: |c|*h1*h2 = {abs(c) * h1 * h2:.3g} >= 1")
    eng = solver._engine(p)
    wflat = eng.W.reshape(p * p, p)
    boundary = bottom[:, None] + left[None, :] - corner_value
    ws1 = h1 * eng.WSUB
    ws2 = h2 * eng.WSUB
    u = np.zeros((p, p))
    for _ in range(max_iter):
        w = rhs_vals - c * u
        wq = (wflat @ w @ wflat.T).reshape(p, p, p, p)
        wq *= ws1[:, :, None, None]
        wq *= ws2[None, None, :, :]
        new = boundary + wq.sum(axis=(1, 3))
        change = float(np.max(np.abs(new - u)))
        u = new
        if change <= tol:
            return u
    raise FdSolverError(f"picard iteration did not reach {tol:.1e} in {max_iter} steps")


# ---------------------------------------------------------------------------
# Adomian polynomials by the partition sum


PARTITION_ORDER_CAP = 10


def adomian_partition(nl: Nonlinearity, v) -> float:
    """A_n(N; v_0..v_n) by direct enumeration of the defining partition sum.

    The sum runs over integer tuples alpha_1 >= ... >= alpha_n >= alpha_{n+1} = 0
    with alpha_1 + ... + alpha_n = n; each contributes
    N^(alpha_1)(v_0) * prod_i v_i^(alpha_i - alpha_{i+1}) / (alpha_i - alpha_{i+1})!.
    Kept deliberately independent of the composition path; n is capped at 10
    because enumeration is the point, not speed.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = len(v) - 1
    if n > PARTITION_ORDER_CAP:
        raise ValueError(f"partition enumeration supports n <= {PARTITION_ORDER_CAP}, got n={n}")
    if n == 0:
        return float(nl.eval(v[0]))
    taylor = nl.taylor_at(float(v[0]), n)
    total = 0.0
    for parts in _partitions(n, n):
        alphas = list(parts) + [0] * (n + 1 - len(parts))
        a1 = alphas[0]
        term = taylor[a1] * factorial(a1)
        for i in range(n):
            d = alphas[i] - alphas[i + 1]
            if d:
                term *= v[i + 1] ** d / factorial(d)
        total += term
    return float(total)


def _partitions(n: int, max_part: int):
    # Non-increasing positive integer tuples summing to n, parts <= max_part.
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def liouville_term_taylor(center, order: int) -> np.ndarray:
    """Taylor rows g_0..g_order of G(u) = 1 - e^(2u) around `center`.

    g_j = -e^(2t) 2^j / j! for j >= 1, and g_0 = t N(t) with N(t) as the
    liouville multiplier evaluates it, shaped as `Nonlinearity.taylor_at`.
    """
    t = np.asarray(center, dtype=float)
    out = np.empty((order + 1,) + t.shape)
    out[0] = t * liouville_multiplier().eval(t)
    for j in range(1, order + 1):
        out[j] = -np.exp(2.0 * t) * (2.0**j / factorial(j))
    return out


# ---------------------------------------------------------------------------
# Adomian polynomials of one scalar series


def compose_with_tail(taylor, tail) -> np.ndarray:
    """Coefficients A_0..A_K of F(v(tau)) by the partial Bell triangle of the tail v - v_0.

    Shaped and read as `series.compose`'s operands: K + 1 tail rows (row 0
    never read) and the Taylor rows a_0..a_d of F at v_0, d <= K.  B[n, j],
    the tau^n coefficient of the j-th power of the tail, follows from
    B[n, 1] = t_n and B[n, j] = sum_{i=1}^{n-j+1} t_i B[n-i, j-1] (Comtet,
    Advanced Combinatorics, 1974, section 3.3); A_0 = a_0 and
    A_n = sum_{j=1}^{min(n, d)} a_j B[n, j].  Plain loops over the whole
    triangle, sharing no code with the Horner composition it checks.
    """
    k, d = len(tail) - 1, len(taylor) - 1
    out = np.zeros((k + 1,) + np.shape(taylor[0]))
    out[0] = taylor[0]
    bell = {}
    for n in range(1, k + 1):
        bell[n, 1] = np.asarray(tail[n], dtype=float)
        for j in range(2, n + 1):
            bell[n, j] = sum(tail[i] * bell[n - i, j - 1] for i in range(1, n - j + 2))
        out[n] = sum(taylor[j] * bell[n, j] for j in range(1, min(n, d) + 1))
    return out


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_K of a formal power series truncated at order K."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def series_compose_nonlinearity(nl: Nonlinearity, v: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of N(v(tau)) truncated at v's order.

    Coefficient n is the Adomian polynomial A_n(N; v_0..v_n).
    """
    k = v.order
    taylor = nl.taylor_at(float(v.coeffs[0]), k)
    tail = v.coeffs.copy()
    tail[0] = 0.0
    return TruncatedSeries(compose_with_tail(taylor, tail))


# ---------------------------------------------------------------------------
# the sine-Gordon kink: a second exact solution, of the equation in the title

# the backward recurrence of N's rows starts this many orders above the top row
SINE_GORDON_START = 44
# N's Maclaurin coefficients through u^29, the reference of its rows at 0
SINE_GORDON_NU = [0.0 if j % 2 else -(-1.0) ** (j // 2) / factorial(j + 1) for j in range(30)]


def _sine_gordon_taylor(center, order: int) -> np.ndarray:
    """Taylor rows a_0..a_order of N(u) = -sin(u) / u around `center`.

    G = u N = -sin u has the rows g_j = -sin(t + j pi / 2) / j!, and
    g_j = t a_j + a_(j-1), so the backward recurrence a_(j-1) = g_j - t a_j,
    started from zero `SINE_GORDON_START` orders above `order`, gives every
    row without a division: row 0 is -sin(t) / t, and -1 at t = 0.
    """
    t = np.asarray(center, dtype=float)
    cycle = (np.sin(t), np.cos(t), -np.sin(t), -np.cos(t))  # sin(t + j pi / 2)
    out = np.empty((order + 1,) + t.shape)
    a = np.zeros(t.shape)
    for j in range(order + SINE_GORDON_START, 0, -1):
        a = -cycle[j % 4] / factorial(j) - t * a
        if j <= order + 1:
            out[j - 1] = a
    return out


def _sine_gordon_term_adomian(v, n: int) -> np.ndarray:
    """A_n(G; v), n >= 1, of G = -sin u: -S_n.

    S_j and C_j, the Taylor coefficients of sin and cos of v(tau), follow
    from S_0 = sin v_0, C_0 = cos v_0 and the paired recurrence
    j S_j = sum_{i=1}^{j} i v_i C_(j-i), j C_j = -sum_{i=1}^{j} i v_i S_(j-i)
    (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13).
    """
    sin, cos = [np.sin(v[0])], [np.cos(v[0])]
    for j in range(1, n + 1):
        sin.append(sum(i * v[i] * cos[j - i] for i in range(1, j + 1)) / j)
        cos.append(-sum(i * v[i] * sin[j - i] for i in range(1, j + 1)) / j)
    return -sin[n]


def _kink(x, y):
    # theta = x + y - 2 lies in [-2, 2] on the square, so u in [0.537, 5.746]
    return 4.0 * np.arctan(np.exp(np.add(x, y) - 2.0))


def sine_gordon_problem() -> Preset:
    """The sine-Gordon kink u = 4 arctan(exp(x + y - 2)) on [0, 2]^2.

    In characteristic variables u_xy = sin u has the kinks
    4 arctan(exp(a x + y / a + theta_0)) (Drazin & Johnson, Solitons: an
    Introduction, CUP 1989); here a = 1 and theta_0 = -2, written as
    u_xy + N(u) u = 0 with N(u) = -sin(u) / u and G = u N = -sin u.
    """
    problem = solver.GoursatProblem(
        X=2.0, Y=2.0, psi=lambda x: _kink(x, 0.0), phi=lambda y: _kink(0.0, y),
        f=lambda x, y: 0.0,
        nonlinearity=Nonlinearity(_sine_gordon_taylor, _sine_gordon_term_adomian),
    )
    return Preset("sine-gordon", problem, _kink)


# ---------------------------------------------------------------------------
# the rank-k Adomian source at one point


def correction_rhs(expansion: FdExpansion, k: int, cell, point) -> float:
    """F^(k) at a point of one cell, by the same Adomian assembly as the march.

    Corner-value arguments come from the cell's own first node even on
    shared edges, so the cell index is part of the signature.
    """
    if k < 1:
        raise ValueError(f"corrections start at k=1, got k={k}")
    if len(expansion.corrections) < k:
        raise ValueError(f"corrections 0..{k - 1} must be complete, have {len(expansion.corrections)}")
    i, j = cell
    x, y = point
    nl = expansion.problem.nonlinearity
    frozen = [expansion.corrections[s].values[i, j, 0, 0] for s in range(k)]
    here = [np.array([evaluate_in_cell(expansion.corrections[s], i, j, x, y)]) for s in range(k)]
    return float(_adomian_source(nl, here, _corner_weights(nl, frozen))[0])


def correction_source(expansion: FdExpansion, k: int):
    """source(ii, jj, corners): the rank-k cell source on cells (ii, jj).

    The source is F^(k) - N'(u0_corner) * uk_corner * u0, with `corners` the
    cells' own rank-k corner values.  `ii, jj` are index arrays, or slices
    for whole blocks of cells.  F^(k) is the march's own whole-mesh
    `solver._source_field`; a call gathers it and subtracts the corner term.
    """
    u0 = expansion.corrections[0].values
    f = solver._source_field(expansion, k)
    nprime = expansion.problem.nonlinearity.deriv(u0[:, :, 0, 0])

    def source(ii, jj, corners):
        return f[ii, jj] - (nprime[ii, jj] * corners)[..., None, None] * u0[ii, jj]

    return source


def solve_correction_per_wavefront(expansion: FdExpansion, k: int) -> PiecewiseField:
    """The rank-k correction with each anti-diagonal's own series weights.

    Each anti-diagonal gathers the whole rank-k source of its cells, corner
    term included, through `correction_source`, and takes weights afresh
    from `solver._kernel_weights` on its own cells, so with the term count
    of its own largest |zeta|, where `solve_correction` uses the mesh's.
    The two must agree to rounding.
    """
    grid, p = expansion.grid, expansion.order
    source = correction_source(expansion, k)

    def cells(step, left):
        ii, jj = step.ii, step.jj
        weights = solver._kernel_weights(grid, p, expansion.cell_coeffs[ii, jj], ii, jj)
        return weights, source(ii, jj, left[:, 0])

    return PiecewiseField(grid, solver._march(grid, p, np.zeros((grid.N2, p)),
                                              np.zeros((grid.N1, p)), cells))


# ---------------------------------------------------------------------------
# problem files


def eval_expression(text: str, variables: tuple):
    """`text` evaluated by `eval` of its tree, checked by the grammar of problem files."""
    tree = ast.parse(text, mode="eval")
    cli._check_expr(tree, set(variables), text)
    code = compile(tree, "<expression>", "eval")
    return lambda *args: eval(code, {"__builtins__": {}}, {**cli._FUNCS, **dict(zip(variables, args))})


def cli_poly_text(seed: int) -> str:
    """The problem file of the benchmark's cli-poly workload for `seed`."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    return workloads.poly_problem_text(workloads.poly_params(seed))


# ---------------------------------------------------------------------------
# error metrics on the whole mesh


class _ExactSamples:
    """An exact solution sampled once on the whole mesh: on every cell's tensor
    nodes and on a uniform 5 x 5 lattice per cell (`harness._LATTICE`).

    Every sample set and error field spans the whole mesh, and each sup is
    one reduction over it.
    """

    def __init__(self, expansion: FdExpansion, exact, lattice):
        grid, p = expansion.grid, expansion.order
        s = unit_cheb_nodes(p)
        self.grid = grid
        self.nodes = sample_field(grid, p, exact).values
        self.lattice = _sample_cells(exact, *grid.cell_nodes(lattice))
        self.diff = cheb_diff_matrix(s)
        self.interp = bary_matrix(lattice, s)

    def errors(self, total: np.ndarray) -> tuple:
        """(delta, norm1_delta) of the whole field `total`."""
        e = total - self.nodes
        node_sup = float(np.max(np.abs(e)))
        delta = max(node_sup, float(np.max(np.abs(self.interp @ total @ self.interp.T
                                                  - self.lattice))))
        sup_x = np.abs(self.diff @ e / self.grid.h1).max(axis=(2, 3))
        sup_y = np.abs(e @ self.diff.T / self.grid.h2).max(axis=(2, 3))
        return delta, max(node_sup, float(np.max(np.hypot(sup_x, sup_y))))


# ---------------------------------------------------------------------------
# two-index recurrence of the a-priori bound


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
