"""Cell-marching solver for u_xy + N(u) u = f with data on the axes.

Rank 0 ("basic problem"): on each mesh cell the multiplier N(u) is frozen at
the cell's lower-left corner value, so the cell problem is linear with a
constant coefficient c and is solved in closed form through the Riemann
kernel R = 0F1(1; -c (xi - x)(eta - y)):

    u(x, y) = u(x0, y) + int_{x0}^{x} R(xi, y0; x, y) du/dxi(xi, y0) dxi
            - int_{y0}^{y} dR/deta(x0, eta; x, y) u(x0, eta) deta
            + int_{x0}^{x} int_{y0}^{y} R(xi, eta; x, y) rhs(xi, eta) dxi deta.

Higher ranks solve linear correction problems on the same cells; their
sources combine Adomian polynomials of the multiplier evaluated at corner
values (a piecewise constant field) and at the running point, plus an
explicit source -N'(u0_corner) * uk_corner * u0(x, y) carrying the
correction's own corner value, which the march has already produced.

Moment expansion.  The integrals use Clenshaw-Curtis rules on the variable
sub-intervals, with integrands interpolated barycentrically from the cell
tensors.  In cell-local coordinates the sub-rule geometry is the same for
every cell: with sigma the CGL nodes of [0, 1], the rule for [0, sigma_t]
has weights WSUB[t, q] at nodes sigma_t * sigma_q, W[t, q, p] interpolates
cell nodes to them, and the kernel argument is zeta = c h1 h2 times products
of DXM[t, q] = sigma_t (sigma_q - 1) and sigma.  Expanding the entire series
0F1(b; z) = sum_k z^k / ((b)_k k!) therefore splits every kernel integral
into c-independent moment matrices

    A_k[t, p] = sum_q WSUB[t, q] DXM[t, q]^k W[t, q, p]

weighted by scalar series terms in zeta:

    bottom   h1 sum_k zeta^k / (k!)^2 (A_k b')[t] sigma_u^k
    left     -zeta sum_k zeta^k / (k! (k+1)!) sigma_t^(k+1) (A_k left)[u]
    area     h1 h2 sum_k (-zeta)^k / (k!)^2 (A_k rhs A_k^T)[t, u]

The term count follows from the largest |zeta| in the batch, and the moment
stack is built once per order P, growing on demand.

Wavefront batching.  A cell reads only its left and lower neighbours, so the
cells of one anti-diagonal are independent.  The march solves each
anti-diagonal in one batched call: it gathers the edge traces by fancy
indexing, freezes the coefficients with one evaluation of N, assembles the
sources with one Adomian composition, and applies the three terms above as a
few matrix products.  Each solved wavefront is checked for non-finite values
before the next one reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable

import numpy as np

from .field import (
    Grid,
    PiecewiseField,
    _sample_2d,
    _sample_grid,
    bary_matrix,
    cheb_diff_matrix,
    corner_table,
    unit_cc_weights,
    unit_cheb_nodes,
)
from .kernels import KernelRangeError, series_length, series_terms
from .series import Nonlinearity, compose_with_tail

__all__ = [
    "GoursatProblem",
    "FdExpansion",
    "FdSolverError",
    "solve_cell_linear",
    "picard_cell_oracle",
    "solve_basic",
    "correction_rhs",
    "solve_correction",
    "residual_basic",
    "residual_correction",
]

TRACE_MATCH_TOL = 1.0e-10


class FdSolverError(RuntimeError):
    """Cell-level failure during a march, tagged with the cell index."""


@dataclass(frozen=True)
class GoursatProblem:
    """Problem data: u_xy + N(u) u = f, u(x, 0) = psi(x), u(0, y) = phi(y)."""

    X: float
    Y: float
    psi: Callable[[float], float]
    phi: Callable[[float], float]
    f: Callable[[float, float], float]
    nonlinearity: Nonlinearity

    def __post_init__(self):
        if self.X <= 0 or self.Y <= 0:
            raise ValueError(f"domain extents must be positive, got X={self.X}, Y={self.Y}")
        p0, q0 = float(self.psi(0.0)), float(self.phi(0.0))
        if abs(p0 - q0) > 1.0e-12 * (1.0 + abs(p0)):
            raise ValueError(f"incompatible corner data: psi(0)={p0!r}, phi(0)={q0!r}")


@dataclass
class FdExpansion:
    """Corrections u^(0)..u^(m) with their corner tables and frozen coefficients."""

    problem: GoursatProblem
    grid: Grid
    order: int
    corrections: list = dc_field(default_factory=list)
    corner_tables: list = dc_field(default_factory=list)
    cell_coeffs: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return len(self.corrections) - 1

    def partial_sum(self, m: int) -> PiecewiseField:
        """The rank-m approximation: pointwise sum of corrections 0..m."""
        if not 0 <= m <= self.rank:
            raise ValueError(f"partial sum rank must be in 0..{self.rank}, got {m}")
        total = self.corrections[0].values.copy()
        for k in range(1, m + 1):
            total += self.corrections[k].values
        return PiecewiseField(self.grid, total)


class _CellEngine:
    """Order-P tensors shared by every cell solve.

    With sigma the CGL nodes of [0, 1], the Clenshaw-Curtis rule for the
    sub-interval [0, sigma_t] uses nodes sigma_t * sigma_q, so the
    interpolation tensor W[t, q, p] (cell nodes -> sub-rule nodes), the
    offset matrix DXM[t, q] = sigma_t * (sigma_q - 1) and the moment matrices
    built from them are mesh independent.
    """

    def __init__(self, p: int):
        sigma = unit_cheb_nodes(p)
        self.sigma = sigma
        self.diff01 = cheb_diff_matrix(sigma)
        self.W = np.stack([bary_matrix(s * sigma, sigma) for s in sigma])
        self.DXM = sigma[:, None] * (sigma[None, :] - 1.0)
        self.WSUB = sigma[:, None] * unit_cc_weights(p)[None, :]  # [t,q] sub-rule weights / h
        self._moments = np.empty((0, p, p))
        self._powers = np.empty((0, p))

    def moments(self, n: int):
        """Moment matrices A_0..A_{n-1} [k,t,p] and node powers sigma^k [k,u].

        The cached stack grows to the next power of two when a call needs
        more terms, so it is rebuilt only a few times per order.
        """
        if len(self._moments) < n:
            k = np.arange(1 << (n - 1).bit_length())
            dxm_k = self.DXM ** k[:, None, None]
            self._moments = np.einsum("tq,ktq,tqp->ktp", self.WSUB, dxm_k, self.W)
            self._powers = self.sigma ** k[:, None]
        return self._moments[:n], self._powers[:n]


@lru_cache(maxsize=8)
def _engine(p: int) -> _CellEngine:
    return _CellEngine(p)


def _solve_cells(eng: _CellEngine, c: np.ndarray, h1: float, h2: float,
                 left: np.ndarray, bottom: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A batch of constant-coefficient cells via the Riemann representation.

    `c` holds one coefficient per cell, `left`/`bottom` the (n, P) edge
    samples and `rhs` the (n, P, P) source tensors on the cells' own nodes.
    Returns the (n, P, P) solution tensors.
    """
    zeta = c * (h1 * h2)
    n = series_length(float(np.max(np.abs(zeta))))
    a, powers = eng.moments(n)
    t1 = series_terms(1.0, zeta, n)  # zeta^k / (k!)^2
    t2 = series_terms(2.0, zeta, n)  # zeta^k / (k! (k+1)!)

    # bottom term: d/dxi of the bottom trace against R on y = y0
    bq = np.tensordot((bottom @ eng.diff01.T) / h1, a, axes=([1], [2]))  # [n,k,t]
    bq *= t1[:, :, None]
    u = h1 * np.tensordot(bq, powers, axes=([1], [0]))  # [n,t,u]

    # left term: -int dR/deta * left trace, dR/deta = c (x - x0) 0F1(2; z)
    lq = np.tensordot(left, a, axes=([1], [2]))  # [n,k,u]
    lq *= (zeta[:, None] * t2)[:, :, None]
    u -= np.matmul((powers * eng.sigma).T, lq)

    # area term: sum_k (-zeta)^k / (k!)^2 A_k rhs A_k^T
    t1[:, 1::2] *= -1.0
    rq = np.tensordot(a, rhs, axes=([2], [1]))  # [k,t,n,p]
    rq *= (h1 * h2) * t1.T[:, None, :, None]
    u += np.tensordot(rq, a, axes=([0, 3], [0, 2])).transpose(1, 0, 2)
    u += left[:, None, :]
    return u


def _corner_mismatch(left: np.ndarray, bottom: np.ndarray, corners: np.ndarray):
    """(index, message) of the first cell whose traces miss its corner value.

    Returns None if every cell passes.  A cell passes only when both
    differences are within tolerance, so a NaN anywhere fails it.
    """
    tol = TRACE_MATCH_TOL * (1.0 + np.abs(corners))
    ok = (np.abs(left[:, 0] - corners) <= tol) & (np.abs(bottom[:, 0] - corners) <= tol)
    if ok.all():
        return None
    n = int(np.argmin(ok))
    return n, (f"edge traces disagree with the corner value: left[0]={left[n, 0]!r}, "
               f"bottom[0]={bottom[n, 0]!r}, corner={corners[n]!r}")


def _check_corner(left: np.ndarray, bottom: np.ndarray, corner_value: float):
    bad = _corner_mismatch(left[None], bottom[None], np.array([float(corner_value)]))
    if bad:
        raise ValueError(bad[1])


def _trace_values(trace, p: int, a: float, b: float) -> np.ndarray:
    values = np.asarray(getattr(trace, "values", trace), dtype=float)
    if values.shape != (p,):
        raise ValueError(f"trace must carry {p} CGL samples, got shape {values.shape}")
    return values


def solve_cell_linear(c: float, left_trace, bottom_trace, corner_value: float,
                      rhs: Callable[[float, float], float], rect, p: int) -> np.ndarray:
    """Solve u_xy + c*u = rhs on one cell from its left/bottom traces.

    Traces are P CGL samples (arrays or EdgeTrace) on the cell sides; the
    result is the P x P tensor on the cell nodes, whose left and bottom edges
    reproduce the traces.  Raises KernelRangeError when |c| h1 h2 exceeds the
    kernel series range.
    """
    x0, x1, y0, y1 = rect
    if not (x0 < x1 and y0 < y1):
        raise ValueError(f"degenerate cell rectangle {rect}")
    eng = _engine(p)
    left = _trace_values(left_trace, p, y0, y1)
    bottom = _trace_values(bottom_trace, p, x0, x1)
    _check_corner(left, bottom, corner_value)
    xn = x0 + (x1 - x0) * eng.sigma
    yn = y0 + (y1 - y0) * eng.sigma
    xn[0], xn[-1] = x0, x1
    yn[0], yn[-1] = y0, y1
    rhs_vals = _sample_2d(rhs, xn, yn)
    return _solve_cells(eng, np.array([float(c)]), x1 - x0, y1 - y0,
                        left[None], bottom[None], rhs_vals[None])[0]


def picard_cell_oracle(c: float, left_trace, bottom_trace, corner_value: float,
                       rhs: Callable[[float, float], float], rect, p: int,
                       tol: float = 1.0e-13, max_iter: int = 100) -> np.ndarray:
    """Independent cell solution by Picard iteration on the integral form.

    Iterates u <- B + int int (rhs - c*u) over [x0, x] x [y0, y], where B is
    the boundary combination left(y) + bottom(x) - corner.  The iteration
    contracts only when |c| * h1 * h2 < 1; larger cells are rejected.  Shares
    no code with the Riemann representation path except interpolation
    plumbing.
    """
    x0, x1, y0, y1 = rect
    h1, h2 = x1 - x0, y1 - y0
    if abs(c) * h1 * h2 >= 1.0:
        raise ValueError(f"no contraction: |c|*h1*h2 = {abs(c) * h1 * h2:.3g} >= 1")
    eng = _engine(p)
    wflat = eng.W.reshape(p * p, p)
    left = _trace_values(left_trace, p, y0, y1)
    bottom = _trace_values(bottom_trace, p, x0, x1)
    _check_corner(left, bottom, corner_value)
    xn = x0 + h1 * eng.sigma
    yn = y0 + h2 * eng.sigma
    xn[0], xn[-1] = x0, x1
    yn[0], yn[-1] = y0, y1
    rhs_vals = _sample_2d(rhs, xn, yn)
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


def _march(grid: Grid, p: int, left_edge: np.ndarray, bottom_edge: np.ndarray,
           wavefront) -> np.ndarray:
    """Solve every cell, one anti-diagonal per batched call.

    `left_edge` (N2, P) and `bottom_edge` (N1, P) carry the data on x = 0 and
    y = 0.  wavefront(ii, jj, corners) returns the coefficients (n,) and the
    source tensors (n, P, P) of cells (ii, jj), given their lower-left corner
    values; it may read only cells of earlier anti-diagonals, all complete.
    """
    eng = _engine(p)
    n1, n2 = grid.N1, grid.N2
    values = np.full((n1, n2, p, p), np.nan)
    for d in range(n1 + n2 - 1):
        ii = np.arange(max(0, d - n2 + 1), min(n1, d + 1))
        jj = d - ii
        # index -1 reads a wrong cell only for cells on an axis; their traces
        # are replaced by the axis data
        left = values[ii - 1, jj, -1, :]
        bottom = values[ii, jj - 1, :, -1]
        if ii[0] == 0:
            left[0] = left_edge[jj[0]]
        if jj[-1] == 0:
            bottom[-1] = bottom_edge[ii[-1]]
        corners = left[:, 0]
        bad = _corner_mismatch(left, bottom, corners)
        if bad:
            raise FdSolverError(f"cell ({ii[bad[0]]}, {jj[bad[0]]}): {bad[1]}")
        c, rhs = wavefront(ii, jj, corners)
        try:
            out = _solve_cells(eng, c, grid.h1, grid.h2, left, bottom, rhs)
        except KernelRangeError as exc:
            n = int(np.argmax(np.abs(c)))
            raise KernelRangeError(f"cell ({ii[n]}, {jj[n]}): {exc}") from exc
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            n = int(np.argmin(finite))
            raise FdSolverError(f"cell ({ii[n]}, {jj[n]}): non-finite values in the solution")
        values[ii, jj] = out
    return values


def _axis_samples(fn, nodes: np.ndarray) -> np.ndarray:
    return np.array([[float(fn(v)) for v in row] for row in nodes])


def _cell_axis_nodes(grid: Grid, p: int):
    """(N1, P) x-nodes and (N2, P) y-nodes of the cells, endpoints exact."""
    s = unit_cheb_nodes(p)
    out = []
    for nodes in (grid.x_nodes, grid.y_nodes):
        lo, hi = nodes[:-1], nodes[1:]
        cell = lo[:, None] + (hi - lo)[:, None] * s
        cell[:, 0], cell[:, -1] = lo, hi
        out.append(cell)
    return out


def _sample_cells(fn, xs: np.ndarray, ys: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """fn on the tensor nodes of cells (ii, jj), shaped (n, P, P).

    One broadcast call when fn takes arrays; otherwise cell by cell, so that
    an error names the cell it came from.
    """
    out = _sample_grid(fn, xs[ii][:, :, None], ys[jj][:, None, :])
    if out is not None:
        return out
    out = np.empty((len(ii), xs.shape[1], ys.shape[1]))
    for n, (i, j) in enumerate(zip(ii, jj)):
        try:
            out[n] = _sample_2d(fn, xs[i], ys[j])
        except Exception as exc:
            raise FdSolverError(f"cell ({i}, {j}): {exc}") from exc
    return out


def solve_basic(problem: GoursatProblem, grid: Grid, p: int):
    """Rank-0 field: N frozen at each cell's lower-left corner, rhs = f.

    Marches cells in wavefront order, freezing c_ij = N(u0(x_{i-1}, y_{j-1}))
    from data already computed, then solving the cell in closed form.
    Returns (field, corner table, cell coefficient array).
    """
    nl = problem.nonlinearity
    xs, ys = _cell_axis_nodes(grid, p)
    coeffs = np.empty((grid.N1, grid.N2))

    def wavefront(ii, jj, corners):
        coeffs[ii, jj] = nl.eval(corners)
        return coeffs[ii, jj], _sample_cells(problem.f, xs, ys, ii, jj)

    values = _march(grid, p, _axis_samples(problem.phi, ys), _axis_samples(problem.psi, xs),
                    wavefront)
    field = PiecewiseField(grid, values)
    return field, corner_table(field), coeffs


def _adomian_source(nl: Nonlinearity, frozen: list, here: list) -> np.ndarray:
    """The rank-k Adomian source F^(k), k = len(here), on a batch of cells.

    `frozen[s]` holds the rank-s corner values of the cells (any shape,
    one entry per cell) and `here[s]` the rank-s values at points of those
    cells (the cell shape followed by point axes).  One composition of order
    k at the corner and point values together yields the corner Adomian
    polynomials A_0..A_k (the top slot taken as zero) and the running ones.
    """
    k = len(here)
    shape = here[0].shape
    cells = frozen[0].size
    v = [h.reshape(cells, -1) for h in here]
    centers = np.concatenate([frozen[0].ravel(), v[0].ravel()])
    tail = np.zeros((k + 1, centers.size))
    for s in range(1, k):
        tail[s, :cells] = frozen[s].ravel()
        tail[s, cells:] = v[s].ravel()
    comp = compose_with_tail(nl.taylor_at(centers, k), tail)
    a_corner = comp[:, :cells, None]
    a_run = comp[:k, cells:].reshape(k, cells, -1)

    f = -a_corner[k] * v[0]
    for s in range(k):
        f += (a_corner[k - 1 - s] - a_run[k - 1 - s]) * v[s]
        if s:
            f -= a_corner[k - s] * v[s]
    return f.reshape(shape)


def correction_rhs(expansion: FdExpansion, k: int, cell, point) -> float:
    """F^(k) at a point of one cell, by the same Adomian assembly as the march.

    Corner-value arguments come from the cell's own lower-left corner even on
    shared edges, so the cell index is part of the signature.
    """
    if k < 1:
        raise ValueError(f"corrections start at k=1, got k={k}")
    if len(expansion.corrections) < k:
        raise ValueError(f"corrections 0..{k - 1} must be complete, have {len(expansion.corrections)}")
    i, j = cell
    x, y = point
    frozen = [expansion.corner_tables[s][i, j] for s in range(k)]
    here = [np.array([expansion.corrections[s].evaluate_in_cell(i, j, x, y)]) for s in range(k)]
    return float(_adomian_source(expansion.problem.nonlinearity, frozen, here)[0])


def solve_correction(expansion: FdExpansion, k: int) -> PiecewiseField:
    """The rank-k correction field, vanishing on both axes.

    Each cell solves u_xy + c_ij u = F^(k) - N'(u0_corner) * uk_corner * u0,
    where uk_corner is this correction's own lower-left corner value, already
    known from the march.
    """
    if k < 1:
        raise ValueError(f"corrections start at k=1, got k={k}")
    if len(expansion.corrections) != k:
        raise ValueError(f"expected corrections 0..{k - 1} complete, have {len(expansion.corrections)}")
    grid, p = expansion.grid, expansion.order
    nl = expansion.problem.nonlinearity
    prior = [u.values for u in expansion.corrections]
    frozen = [t[:-1, :-1] for t in expansion.corner_tables]
    nprime = nl.deriv(frozen[0])

    def wavefront(ii, jj, corners):
        here = [v[ii, jj] for v in prior]
        rhs = _adomian_source(nl, [t[ii, jj] for t in frozen], here)
        rhs -= (nprime[ii, jj] * corners)[:, None, None] * here[0]
        return expansion.cell_coeffs[ii, jj], rhs

    values = _march(grid, p, np.zeros((grid.N2, p)), np.zeros((grid.N1, p)), wavefront)
    return PiecewiseField(grid, values)


def _interior_residual_sup(expansion: FdExpansion, values: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Per-cell sup over interior nodes of values_xy + c_ij * values + rest."""
    grid = expansion.grid
    d01 = _engine(expansion.order).diff01
    res = (d01 @ values @ d01.T) / (grid.h1 * grid.h2)
    res += expansion.cell_coeffs[:, :, None, None] * values + rest
    return np.max(np.abs(res[:, :, 1:-1, 1:-1]), axis=(2, 3))


def residual_basic(expansion: FdExpansion) -> np.ndarray:
    """Per-cell sup residual of the frozen-coefficient equation at interior nodes."""
    grid = expansion.grid
    u0 = expansion.corrections[0].values
    xs, ys = _cell_axis_nodes(grid, expansion.order)
    ii, jj = (idx.ravel() for idx in np.indices((grid.N1, grid.N2)))
    f = _sample_cells(expansion.problem.f, xs, ys, ii, jj).reshape(u0.shape)
    return _interior_residual_sup(expansion, u0, -f)


def residual_correction(expansion: FdExpansion, k: int) -> np.ndarray:
    """Per-cell sup residual of the rank-k correction equation at interior nodes."""
    if not 1 <= k <= expansion.rank:
        raise ValueError(f"have corrections 0..{expansion.rank}, got k={k}")
    nl = expansion.problem.nonlinearity
    frozen = [t[:-1, :-1] for t in expansion.corner_tables]
    prior = [u.values for u in expansion.corrections]
    rest = (nl.deriv(frozen[0]) * frozen[k])[:, :, None, None] * prior[0]
    rest -= _adomian_source(nl, frozen[:k], prior[:k])
    return _interior_residual_sup(expansion, prior[k], rest)
