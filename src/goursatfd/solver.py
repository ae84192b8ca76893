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
values (a piecewise constant field) with the Adomian polynomial A_{k-1} of
the term G(u) = u N(u) at the running point, plus an explicit source
-N'(u0_corner) * uk_corner * u0(x, y) carrying the correction's own corner
value, which the march has already produced.  G's Taylor row 0 is t N(t)
with N(t) bit for bit as `Nonlinearity.eval` gives it, so the rank-1 source
vanishes exactly where u0 is the cell's corner value.

A cell's corner value is its own first node, values[i, j, 0, 0].  Every
kernel term vanishes at sigma = 0, so the march stores the left trace
there bit for bit: the rank-0 coefficient and every rank's frozen Adomian
arguments read that one value.

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

The term count K follows from the largest |zeta| in the batch, and a batch
with |zeta| beyond `kernels.zeta_limit(P)` is refused.  The moment
stack is built once per order P, growing on demand, and is laid out for
plain matrix products: each term is one or two GEMMs on a batch of n cells
(Goto & van de Geijn, ACM TOMS 34(3), 2008).  The traces are one
(n, P) @ (P, K P) product against [A_k^T] side by side, a scale by the
series weights and one batched product with the node powers; the area is a
batched rhs A_k^T, a scale, and one product contracting (k, q) against
[A_0 | ... | A_{K-1}].

Wavefront batching.  A cell reads only its left and lower neighbours, so the
cells of one anti-diagonal are independent.  The march solves each
anti-diagonal in one batched call: it gathers the edge traces by fancy
indexing, takes the coefficients and the sources of its cells, and applies
the three terms above, with the series weights and the term count of that
anti-diagonal's own coefficients.  Each solved wavefront is checked for
non-finite values before the next one reads it.  Rank 0 freezes its
coefficients with one evaluation of N per anti-diagonal.  A correction's
Adomian source F^(k) reads only ranks 0..k-1, all complete before its march
starts, so it is assembled once for the whole mesh, before the march: the
corner weights once for all cells (N composed at order k), then the cell
points in blocks of whole cells small enough for their temporaries to stay
in cache (one coefficient of G per block); an anti-diagonal gathers its
share and subtracts its own corner term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable

import numpy as np

from .field import (
    FdSolverError,
    Grid,
    PiecewiseField,
    _check_extents,
    _sample_axis,
    _sample_cells,
    bary_matrix,
    cheb_diff_matrix,
    unit_cc_weights,
    unit_cheb_nodes,
)
from .kernels import KernelRangeError, series_length, series_terms, zeta_limit
from .series import Nonlinearity, compose_last, compose_with_tail

__all__ = [
    "GoursatProblem",
    "FdExpansion",
    "FdSolverError",
    "solve_basic",
    "solve_correction",
    "residual_basic",
    "residual_correction",
]

TRACE_MATCH_TOL = 1.0e-10


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
        _check_extents(self.X, self.Y)
        p0, q0 = float(self.psi(0.0)), float(self.phi(0.0))
        # written so that a NaN on either side fails
        if not abs(p0 - q0) <= 1.0e-12 * (1.0 + abs(p0)):
            raise ValueError(f"incompatible corner data: psi(0)={p0!r}, phi(0)={q0!r}")


@dataclass
class FdExpansion:
    """Corrections u^(0)..u^(m) and the rank-0 frozen coefficients.

    A cell's corner value at rank k is `corrections[k].values[i, j, 0, 0]`;
    `cell_coeffs` holds N at the rank-0 corner values.  `wall_ms[k]` is the
    time from the start of the solve to the completion of correction k, when
    the expansion comes from `fd_solve`.
    """

    problem: GoursatProblem
    grid: Grid
    order: int
    corrections: list = dc_field(default_factory=list)
    cell_coeffs: np.ndarray | None = None
    wall_ms: list = dc_field(default_factory=list, init=False)

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
        self._grow(1)

    def _grow(self, n: int):
        k = np.arange(n)
        a = np.einsum("tq,ktq,tqp->ktp", self.WSUB, self.DXM ** k[:, None, None], self.W)
        self._rows = np.ascontiguousarray(a.transpose(2, 0, 1))  # [p,k,t] = A_k[t,p]
        self._a_t = np.ascontiguousarray(a.transpose(0, 2, 1))  # [k,p,u] = A_k[u,p]
        self._cols = np.ascontiguousarray(a.transpose(1, 0, 2))  # [t,k,q] = A_k[t,q]
        self._powers = self.sigma ** k[:, None]  # [k,u]
        self._left_powers = (self._powers * self.sigma).T.copy()  # [t,k] = sigma_t^(k+1)

    def moments(self, n: int):
        """The kernel operands for n series terms, as views of one stack.

        With A_k the moment matrices and sigma^k the node powers, returns
        rows (P, n*P) [p, (k,t)] = A_k[t,p], the transposes A_k^T (n, P, P),
        cols (P, n*P) [t, (k,q)] = A_k[t,q], powers (n, P) sigma^k[u] and
        left powers (P, n) sigma_t^(k+1).  The stack grows to the next power
        of two when a call needs more terms, so it is rebuilt only a few
        times per order.
        """
        if self._a_t.shape[0] < n:
            self._grow(1 << (n - 1).bit_length())
        p = self.sigma.size
        return (self._rows[:, :n].reshape(p, n * p), self._a_t[:n],
                self._cols[:, :n].reshape(p, n * p), self._powers[:n], self._left_powers[:, :n])


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
    n, p = left.shape
    terms = series_length(float(np.max(np.abs(zeta))), p)
    rows, a_t, cols, powers, left_powers = eng.moments(terms)
    k = np.arange(terms)
    t1 = series_terms(zeta, terms)  # zeta^k / (k!)^2

    # bottom term: d/dxi of the bottom trace against R on y = y0
    bq = ((bottom @ eng.diff01.T) @ rows).reshape(n, terms, p)  # [n,k,t]
    bq *= t1[:, :, None]
    u = np.matmul(bq.transpose(0, 2, 1), powers)  # [n,t,u]

    # left term: -int dR/deta * left trace, dR/deta = c (x - x0) 0F1(2; z)
    lq = (left @ rows).reshape(n, terms, p)  # [n,k,u]
    lq *= (t1 * (zeta[:, None] / (k + 1.0)))[:, :, None]  # zeta^(k+1) / (k! (k+1)!)
    u -= np.matmul(left_powers, lq)

    # area term: sum_k (-zeta)^k / (k!)^2 A_k rhs A_k^T
    rq = np.matmul(rhs[:, None], a_t)  # [n,k,q,u]
    rq *= (t1 * np.where(k % 2, -h1 * h2, h1 * h2))[:, :, None, None]
    u += np.matmul(cols, rq.reshape(n, terms * p, p))
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
            msg = f"cell ({ii[n]}, {jj[n]}): {exc}"
            # refining both sides by sqrt(|zeta| / limit), and a hair more
            # against rounding, brings this cell's zeta within the limit
            scale = math.sqrt(abs(c[n]) * grid.h1 * grid.h2 / zeta_limit(p)) * (1.0 + 1.0e-12)
            if math.isfinite(scale):
                msg += (f"; refine the mesh to at least N1 = {math.ceil(n1 * scale)}, "
                        f"N2 = {math.ceil(n2 * scale)}")
            raise KernelRangeError(msg) from exc
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            n = int(np.argmin(finite))
            raise FdSolverError(f"cell ({ii[n]}, {jj[n]}): non-finite values in the solution")
        values[ii, jj] = out
    return values


def solve_basic(problem: GoursatProblem, grid: Grid, p: int) -> PiecewiseField:
    """Rank-0 field: N frozen at each cell's lower-left corner, rhs = f.

    Marches cells in wavefront order, freezing c_ij = N(u0(x_i, y_j)) from
    data already computed, then solving the cell in closed form.  The
    frozen coefficients are N(field.values[:, :, 0, 0]), bit for bit.
    """
    nl = problem.nonlinearity
    xs, ys = grid.cell_nodes(unit_cheb_nodes(p))

    def wavefront(ii, jj, corners):
        return nl.eval(corners), _sample_cells(problem.f, xs, ys, ii, jj)

    values = _march(grid, p, _sample_axis(problem.phi, ys), _sample_axis(problem.psi, xs),
                    wavefront)
    return PiecewiseField(grid, values)


def _corner_weights(nl: Nonlinearity, frozen: list) -> np.ndarray:
    """Per-cell weights A^c_{k-1-s} - A^c_{k-s}, s = 0..k-1, of the rank-k source.

    `frozen[s]` holds the rank-s corner values of the cells, k = len(frozen);
    A^c are the Adomian polynomials of N at those values, composed at order
    k with the top slot k taken as zero.  Returns a (k, cells) array.
    """
    k = len(frozen)
    tail = np.zeros((k + 1, frozen[0].size))
    for s in range(1, k):
        tail[s] = frozen[s].ravel()
    a = compose_with_tail(nl.taylor_at(frozen[0].ravel(), k), tail)
    return a[k - 1::-1] - a[k:0:-1]


def _adomian_source(nl: Nonlinearity, here: list, weights: np.ndarray) -> np.ndarray:
    """The rank-k Adomian source F^(k), k = len(here), on a batch of cells.

    `here[s]` holds the rank-s values at points of the cells (the cell
    shape followed by point axes) and `weights` the cells' (k, cells)
    `_corner_weights`.  With A^c the corner Adomian polynomials of N (the
    top slot k taken as zero) and G = u N,

        F^(k) = sum_{s<k} (A^c_{k-1-s} - A^c_{k-s}) v_s - A_{k-1}(G; v),

    the last term being the running part sum_{s<k} A_{k-1-s}(N; v) v_s as
    one coefficient, composed at the points for that coefficient alone.
    """
    k = len(here)
    shape = here[0].shape
    v = np.stack([h.reshape(weights.shape[1], -1) for h in here])
    g = nl.term_taylor_at(v[0], k - 1)
    f = np.multiply(weights[0][:, None], v[0])
    scratch = np.empty_like(f)
    for s in range(1, k):
        f += np.multiply(weights[s][:, None], v[s], out=scratch)
    v[0] = 0.0  # v is now the tail v - v_0
    f -= compose_last(g, v)
    return f.reshape(shape)


# points per block of the whole-mesh Adomian source, rounded down to whole
# cells.  Chosen by measurement: on the 40x40, m = 7, P = 12 study (2-core
# Xeon, 2 MiB L2 per core) 10-12 Ki points ran fastest, 8 Ki a little slower,
# and 16 Ki or more lost most of the gain as the per-order temporaries grew
_SOURCE_BLOCK = 12288


def _correction_source(expansion: FdExpansion, k: int):
    """source(ii, jj, corners): the rank-k cell source on cells (ii, jj).

    The source is F^(k) - N'(u0_corner) * uk_corner * u0, with `corners` the
    cells' own rank-k corner values.  `ii, jj` are index arrays, or slices
    for whole blocks of cells.  F^(k) reads only ranks 0..k-1, all complete,
    so it is assembled here for every cell, a block of whole cells at a
    time in flat (i, j) order; a call gathers it and subtracts the
    corner term.
    """
    nl = expansion.problem.nonlinearity
    u0 = expansion.corrections[0].values
    n1, n2, p, _ = u0.shape
    prior = [u.values.reshape(n1 * n2, p, p) for u in expansion.corrections[:k]]
    weights = _corner_weights(nl, [v[:, 0, 0] for v in prior])
    f = np.empty_like(prior[0])
    step = max(1, _SOURCE_BLOCK // (p * p))
    for start in range(0, n1 * n2, step):
        block = slice(start, start + step)
        f[block] = _adomian_source(nl, [v[block] for v in prior], weights[:, block])
    f = f.reshape(u0.shape)
    nprime = nl.deriv(u0[:, :, 0, 0])

    def source(ii, jj, corners):
        return f[ii, jj] - (nprime[ii, jj] * corners)[..., None, None] * u0[ii, jj]

    return source


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
    source = _correction_source(expansion, k)

    def wavefront(ii, jj, corners):
        return expansion.cell_coeffs[ii, jj], source(ii, jj, corners)

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
    f = _sample_cells(expansion.problem.f, *grid.cell_nodes(unit_cheb_nodes(expansion.order)))
    return _interior_residual_sup(expansion, u0, -f)


def residual_correction(expansion: FdExpansion, k: int) -> np.ndarray:
    """Per-cell sup residual of the rank-k correction equation at interior nodes.

    The source is the march's own, at the cells' first nodes.
    """
    if not 1 <= k <= expansion.rank:
        raise ValueError(f"have corrections 0..{expansion.rank}, got k={k}")
    cells = slice(None)
    rest = _correction_source(expansion, k)(cells, cells,
                                            expansion.corrections[k].values[:, :, 0, 0])
    return _interior_residual_sup(expansion, expansion.corrections[k].values,
                                  np.negative(rest, out=rest))
