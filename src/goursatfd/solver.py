"""Cell-marching solver for u_xy + N(u) u = f with data on the axes.

Rank 0 freezes N at each cell's lower-left corner value and solves the
constant-coefficient cell in closed form through the Riemann kernel; each
rank k >= 1 solves a linear correction with an Adomian source on the same
cells and coefficients.  README "Method" gives the cell formula, its moment
expansion and the order of the work.  The code relies on three facts:

- A cell's corner value is its first node, values[i, j, 0, 0].  Every
  kernel term vanishes at sigma = 0, so the march stores the left trace
  there bit for bit; the rank-0 coefficient and every rank's frozen Adomian
  arguments read that one value.
- The Adomian coefficient A_0 of G(u) = u N(u) is v_0 N(v_0), with N bit
  for bit as `Nonlinearity.eval` gives it, so the rank-1 source vanishes
  exactly where u0 is the cell's corner value.
- A cell reads only cells of earlier anti-diagonals, all complete and
  finite, so each anti-diagonal is one batched call, and a correction's
  source, which reads only lower ranks, is assembled before its march.
- Every march follows one plan per mesh, `_plan(N1, N2)`, built once: per
  anti-diagonal the flat ids of its cells and of their left and bottom
  neighbours, its slice of the march order and two axis flags.  A
  correction puts its series weights and N' at the u0 corners in march
  order before the march, so each anti-diagonal slices them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable

import numpy as np

from .field import (
    FdSolverError,
    Grid,
    PiecewiseField,
    _axis_value,
    _check_extents,
    _sample_axis,
    _sample_cells,
    bary_matrix,
    cheb_diff_matrix,
    unit_cc_weights,
    unit_cheb_nodes,
)
from .kernels import KernelRangeError, series_length, series_terms, zeta_limit
from .series import Nonlinearity, compose

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

# the entry points run under np.errstate(**_QUIET): every value a march or
# an error pass produces is checked, so a refused run raises its named
# error, and no numpy warning comes before it
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


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
        p0, q0 = _axis_value(self.psi, 0.0, "psi"), _axis_value(self.phi, 0.0, "phi")
        # written so that a NaN on either side fails
        if not abs(p0 - q0) <= 1.0e-12 * (1.0 + abs(p0)):
            raise ValueError(f"incompatible corner data: psi(0)={p0!r}, phi(0)={q0!r}")


@dataclass
class FdExpansion:
    """Corrections u^(0)..u^(m), and the frozen coefficients read from rank 0.

    A cell's corner value at rank k is `corrections[k].values[i, j, 0, 0]`;
    `cell_coeffs` is N at the rank-0 corner values, on which every
    correction solves, computed from them on each read.  `wall_ms[k]` is the
    time from the start of the solve to the completion of correction k, when
    the expansion comes from `fd_solve`.  Nothing else is kept between ranks.
    """

    problem: GoursatProblem
    grid: Grid
    order: int
    corrections: list = dc_field(default_factory=list)
    wall_ms: list = dc_field(default_factory=list, init=False)

    @property
    def cell_coeffs(self) -> np.ndarray:
        """N at the rank-0 corner values, (N1, N2)."""
        _need_rank0(self)
        return self.problem.nonlinearity.eval(self.corrections[0].values[:, :, 0, 0])

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
    built from them are mesh independent.  Each operand is one C-contiguous
    stack with the term axis first, built with the term count of the largest
    |zeta| the kernel range accepts (at most 32), so the operands of K terms
    are its first K entries, and `(K P, P)` reshapes of them are views.
    """

    def __init__(self, p: int):
        sigma = unit_cheb_nodes(p)
        self.sigma = sigma
        self.diff01 = cheb_diff_matrix(sigma)
        self.W = np.stack([bary_matrix(s * sigma, sigma) for s in sigma])
        self.DXM = sigma[:, None] * (sigma[None, :] - 1.0)
        self.WSUB = sigma[:, None] * unit_cc_weights(p)[None, :]  # [t,q] sub-rule weights / h
        k = np.arange(series_length(zeta_limit(p), p))
        # [k,t,p] = A_k[t,p], and its transposes [k,p,t] = A_k[t,p]
        self.a = np.einsum("tq,ktq,tqp->ktp", self.WSUB, self.DXM ** k[:, None, None], self.W)
        self.a_t = np.ascontiguousarray(self.a.transpose(0, 2, 1))
        self.powers = sigma ** k[:, None]  # [k,u] = sigma_u^k
        self.left_powers = self.powers * sigma  # [k,t] = sigma_t^(k+1)


@lru_cache(maxsize=8)
def _engine(p: int) -> _CellEngine:
    return _CellEngine(p)


def _kernel_weights(grid: Grid, p: int, c: np.ndarray, ii, jj):
    """The bottom, left and area weights (n, K) of cells (ii, jj) with coefficients c.

    K is the batch's own term count, from its largest |zeta| = |c| h1 h2.  A
    batch beyond `zeta_limit(p)`, or with a NaN coefficient, raises
    KernelRangeError naming its cell of largest |c| (a NaN counts as
    largest) and, where one exists, a mesh that passes.
    """
    area = grid.h1 * grid.h2
    zeta = c * area
    try:
        terms = series_length(float(np.max(np.abs(zeta))), p)
    except KernelRangeError as exc:
        n = int(np.argmax(np.abs(c)))
        msg = f"cell ({ii[n]}, {jj[n]}): {exc}"
        # refining both sides by sqrt(|zeta| / limit), and a hair more, suffices
        scale = math.sqrt(abs(zeta[n]) / zeta_limit(p)) * (1.0 + 1.0e-12)
        if math.isfinite(scale):
            msg += (f"; refine the mesh to at least N1 = {math.ceil(grid.N1 * scale)}, "
                    f"N2 = {math.ceil(grid.N2 * scale)}")
        raise KernelRangeError(msg) from exc
    k = np.arange(terms)
    t1 = series_terms(zeta, terms)  # zeta^k / (k!)^2
    return t1, t1 * (zeta[:, None] / (k + 1.0)), t1 * np.where(k % 2, -area, area)


def _trace_terms(eng: _CellEngine, bottom_w: np.ndarray, left_w: np.ndarray,
                 left: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """The bottom and left kernel terms (n, P, P) of cells with edge samples (n, P)."""
    n, p = left.shape
    terms = bottom_w.shape[1]
    rows = eng.a[:terms].reshape(terms * p, p).T  # [p,(k,t)] = A_k[t,p]

    # bottom term: d/dxi of the bottom trace against R on y = y0
    bq = ((bottom @ eng.diff01.T) @ rows).reshape(n, terms, p)  # [n,k,t]
    bq *= bottom_w[:, :, None]
    u = np.matmul(bq.transpose(0, 2, 1), eng.powers[:terms])  # [n,t,u]

    # left term: -int dR/deta * left trace, dR/deta = c (x - x0) 0F1(2; z)
    lq = (left @ rows).reshape(n, terms, p)  # [n,k,u]
    lq *= left_w[:, :, None]  # zeta^(k+1) / (k! (k+1)!)
    u -= np.matmul(eng.left_powers[:terms].T, lq)
    return u


def _area_term(eng: _CellEngine, area_w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The area term sum_k (-zeta)^k / (k!)^2 h1 h2 A_k rhs A_k^T of sources (n, P, P)."""
    n, terms = area_w.shape
    p = rhs.shape[-1]
    a_t = eng.a_t[:terms]
    rq = np.matmul(rhs[:, None], a_t)  # [n,k,q,u]
    rq *= area_w[:, :, None, None]
    cols = a_t.reshape(terms * p, p).T  # [t,(k,q)] = A_k[t,q]
    return np.matmul(cols, rq.reshape(n, terms * p, p))


def _solve_cells(eng: _CellEngine, weights, left: np.ndarray, bottom: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """A batch of constant-coefficient cells via the Riemann representation.

    `weights` are the cells' `_kernel_weights`, `left`/`bottom` the (n, P)
    edge samples and `rhs` the (n, P, P) source tensors on the cells' own
    nodes.  Returns the (n, P, P) solution tensors.
    """
    bottom_w, left_w, area_w = weights
    u = _trace_terms(eng, bottom_w, left_w, left, bottom)
    u += _area_term(eng, area_w, rhs)
    u += left[:, None, :]
    return u


def _corner_mismatch(left: np.ndarray, bottom: np.ndarray):
    """(index, message) of the first cell whose bottom trace misses its corner value.

    A cell's corner value is its left trace's first entry.  Returns None if
    every cell passes; a NaN on either side fails a cell.
    """
    corners = left[:, 0]
    ok = np.abs(bottom[:, 0] - corners) <= TRACE_MATCH_TOL * (1.0 + np.abs(corners))
    if ok.all():
        return None
    n = int(np.argmin(ok))
    return n, (f"the bottom trace disagrees with the corner value: bottom[0]={bottom[n, 0]!r}, "
               f"corner={corners[n]!r}")


_Step = namedtuple("_Step", "ii jj ids left_ids bottom_ids at on_left on_bottom")


@lru_cache(maxsize=8)
def _plan(n1: int, n2: int):
    """(steps, order): one `_Step` per anti-diagonal of an N1 x N2 mesh, and
    the flat cell ids i N2 + j in march order.

    A step holds its cells (ii, jj), i ascending, their flat ids, the ids of
    the cells (i - 1, j) and (i, j - 1), which are wrong cells only on an
    axis, its slice `at` of the march order, and whether its first cell lies
    on x = 0 and its last on y = 0.  The arrays are read-only.
    """
    steps, start = [], 0
    for d in range(n1 + n2 - 1):
        ii = np.arange(max(0, d - n2 + 1), min(n1, d + 1))
        jj = d - ii
        ids = ii * n2 + jj
        steps.append(_Step(ii, jj, ids, ids - n2, ids - 1, slice(start, start + len(ids)),
                           bool(ii[0] == 0), bool(jj[-1] == 0)))
        start += len(ids)
    order = np.concatenate([step.ids for step in steps])
    for a in (order, *(a for step in steps for a in step[:5])):
        a.setflags(write=False)
    return tuple(steps), order


def _march(grid: Grid, p: int, left_edge: np.ndarray, bottom_edge: np.ndarray,
           cells) -> np.ndarray:
    """Solve every cell, one anti-diagonal per `_solve_cells` call.

    `left_edge` (N2, P) and `bottom_edge` (N1, P) carry the data on x = 0 and
    y = 0.  cells(step, left) returns the `_kernel_weights` and the (n, P, P)
    sources of the cells of one anti-diagonal, the `_Step` `step` of the
    mesh's plan, given their (n, P) left traces, whose first entries are the
    cells' corner values; it may read only cells of earlier anti-diagonals,
    all complete.
    """
    n1, n2 = grid.N1, grid.N2
    eng = _engine(p)
    values = np.empty((n1 * n2, p, p))
    for step in _plan(n1, n2)[0]:
        left = values[step.left_ids, -1, :]
        bottom = values[step.bottom_ids, :, -1]
        if step.on_left:
            left[0] = left_edge[step.jj[0]]
        if step.on_bottom:
            bottom[-1] = bottom_edge[step.ii[-1]]
        bad = _corner_mismatch(left, bottom)
        if bad:
            raise FdSolverError(f"cell ({step.ii[bad[0]]}, {step.jj[bad[0]]}): {bad[1]}")
        weights, rhs = cells(step, left)
        out = _solve_cells(eng, weights, left, bottom, rhs)
        # a sum is not finite if a value is not, or if finite values overflow
        # it; the per-cell scan tells the two apart and names the cell
        if not np.isfinite(out.sum()):
            finite = np.isfinite(out).all(axis=(1, 2))
            if not finite.all():
                n = int(np.argmin(finite))
                raise FdSolverError(f"cell ({step.ii[n]}, {step.jj[n]}): "
                                    "non-finite values in the solution")
        values[step.ids] = out
    return values.reshape(n1, n2, p, p)


def solve_basic(problem: GoursatProblem, grid: Grid, p: int) -> PiecewiseField:
    """Rank-0 field: N frozen at each cell's lower-left corner, rhs = f.

    Marches cells in wavefront order, freezing c_ij = N(u0(x_i, y_j)) from
    data already computed, then solving the cell in closed form.  The
    frozen coefficients are N(field.values[:, :, 0, 0]), bit for bit.
    """
    with np.errstate(**_QUIET):
        nl = problem.nonlinearity
        xs, ys = grid.cell_nodes(unit_cheb_nodes(p))

        def cells(step, left):
            weights = _kernel_weights(grid, p, nl.eval(left[:, 0]), step.ii, step.jj)
            return weights, _sample_cells(problem.f, xs, ys, step.ii, step.jj)

        values = _march(grid, p, _sample_axis(problem.phi, ys, "phi"),
                        _sample_axis(problem.psi, xs, "psi"), cells)
    return PiecewiseField(grid, values)


def _corner_weights(nl: Nonlinearity, frozen: list) -> np.ndarray:
    """Per-cell weights A^c_{k-1-s} - A^c_{k-s}, s = 0..k-1, of the rank-k source.

    `frozen[s]` holds the rank-s corner values of the cells, k = len(frozen);
    A^c are the Adomian polynomials of N at those values, orders 0..k, with
    the top slot k taken at v_k = 0, all from one composition.  Returns a
    (k, cells) array.
    """
    corners = [np.ravel(c) for c in frozen]
    k = len(corners)
    # the tail's row 0 is never read, and the top slot reads v_k = 0
    a = compose(nl.taylor_at(corners[0], k), corners + [np.zeros_like(corners[0])])
    return a[k - 1::-1] - a[k:0:-1]


def _adomian_source(nl: Nonlinearity, here: list, weights: np.ndarray) -> np.ndarray:
    """The rank-k Adomian source F^(k), k = len(here), on a batch of cells.

    `here[s]` holds the rank-s values at points of the cells (the cell
    shape followed by point axes) and `weights` the cells' (k, cells)
    `_corner_weights`.  With A^c the corner Adomian polynomials of N, all
    from one composition per rank (the top slot k at v_k = 0), and G = u N,

        F^(k) = sum_{s<k} (A^c_{k-1-s} - A^c_{k-s}) v_s - A_{k-1}(G; v),

    the last term being the running part sum_{s<k} A_{k-1-s}(N; v) v_s as
    one coefficient, `Nonlinearity.term_adomian`, computed at the points
    for that coefficient alone.  The corner part is one contraction over
    the ranks.
    """
    k = len(here)
    shape = here[0].shape
    v = [h.reshape(weights.shape[1], -1) for h in here]
    f = np.einsum("kc,kcp->cp", weights, v)
    f -= nl.term_adomian(v, k - 1)
    return f.reshape(shape)


# points per block of the whole-mesh Adomian source, rounded down to whole
# cells.  Chosen by measurement: on the 40x40, m = 7, P = 12 study (2-core
# Xeon, 2 MiB L2 per core) 10-12 Ki points ran fastest, 8 Ki a little slower,
# and 16 Ki or more lost most of the gain as the per-order temporaries grew
_SOURCE_BLOCK = 12288


def _blocks(cells: int, p: int, points: int):
    # slices of `points` points of the flat cells, rounded down to whole cells
    step = max(1, points // (p * p))
    return [slice(start, start + step) for start in range(0, cells, step)]


def _source_field(expansion: FdExpansion, k: int) -> np.ndarray:
    """F^(k) on the whole mesh, as one field, assembled in blocks of whole cells."""
    nl = expansion.problem.nonlinearity
    n1, n2, p, _ = expansion.corrections[0].values.shape
    prior = [u.values.reshape(n1 * n2, p, p) for u in expansion.corrections[:k]]
    weights = _corner_weights(nl, [v[:, 0, 0] for v in prior])
    out = np.empty_like(prior[0])
    for block in _blocks(n1 * n2, p, _SOURCE_BLOCK):
        out[block] = _adomian_source(nl, [v[block] for v in prior], weights[:, block])
    return out.reshape(n1, n2, p, p)


def _need_rank0(expansion: FdExpansion):
    if not expansion.corrections:
        raise ValueError("expected corrections 0..0 complete, have 0")


def solve_correction(expansion: FdExpansion, k: int) -> PiecewiseField:
    """The rank-k correction field, vanishing on both axes.

    Each cell solves u_xy + c_ij u = F^(k) - N'(u0_corner) * uk_corner * u0,
    where uk_corner is this correction's own lower-left corner value, already
    known from the march.  Before the march it takes the series weights of
    every cell on `cell_coeffs`, N at the u^(0) corners, with the term count
    of the mesh's largest |zeta|, and N' at the same corners, both in march
    order, and F^(k) on the whole mesh; each anti-diagonal then gathers its
    cells' sources, slices its weights and N', and solves them as rank 0
    does.  Nothing is kept on the expansion.
    """
    if k < 1:
        raise ValueError(f"corrections start at k=1, got k={k}")
    if len(expansion.corrections) != k:
        raise ValueError(f"expected corrections 0..{k - 1} complete, have {len(expansion.corrections)}")
    with np.errstate(**_QUIET):
        grid, p = expansion.grid, expansion.order
        size = grid.N1 * grid.N2
        u0 = expansion.corrections[0].values.reshape(size, p, p)
        order = _plan(grid.N1, grid.N2)[1]
        flat_ii, flat_jj = np.divmod(np.arange(size), grid.N2)
        coeffs = expansion.cell_coeffs.ravel()
        weights = [w[order] for w in _kernel_weights(grid, p, coeffs, flat_ii, flat_jj)]
        nprime = expansion.problem.nonlinearity.deriv(u0[order, 0, 0])
        source = _source_field(expansion, k).reshape(size, p, p)

        def cells(step, left):
            rhs = source[step.ids]
            rhs -= (nprime[step.at] * left[:, 0])[:, None, None] * u0[step.ids]
            return [w[step.at] for w in weights], rhs

        values = _march(grid, p, np.zeros((grid.N2, p)), np.zeros((grid.N1, p)), cells)
    return PiecewiseField(grid, values)


def _interior_residual_sup(expansion: FdExpansion, values: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Per-cell sup over interior nodes of values_xy + c_ij * values + rest.

    A residual that is not finite raises FdSolverError naming its first cell.
    """
    grid = expansion.grid
    d01 = _engine(expansion.order).diff01
    res = (d01 @ values @ d01.T) / (grid.h1 * grid.h2)
    res += expansion.cell_coeffs[:, :, None, None] * values + rest
    sup = np.max(np.abs(res[:, :, 1:-1, 1:-1]), axis=(2, 3))
    if not np.isfinite(sup).all():
        i, j = np.argwhere(~np.isfinite(sup))[0]
        raise FdSolverError(f"cell ({i}, {j}): the residual is not finite")
    return sup


def residual_basic(expansion: FdExpansion) -> np.ndarray:
    """Per-cell sup residual of the frozen-coefficient equation at interior nodes."""
    _need_rank0(expansion)
    grid = expansion.grid
    with np.errstate(**_QUIET):
        u0 = expansion.corrections[0].values
        f = _sample_cells(expansion.problem.f, *grid.cell_nodes(unit_cheb_nodes(expansion.order)))
        return _interior_residual_sup(expansion, u0, -f)


def residual_correction(expansion: FdExpansion, k: int) -> np.ndarray:
    """Per-cell sup residual of the rank-k correction equation at interior nodes.

    The source is the march's own, at the cells' first nodes.
    """
    if not 1 <= k <= expansion.rank:
        raise ValueError(f"have corrections 0..{expansion.rank}, got k={k}")
    with np.errstate(**_QUIET):
        u0, uk = expansion.corrections[0].values, expansion.corrections[k].values
        # minus the source F^(k) - N'(u0_corner) * uk_corner * u0
        nprime = expansion.problem.nonlinearity.deriv(u0[:, :, 0, 0])
        rest = (nprime * uk[:, :, 0, 0])[..., None, None] * u0
        rest -= _source_field(expansion, k)
        return _interior_residual_sup(expansion, uk, rest)
