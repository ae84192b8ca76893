"""Mesh and piecewise Chebyshev tensor representation of functions on a rectangle.

A function on [0, X] x [0, Y] is stored cell by cell on Chebyshev-Gauss-Lobatto
(CGL) tensor grids and is continuous across cell edges.  Evaluation uses
barycentric interpolation, differentiation the barycentric differentiation
matrix, and integration Clenshaw-Curtis rules (which share the CGL nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "PiecewiseField",
    "cheb_nodes",
    "unit_cheb_nodes",
    "bary_matrix",
    "cheb_diff_matrix",
    "unit_cc_weights",
    "max_edge_jump",
]


class FdSolverError(RuntimeError):
    """Cell-level failure during a march, tagged with the cell index."""


def unit_cheb_nodes(p: int) -> np.ndarray:
    """P Chebyshev-Gauss-Lobatto points on [0, 1], ascending.

    Endpoints are exactly 0 and 1.
    """
    if p < 2:
        raise ValueError(f"need at least 2 Chebyshev nodes, got {p}")
    k = np.arange(p)
    s = np.sin(0.5 * np.pi * k / (p - 1)) ** 2
    s[0] = 0.0
    s[-1] = 1.0
    return s


def cheb_nodes(p: int, a: float, b: float) -> np.ndarray:
    """P CGL points on [a, b], ascending, endpoints included exactly."""
    if not a < b:
        raise ValueError(f"interval endpoints must satisfy a < b, got [{a}, {b}]")
    return _interval_nodes(a, b, unit_cheb_nodes(p))


def _interval_nodes(lo, hi, s: np.ndarray) -> np.ndarray:
    """Unit fractions `s` mapped onto [lo, hi], one row per interval.

    `lo` and `hi` are scalars or (n,) arrays, giving a (len(s),) or an
    (n, len(s)) result.  The fractions 0 and 1 land exactly on lo and hi.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    x = lo + (hi - lo) * s
    x[..., s == 0.0] = lo
    x[..., s == 1.0] = hi
    return x


def bary_weights(p: int) -> np.ndarray:
    """Barycentric weights for P CGL nodes (any interval, up to common scale)."""
    w = np.ones(p)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def bary_matrix(targets, nodes) -> np.ndarray:
    """Interpolation matrix from `nodes` to `targets`.

    `nodes` is one (P,) set for every target or one (n, P) row per target.
    Rows for targets that coincide exactly with a node are unit vectors, so
    interpolation at a stored node reproduces the stored value exactly.  So
    are rows for targets less than the smallest normal double from a node,
    whose weights would overflow.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    nodes = np.asarray(nodes, dtype=float)
    weights = bary_weights(nodes.shape[-1])
    diff = targets[:, None] - nodes
    hit_rows, hit_cols = np.nonzero(np.abs(diff) < np.finfo(float).tiny)
    diff[hit_rows, :] = 1.0  # placeholder; exact-hit rows become unit rows
    kern = weights[None, :] / diff
    kern[hit_rows, :] = 0.0
    kern[hit_rows, hit_cols] = 1.0
    return kern / kern.sum(axis=1, keepdims=True)


def cheb_diff_matrix(nodes) -> np.ndarray:
    """First-order differentiation matrix on the given nodes.

    Built from the barycentric formula; diagonal entries use the negative-sum
    trick for stability.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = bary_weights(len(nodes))
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (weights[None, :] / weights[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def unit_cc_weights(p: int) -> np.ndarray:
    """Clenshaw-Curtis weights for P CGL nodes on [0, 1] (ascending order).

    Exact for polynomials of degree <= P-1.
    """
    if p < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {p}")
    n = p - 1
    k = np.arange(p)
    w = np.zeros(p)
    for m in range(0, n + 1, 2):
        moment = 2.0 / (1.0 - m * m) if m else 2.0
        if m == 0 or m == n:
            moment *= 0.5
        w += moment * np.cos(m * k * np.pi / n)
    w *= 1.0 / n  # 2/n on [-1, 1], halved for [0, 1]
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _check_extents(X: float, Y: float):
    """Raise ValueError unless both domain extents are positive and finite (NaN fails)."""
    for name, v in (("X", X), ("Y", Y)):
        if not 0.0 < v < np.inf:
            raise ValueError(f"domain extent {name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular mesh on [0, X] x [0, Y] with N1 x N2 cells."""

    X: float
    Y: float
    N1: int
    N2: int

    def __post_init__(self):
        _check_extents(self.X, self.Y)
        if self.N1 < 1 or self.N2 < 1:
            raise ValueError(f"cell counts must be positive, got N1={self.N1}, N2={self.N2}")

    @property
    def h1(self) -> float:
        return self.X / self.N1

    @property
    def h2(self) -> float:
        return self.Y / self.N2

    @property
    def x_nodes(self) -> np.ndarray:
        x = self.h1 * np.arange(self.N1 + 1)
        x[-1] = self.X
        return x

    @property
    def y_nodes(self) -> np.ndarray:
        y = self.h2 * np.arange(self.N2 + 1)
        y[-1] = self.Y
        return y

    def cell_nodes(self, s: np.ndarray):
        """(N1, F) x-nodes and (N2, F) y-nodes of the cells at unit fractions `s`."""
        x, y = self.x_nodes, self.y_nodes
        return _interval_nodes(x[:-1], x[1:], s), _interval_nodes(y[:-1], y[1:], s)


# points per block of `PiecewiseField.evaluate`, whose gather of the blocks'
# cell tensors is 1.2 MB at P = 12
_EVAL_BLOCK = 1024


class PiecewiseField:
    """Function on a grid stored as per-cell P x P CGL tensors.

    `values[i, j, a, b]` is the value at the a-th x-node and b-th y-node of
    cell (i, j).  Adjacent cells share edge nodes, so continuity is a property
    of the stored data and is checked, not assumed.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 4 or values.shape[:2] != (grid.N1, grid.N2):
            raise ValueError(f"values must have shape (N1, N2, P, P), got {values.shape}")
        if values.shape[2] != values.shape[3] or values.shape[2] < 2:
            raise ValueError(f"per-cell tensors must be square with P >= 2, got {values.shape[2:]}")
        self.grid = grid
        self.values = values

    @property
    def order(self) -> int:
        return self.values.shape[2]

    def evaluate(self, x, y):
        """The field at the points (x, y), broadcast arrays; scalars give a float.

        A point on an edge shared by two cells takes the lower-index cell,
        whose own nodes carry the barycentric interpolation, so a stored node
        returns its stored value bit for bit.  A point outside the domain, or
        a NaN coordinate, raises ValueError naming the point.
        """
        grid = self.grid
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        # written so that a NaN fails
        inside = (0.0 <= x) & (x <= grid.X) & (0.0 <= y) & (y <= grid.Y)
        if not inside.all():
            n = np.argmin(inside)
            raise ValueError(f"point ({x.flat[n]}, {y.flat[n]}) outside domain "
                             f"[0, {grid.X}] x [0, {grid.Y}]")
        x, y = x.ravel(), y.ravel()
        # the first mesh node at or past a point closes its cell: an edge
        # point falls in the cell below the edge
        ii = np.clip(np.searchsorted(grid.x_nodes, x) - 1, 0, grid.N1 - 1)
        jj = np.clip(np.searchsorted(grid.y_nodes, y) - 1, 0, grid.N2 - 1)
        xs, ys = grid.cell_nodes(unit_cheb_nodes(self.order))
        out = np.empty(len(x))
        for start in range(0, len(x), _EVAL_BLOCK):
            b = slice(start, start + _EVAL_BLOCK)
            mx, my = bary_matrix(x[b], xs[ii[b]]), bary_matrix(y[b], ys[jj[b]])
            out[b] = (mx[:, None, :] @ self.values[ii[b], jj[b]] @ my[:, :, None])[:, 0, 0]
        return float(out[0]) if inside.ndim == 0 else out.reshape(inside.shape)


def max_edge_jump(f: PiecewiseField) -> float:
    """Largest mismatch of shared-edge samples between adjacent cells."""
    jump = 0.0
    if f.grid.N1 > 1:
        jump = max(jump, float(np.max(np.abs(f.values[:-1, :, -1, :] - f.values[1:, :, 0, :]))))
    if f.grid.N2 > 1:
        jump = max(jump, float(np.max(np.abs(f.values[:, :-1, :, -1] - f.values[:, 1:, :, 0]))))
    return jump


def _real(v, name: str = "") -> float:
    """float(v), refusing a complex v or an array, which float() would cast or reject unnamed."""
    prefix = f"{name}: " if name else ""
    if np.iscomplexobj(v):
        raise ValueError(f"{prefix}complex value {v!r}: the data must be real")
    if np.ndim(v):
        raise ValueError(f"{prefix}value of shape {np.shape(v)}: the data must be one number per point")
    return float(v)


def _broadcast_call(fn, *args: np.ndarray):
    """fn(*args) as a float array of the arguments' common shape, or None.

    A scalar result is broadcast; None means fn raised, returned another
    shape or a complex result, and the caller samples point by point
    instead, where a complex value raises ValueError.
    """
    try:
        out = np.asarray(fn(*args))
        if out.dtype.kind == "c":
            return None
        out = out.astype(float, copy=False)
    except Exception:
        return None
    if out.shape == args[0].shape:
        return out
    if out.ndim == 0:
        return np.full(args[0].shape, float(out))
    return None


def _sample_axis(fn, nodes: np.ndarray, name: str) -> np.ndarray:
    """fn, the data `name`, on the axis nodes (N, F) of the cells along one side.

    Point by point when fn does not take arrays, where an exception from fn
    is raised again as a ValueError naming the data and the node.
    """
    out = _broadcast_call(fn, nodes)
    return out if out is not None else np.array([[_axis_value(fn, v, name) for v in row]
                                                 for row in nodes])


def _axis_value(fn, v: float, name: str) -> float:
    """fn(v) as a float; an exception from fn is raised again naming `name` and v."""
    try:
        out = fn(v)
    except Exception as exc:
        raise ValueError(f"{name}: at node {float(v)!r}: {exc}") from exc
    return _real(out, name)


def _sample_cells(fn, xs: np.ndarray, ys: np.ndarray, ii=None, jj=None) -> np.ndarray:
    """fn on the tensor nodes of cells (ii, jj) (all cells by default).

    `xs` (N1, F) and `ys` (N2, F) are the cells' axis nodes; the result has
    the shape of `ii` followed by (F, F).  One call on broadcast coordinates
    when fn takes arrays and returns their shape (or a scalar); otherwise
    point by point, cell by cell, so that an error names its cell.
    """
    if ii is None:
        ii, jj = np.indices((len(xs), len(ys)))
    shape = ii.shape + (xs.shape[1], ys.shape[1])
    xg, yg = np.broadcast_to(xs[ii][..., :, None], shape), np.broadcast_to(ys[jj][..., None, :], shape)
    out = _broadcast_call(fn, xg, yg)
    if out is not None:
        return out
    out = np.empty(xg.shape)
    for idx in np.ndindex(ii.shape):
        i, j = ii[idx], jj[idx]
        try:
            out[idx] = [[_real(fn(x, y)) for y in ys[j]] for x in xs[i]]
        except Exception as exc:
            raise FdSolverError(f"cell ({i}, {j}): {exc}") from exc
    return out
