"""Mesh and piecewise Chebyshev tensor representation of functions on a rectangle.

A function on [0, X] x [0, Y] is stored cell by cell on Chebyshev-Gauss-Lobatto
(CGL) tensor grids and is continuous across cell edges.  Evaluation uses
barycentric interpolation, differentiation the barycentric differentiation
matrix, and integration Clenshaw-Curtis rules (which share the CGL nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "PiecewiseField",
    "EdgeTrace",
    "cheb_nodes",
    "unit_cheb_nodes",
    "bary_weights",
    "bary_matrix",
    "cheb_diff_matrix",
    "clenshaw_curtis_weights",
    "unit_cc_weights",
    "integrate_1d",
    "integrate_2d",
    "eval_field",
    "edge_trace",
    "edge_derivative",
    "corner_table",
    "max_edge_jump",
]


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
    x = a + (b - a) * unit_cheb_nodes(p)
    x[0] = a
    x[-1] = b
    return x


def bary_weights(p: int) -> np.ndarray:
    """Barycentric weights for P CGL nodes (any interval, up to common scale)."""
    w = np.ones(p)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def bary_matrix(targets, nodes, weights=None) -> np.ndarray:
    """Interpolation matrix from `nodes` to `targets`.

    Rows for targets that coincide exactly with a node are unit vectors, so
    interpolation at a stored node reproduces the stored value exactly.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    nodes = np.asarray(nodes, dtype=float)
    if weights is None:
        weights = bary_weights(len(nodes))
    diff = targets[:, None] - nodes[None, :]
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    diff[hit_rows, :] = 1.0  # placeholder; exact-hit rows become unit rows
    kern = weights[None, :] / diff
    kern[hit_rows, :] = 0.0
    kern[hit_rows, hit_cols] = 1.0
    return kern / kern.sum(axis=1, keepdims=True)


def cheb_diff_matrix(nodes, weights=None) -> np.ndarray:
    """First-order differentiation matrix on the given nodes.

    Built from the barycentric formula; diagonal entries use the negative-sum
    trick for stability.
    """
    nodes = np.asarray(nodes, dtype=float)
    p = len(nodes)
    if weights is None:
        weights = bary_weights(p)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (weights[None, :] / weights[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def clenshaw_curtis_weights(p: int) -> np.ndarray:
    """Clenshaw-Curtis weights for P CGL nodes on [-1, 1] (ascending order).

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
    w *= 2.0 / n
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def unit_cc_weights(p: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [0, 1]."""
    return 0.5 * clenshaw_curtis_weights(p)


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


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular mesh on [0, X] x [0, Y] with N1 x N2 cells."""

    X: float
    Y: float
    N1: int
    N2: int

    def __post_init__(self):
        if self.X <= 0 or self.Y <= 0:
            raise ValueError(f"domain extents must be positive, got X={self.X}, Y={self.Y}")
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

    def cell_rect(self, i: int, j: int):
        """Closed cell (i, j), 0-based: [x_i, x_{i+1}] x [y_j, y_{j+1}]."""
        x = self.x_nodes
        y = self.y_nodes
        return (x[i], x[i + 1], y[j], y[j + 1])

    def locate(self, x: float, y: float):
        """Owning cell of a point; edge points belong to the lower-index cell."""
        if not (0.0 <= x <= self.X and 0.0 <= y <= self.Y):
            raise ValueError(f"point ({x}, {y}) outside domain [0, {self.X}] x [0, {self.Y}]")
        return (_locate_1d(x, self.h1, self.N1), _locate_1d(y, self.h2, self.N2))


def _locate_1d(v: float, h: float, n: int) -> int:
    i = int(np.floor(v / h))
    i = min(max(i, 0), n - 1)
    if i > 0 and v <= i * h:
        i -= 1
    elif i < n - 1 and v > (i + 1) * h:
        i += 1
    return i


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

    @classmethod
    def sample(cls, grid: Grid, p: int, fn: Callable[[float, float], float]) -> "PiecewiseField":
        """Sample a callable on every cell's tensor nodes."""
        s = unit_cheb_nodes(p)
        vals = np.empty((grid.N1, grid.N2, p, p))
        for i in range(grid.N1):
            for j in range(grid.N2):
                x0, x1, y0, y1 = grid.cell_rect(i, j)
                xn = x0 + (x1 - x0) * s
                yn = y0 + (y1 - y0) * s
                xn[0], xn[-1] = x0, x1
                yn[0], yn[-1] = y0, y1
                vals[i, j] = _sample_2d(fn, xn, yn)
        return cls(grid, vals)

    def cell_nodes(self, i: int, j: int):
        """The (x-nodes, y-nodes) of cell (i, j), endpoints exact."""
        x0, x1, y0, y1 = self.grid.cell_rect(i, j)
        p = self.order
        return cheb_nodes(p, x0, x1), cheb_nodes(p, y0, y1)

    def evaluate(self, x: float, y: float) -> float:
        i, j = self.grid.locate(x, y)
        return self.evaluate_in_cell(i, j, x, y)

    def evaluate_in_cell(self, i: int, j: int, x: float, y: float) -> float:
        """Barycentric tensor interpolation using cell (i, j)'s data."""
        xn, yn = self.cell_nodes(i, j)
        mx = bary_matrix([x], xn)[0]
        my = bary_matrix([y], yn)[0]
        return float(mx @ self.values[i, j] @ my)


def eval_field(f: PiecewiseField, x: float, y: float) -> float:
    """Evaluate a piecewise field; edge points resolve to the lower-index cell."""
    return f.evaluate(x, y)


@dataclass(frozen=True)
class EdgeTrace:
    """One-dimensional spectral function: P samples at CGL nodes of [a, b]."""

    values: np.ndarray
    a: float
    b: float

    @property
    def nodes(self) -> np.ndarray:
        return cheb_nodes(len(self.values), self.a, self.b)


def edge_trace(f: PiecewiseField, i: int, j: int, side: str) -> EdgeTrace:
    """Boundary samples of cell (i, j) on its 'left' or 'bottom' side."""
    x0, x1, y0, y1 = f.grid.cell_rect(i, j)
    if side == "left":
        return EdgeTrace(f.values[i, j, 0, :].copy(), y0, y1)
    if side == "bottom":
        return EdgeTrace(f.values[i, j, :, 0].copy(), x0, x1)
    raise ValueError(f"side must be 'left' or 'bottom', got {side!r}")


def edge_derivative(trace: EdgeTrace) -> EdgeTrace:
    """Spectral first derivative of a trace, on the same nodes and interval."""
    d = cheb_diff_matrix(trace.nodes)
    return EdgeTrace(d @ trace.values, trace.a, trace.b)


def corner_table(f: PiecewiseField) -> np.ndarray:
    """(N1+1) x (N2+1) table of values at the grid corner nodes.

    Corner (i, j) is read from the cell that owns it under the lower-index
    tie-break, which is exact because cell tensors include their corners.
    """
    n1, n2 = f.grid.N1, f.grid.N2
    p = f.order
    table = np.empty((n1 + 1, n2 + 1))
    for i in range(n1 + 1):
        ci, a = (i - 1, p - 1) if i > 0 else (0, 0)
        for j in range(n2 + 1):
            cj, b = (j - 1, p - 1) if j > 0 else (0, 0)
            table[i, j] = f.values[ci, cj, a, b]
    return table


def max_edge_jump(f: PiecewiseField) -> float:
    """Largest mismatch of shared-edge samples between adjacent cells."""
    jump = 0.0
    if f.grid.N1 > 1:
        jump = max(jump, float(np.max(np.abs(f.values[:-1, :, -1, :] - f.values[1:, :, 0, :]))))
    if f.grid.N2 > 1:
        jump = max(jump, float(np.max(np.abs(f.values[:, :-1, :, -1] - f.values[:, 1:, :, 0]))))
    return jump


def _sample_grid(fn, x: np.ndarray, y: np.ndarray):
    """fn on broadcast coordinate arrays in one call, or None if fn is scalar-only.

    `x` and `y` broadcast together to the target shape (no copy is made); the
    result must have exactly that shape, or be a scalar, to be accepted.
    """
    xg, yg = np.broadcast_arrays(x, y)
    try:
        out = np.asarray(fn(xg, yg), dtype=float)
    except Exception:
        return None
    if out.shape == xg.shape:
        return out
    if out.ndim == 0:
        return np.full(xg.shape, float(out))
    return None


def _sample_2d(fn, xn: np.ndarray, yn: np.ndarray) -> np.ndarray:
    """Evaluate fn on a tensor grid, preferring a vectorized call."""
    out = _sample_grid(fn, xn[:, None], yn[None, :])
    if out is not None:
        return out
    return np.array([[float(fn(x, y)) for y in yn] for x in xn])
