"""Reference implementations that the solver does not run, kept as test oracles.

- `hyp0f1` and the pointwise Riemann kernel `riemann`, `riemann_d1`,
  `riemann_d2`: scalar 0F1 summation, against which the batched moment
  solve and the kernel identities are checked;
- `integrate_1d`, `integrate_2d`: Clenshaw-Curtis quadrature of callables;
- `TruncatedSeries`, `series_compose_nonlinearity`: Adomian polynomials of
  one scalar series through the production composition;
- `correction_rhs`: the rank-k Adomian source F^(k) at one point of one
  cell, through the production assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from goursatfd.field import cheb_nodes, unit_cc_weights
from goursatfd.kernels import KernelRangeError
from goursatfd.series import Nonlinearity, compose_with_tail
from goursatfd.solver import FdExpansion, _adomian_source


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
# Adomian polynomials of one scalar series


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
    frozen = [expansion.corrections[s].values[i, j, 0, 0] for s in range(k)]
    here = [np.array([expansion.corrections[s].evaluate_in_cell(i, j, x, y)]) for s in range(k)]
    return float(_adomian_source(expansion.problem.nonlinearity, frozen, here)[0])
