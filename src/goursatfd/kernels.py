"""Riemann kernel of the constant-coefficient operator u_xy + c*u.

The kernel is R(xi, eta; x, y) = 0F1(1; -c*(xi - x)*(eta - y)), an entire
function of its argument.  Cells are small at desk scale, so the argument
stays tiny and plain series summation is both fast and accurate; there is no
asymptotic branch.  The scalar `hyp0f1` is the reference evaluation; the
solver sums the same series term by term against precomputed moments, using
`series_length` and `series_terms` below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelRangeError",
    "RiemannKernel",
    "hyp0f1",
    "riemann",
    "riemann_d1",
    "riemann_d2",
    "series_length",
    "series_terms",
]

Z_MAX = 1.0e4
MAX_TERMS = 500


class KernelRangeError(ValueError):
    """Series argument too large: the mesh cell must be refined."""


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


def series_length(zmax: float) -> int:
    """Number of 0F1 series terms needed for every |z| <= zmax.

    The count K is the smallest with zmax^(K-1) / ((K-1)!)^2 <= 1e-18, capped
    at 501; the terms of 0F1(b; z) for b >= 1 are no larger.  Arguments with
    |z| > 1e4 are rejected.
    """
    if zmax > Z_MAX:
        raise KernelRangeError(f"|z| = {zmax:.3g} exceeds {Z_MAX:.0g}; refine the mesh")
    n, term = 1, 1.0
    while term > 1.0e-18 and n <= MAX_TERMS:
        term *= zmax / (n * n)
        n += 1
    return n


def series_terms(b: float, z: np.ndarray, n: int) -> np.ndarray:
    """Rows z^k / ((b)_k k!) for k < n, one row per entry of the 1-d array z.

    Built by the term recurrence, so no power of z is formed: for |z| up to
    1e4 the largest coefficient stays near 1e84 and nothing overflows.
    """
    k = np.arange(1, n)
    out = np.ones((z.size, n))
    np.cumprod(z[:, None] / ((b + k - 1) * k), axis=1, out=out[:, 1:])
    return out


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
