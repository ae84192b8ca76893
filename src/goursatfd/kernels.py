"""0F1 series terms of the Riemann kernel of the operator u_xy + c*u.

The kernel is R(xi, eta; x, y) = 0F1(1; -c*(xi - x)*(eta - y)), an entire
function of its argument.  Cells are small at desk scale, so the argument
stays tiny and plain series summation is both fast and accurate; there is no
asymptotic branch.  The solver sums the series term by term against
precomputed moments: `series_length` picks the term count for a batch and
`series_terms` builds the terms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelRangeError", "series_length", "series_terms"]

Z_MAX = 1.0e4
MAX_TERMS = 500


class KernelRangeError(ValueError):
    """Series argument too large: the mesh cell must be refined."""


def series_length(zmax: float) -> int:
    """Number of 0F1 series terms needed for every |z| <= zmax.

    The count K is the smallest with zmax^(K-1) / ((K-1)!)^2 <= 1e-18, capped
    at 501.  Arguments with |z| > 1e4 are rejected.
    """
    if zmax > Z_MAX:
        raise KernelRangeError(f"|z| = {zmax:.3g} exceeds {Z_MAX:.0g}; refine the mesh")
    n, term = 1, 1.0
    while term > 1.0e-18 and n <= MAX_TERMS:
        term *= zmax / (n * n)
        n += 1
    return n


def series_terms(z: np.ndarray, n: int) -> np.ndarray:
    """Rows z^k / (k!)^2 for k < n, one row per entry of the 1-d array z.

    Built by the term recurrence, so no power of z is formed: for |z| up to
    1e4 the largest coefficient stays near 1e84 and nothing overflows.
    """
    k = np.arange(1, n)
    out = np.ones((z.size, n))
    np.cumprod(z[:, None] / (k * k), axis=1, out=out[:, 1:])
    return out
