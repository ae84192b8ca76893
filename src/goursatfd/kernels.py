"""0F1 series terms of the Riemann kernel of the operator u_xy + c*u.

The kernel is R(xi, eta; x, y) = 0F1(1; -c*(xi - x)*(eta - y)), an entire
function of its argument.  On a cell of sides h1, h2 the argument is zeta*s*t
with zeta = c*h1*h2 and s, t in [0, 1].  The solver sums the series term by
term against precomputed moments: `series_length` picks the term count for a
batch and refuses a zeta outside the accurate range, and `series_terms`
builds the terms.

The accurate range, |zeta| <= zeta_limit(P), has two conditions.

- Rounding.  The terms' magnitudes sum to I0(2 sqrt|zeta|) for either sign:
  for zeta > 0 they cancel to J0(2 sqrt(zeta s t)), at most 1, and for
  zeta < 0 a decaying cell solution is a difference of terms that large.
  Rounding leaves an error of about u I0(2 sqrt|zeta|) of the cell data, u
  the unit roundoff (Higham, Accuracy and Stability of Numerical Algorithms,
  2nd ed., sec. 4.2); Z_MAX keeps I0 <= 2^17, losing at most 17 of 53 bits.
- Resolution.  Along a cell side the kernel 0F1(1; -zeta s), s in [0, 1],
  has Chebyshev coefficients 2 I_n(sqrt|zeta|)^2 (alternating in sign for
  zeta > 0), whose leading part 2 (|zeta|/4)^n / (n!)^2 must be at most
  2^-16 at n = P, the first degree P nodes cannot represent.  This is the
  method's discretization error, which refinement reduces like that of the
  data, so the bound refuses only a kernel resolved to under five digits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["KernelRangeError", "series_length", "series_terms", "zeta_limit"]

# the root of I0(2 sqrt(z)) = 2^17
Z_MAX = 49.09226369901391
# the largest leading Chebyshev coefficient of degree P the kernel may have
RESOLUTION = 2.0 ** -16
# a term this far below term 0 = 1 is under half an ulp of it
TERM_FLOOR = 2.0 ** -54


class KernelRangeError(ValueError):
    """Series argument outside the accurate range: the mesh cell must be refined."""


@lru_cache(maxsize=None)
def zeta_limit(p: int) -> float:
    """The largest |zeta| accepted with P nodes per cell side.

    min(Z_MAX, 4 (RESOLUTION (P!)^2 / 2)^(1/P)): the resolution condition of
    the module docstring binds for P <= 12 (about 1.0 at P = 4, 13 at P = 8,
    42 at P = 12) and the rounding one above.
    """
    return min(Z_MAX, 4.0 * (0.5 * RESOLUTION * math.factorial(p) ** 2) ** (1.0 / p))


def series_length(zmax: float, p: int) -> int:
    """Number K of 0F1 series terms for a batch whose largest |zeta| is zmax.

    K is the index of the first term zmax^K / (K!)^2 at or below 2^-54, so
    every term left out is under half an ulp of term 0 and the terms decrease
    from there; zmax = 0 needs one term.  Raises KernelRangeError when zmax
    exceeds zeta_limit(p) or is NaN.
    """
    limit = zeta_limit(p)
    if math.isnan(zmax):
        raise KernelRangeError(f"|zeta| = {zmax} is not a number at P = {p}")
    if zmax > limit:
        raise KernelRangeError(f"|zeta| = {zmax:.4g} exceeds {limit:.4g} at P = {p}")
    n, term = 1, zmax
    while term > TERM_FLOOR:
        n += 1
        term *= zmax / (n * n)
    return n


def series_terms(z: np.ndarray, n: int) -> np.ndarray:
    """Rows z^k / (k!)^2 for k < n, one row per entry of the 1-d array z.

    Built by the term recurrence, so no power of z is formed.
    """
    k = np.arange(1, n)
    out = np.ones((z.size, n))
    np.cumprod(z[:, None] / (k * k), axis=1, out=out[:, 1:])
    return out
