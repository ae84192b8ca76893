"""The multiplier N(u) and its Adomian polynomials.

Given a multiplier function N(u) = sum_s nu_s u^s and a finite expansion
v(tau) = sum_s v_s tau^s, the Adomian polynomial A_n(N; v_0..v_n) is the n-th
Taylor coefficient of N(v(tau)) at tau = 0.  The solver computes them for
whole batches of points by composing Taylor rows of N with the tail
v - v_0 (`compose_with_tail`); the explicit partition sum
(`adomian_partition`) is kept as an independent oracle.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Callable

import numpy as np

__all__ = ["Nonlinearity", "adomian_partition"]

PARTITION_ORDER_CAP = 10


def compose_with_tail(taylor: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Coefficients of N(v(tau)) from Taylor rows of N at v_0 and the tail v - v_0.

    Both stacks are shaped (K+1, ...) and may carry trailing point axes;
    `tail[0]` must be zero.  With a_j the Taylor rows and t_i the tail rows,
    the partial Bell polynomials B[n, j] (the tau^n coefficients of the
    j-th power of the tail) obey

        B[n, 1] = t_n,   B[n, j] = sum_{i=1}^{n-j+1} t_i B[n-i, j-1],

    and A_0 = a_0, A_n = sum_{j=1}^{n} a_j B[n, j].  B[n, j] vanishes for
    n < j, so column j is stored for n = j..K only, and only the previous
    column is kept.
    """
    k = taylor.shape[0] - 1
    res = np.empty_like(taylor)
    res[0] = taylor[0]
    bell = tail[1:]  # column j = 1, rows n = 1..K
    np.multiply(taylor[1:2], bell, out=res[1:])
    for j in range(2, k + 1):
        nxt = np.zeros((k + 1 - j,) + bell.shape[1:])  # rows n = j..K
        for i in range(1, k + 2 - j):
            nxt[i - 1:] += tail[i] * bell[: k + 2 - j - i]
        res[j:] += taylor[j] * nxt
        bell = nxt
    return res


class Nonlinearity:
    """The multiplier N(u) with value, derivative, and recentered Taylor data.

    `series_coeffs` are the global coefficients nu_s of N(u) = sum nu_s u^s.
    `eval` and `deriv` are defined through `taylor_at`, so the three views can
    never disagree.  A preset may install an analytic `taylor_fn(center,
    order)`; otherwise the coefficients are treated as a polynomial and
    recentered exactly by binomial re-expansion.
    """

    def __init__(self, series_coeffs, taylor_fn: Callable | None = None):
        nu = np.atleast_1d(np.asarray(series_coeffs, dtype=float))
        if nu.ndim != 1 or nu.size == 0:
            raise ValueError("need at least the constant coefficient nu_0")
        if not np.all(np.isfinite(nu)):
            raise ValueError("multiplier coefficients must be finite")
        self.series_coeffs = nu
        self._taylor_fn = taylor_fn

    @classmethod
    def from_series(cls, nu) -> "Nonlinearity":
        """Polynomial multiplier defined by its global coefficients."""
        return cls(nu, taylor_fn=None)

    def taylor_at(self, center, order: int):
        """Taylor coefficients a_0..a_order of N around `center`.

        `center` may be a scalar or an array; the result gains a leading
        order axis.
        """
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        if self._taylor_fn is not None:
            out = np.asarray(self._taylor_fn(center, order), dtype=float)
        else:
            out = _recenter_poly(self.series_coeffs, center, order)
        expect = (order + 1,) + np.shape(center)
        if out.shape != expect:
            raise ValueError(
                f"taylor_at must supply {order + 1} coefficient rows, got shape {out.shape}"
            )
        return out

    def eval(self, u):
        """N(u); safe at removable singularities of closed forms."""
        return self.taylor_at(u, 0)[0]

    def deriv(self, u):
        """N'(u)."""
        return self.taylor_at(u, 1)[1]


def _recenter_poly(nu: np.ndarray, center, order: int) -> np.ndarray:
    # a_k = sum_{s >= k} nu_s C(s, k) center^(s-k); exact polynomial algebra.
    t = np.asarray(center, dtype=float)
    deg = len(nu) - 1
    out = np.zeros((order + 1,) + t.shape)
    for k in range(min(order, deg) + 1):
        acc = np.zeros_like(t)
        for s in range(deg, k - 1, -1):
            acc = acc * t + nu[s] * comb(s, k)
        out[k] = acc
    return out


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
