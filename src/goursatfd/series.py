"""The multiplier N(u), the nonlinear term G(u) = u N(u), and their Adomian polynomials.

Given a function F(u) and a finite expansion v(tau) = sum_s v_s tau^s, the
Adomian polynomial A_n(F; v_0..v_n) is the n-th Taylor coefficient of
F(v(tau)) at tau = 0.  `compose_last` composes Taylor rows of F at v_0 with
the tail v - v_0 through the partial Bell triangle (Comtet, Advanced
Combinatorics, 1974, section 3.3) and keeps only the last coefficient: A_n
is the last coefficient of the order-n composition, so one function serves
every order.  The Adomian polynomials of a product are the Cauchy product
of its factors' (Rach, J. Math. Anal. Appl. 102, 1984), so
sum_{s<=n} A_{n-s}(N; v) v_s is the single coefficient A_n(G; v),
`Nonlinearity.term_adomian`.  A correction source composes N at the cell
corners, once per order, and takes that one coefficient of G at the cell
points: by the Bell walk for a polynomial multiplier, and by the preset's
own hook otherwise (for the benchmark's G = 1 - e^(2u), the recurrence of
the exponential of a power series, about n^2 / 2 row updates).
"""

from __future__ import annotations

from math import comb
from typing import Callable

import numpy as np

__all__ = ["Nonlinearity"]


def _bell_columns(tail):
    """Columns j = 1..K of the partial Bell triangle of `tail` (K+1 rows, t_0 never read).

    B[n, j], the tau^n coefficient of the j-th power of the tail, obeys

        B[n, 1] = t_n,   B[n, j] = sum_{i=1}^{n-j+1} t_i B[n-i, j-1].

    It vanishes for n < j, so column j is yielded as rows n = j..K only.
    `tail` may be a list of rows; columns j >= 2 are built in place, a row
    product at a time, in two alternating buffers and one scratch buffer.
    """
    k = len(tail) - 1
    if k == 0:
        return
    bell = tail[1:]
    yield bell
    shape = np.shape(tail[-1])
    columns, scratch = np.empty((2, k - 1) + shape), np.empty((max(k - 2, 0),) + shape)
    for j in range(2, k + 1):
        nxt = columns[j % 2, :k + 1 - j]
        for i in range(1, k + 2 - j):
            prod = nxt if i == 1 else scratch[:k + 2 - j - i]
            for r in range(k + 2 - j - i):
                np.multiply(tail[i], bell[r], out=prod[r, ...])
            if i > 1:
                nxt[i - 1:] += prod
        yield nxt
        bell = nxt


def compose_last(taylor: np.ndarray, tail) -> np.ndarray:
    """The last coefficient A_K of F(v(tau)) from Taylor rows of F at v_0 and the tail v - v_0.

    Both stacks are shaped (K+1, ...) and may carry trailing point axes;
    `tail` may also be a list of its rows, and `tail[0]` is never read.  With
    a_j the Taylor rows and B the partial Bell triangle of the tail, the walk
    dots only the triangle's last row with the Taylor rows,
    A_K = sum_{j=1}^{K} a_j B[K, j] (A_0 = a_0).
    """
    if taylor.shape[0] == 1:
        return taylor[0].copy()
    res = np.zeros_like(taylor[0])
    scratch = np.empty_like(res)
    for j, column in enumerate(_bell_columns(tail), 1):
        res += np.multiply(taylor[j], column[-1], out=scratch)
    return res


class Nonlinearity:
    """The multiplier N(u) and the term G(u) = u N(u), with recentered Taylor data.

    `series_coeffs` are the global coefficients nu_s of N(u) = sum nu_s u^s.
    `eval` and `deriv` are defined through `taylor_at`, so the three views can
    never disagree.

    `term_adomian(v, n)` gives what the solver reads of G: the one Adomian
    coefficient A_n(G; v).  A_0 is v_0 N(v_0), N(v_0) bit for bit as `eval`
    gives it, for every multiplier: a rank-1 correction source then vanishes
    exactly where u0 is its cell's corner value.  By default N's rows are
    its coefficients, recentered exactly by binomial re-expansion, and
    A_n(G) composes the rows of G, [0, nu_0, nu_1, ...], recentered the same
    way.  A preset replaces both
    with analytic hooks `taylor_fn(center, order)`, whose row 0 must not
    depend on `order`, and `term_adomian_fn(v, n)` for n >= 1; it gives both
    or neither.
    """

    def __init__(self, series_coeffs, taylor_fn: Callable | None = None,
                 term_adomian_fn: Callable | None = None):
        nu = np.atleast_1d(np.asarray(series_coeffs, dtype=float))
        if nu.ndim != 1 or nu.size == 0:
            raise ValueError("need at least the constant coefficient nu_0")
        if not np.all(np.isfinite(nu)):
            raise ValueError("multiplier coefficients must be finite")
        if (taylor_fn is None) != (term_adomian_fn is None):
            raise ValueError("give both taylor_fn and term_adomian_fn, or neither")
        self.series_coeffs = nu
        self._taylor_fn = taylor_fn
        self._term_adomian_fn = term_adomian_fn

    @classmethod
    def from_series(cls, nu) -> "Nonlinearity":
        """Polynomial multiplier defined by its global coefficients."""
        return cls(nu)

    def taylor_at(self, center, order: int):
        """Taylor coefficients a_0..a_order of N around `center`.

        `center` may be a scalar or an array; the result gains a leading
        order axis.
        """
        _check_order(order)
        if self._taylor_fn is not None:
            out = self._taylor_fn(center, order)
        else:
            out = _recenter_poly(self.series_coeffs, center, order)
        return _checked(out, (order + 1,) + np.shape(center))

    def term_adomian(self, v, n: int):
        """A_n(G; v_0..v_n), the tau^n coefficient of G(v(tau)), v(tau) = sum_s v_s tau^s.

        `v` is a stack or a list of rows of one shape, at least n + 1 of
        them; rows past n are not read.  The result has the rows' shape.
        """
        if not 0 <= n < len(v):
            raise ValueError(f"order must be in 0..{len(v) - 1} for {len(v)} rows, got {n}")
        if n == 0:
            return v[0] * self.eval(v[0])
        if self._term_adomian_fn is not None:
            out = self._term_adomian_fn(v, n)
        else:
            # the walk never reads the tail's row 0, so v serves as the tail v - v_0
            g = _recenter_poly(np.concatenate(([0.0], self.series_coeffs)), v[0], n)
            out = compose_last(g, v[:n + 1])
        return _checked(out, np.shape(v[0]))

    def eval(self, u):
        """N(u); safe at removable singularities of closed forms."""
        return self.taylor_at(u, 0)[0]

    def deriv(self, u):
        """N'(u)."""
        return self.taylor_at(u, 1)[1]


def _check_order(order: int):
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")


def _checked(out, expect: tuple) -> np.ndarray:
    out = np.asarray(out, dtype=float)
    if out.shape != expect:
        raise ValueError(f"a hook's result must have shape {expect}, got {out.shape}")
    return out


def _recenter_poly(nu: np.ndarray, center, order: int) -> np.ndarray:
    # a_k = sum_{s >= k} nu_s C(s, k) center^(s-k); exact polynomial algebra,
    # each row by Horner's rule in place
    t = np.asarray(center, dtype=float)
    deg = len(nu) - 1
    out = np.zeros((order + 1,) + t.shape)
    for k in range(min(order, deg) + 1):
        acc = out[k, ...]
        acc[...] = nu[deg] * comb(deg, k)
        for s in range(deg - 1, k - 1, -1):
            acc *= t
            acc += nu[s] * comb(s, k)
    return out
