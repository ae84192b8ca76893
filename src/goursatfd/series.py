"""The multiplier N(u), the nonlinear term G(u) = u N(u), and their Adomian polynomials.

Given a function F(u) and a finite expansion v(tau) = sum_s v_s tau^s, the
Adomian polynomial A_n(F; v_0..v_n) is the n-th Taylor coefficient of
F(v(tau)) at tau = 0.  `compose` gives every order 0..K at once from the
Taylor rows of F at v_0 and the tail v - v_0, by Horner's rule on truncated
series (Knuth, TAOCP vol. 2, section 4.7; Brent & Kung, J. ACM 25(4), 1978)
in about K^3 / 6 row products.  The Adomian polynomials of a product are
the Cauchy product of its factors' (Rach, J. Math. Anal. Appl. 102, 1984),
so sum_{s<=n} A_{n-s}(N; v) v_s is the single coefficient A_n(G; v),
`Nonlinearity.term_adomian`.  A correction source composes N at the cell
corners, once per rank, and takes that one coefficient of G at the cell
points, by the multiplier's own function: for a polynomial, by composing
G's rows to order n - 1 and taking Horner's last step for order n alone;
for the benchmark's G = 1 - e^(2u), by the recurrence of the exponential of
a power series, about n^2 / 2 row updates.
"""

from __future__ import annotations

from functools import partial
from math import comb
from typing import Callable

import numpy as np

__all__ = ["Nonlinearity"]


def compose(taylor: np.ndarray, tail) -> np.ndarray:
    """A_0..A_K of F(v(tau)) from Taylor rows a_0..a_d of F at v_0 and the tail w = v - v_0.

    `tail` holds K + 1 rows of one shape, as a stack or a list, and its row 0
    is never read; `taylor` holds d + 1 rows of that shape.  By Horner's rule
    on truncated series, F = a_0 + w (a_1 + w (a_2 + ... + w a_d)), inner
    series first; below a_j only orders up to K - j are needed, so every
    order together costs about K^3 / 6 row products, and a polynomial of
    degree d < K stops at a_d, whose first step, h = a_d, forms only the
    products w_n a_d.  Each step h <- a_j + w h overwrites the orders of h
    top first, in place: order n reads only orders below it.
    """
    k, d = len(tail) - 1, len(taylor) - 1
    out = np.zeros((k + 1,) + np.shape(taylor[0]))
    scratch = np.empty_like(out[0])
    for j in range(d - 1, -1, -1):
        # order 0 of the inner series is a_(j+1) itself, read from its row; on
        # the first step, j = d - 1, its orders above 0 are zero, so skipped
        for n in range(k - j, 0, -1):
            np.multiply(tail[n], taylor[j + 1], out=out[n, ...])
            for i in range(1, n if j < d - 1 else 1):
                out[n] += np.multiply(tail[i], out[n - i], out=scratch)
    out[0] = taylor[0]
    return out


class Nonlinearity:
    """The multiplier N(u) and the term G(u) = u N(u), given by two functions.

    `taylor_fn(center, order)` gives the Taylor rows a_0..a_order of N at
    each center, row 0 not depending on `order`; `term_adomian_fn(v, n)`
    gives A_n(G; v) for n >= 1.  `eval` and `deriv` are defined through
    `taylor_at`, so the three views can never disagree.

    `term_adomian(v, n)` gives what the solver reads of G: the one Adomian
    coefficient A_n(G; v).  A_0 is v_0 N(v_0), N(v_0) bit for bit as `eval`
    gives it, for every multiplier: a rank-1 correction source then vanishes
    exactly where u0 is its cell's corner value.  `from_series` builds the
    pair of a polynomial multiplier; a preset gives analytic ones.
    """

    def __init__(self, taylor_fn: Callable, term_adomian_fn: Callable):
        self._taylor_fn = taylor_fn
        self._term_adomian_fn = term_adomian_fn

    @classmethod
    def from_series(cls, nu) -> Nonlinearity:
        """Polynomial multiplier N(u) = sum nu_s u^s, from its global coefficients.

        N's rows are its coefficients recentered exactly by binomial
        re-expansion, and A_n(G) composes the rows 1..min(n, deg) of G,
        [0, nu_0, nu_1, ...], recentered the same way, so a polynomial's
        degree ends the composition.
        """
        nu = np.atleast_1d(np.asarray(nu, dtype=float))
        if nu.ndim != 1 or nu.size == 0:
            raise ValueError("need at least the constant coefficient nu_0")
        if not np.all(np.isfinite(nu)):
            raise ValueError("multiplier coefficients must be finite")
        return cls(partial(_recenter_poly, nu),
                   partial(_poly_term_adomian, np.concatenate(([0.0], nu))))

    def taylor_at(self, center, order: int):
        """Taylor coefficients a_0..a_order of N around `center`.

        `center` may be a scalar or an array; the result gains a leading
        order axis.
        """
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        return _checked(self._taylor_fn(center, order), (order + 1,) + np.shape(center))

    def term_adomian(self, v, n: int):
        """A_n(G; v_0..v_n), the tau^n coefficient of G(v(tau)), v(tau) = sum_s v_s tau^s.

        `v` is a stack or a list of rows of one shape, at least n + 1 of
        them; rows past n are not read.  The result has the rows' shape.
        """
        if not 0 <= n < len(v):
            raise ValueError(f"order must be in 0..{len(v) - 1} for {len(v)} rows, got {n}")
        if n == 0:
            return v[0] * self.eval(v[0])
        return _checked(self._term_adomian_fn(v, n), np.shape(v[0]))

    def eval(self, u):
        """N(u); safe at removable singularities of closed forms."""
        return self.taylor_at(u, 0)[0]

    def deriv(self, u):
        """N'(u)."""
        return self.taylor_at(u, 1)[1]


def _poly_term_adomian(g: np.ndarray, v, n: int) -> np.ndarray:
    """A_n(G; v), n >= 1, of the polynomial G with global coefficients g, g_0 = 0."""
    # compose G's rows 1..min(n, deg) to order n - 1 (v serves as the tail,
    # its row 0 unread), then take Horner's last step A_n = sum_i v_i C_(n-i)
    # alone, in place over C's rows
    deg = len(g) - 1
    c = compose(_recenter_poly(g, v[0], min(n, deg))[1:], v[:n])
    out = np.multiply(v[1], c[n - 1], out=c[n - 1, ...])
    for i in range(2, n + 1):
        out += np.multiply(v[i], c[n - i], out=c[n - i, ...])
    return out


def _checked(out, expect: tuple) -> np.ndarray:
    out = np.asarray(out, dtype=float)
    if out.shape != expect:
        raise ValueError(f"a multiplier function's result must have shape {expect}, got {out.shape}")
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
