"""Truncated series arithmetic, Adomian polynomials, and their partition oracle."""

import math

import numpy as np
import pytest

from goursatfd.series import Nonlinearity, compose
from goursatfd.harness import MAX_RANK, liouville_multiplier
from oracles import (
    PARTITION_ORDER_CAP,
    SINE_GORDON_NU,
    TruncatedSeries,
    adomian_partition,
    compose_with_tail,
    liouville_term_taylor,
    series_compose_nonlinearity,
    sine_gordon_problem,
)


def test_series_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(np.array([]))
    with pytest.raises(ValueError):
        TruncatedSeries([1.0, np.nan])
    s = TruncatedSeries([1.0, 2.0, 3.0])
    assert s.order == 2


def test_compose_constant_series():
    nl = liouville_multiplier()
    out = series_compose_nonlinearity(nl, TruncatedSeries([0.0]))
    assert out.order == 0
    assert abs(out.coeffs[0] - (-2.0)) < 1e-14


def test_compose_order_one_is_chain_rule():
    rng = np.random.default_rng(3)
    for _ in range(20):
        nl = Nonlinearity.from_series(rng.uniform(-1, 1, size=6))
        v = TruncatedSeries(rng.uniform(-1, 1, size=4))
        out = series_compose_nonlinearity(nl, v)
        expect = nl.deriv(v.coeffs[0]) * v.coeffs[1]
        assert abs(out.coeffs[1] - expect) < 1e-13


def test_compose_square_example():
    nl = Nonlinearity.from_series([0.0, 0.0, 1.0])  # N(u) = u^2
    out = series_compose_nonlinearity(nl, TruncatedSeries([1.0, 1.0, 1.0]))
    assert np.allclose(out.coeffs, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)


def test_partition_trivial_orders():
    nl = liouville_multiplier()
    assert adomian_partition(nl, [0.3]) == pytest.approx(float(nl.eval(0.3)), abs=1e-15)
    v1 = adomian_partition(nl, [0.3, 0.7])
    assert v1 == pytest.approx(float(nl.deriv(0.3)) * 0.7, rel=1e-13)


def test_partition_square_example():
    nl = Nonlinearity.from_series([0.0, 0.0, 1.0])
    assert adomian_partition(nl, [1.0, 1.0, 1.0]) == pytest.approx(3.0, abs=1e-14)


def test_partition_order_cap():
    nl = Nonlinearity.from_series([1.0, 1.0])
    with pytest.raises(ValueError):
        adomian_partition(nl, np.zeros(12))


def test_composition_matches_partition_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        nl = Nonlinearity.from_series(rng.uniform(-1, 1, size=rng.integers(1, 9)))
        v = TruncatedSeries(rng.uniform(-1, 1, size=rng.integers(1, 7)))
        comp = series_compose_nonlinearity(nl, v)
        for n in range(v.order + 1):
            ref = adomian_partition(nl, v.coeffs[: n + 1])
            assert abs(comp.coeffs[n] - ref) <= 1e-12


def test_vectorized_composition_matches_partition_oracle():
    # point axes as the solver passes them: every point composes on its own
    rng = np.random.default_rng(19)
    multipliers = [liouville_multiplier()] + [
        Nonlinearity.from_series(rng.uniform(-1, 1, size=d)) for d in (1, 4, 9)]
    for order in range(PARTITION_ORDER_CAP + 1):
        for nl in multipliers:
            v = rng.uniform(-0.8, 0.8, size=(order + 1, 2, 3))
            v[0] = [[-2.0, -0.7, -0.2], [0.1, 0.45, 0.9]]  # both liouville branches
            tail = v.copy()
            tail[0] = 0.0
            comp = compose_with_tail(nl.taylor_at(v[0], order), tail)
            assert comp.shape == v.shape
            for idx in np.ndindex(2, 3):
                for n in range(order + 1):
                    ref = adomian_partition(nl, v[(slice(0, n + 1),) + idx])
                    assert abs(comp[(n,) + idx] - ref) <= 1e-12 * (1.0 + abs(ref))


def test_degenerate_tail_sums_to_plain_value():
    # v = (u, 0, 0, ...): all Adomian polynomials beyond order 0 vanish,
    # so the composed series evaluated at tau=1 is N(u) itself.
    rng = np.random.default_rng(5)
    nl = liouville_multiplier()
    for u in rng.uniform(-2, 1, size=10):
        v = TruncatedSeries([u, 0.0, 0.0, 0.0, 0.0])
        comp = series_compose_nonlinearity(nl, v)
        assert abs(comp.coeffs.sum() - float(nl.eval(u))) < 1e-13
        assert np.all(np.abs(comp.coeffs[1:]) < 1e-15)


def test_top_slot_linearity():
    # A_n(N; v0..v_{n-1}, v_n) - A_n(N; v0..v_{n-1}, 0) = N'(v0) v_n
    rng = np.random.default_rng(7)
    for _ in range(40):
        nl = Nonlinearity.from_series(rng.uniform(-1, 1, size=7))
        coeffs = rng.uniform(-1, 1, size=5)
        n = len(coeffs) - 1
        zeroed = coeffs.copy()
        zeroed[n] = 0.0
        full = series_compose_nonlinearity(nl, TruncatedSeries(coeffs)).coeffs[n]
        base = series_compose_nonlinearity(nl, TruncatedSeries(zeroed)).coeffs[n]
        expect = nl.deriv(coeffs[0]) * coeffs[n]
        assert abs((full - base) - expect) <= 1e-12 * (1.0 + abs(expect))


def test_polynomial_recenter_matches_numpy():
    rng = np.random.default_rng(13)
    for _ in range(20):
        nu = rng.uniform(-1, 1, size=6)
        nl = Nonlinearity.from_series(nu)
        t = float(rng.uniform(-2, 2))
        mine = nl.taylor_at(t, 5)
        poly = np.polynomial.Polynomial(nu)
        for k in range(6):
            ref = poly.deriv(k)(t) / math.factorial(k) if k else poly(t)
            assert mine[k] == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_taylor_at_zero_returns_global_coeffs():
    # liouville's rows at 0 are checked against their closed form below
    nl = Nonlinearity.from_series([0.5, -1.5, 2.0])
    assert np.array_equal(nl.taylor_at(0.0, 2), [0.5, -1.5, 2.0])
    assert np.array_equal(nl.taylor_at(0.0, 4), [0.5, -1.5, 2.0, 0.0, 0.0])


def test_eval_is_taylor_constant_term():
    nl = liouville_multiplier()
    rng = np.random.default_rng(17)
    for u in rng.uniform(-2.5, 1.5, size=25):
        assert float(nl.eval(u)) == float(nl.taylor_at(u, 0)[0])
        d = float(nl.deriv(u))
        d_ref = float(nl.taylor_at(u, 1)[1])
        assert abs(d - d_ref) <= 1e-13 * (1.0 + abs(d_ref))


def test_removable_singularity_is_smooth():
    nl = liouville_multiplier()
    assert float(nl.eval(0.0)) == pytest.approx(-2.0, abs=1e-15)
    # N(u) = -2 - 2u - (4/3)u^2 - ... near zero
    for eps in (1e-9, -1e-9, 1e-5, -1e-5):
        assert float(nl.eval(eps)) == pytest.approx(-2.0 - 2.0 * eps, abs=1e-9)
    assert float(nl.deriv(0.0)) == pytest.approx(-2.0, rel=1e-13)


def _liouville_rows_mpmath(centers, top):
    # independent oracle: N(u) = -2 int_0^1 exp(2us) ds, so the k-th Taylor
    # row at t is -2^(k+1)/k! int_0^1 s^k exp(2ts) ds
    #           = -2^(k+1)/k! sum_n (2t)^n / (n! (k + n + 1)),
    # summed by mpmath at 60 digits until the terms fall below 1e-45 of the
    # largest; the sum cancels about e^(2|t|) in magnitude, so this holds for
    # the centers here (t >= -12), not far below them
    mpmath = pytest.importorskip("mpmath")
    rows = np.empty((top + 1, len(centers)))
    with mpmath.workdps(60):
        for i, t in enumerate(centers):
            x = 2 * mpmath.mpf(t)
            for k in range(top + 1):
                total, term, peak, n = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0), 0
                while n < 10 or abs(term) > mpmath.mpf(10) ** -45 * peak:
                    total += term / (k + n + 1)
                    peak = max(peak, abs(term))
                    n += 1
                    term *= x / n
                rows[k, i] = float(-(2 ** (k + 1)) / mpmath.factorial(k) * total)
    return rows


# [-5, 5], the edges of the backward recurrence's range on both sides, the
# removable singularity, the liouville corner range, and a few centers below
# the range, where the forward division takes over again
LIOUVILLE_CENTERS = np.concatenate([
    np.linspace(-5.0, 5.0, 21),
    [-5.0 + 1e-12, -4.9, -2.02, -0.693, -0.49, -0.3, -1e-9, 1e-7, 0.25, 0.4999, 3.49,
     3.5 - 1e-12, 3.75],
    [-12.0, -8.0, -6.0],
])


def test_liouville_taylor_rows_match_mpmath_near_zero():
    # every order of the recurrence, not only the rows of the deepest one:
    # 1e-14 relative for |t| < 0.5, 1e-13 on the rest of [-5, 5] and below
    ref = _liouville_rows_mpmath(LIOUVILLE_CENTERS, MAX_RANK)
    tol = np.where(np.abs(LIOUVILLE_CENTERS) < 0.5, 1e-14, 1e-13)
    nl = liouville_multiplier()
    for order in range(MAX_RANK + 1):
        rel = np.abs(nl.taylor_at(LIOUVILLE_CENTERS, order) / ref[: order + 1] - 1)
        assert np.all(rel <= tol), (order, rel.max())


def test_liouville_term_rows_match_the_closed_form():
    # the oracle rows of G(u) = u N(u) = 1 - exp(2u): g_0 = 1 - e^(2t), g_j = -e^(2t) 2^j / j!
    mpmath = pytest.importorskip("mpmath")
    t = LIOUVILLE_CENTERS
    with mpmath.workdps(40):
        ref = np.array([[float(-mpmath.exp(2 * mpmath.mpf(c)) * 2**j / mpmath.factorial(j)
                               + (1 if j == 0 else 0)) for c in t] for j in range(MAX_RANK + 1)])
    nl = liouville_multiplier()
    for order in range(MAX_RANK + 1):
        rows = liouville_term_taylor(t, order)
        assert rows.shape == (order + 1, t.size)
        assert np.all(np.abs(rows - ref[: order + 1]) <= 1e-15 * np.abs(ref[: order + 1])), order
        assert np.array_equal(rows[0], t * nl.eval(t))


# centers on both sides of N's removable singularity and on both branches of
# its rows (the backward recurrence inside (-5, 3.5), the forward division
# outside), with the point axes of a batch of cells as the solver passes
# them: (cells, P * P)
TERM_CENTERS = np.array([-6.0, -4.5, -2.0, -0.2, 0.1, 0.9, 3.2, 3.75])


def _term_stack(rng, order):
    v = rng.uniform(-0.6, 0.6, size=(order + 1, TERM_CENTERS.size, 4))
    v[0] = TERM_CENTERS[:, None] + 0.01 * v[0]
    return v


@pytest.mark.parametrize("order", range(1, 11))
def test_liouville_term_adomian_matches_the_partition_sum(order):
    # A_n(G; v) with G = u N is sum_s A_(n-s)(N; v) v_s (Rach's product rule):
    # the partition sum of N joined by the Cauchy product, independent of the
    # exponential recurrence the preset runs
    rng = np.random.default_rng(100 + order)
    nl = liouville_multiplier()
    v = _term_stack(rng, order)
    mine = nl.term_adomian(v, order)
    assert mine.shape == v[0].shape
    for idx in np.ndindex(v[0].shape):
        col = v[(slice(None),) + idx]
        ref = sum(adomian_partition(nl, col[: order - s + 1]) * col[s] for s in range(order + 1))
        assert abs(mine[idx] - ref) <= 1e-12 * (1.0 + abs(ref)), (idx, mine[idx], ref)


def test_term_adomian_low_orders_are_the_closed_forms_bit_for_bit():
    # A_0(G) = v_0 N(v_0) for every multiplier; for liouville A_1(G) is
    # g_1 v_1 = -2 e^(2 v_0) v_1, the value the composition of G's rows gave
    rng = np.random.default_rng(31)
    v = _term_stack(rng, 3)
    for nl in (liouville_multiplier(), Nonlinearity.from_series(rng.uniform(-1, 1, size=5))):
        assert nl.term_adomian(v, 0).tobytes() == (v[0] * nl.eval(v[0])).tobytes()
    nl = liouville_multiplier()
    old = liouville_term_taylor(v[0], 1)[1] * v[1]
    assert nl.term_adomian(v, 1).tobytes() == old.tobytes()
    # a list of rows serves as well as a stack, and rows past n are not read
    assert nl.term_adomian(list(v[:3]), 2).tobytes() == nl.term_adomian(v, 2).tobytes()


def test_liouville_rows_keep_their_center_shape():
    nl = liouville_multiplier()
    for center in (-0.7, np.array(-0.7), np.full((2, 3), -0.7), np.array([-6.0, -1.0, 4.0])):
        for order in (0, 3):
            v = np.stack([np.full(np.shape(center), 0.1)] * (order + 1))
            v[0] = center
            for rows in (nl.taylor_at(center, order), nl.term_adomian(v, order)[None]):
                assert rows.shape[1:] == np.shape(center)
                assert np.all(np.isfinite(rows))


def test_polynomial_term_rows_recenter_the_shifted_coefficients():
    # G = u N is the polynomial [0, nu_0, nu_1, ...]: A_n(G) is A_n of that
    # polynomial's own rows, recentered exactly, at orders below, at and above
    # G's degree, where the composition stops at G's last row
    rng = np.random.default_rng(29)
    for _ in range(20):
        nu = rng.uniform(-1, 1, size=rng.integers(1, 7))
        nl = Nonlinearity.from_series(nu)
        term = Nonlinearity.from_series(np.concatenate(([0.0], nu)))
        v = rng.uniform(-2, 2, size=(9, 3, 4))
        for order in range(1, 9):
            ref = compose_with_tail(term.taylor_at(v[0], order), v[: order + 1])[order]
            assert np.all(np.abs(nl.term_adomian(v, order) - ref) <= 1e-13 * (1.0 + np.abs(ref)))


# the sine-Gordon kink's range of u, about 0.54 to 5.75, a little widened,
# and N's removable singularity at 0
SINE_GORDON_CENTERS = np.concatenate([np.linspace(0.52, 5.76, 14), [0.0, 1e-9, np.pi]])


def test_sine_gordon_taylor_rows_match_mpmath():
    # N(u) = -sin(u) / u = -int_0^1 cos(u x) dx, so the j-th row at t is
    # -int_0^1 x^j cos(t x + j pi / 2) dx / j!
    #   = -sum_m t^m cos((j + m) pi / 2) / (m! (j + m + 1)) / j!,
    # summed by mpmath at 40 digits; the backward recurrence multiplies the
    # rounding of each step by t per order down, up to about e^t ulps of
    # row 0 (1.2e-15 here)
    mpmath = pytest.importorskip("mpmath")
    t = SINE_GORDON_CENTERS
    ref = np.empty((MAX_RANK + 1, t.size))
    with mpmath.workdps(40):
        for i, c in enumerate(t):
            for j in range(MAX_RANK + 1):
                total, term, m = mpmath.mpf(0), mpmath.mpf(1), 0  # term = t^m / m!
                while m < 10 or abs(term) > mpmath.mpf(10) ** -35:
                    total += term * (1, 0, -1, 0)[(j + m) % 4] / (j + m + 1)
                    m += 1
                    term *= mpmath.mpf(c) / m
                ref[j, i] = float(-total / mpmath.factorial(j))
    nl = sine_gordon_problem().problem.nonlinearity
    top = nl.taylor_at(t, MAX_RANK)
    scale = np.array([1.0 / math.factorial(j) for j in range(MAX_RANK + 1)])[:, None]
    assert np.all(np.abs(top - ref) <= 4e-15 * scale)
    # row j does not depend on the order asked for, and row 0 is -1 at 0
    for order in range(MAX_RANK):
        assert nl.taylor_at(t, order).tobytes() == top[: order + 1].tobytes(), order
    assert float(nl.eval(0.0)) == -1.0
    # the global coefficients are the rows at 0
    assert np.array_equal(nl.taylor_at(0.0, 29), SINE_GORDON_NU)


def test_sine_gordon_term_adomian_matches_mpmath_and_the_partition_sum():
    # A_n(G) of G = -sin u: the tau^n coefficient of -sin(v(tau)) by mpmath's
    # Taylor expansion at 50 digits, and sum_s A_(n-s)(N; v) v_s by the
    # partition sum of N's rows (Rach's product rule)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(43)
    nl = sine_gordon_problem().problem.nonlinearity
    for n in range(1, PARTITION_ORDER_CAP + 1):
        v = rng.uniform(-0.3, 0.3, size=(n + 1, 6))
        v[0] = np.linspace(0.52, 5.76, 6)
        mine = nl.term_adomian(v, n)
        for q in range(6):
            col = v[:, q]
            with mpmath.workdps(50):
                coeffs = [mpmath.mpf(float(c)) for c in col[::-1]]
                ref = float(mpmath.taylor(lambda tau: -mpmath.sin(mpmath.polyval(coeffs, tau)), 0, n)[n])
            part = sum(adomian_partition(nl, col[: n - s + 1]) * col[s] for s in range(n + 1))
            assert abs(mine[q] - ref) <= 1e-15 * (1.0 + abs(ref)), (n, q)
            assert abs(mine[q] - part) <= 1e-14 * (1.0 + abs(part)), (n, q)


def test_liouville_series_coefficients():
    # the rows at 0 are N's Maclaurin coefficients nu_k = -2^(k+1) / (k+1)!
    rows = liouville_multiplier().taylor_at(0.0, MAX_RANK)
    for k in range(MAX_RANK + 1):
        assert rows[k] == pytest.approx(-(2.0 ** (k + 1)) / math.factorial(k + 1), rel=1e-15)


def test_taylor_vectorized_centers():
    nl = liouville_multiplier()
    centers = np.array([[-2.0, -0.9], [-0.3, 0.4]])
    rows = nl.taylor_at(centers, 3)
    assert rows.shape == (4, 2, 2)
    for i in range(2):
        for j in range(2):
            ref = nl.taylor_at(float(centers[i, j]), 3)
            assert np.allclose(rows[:, i, j], ref, rtol=1e-12, atol=1e-15)


def _zero_rows(center, order):
    # rows of the right shape; the shape tests never read their values
    return np.zeros((order + 1,) + np.shape(center))


def _zero_term(v, n):
    return np.zeros(np.shape(v[0]))


def test_taylor_fn_shape_is_validated():
    bad = Nonlinearity(lambda c, n: np.zeros(n), _zero_term)  # one row short
    with pytest.raises(ValueError, match="shape"):
        bad.taylor_at(0.0, 3)
    # and the order before the function is called
    with pytest.raises(ValueError, match="non-negative"):
        Nonlinearity(_zero_rows, _zero_term).taylor_at(0.0, -1)


def test_term_adomian_fn_shape_is_validated():
    v = np.zeros((4, 5))
    bad = Nonlinearity(_zero_rows, lambda v, n: np.zeros(n))  # rows, not one coefficient
    with pytest.raises(ValueError, match="shape"):
        bad.term_adomian(v, 3)
    # the order is checked before the function is called, and n = 0 never calls it
    nl = liouville_multiplier()
    for n in (-1, 4):
        with pytest.raises(ValueError):
            nl.term_adomian(v, n)
    assert bad.term_adomian(v, 0).shape == (5,)


def test_nonlinearity_validation():
    with pytest.raises(ValueError, match="nu_0"):
        Nonlinearity.from_series([])
    with pytest.raises(ValueError, match="finite"):
        Nonlinearity.from_series([1.0, np.inf])
    # a multiplier is its two functions: N's rows alone cannot give G's coefficient
    with pytest.raises(TypeError):
        Nonlinearity(_zero_rows)


@pytest.mark.parametrize("order", range(17))
def test_compose_matches_the_bell_oracle_and_the_partition_sum(order):
    # every coefficient of one Horner composition against the Bell triangle
    # and, up to the partition sum's order cap, against the partition sum:
    # scalar rows and (cells, points) rows; a list tail, whose row 0 (here
    # v_0 itself, not zero) is never read, gives the same bits
    rng = np.random.default_rng(order)
    poly = Nonlinearity.from_series(rng.uniform(-1, 1, size=4))  # degree 3
    for nl in (liouville_multiplier(), poly):
        for shape in ((), (3, 4)):
            v = rng.uniform(-0.5, 0.5, size=(order + 1,) + shape)
            v[0] -= 0.7
            taylor = nl.taylor_at(v[0], order)
            mine = compose(taylor, v)
            ref = compose_with_tail(taylor, v)
            assert mine.shape == v.shape
            assert np.all(np.abs(mine - ref) <= 1e-13 * (1.0 + np.abs(ref)))
            assert compose(taylor, list(v)).tobytes() == mine.tobytes()
            if order <= PARTITION_ORDER_CAP:
                for idx in np.ndindex(shape):
                    col = v[(slice(None),) + idx]
                    for n in range(order + 1):
                        part = adomian_partition(nl, col[: n + 1])
                        assert abs(mine[(n,) + idx] - part) <= 1e-13 * (1.0 + abs(part))
            if nl is poly and order > 3:
                # the rows a_0..a_3 alone: the loop starts at the last row it is given
                short = compose(taylor[:4], v)
                assert np.all(np.abs(short - ref) <= 1e-13 * (1.0 + np.abs(ref)))
                assert np.all(np.abs(compose_with_tail(taylor[:4], v) - ref)
                              <= 1e-13 * (1.0 + np.abs(ref)))
