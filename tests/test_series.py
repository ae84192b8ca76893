"""Truncated series arithmetic, Adomian polynomials, and their partition oracle."""

import math

import numpy as np
import pytest

from goursatfd.series import Nonlinearity, compose_last
from goursatfd.harness import MAX_RANK, liouville_multiplier
from oracles import (
    PARTITION_ORDER_CAP,
    TruncatedSeries,
    adomian_partition,
    compose_with_tail,
    series_compose_nonlinearity,
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
    nl = liouville_multiplier()
    tay = nl.taylor_at(0.0, 8)
    nu = nl.series_coeffs[:9]
    assert np.all(np.abs(tay - nu) <= 1e-14 * np.abs(nu))
    nl2 = Nonlinearity.from_series([0.5, -1.5, 2.0])
    assert np.array_equal(nl2.taylor_at(0.0, 2), [0.5, -1.5, 2.0])


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
    # G(u) = u N(u) = 1 - exp(2u): g_0 = 1 - e^(2t), g_j = -e^(2t) 2^j / j!
    mpmath = pytest.importorskip("mpmath")
    t = LIOUVILLE_CENTERS
    with mpmath.workdps(40):
        ref = np.array([[float(-mpmath.exp(2 * mpmath.mpf(c)) * 2**j / mpmath.factorial(j)
                               + (1 if j == 0 else 0)) for c in t] for j in range(MAX_RANK + 1)])
    nl = liouville_multiplier()
    for order in range(MAX_RANK + 1):
        rows = nl.term_taylor_at(t, order)
        assert rows.shape == (order + 1, t.size)
        assert np.all(np.abs(rows - ref[: order + 1]) <= 1e-15 * np.abs(ref[: order + 1])), order
        # row 0 is t N(t) with N(t) bit for bit as eval gives it
        assert np.array_equal(rows[0], t * nl.eval(t))
        assert np.array_equal(rows[0], nl.term_taylor_at(t, 0)[0])


def test_liouville_rows_keep_their_center_shape():
    nl = liouville_multiplier()
    for center in (-0.7, np.array(-0.7), np.full((2, 3), -0.7), np.array([-6.0, -1.0, 4.0])):
        for order in (0, 3):
            for rows in (nl.taylor_at(center, order), nl.term_taylor_at(center, order)):
                assert rows.shape == (order + 1,) + np.shape(center)
                assert np.all(np.isfinite(rows))


def test_polynomial_term_rows_recenter_the_shifted_coefficients():
    # G = u N is the polynomial [0, nu_0, nu_1, ...], recentered exactly
    rng = np.random.default_rng(29)
    for _ in range(20):
        nu = rng.uniform(-1, 1, size=rng.integers(1, 7))
        nl = Nonlinearity.from_series(nu)
        term = Nonlinearity.from_series(np.concatenate(([0.0], nu)))
        t = rng.uniform(-2, 2, size=(3, 4))
        for order in range(6):
            rows = nl.term_taylor_at(t, order)
            assert np.array_equal(rows, term.taylor_at(t, order))
            assert np.array_equal(rows[0], t * nl.eval(t))


def test_liouville_series_coefficients():
    nu = liouville_multiplier().series_coeffs
    fact = 1.0
    for k in range(10):
        fact *= k + 1
        assert nu[k] == pytest.approx(-(2.0 ** (k + 1)) / fact, rel=1e-15)


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
    # rows of the right shape; the hook tests never read their values
    return np.zeros((order + 1,) + np.shape(center))


def test_taylor_fn_shape_is_validated():
    bad = Nonlinearity([1.0], taylor_fn=lambda c, n: np.zeros(n),  # one row short
                       term_taylor_fn=_zero_rows)
    with pytest.raises(ValueError):
        bad.taylor_at(0.0, 3)


def test_term_taylor_fn_shape_is_validated():
    bad = Nonlinearity([1.0], taylor_fn=_zero_rows,
                       term_taylor_fn=lambda c, n: np.zeros(n))  # one row short
    with pytest.raises(ValueError):
        bad.term_taylor_at(0.0, 3)
    with pytest.raises(ValueError):
        liouville_multiplier().term_taylor_at(0.0, -1)


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        Nonlinearity([])
    with pytest.raises(ValueError):
        Nonlinearity([1.0, np.inf])
    # the analytic hooks come in pairs: N's rows alone cannot give G's
    for hooks in ({"taylor_fn": _zero_rows}, {"term_taylor_fn": _zero_rows}):
        with pytest.raises(ValueError, match="both"):
            Nonlinearity([1.0], **hooks)


@pytest.mark.parametrize("order", range(9))
def test_compose_last_is_the_last_coefficient_bit_for_bit(order):
    # one Bell walk serves both; the tail may be an array or a list of views,
    # and its row 0 (here v_0 itself, not zero) is never read
    rng = np.random.default_rng(order)
    for nl in (liouville_multiplier(), Nonlinearity.from_series(rng.uniform(-1, 1, size=5))):
        v = rng.uniform(-0.8, 0.8, size=(order + 1, 4))
        taylor = nl.taylor_at(v[0], order)
        full = compose_with_tail(taylor, v)
        for tail in (v, list(v)):
            assert compose_with_tail(taylor, tail).tobytes() == full.tobytes()
            assert compose_last(taylor, tail).tobytes() == full[-1].tobytes()
        for q in range(4):
            ref = adomian_partition(nl, v[:, q])
            assert abs(full[-1, q] - ref) <= 1e-12 * (1.0 + abs(ref)), q
