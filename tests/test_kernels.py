"""Confluent limit function and Riemann kernel checks against independent oracles."""

import math

import numpy as np
import pytest
import scipy.special

from goursatfd.kernels import RESOLUTION, Z_MAX, KernelRangeError, series_length, zeta_limit
from oracles import RiemannKernel, hyp0f1, riemann, riemann_d1, riemann_d2

# first zero of J0 at argument 2*sqrt(z): z = (j_{0,1}/2)^2
J0_FIRST_ZERO_ARG = 1.4457964907366961
I0_OF_2 = 2.2795853023360673
J0_OF_2 = 0.22389077914123567


def test_hyp0f1_at_zero():
    assert hyp0f1(1.0, 0.0) == 1.0
    assert hyp0f1(2.0, 0.0) == 1.0


def test_hyp0f1_special_values():
    assert abs(hyp0f1(1.0, -J0_FIRST_ZERO_ARG)) <= 1e-10
    assert hyp0f1(1.0, 1.0) == pytest.approx(I0_OF_2, rel=1e-14)
    assert hyp0f1(1.0, -1.0) == pytest.approx(J0_OF_2, rel=1e-13)


def test_hyp0f1_against_scipy():
    # the oscillatory branch loses digits to cancellation like exp(2 sqrt|z|),
    # so the comparison carries a magnitude-aware absolute floor
    rng = np.random.default_rng(1)
    for _ in range(200):
        b = float(rng.choice([1.0, 2.0]))
        z = float(rng.uniform(-50, 50))
        floor = 1e-15 * np.exp(2.0 * np.sqrt(abs(z)))
        assert hyp0f1(b, z) == pytest.approx(scipy.special.hyp0f1(b, z), rel=1e-12, abs=floor)


def test_hyp0f1_range_guard():
    with pytest.raises(KernelRangeError):
        hyp0f1(1.0, 1.5e4)
    with pytest.raises(ValueError):
        hyp0f1(0.0, 1.0)


def test_kernel_range_rule():
    # rounding: the terms' magnitudes sum to I0(2 sqrt|zeta|), at most 2^17
    assert scipy.special.i0(2.0 * math.sqrt(Z_MAX)) == pytest.approx(2.0**17, rel=1e-12)
    # the kernel along a side, 0F1(1; -zeta s) on [0, 1], has Chebyshev
    # coefficients 2 I_n(sqrt|zeta|)^2, alternating in sign for zeta > 0
    n = np.arange(1, 12)
    for zeta in (-20.0, 30.0):
        kernel = lambda x: scipy.special.hyp0f1(1.0, -zeta * (1.0 + x) / 2.0)
        coef = np.polynomial.chebyshev.chebinterpolate(kernel, 40)[1:12]
        r = math.sqrt(abs(zeta))
        ref = (2.0 * scipy.special.iv(n, r) ** 2 if zeta < 0
               else 2.0 * (-1.0) ** n * scipy.special.jv(n, r) ** 2)
        assert np.max(np.abs(coef - ref)) <= 1e-12 * np.max(np.abs(ref))
    # resolution: the leading degree-P Chebyshev coefficient of the kernel
    # along a side, 2 (|zeta|/4)^P / (P!)^2, is RESOLUTION at the limit
    for p in range(4, 25):
        z = zeta_limit(p)
        lead = 2.0 * (z / 4.0) ** p / math.factorial(p) ** 2
        assert z == Z_MAX and lead < RESOLUTION or lead == pytest.approx(RESOLUTION, rel=1e-12)
        series_length(z, p)
        with pytest.raises(KernelRangeError):
            series_length(z * (1.0 + 1e-12), p)


def test_series_length_stops_below_half_an_ulp():
    # K is the index of the first term z^K / (K!)^2 <= 2^-54
    assert series_length(0.0, 12) == 1
    for z in (1e-3, 0.0027, 0.0109, 0.5, 8.0, 40.0):
        k = series_length(z, 24)
        terms = [z**j / math.factorial(j) ** 2 for j in range(k + 1)]
        assert terms[k] <= 2.0**-54 < min(terms[:k])


def test_series_length_refuses_a_non_finite_zmax():
    # NaN compares false with the limit and the term floor alike, so it
    # would pass for one term
    for z in (math.nan, math.inf):
        with pytest.raises(KernelRangeError, match="at P = 12"):
            series_length(z, 12)


def test_riemann_normalization():
    rng = np.random.default_rng(3)
    for c in rng.uniform(-10, 10, size=10):
        k = RiemannKernel(float(c))
        x, y = rng.uniform(0, 3, size=2)
        assert riemann(k, x, y, x, y) == 1.0


def test_riemann_zero_coefficient():
    k = RiemannKernel(0.0)
    assert riemann(k, 0.0, 0.0, 1.0, 2.0) == 1.0
    assert riemann_d1(k, 0.1, 0.2, 1.0, 2.0) == 0.0
    assert riemann_d2(k, 0.1, 0.2, 1.0, 2.0) == 0.0


def test_riemann_bessel_value():
    k = RiemannKernel(1.0)
    assert riemann(k, 0.0, 0.0, 1.0, 1.0) == pytest.approx(J0_OF_2, rel=1e-13)


def test_derivative_vanishes_on_characteristic():
    k = RiemannKernel(2.5)
    assert riemann_d1(k, 0.3, 0.7, 1.0, 0.7) == 0.0  # eta == y
    assert riemann_d2(k, 0.3, 0.7, 0.3, 1.0) == 0.0  # xi == x


def test_derivative_example_against_finite_difference():
    k = RiemannKernel(1.0)
    d1 = riemann_d1(k, 0.0, 0.0, 1.0, 1.0)
    assert d1 == pytest.approx(0.57672480775687, rel=1e-11)
    s = 1e-6
    fd = (riemann(k, s, 0.0, 1.0, 1.0) - riemann(k, -s, 0.0, 1.0, 1.0)) / (2 * s)
    assert d1 == pytest.approx(fd, abs=1e-8)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(4)
    s = 1e-6
    for _ in range(100):
        k = RiemannKernel(float(rng.uniform(-10, 10)))
        xi, eta, x, y = rng.uniform(0, 1, size=4)
        fd1 = (riemann(k, xi + s, eta, x, y) - riemann(k, xi - s, eta, x, y)) / (2 * s)
        fd2 = (riemann(k, xi, eta + s, x, y) - riemann(k, xi, eta - s, x, y)) / (2 * s)
        assert abs(fd1 - riemann_d1(k, xi, eta, x, y)) <= 1e-7
        assert abs(fd2 - riemann_d2(k, xi, eta, x, y)) <= 1e-7


def test_pde_identity():
    # w(x, y) = R(xi0, eta0; x, y) solves w_xy + c w = 0; cross derivative by
    # Richardson-extrapolated central differences, residual scaled by the
    # equation's own magnitude.
    rng = np.random.default_rng(5)

    def cross(w, x, y, e):
        return (w(x + e, y + e) - w(x + e, y - e) - w(x - e, y + e) + w(x - e, y - e)) / (4 * e * e)

    for _ in range(150):
        c = float(rng.uniform(-10, 10))
        k = RiemannKernel(c)
        xi0, eta0 = rng.uniform(0, 1, size=2)
        x, y = rng.uniform(0, 1, size=2)
        w = lambda a, b: riemann(k, xi0, eta0, a, b)
        rich = (4 * cross(w, x, y, 1e-4) - cross(w, x, y, 2e-4)) / 3
        term = c * w(x, y)
        assert abs(rich + term) <= 1e-7 * (1.0 + abs(term))


def test_negative_coefficient_branch_grows_monotonically():
    # c < 0 puts the kernel on the modified-Bessel branch: >= 1 and increasing
    # with the product |x - xi| * |y - eta|.
    k = RiemannKernel(-3.0)
    products = np.linspace(0.0, 1.0, 30)
    values = [riemann(k, 0.0, 0.0, p, 1.0) for p in products]
    assert values[0] == 1.0
    assert all(v >= 1.0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))
