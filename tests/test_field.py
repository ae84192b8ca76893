"""Mesh, cell nodes, Chebyshev tensor fields, differentiation, and quadrature."""

import numpy as np
import pytest

from goursatfd.field import (
    Grid,
    PiecewiseField,
    bary_matrix,
    cheb_nodes,
    cheb_diff_matrix,
    max_edge_jump,
    unit_cc_weights,
    unit_cheb_nodes,
)
from oracles import integrate_1d, integrate_2d


def test_cheb_nodes_examples():
    assert np.array_equal(cheb_nodes(2, 0.0, 1.0), [0.0, 1.0])
    assert np.allclose(cheb_nodes(3, -1.0, 1.0), [-1.0, 0.0, 1.0], atol=1e-15)
    n5 = cheb_nodes(5, 0.0, 1.0)
    assert abs(n5[2] - 0.5) <= 1e-15
    assert n5[0] == 0.0 and n5[-1] == 1.0
    assert np.all(np.diff(n5) > 0)


def test_cheb_nodes_validation():
    with pytest.raises(ValueError):
        cheb_nodes(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        cheb_nodes(4, 1.0, 1.0)


def test_grid_nodes_exact_endpoints():
    g = Grid(4.0, 4.0, 20, 40)
    assert g.x_nodes[0] == 0.0 and g.x_nodes[-1] == 4.0
    assert g.y_nodes[0] == 0.0 and g.y_nodes[-1] == 4.0
    assert len(g.x_nodes) == 21 and len(g.y_nodes) == 41
    assert g.h1 == pytest.approx(0.2) and g.h2 == pytest.approx(0.1)


def test_cell_nodes_match_cheb_nodes_and_share_edges():
    g = Grid(4.0, 3.0, 40, 30)
    p = 12
    xs, ys = g.cell_nodes(unit_cheb_nodes(p))
    assert xs.shape == (40, p) and ys.shape == (30, p)
    for nodes, cells in ((g.x_nodes, xs), (g.y_nodes, ys)):
        for i in range(len(cells)):
            assert np.array_equal(cells[i], cheb_nodes(p, nodes[i], nodes[i + 1]))
            assert cells[i, 0] == nodes[i]
            if i + 1 < len(cells):
                assert cells[i, -1] == cells[i + 1, 0] == nodes[i + 1]
    # any fractions: 0 and 1 land on the cell edges, others on x_i + (x_{i+1} - x_i) s
    r = np.linspace(0.0, 1.0, 5)
    xr, _ = g.cell_nodes(r)
    assert np.array_equal(xr[:, 0], g.x_nodes[:-1]) and np.array_equal(xr[:, -1], g.x_nodes[1:])
    assert np.array_equal(xr[7, 1:-1], g.x_nodes[7] + (g.x_nodes[8] - g.x_nodes[7]) * r[1:-1])


def test_sampled_field_uses_cell_nodes():
    g = Grid(2.0, 1.0, 3, 2)
    xs, ys = g.cell_nodes(unit_cheb_nodes(5))
    f = PiecewiseField.sample(g, 5, lambda x, y: x + 10.0 * y)
    assert np.array_equal(f.values, xs[:, None, :, None] + 10.0 * ys[None, :, None, :])
    # a scalar-only callable takes the per-cell path and gives the same values
    g2 = PiecewiseField.sample(g, 5, lambda x, y: float(x) + 10.0 * float(y))
    assert np.array_equal(g2.values, f.values)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 0, 2)


def test_locate_edge_ownership():
    g = Grid(2.0, 2.0, 4, 4)
    # interior edge point belongs to the lower-index cell
    assert g.locate(g.x_nodes[2], 0.1) == (1, 0)
    assert g.locate(0.1, g.y_nodes[3]) == (0, 2)
    # grid corner belongs to the cell with both indices lower
    assert g.locate(g.x_nodes[2], g.y_nodes[2]) == (1, 1)
    # domain corners
    assert g.locate(0.0, 0.0) == (0, 0)
    assert g.locate(2.0, 2.0) == (3, 3)
    with pytest.raises(ValueError):
        g.locate(-0.01, 0.5)
    with pytest.raises(ValueError):
        g.locate(0.5, 2.01)


def test_eval_constant_and_stored_nodes():
    g = Grid(1.0, 1.0, 3, 3)
    f = PiecewiseField.sample(g, 6, lambda x, y: 1.0)
    assert f.evaluate(0.37, 0.91) == 1.0
    f2 = PiecewiseField.sample(g, 6, lambda x, y: np.sin(x) + y)
    xn, yn = f2.cell_nodes(1, 2)
    assert f2.evaluate(xn[3], yn[4]) == f2.values[1, 2, 3, 4]


def test_eval_bilinear_exact():
    g = Grid(2.0, 3.0, 2, 3)
    f = PiecewiseField.sample(g, 6, lambda x, y: x * y)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = float(rng.uniform(0, 2))
        y = float(rng.uniform(0, 3))
        assert f.evaluate(x, y) == pytest.approx(x * y, abs=1e-12)


def test_interpolation_spectral_convergence():
    g = Grid(1.0, 1.0, 1, 1)
    f = PiecewiseField.sample(g, 12, lambda x, y: np.exp(x + y))
    rng = np.random.default_rng(1)
    for _ in range(40):
        x, y = rng.uniform(0, 1, size=2)
        assert f.evaluate(float(x), float(y)) == pytest.approx(np.exp(x + y), abs=1e-12)


def test_edge_traces_and_derivatives():
    # edge slices of sampled fields, differentiated along the edge
    g = Grid(1.0, 1.0, 1, 1)
    const = PiecewiseField.sample(g, 8, lambda x, y: 3.5)
    xn, yn = const.cell_nodes(0, 0)
    left = const.values[0, 0, 0, :]
    assert np.all(left == 3.5)
    assert np.max(np.abs(cheb_diff_matrix(yn) @ left)) <= 1e-12

    linear = PiecewiseField.sample(g, 8, lambda x, y: x)
    bottom = linear.values[0, 0, :, 0]
    assert np.allclose(bottom, xn, atol=1e-14)
    assert np.allclose(cheb_diff_matrix(xn) @ bottom, 1.0, atol=1e-12)


def test_edge_derivative_sine():
    g = Grid(0.5, 1.0, 1, 1)
    f = PiecewiseField.sample(g, 10, lambda x, y: np.sin(x))
    xn, _ = f.cell_nodes(0, 0)
    assert np.array_equal(xn, cheb_nodes(10, 0.0, 0.5))
    bottom = f.values[0, 0, :, 0]
    assert np.allclose(cheb_diff_matrix(xn) @ bottom, np.cos(xn), atol=1e-11)


def test_integrate_1d_basics():
    assert abs(integrate_1d(lambda x: 1.0, 0.0, 1.0, 6) - 1.0) <= 1e-15
    assert integrate_1d(lambda x: x**3, 2.5, 2.5, 8) == 0.0
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 0.0, 6)


def test_integrate_2d_examples():
    assert integrate_2d(lambda x, y: x * y, (0, 1, 0, 1), 6) == pytest.approx(0.25, abs=1e-14)
    assert integrate_2d(lambda x, y: 1.0, (0, 2, 1, 1), 6) == 0.0


def test_quadrature_exact_for_low_degree():
    rng = np.random.default_rng(2)
    for p in (4, 8, 12):
        for _ in range(10):
            coeffs = rng.uniform(-1, 1, size=p)  # degree p-1
            a, b = sorted(rng.uniform(-2, 2, size=2))
            if b - a < 0.1:
                b = a + 0.5
            val = integrate_1d(lambda x: np.polynomial.polynomial.polyval(x, coeffs), a, b, p)
            ref = np.polynomial.Polynomial(coeffs).integ()(b) - np.polynomial.Polynomial(coeffs).integ()(a)
            assert val == pytest.approx(ref, rel=1e-14, abs=1e-14)


def test_cc_weights_positive_and_sum():
    for p in (4, 9, 16):
        w = unit_cc_weights(p)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(w > 0)


def test_diff_matrix_constant_row_sums():
    d = cheb_diff_matrix(cheb_nodes(9, 0.0, 2.0))
    assert np.max(np.abs(d.sum(axis=1))) <= 1e-12


def test_bary_matrix_node_hits_are_exact():
    nodes = cheb_nodes(7, 0.0, 1.0)
    m = bary_matrix(nodes, nodes)
    assert np.array_equal(m, np.eye(7))


def test_edge_continuity_of_sampled_fields():
    g = Grid(3.0, 2.0, 5, 4)
    f = PiecewiseField.sample(g, 9, lambda x, y: np.exp(-x) * np.sin(y))
    assert max_edge_jump(f) <= 1e-14


def test_edge_jump_detects_discontinuity():
    g = Grid(1.0, 1.0, 2, 1)
    vals = np.zeros((2, 1, 4, 4))
    vals[1] += 1.0
    assert max_edge_jump(PiecewiseField(g, vals)) == 1.0


def test_field_shape_validation():
    g = Grid(1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        PiecewiseField(g, np.zeros((2, 3, 4, 4)))
    with pytest.raises(ValueError):
        PiecewiseField(g, np.zeros((2, 2, 4, 5)))
