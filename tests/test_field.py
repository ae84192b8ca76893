"""Mesh, cell nodes, Chebyshev tensor fields, differentiation, and quadrature."""

import tracemalloc

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
from goursatfd.harness import fd_solve, liouville_problem
from oracles import evaluate_in_cell, integrate_1d, integrate_2d, locate, sample_field


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
    f = sample_field(g, 5, lambda x, y: x + 10.0 * y)
    assert np.array_equal(f.values, xs[:, None, :, None] + 10.0 * ys[None, :, None, :])
    # a scalar-only callable takes the per-cell path and gives the same values
    g2 = sample_field(g, 5, lambda x, y: float(x) + 10.0 * float(y))
    assert np.array_equal(g2.values, f.values)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 0, 2)


def _cell_index_field(g: Grid, p: int = 4) -> PiecewiseField:
    # deliberately discontinuous: cell (i, j) holds the constant i N2 + j
    ids = np.arange(g.N1 * g.N2, dtype=float).reshape(g.N1, g.N2)
    return PiecewiseField(g, np.broadcast_to(ids[:, :, None, None], (g.N1, g.N2, p, p)))


def test_locate_edge_ownership():
    g = Grid(2.0, 2.0, 4, 4)
    f = _cell_index_field(g)

    def cell(x, y):
        k = round(f.evaluate(x, y))
        return divmod(k, g.N2)

    # interior edge point belongs to the lower-index cell
    assert cell(g.x_nodes[2], 0.1) == (1, 0)
    assert cell(0.1, g.y_nodes[3]) == (0, 2)
    # grid corner belongs to the cell with both indices lower
    assert cell(g.x_nodes[2], g.y_nodes[2]) == (1, 1)
    # domain corners
    assert cell(0.0, 0.0) == (0, 0)
    assert cell(2.0, 2.0) == (3, 3)
    for x, y in ((-0.01, 0.5), (0.5, 2.01), (np.nan, 0.5), (0.5, np.nan)):
        with pytest.raises(ValueError, match=rf"^point \({x}, {y}\) outside domain"):
            f.evaluate(x, y)
    # an array names its first bad point
    with pytest.raises(ValueError, match=r"^point \(0.5, nan\) outside"):
        f.evaluate([0.1, 0.5, 3.0], [0.1, np.nan, 0.1])


@pytest.mark.parametrize("n,extent", [(7, 1.0), (3, 0.3), (13, 2.7), (40, 4.0)])
def test_evaluate_picks_the_cell_locate_picks(n, extent):
    # at every mesh node and at the doubles on either side of it
    g = Grid(extent, extent, n, n)
    f = _cell_index_field(g)
    nodes = g.x_nodes
    near = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])
    near = near[(near >= 0.0) & (near <= extent)]
    x, y = np.meshgrid(near, near, indexing="ij")
    got = np.rint(f.evaluate(x, y)).astype(int)
    want = [[np.ravel_multi_index(locate(g, float(a), float(b)), (n, n)) for b in near]
            for a in near]
    assert np.array_equal(got, want)


def test_evaluate_returns_every_owned_node_bit_for_bit():
    g = Grid(2.0, 1.5, 5, 3)
    p = 7
    f = PiecewiseField(g, np.random.default_rng(5).normal(size=(5, 3, p, p)))
    xs, ys = g.cell_nodes(unit_cheb_nodes(p))
    x = np.broadcast_to(xs[:, None, :, None], f.values.shape)
    y = np.broadcast_to(ys[None, :, None, :], f.values.shape)
    # a node on a shared edge is owned by the lower-index cell
    ii, jj, aa, bb = np.indices(f.values.shape)
    owned = ~(((aa == 0) & (ii > 0)) | ((bb == 0) & (jj > 0)))
    got = f.evaluate(x[owned], y[owned])
    assert got.tobytes() == f.values[owned].tobytes()


def test_evaluate_matches_the_one_cell_oracle():
    preset = liouville_problem()
    field = fd_solve(preset.problem, 8, 8, 3, 12).partial_sum(3)
    g = field.grid
    rng = np.random.default_rng(11)
    lines = rng.choice(g.x_nodes, 600)
    x = np.concatenate([rng.uniform(0, 4, 1400), lines, rng.uniform(0, 4, 300), [0.0, 4.0]])
    y = np.concatenate([rng.uniform(0, 4, 1400), rng.uniform(0, 4, 600), rng.choice(g.y_nodes, 300),
                        [4.0, 0.0]])
    got = field.evaluate(x, y)
    want = [evaluate_in_cell(field, *locate(g, a, b), a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert len(x) >= 2000
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(field.values))


def test_evaluate_shapes_and_scalars():
    g = Grid(1.0, 2.0, 3, 4)
    f = sample_field(g, 6, lambda x, y: x + 10.0 * y)
    v = f.evaluate(0.25, 1.5)
    assert type(v) is float and v == pytest.approx(15.25, abs=1e-13)
    assert type(f.evaluate(np.float64(0.25), np.array(1.5))) is float
    col = f.evaluate(np.linspace(0, 1, 5)[:, None], np.linspace(0, 2, 3))
    assert col.shape == (5, 3)
    assert np.allclose(col, np.linspace(0, 1, 5)[:, None] + 10 * np.linspace(0, 2, 3), atol=1e-13)
    assert f.evaluate([], []).shape == (0,)


def test_evaluate_memory_is_bounded():
    g = Grid(4.0, 4.0, 40, 40)
    f = PiecewiseField(g, np.random.default_rng(3).normal(size=(40, 40, 12, 12)))
    x, y = np.random.default_rng(4).uniform(0.0, 4.0, size=(2, 200_000))
    tracemalloc.start()
    try:
        f.evaluate(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_eval_constant_and_stored_nodes():
    g = Grid(1.0, 1.0, 3, 3)
    f = sample_field(g, 6, lambda x, y: 1.0)
    assert f.evaluate(0.37, 0.91) == 1.0
    f2 = sample_field(g, 6, lambda x, y: np.sin(x) + y)
    xs, ys = g.cell_nodes(unit_cheb_nodes(6))
    assert f2.evaluate(xs[1, 3], ys[2, 4]) == f2.values[1, 2, 3, 4]


def test_eval_bilinear_exact():
    g = Grid(2.0, 3.0, 2, 3)
    f = sample_field(g, 6, lambda x, y: x * y)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = float(rng.uniform(0, 2))
        y = float(rng.uniform(0, 3))
        assert f.evaluate(x, y) == pytest.approx(x * y, abs=1e-12)


def test_interpolation_spectral_convergence():
    g = Grid(1.0, 1.0, 1, 1)
    f = sample_field(g, 12, lambda x, y: np.exp(x + y))
    rng = np.random.default_rng(1)
    for _ in range(40):
        x, y = rng.uniform(0, 1, size=2)
        assert f.evaluate(float(x), float(y)) == pytest.approx(np.exp(x + y), abs=1e-12)


def test_edge_traces_and_derivatives():
    # edge slices of sampled fields, differentiated along the edge
    g = Grid(1.0, 1.0, 1, 1)
    const = sample_field(g, 8, lambda x, y: 3.5)
    (xn,), (yn,) = g.cell_nodes(unit_cheb_nodes(8))
    left = const.values[0, 0, 0, :]
    assert np.all(left == 3.5)
    assert np.max(np.abs(cheb_diff_matrix(yn) @ left)) <= 1e-12

    linear = sample_field(g, 8, lambda x, y: x)
    bottom = linear.values[0, 0, :, 0]
    assert np.allclose(bottom, xn, atol=1e-14)
    assert np.allclose(cheb_diff_matrix(xn) @ bottom, 1.0, atol=1e-12)


def test_edge_derivative_sine():
    g = Grid(0.5, 1.0, 1, 1)
    f = sample_field(g, 10, lambda x, y: np.sin(x))
    (xn,), _ = g.cell_nodes(unit_cheb_nodes(10))
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


def test_bary_matrix_takes_one_node_row_per_target():
    # one (P,) node set for all targets, or a row per target: the same bits
    nodes = cheb_nodes(9, 0.3, 1.1)
    targets = np.concatenate([np.linspace(0.3, 1.1, 13), nodes[[0, 4]]])
    shared = bary_matrix(targets, nodes)
    assert shared.tobytes() == bary_matrix(targets, np.tile(nodes, (15, 1))).tobytes()
    rows = np.stack([cheb_nodes(9, a, a + 0.8) for a in np.linspace(0.0, 1.0, 15)])
    per_target = bary_matrix(targets, rows)
    for n in range(15):
        assert per_target[n].tobytes() == bary_matrix(targets[n], rows[n])[0].tobytes()
    # a target a subnormal away from a node takes that node, with no overflow
    row = bary_matrix(np.nextafter(0.0, 1.0), cheb_nodes(9, 0.0, 1.0))[0]
    assert np.array_equal(row, np.eye(9)[0])


def test_edge_continuity_of_sampled_fields():
    g = Grid(3.0, 2.0, 5, 4)
    f = sample_field(g, 9, lambda x, y: np.exp(-x) * np.sin(y))
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
