"""Cell solver, wavefront marches, correction sources, and residual oracles."""

import numpy as np
import pytest

from goursatfd.field import Grid, cheb_nodes, corner_table, max_edge_jump
from goursatfd.harness import fd_solve, liouville_problem
from goursatfd.kernels import Z_MAX, KernelRangeError, hyp0f1
from goursatfd.series import Nonlinearity, adomian_partition
from goursatfd.solver import (
    FdSolverError,
    GoursatProblem,
    correction_rhs,
    picard_cell_oracle,
    residual_basic,
    residual_correction,
    solve_basic,
    solve_cell_linear,
    solve_correction,
)

P = 12


def zero_problem(nu=(0.0,)):
    return GoursatProblem(
        X=1.0, Y=1.0,
        psi=lambda x: 0.0, phi=lambda y: 0.0,
        f=lambda x, y: 0.0,
        nonlinearity=Nonlinearity.from_series(nu),
    )


def test_problem_compatibility_check():
    with pytest.raises(ValueError, match="incompatible"):
        GoursatProblem(1.0, 1.0, lambda x: 1.0, lambda y: 0.0,
                       lambda x, y: 0.0, Nonlinearity.from_series([0.0]))
    with pytest.raises(ValueError):
        GoursatProblem(-1.0, 1.0, lambda x: 0.0, lambda y: 0.0,
                       lambda x, y: 0.0, Nonlinearity.from_series([0.0]))


def test_cell_zero_data_gives_zero():
    z = np.zeros(P)
    u = solve_cell_linear(3.7, z, z, 0.0, lambda x, y: 0.0, (0, 1, 0, 1), P)
    assert np.array_equal(u, np.zeros((P, P)))


def test_cell_double_integration():
    # c = 0, zero traces, unit source: u = x*y
    h = 0.5
    z = np.zeros(P)
    u = solve_cell_linear(0.0, z, z, 0.0, lambda x, y: 1.0, (0, h, 0, h), P)
    n = cheb_nodes(P, 0, h)
    assert np.max(np.abs(u - np.multiply.outer(n, n))) <= 1e-12


def test_cell_reproduces_riemann_kernel():
    # u_xy + c u = 0 with unit characteristic data is the kernel itself,
    # u = 0F1(1; -c x y); the scalar series is the reference.  Large |c| h^2
    # needs the higher orders, and cancellation there costs a few digits.
    cases = [(p, c, h, 1e-13) for p in (12, 16, 24) for c, h in ((1.0, 0.5), (-8.0, 1.0), (3.0, 1.0))]
    cases += [(p, c, h, 1e-10) for p in (16, 24) for c, h in ((10.0, 2.0), (-12.0, 2.0))]
    for p, c, h, tol in cases:
        ones = np.ones(p)
        u = solve_cell_linear(c, ones, ones, 1.0, lambda x, y: 0.0, (0, h, 0, h), p)
        n = cheb_nodes(p, 0, h)
        ref = np.array([[hyp0f1(1.0, -c * x * y) for y in n] for x in n])
        assert np.max(np.abs(u - ref)) <= tol * np.max(np.abs(ref)), (p, c, h)


def test_cell_rejects_kernel_argument_beyond_series_range():
    z = np.zeros(P)
    c = 1.01 * Z_MAX / 4.0
    with pytest.raises(KernelRangeError):
        solve_cell_linear(c, z, z, 0.0, lambda x, y: 0.0, (0, 2, 0, 2), P)
    with pytest.raises(KernelRangeError):
        solve_cell_linear(-c, z, z, 0.0, lambda x, y: 0.0, (0, 2, 0, 2), P)


def test_cell_edges_reproduce_traces():
    rng = np.random.default_rng(0)
    n = cheb_nodes(P, 0.0, 0.3)
    bottom = np.polynomial.polynomial.polyval(n, rng.normal(size=5))
    left = np.polynomial.polynomial.polyval(cheb_nodes(P, 0.0, 0.4), rng.normal(size=4))
    left += bottom[0] - left[0]
    u = solve_cell_linear(-2.0, left, bottom, float(bottom[0]),
                          lambda x, y: np.cos(x * y), (0, 0.3, 0, 0.4), P)
    assert np.max(np.abs(u[0, :] - left)) <= 1e-10
    assert np.max(np.abs(u[:, 0] - bottom)) <= 1e-10


def test_cell_rejects_corner_mismatch():
    z = np.zeros(P)
    with pytest.raises(ValueError, match="corner"):
        solve_cell_linear(1.0, z + 1.0, z, 0.0, lambda x, y: 0.0, (0, 1, 0, 1), P)
    nan_corner = z.copy()
    nan_corner[0] = np.nan
    with pytest.raises(ValueError, match="corner"):
        solve_cell_linear(1.0, nan_corner, nan_corner, np.nan, lambda x, y: 0.0, (0, 1, 0, 1), P)


def test_picard_zero_and_single_step():
    z = np.zeros(P)
    u = picard_cell_oracle(0.5, z, z, 0.0, lambda x, y: 0.0, (0, 1, 0, 1), P)
    assert np.max(np.abs(u)) == 0.0
    # c = 0: one application of the integral operator is already exact
    a = picard_cell_oracle(0.0, z, z, 0.0, lambda x, y: 1.0, (0, 0.5, 0, 0.5), P)
    n = cheb_nodes(P, 0, 0.5)
    assert np.max(np.abs(a - np.multiply.outer(n, n))) <= 1e-13


def test_picard_rejects_non_contractive_cell():
    z = np.zeros(P)
    with pytest.raises(ValueError, match="contraction"):
        picard_cell_oracle(2.0, z, z, 0.0, lambda x, y: 0.0, (0, 1, 0, 1), P)


def test_cell_solver_cross_oracle():
    rng = np.random.default_rng(1)
    s = np.polynomial.polynomial.polyval
    for _ in range(25):
        c = float(rng.uniform(-5, 5))
        h1, h2 = rng.uniform(0.05, 0.25, size=2)
        bottom = s(cheb_nodes(P, 0, h1), rng.normal(size=7))
        left = s(cheb_nodes(P, 0, h2), rng.normal(size=7))
        left += bottom[0] - left[0]
        rhs = lambda x, y: np.sin(3 * x + y) + np.exp(x - y)
        rect = (0.0, float(h1), 0.0, float(h2))
        a = solve_cell_linear(c, left, bottom, float(bottom[0]), rhs, rect, P)
        b = picard_cell_oracle(c, left, bottom, float(bottom[0]), rhs, rect, P)
        assert np.max(np.abs(a - b)) <= 1e-10


def test_solve_basic_zero_problem():
    problem = zero_problem()
    grid = Grid(1.0, 1.0, 3, 3)
    u0, table, coeffs = solve_basic(problem, grid, 8)
    assert np.max(np.abs(u0.values)) == 0.0
    assert np.max(np.abs(table)) == 0.0
    assert np.max(np.abs(coeffs)) == 0.0


def test_solve_basic_reproduces_benchmark_error():
    # published error of the frozen-coefficient field at h = 0.5
    preset = liouville_problem()
    grid = Grid(4.0, 4.0, 8, 8)
    u0, _, coeffs = solve_basic(preset.problem, grid, P)
    fracs = np.linspace(0, 1, 5)
    err = 0.0
    for i in range(8):
        for j in range(8):
            x0, x1, y0, y1 = grid.cell_rect(i, j)
            for fx in fracs:
                for fy in fracs:
                    x, y = x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)
                    err = max(err, abs(u0.evaluate(x, y) - preset.exact(x, y)))
    assert err == pytest.approx(1.0584498110834e-1, rel=1e-2)
    # frozen coefficients are the multiplier at the corner, negative here
    assert np.all(coeffs < 0)


def test_solve_basic_boundary_and_continuity():
    preset = liouville_problem()
    grid = Grid(4.0, 4.0, 6, 5)
    u0, table, _ = solve_basic(preset.problem, grid, 10)
    assert max_edge_jump(u0) <= 1e-10 * (1 + np.max(np.abs(u0.values)))
    for i in range(grid.N1 + 1):
        assert table[i, 0] == pytest.approx(preset.problem.psi(grid.x_nodes[i]), abs=1e-12)
    for j in range(grid.N2 + 1):
        assert table[0, j] == pytest.approx(preset.problem.phi(grid.y_nodes[j]), abs=1e-12)


def test_basic_error_halves_with_mesh():
    preset = liouville_problem()
    e8 = _sup_error(fd_solve(preset.problem, 8, 8, 0, P), preset.exact)
    e16 = _sup_error(fd_solve(preset.problem, 16, 16, 0, P), preset.exact)
    assert e8 / e16 >= 2.0


def _sup_error(expansion, exact, m=None):
    from goursatfd.harness import error_vs_exact
    return error_vs_exact(expansion, exact, expansion.rank if m is None else m)


def test_corrections_vanish_for_constant_multiplier():
    # constant N has zero derivatives: rank 0 is exact, corrections vanish
    problem = GoursatProblem(
        X=1.0, Y=1.0,
        psi=lambda x: x, phi=lambda y: y,
        f=lambda x, y: 1.0,
        nonlinearity=Nonlinearity.from_series([2.0]),
    )
    expansion = fd_solve(problem, 3, 3, 3, 10)
    scale = np.max(np.abs(expansion.corrections[0].values))
    for k in (1, 2, 3):
        assert np.max(np.abs(expansion.corrections[k].values)) <= 1e-13 * scale


def test_corrections_vanish_on_axes():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 4, 4, 3, 10)
    for k in (1, 2, 3):
        uk = expansion.corrections[k].values
        assert np.max(np.abs(uk[0, :, 0, :])) <= 1e-12   # x = 0 edge cells, left side
        assert np.max(np.abs(uk[:, 0, :, 0])) <= 1e-12   # y = 0 edge cells, bottom side


def test_correction_rhs_vanishes_at_cell_corner_for_k1():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 4, 4, 0, 10)
    grid = expansion.grid
    for (i, j) in [(0, 0), (2, 1), (3, 3)]:
        x0, _, y0, _ = grid.cell_rect(i, j)
        assert correction_rhs(expansion, 1, (i, j), (x0, y0)) == pytest.approx(0.0, abs=1e-12)


def test_correction_rhs_k1_closed_form():
    # F1 = [N(corner) - N(u0)] * u0
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 4, 4, 0, 10)
    nl = preset.problem.nonlinearity
    rng = np.random.default_rng(2)
    for _ in range(20):
        i, j = rng.integers(0, 4, size=2)
        x0, x1, y0, y1 = expansion.grid.cell_rect(i, j)
        x = float(rng.uniform(x0, x1))
        y = float(rng.uniform(y0, y1))
        u0 = expansion.corrections[0].evaluate_in_cell(i, j, x, y)
        corner = expansion.corner_tables[0][i, j]
        ref = (float(nl.eval(corner)) - float(nl.eval(u0))) * u0
        assert correction_rhs(expansion, 1, (int(i), int(j)), (x, y)) == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_correction_rhs_matches_partition_sum_assembly():
    # independent term-by-term assembly of the rank-k source from the
    # partition-sum Adomian oracle
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 3, 3, 3, 10)
    nl = preset.problem.nonlinearity
    rng = np.random.default_rng(3)
    for k in (2, 3):
        for _ in range(8):
            i, j = (int(v) for v in rng.integers(0, 3, size=2))
            x0, x1, y0, y1 = expansion.grid.cell_rect(i, j)
            x = float(rng.uniform(x0, x1))
            y = float(rng.uniform(y0, y1))
            corners = [expansion.corner_tables[s][i, j] for s in range(k)]
            here = [expansion.corrections[s].evaluate_in_cell(i, j, x, y) for s in range(k)]
            val = 0.0
            for s in range(1, k):
                val -= adomian_partition(nl, corners[: k - s + 1]) * here[s]
            for s in range(k):
                a_frozen = adomian_partition(nl, corners[: k - s])
                a_here = adomian_partition(nl, here[: k - s])
                val += (a_frozen - a_here) * here[s]
            val -= adomian_partition(nl, corners + [0.0]) * here[0]
            mine = correction_rhs(expansion, k, (i, j), (x, y))
            assert mine == pytest.approx(val, rel=1e-10, abs=1e-13)


def test_residual_basic_manufactured():
    # zero problem: zero residual; u = x*y from f = 1 and no multiplier: exact
    expansion = fd_solve(zero_problem(), 2, 2, 0, 8)
    assert residual_basic(expansion).max() == 0.0
    problem = GoursatProblem(
        X=1.0, Y=1.0, psi=lambda x: 0.0, phi=lambda y: 0.0,
        f=lambda x, y: 1.0, nonlinearity=Nonlinearity.from_series([0.0]),
    )
    expansion = fd_solve(problem, 2, 2, 0, 8)
    assert residual_basic(expansion).max() <= 1e-12


def test_residuals_on_benchmark():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 8, 8, 3, P)
    assert residual_basic(expansion).max() <= 1e-8
    for k in (1, 2, 3):
        f_scale = 1.0 + np.max(np.abs(expansion.corrections[k].values))
        assert residual_correction(expansion, k).max() <= 1e-8 * f_scale
    # the coarsest mesh (h = 1 cells) carries more spectral differentiation
    # noise; pin its honest level
    coarse = fd_solve(preset.problem, 4, 4, 3, P)
    assert residual_basic(coarse).max() <= 1e-10
    for k in (1, 2, 3):
        assert residual_correction(coarse, k).max() <= 1e-7


def test_march_error_is_tagged_with_cell():
    def bad_f(x, y):
        if x > 0.5:
            raise RuntimeError("source blew up")
        return 0.0

    problem = GoursatProblem(
        X=1.0, Y=1.0, psi=lambda x: 0.0, phi=lambda y: 0.0,
        f=bad_f, nonlinearity=Nonlinearity.from_series([0.0]),
    )
    with pytest.raises(FdSolverError, match=r"cell \(1, 0\)"):
        solve_basic(problem, Grid(1.0, 1.0, 2, 2), 8)


def test_non_finite_source_fails_the_march():
    # NaN on the interior of the last cell only: no neighbour reads it, so
    # only the check on each solved wavefront can catch it
    def f(x, y):
        return np.where((x > 0.75) & (y > 0.75), np.nan, 0.0)

    problem = GoursatProblem(
        X=1.0, Y=1.0, psi=lambda x: 0.0, phi=lambda y: 0.0,
        f=f, nonlinearity=Nonlinearity.from_series([1.0]),
    )
    with pytest.raises(FdSolverError, match=r"cell \(3, 3\).*non-finite"):
        fd_solve(problem, 4, 4, 1, 8)


def test_partial_sum_bounds():
    expansion = fd_solve(zero_problem(), 2, 2, 1, 8)
    with pytest.raises(ValueError):
        expansion.partial_sum(5)
    with pytest.raises(ValueError):
        expansion.partial_sum(-1)


def test_solve_correction_requires_complete_prefix():
    expansion = fd_solve(zero_problem(), 2, 2, 0, 8)
    with pytest.raises(ValueError):
        solve_correction(expansion, 2)
    with pytest.raises(ValueError):
        correction_rhs(expansion, 0, (0, 0), (0.1, 0.1))


def test_determinism():
    preset = liouville_problem()
    a = fd_solve(preset.problem, 6, 6, 2, 8)
    b = fd_solve(preset.problem, 6, 6, 2, 8)
    for k in range(3):
        assert np.array_equal(a.corrections[k].values, b.corrections[k].values)


def test_edge_continuity_after_corrections():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 5, 4, 2, 10)
    for k in range(3):
        field = expansion.corrections[k]
        scale = 1.0 + np.max(np.abs(field.values))
        assert max_edge_jump(field) <= 1e-10 * scale


def test_partial_sum_is_pointwise_sum():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 3, 3, 3, 8)
    for m in range(4):
        ref = sum(expansion.corrections[k].values for k in range(m + 1))
        assert np.array_equal(expansion.partial_sum(m).values, ref)


def test_corner_tables_track_fields():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 4, 4, 2, 10)
    for k in range(3):
        ref = corner_table(expansion.corrections[k])
        assert np.array_equal(ref, expansion.corner_tables[k])
