"""Cell solver, wavefront marches, correction sources, and residual oracles."""

import math
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from goursatfd import solver
from goursatfd.cli import load_problem_file
from goursatfd.field import (
    Grid,
    PiecewiseField,
    _sample_cells,
    cheb_nodes,
    max_edge_jump,
    unit_cheb_nodes,
)
from goursatfd.harness import fd_solve, liouville_problem
from goursatfd.kernels import Z_MAX, KernelRangeError, series_length, zeta_limit
from goursatfd.series import Nonlinearity
from goursatfd.solver import (
    FdExpansion,
    FdSolverError,
    GoursatProblem,
    _SOURCE_BLOCK,
    _CellEngine,
    _adomian_source,
    _corner_weights,
    _engine,
    _kernel_weights,
    _plan,
    _solve_cells,
    residual_basic,
    residual_correction,
    solve_basic,
    solve_correction,
)
from oracles import (
    adomian_partition,
    cell_rect,
    correction_rhs,
    correction_source,
    evaluate_in_cell,
    hyp0f1,
    picard_cell_oracle,
    solve_cell_linear,
    solve_correction_per_wavefront,
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
    # a NaN corner value is no match either
    with pytest.raises(ValueError, match="incompatible"):
        GoursatProblem(1.0, 1.0, lambda x: np.nan, lambda y: 0.0,
                       lambda x, y: 0.0, Nonlinearity.from_series([0.0]))
    with pytest.raises(ValueError):
        GoursatProblem(-1.0, 1.0, lambda x: 0.0, lambda y: 0.0,
                       lambda x, y: 0.0, Nonlinearity.from_series([0.0]))


@pytest.mark.parametrize("extent", [0.0, -1.0, np.nan, np.inf])
def test_problem_and_grid_reject_bad_extents(extent):
    zero = lambda v: 0.0
    with pytest.raises(ValueError, match="extent X must be positive and finite"):
        GoursatProblem(extent, 1.0, zero, zero, lambda x, y: 0.0,
                       Nonlinearity.from_series([0.0]))
    with pytest.raises(ValueError, match="extent Y must be positive and finite"):
        Grid(1.0, extent, 2, 2)


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


@pytest.mark.parametrize("p", [12, 16, 24])
@pytest.mark.parametrize("zeta", [s * z for z in (10.0, 50.0, 200.0, 1000.0) for s in (1, -1)])
def test_exponential_cell_is_accurate_or_refused(zeta, p):
    # u = e^(x - y) on the unit cell solves u_xy + zeta u = (zeta - 1) u: its
    # data stay resolvable at every zeta, so the error is the kernel's own
    n = cheb_nodes(p, 0.0, 1.0)
    exact = np.exp(n[:, None] - n[None, :])
    args = (zeta, exact[0], exact[:, 0], 1.0, lambda x, y: (zeta - 1.0) * np.exp(x - y),
            (0.0, 1.0, 0.0, 1.0), p)
    if abs(zeta) > zeta_limit(p):
        with pytest.raises(KernelRangeError, match=f"at P = {p}"):
            solve_cell_linear(*args)
    else:
        u = solve_cell_linear(*args)
        assert np.max(np.abs(u - exact)) <= 1e-10 * np.max(exact)
    # the rounding bound refuses |zeta| = 50 at every order
    assert (abs(zeta) <= zeta_limit(p)) == (abs(zeta) == 10.0)


def test_refused_cell_names_the_mesh_that_passes():
    # N = 10 on [0, 3] x [0, 2]: zeta = 60 / (N1 N2) is the same in every cell
    problem = GoursatProblem(3.0, 2.0, lambda x: 0.0, lambda y: 0.0, lambda x, y: 1.0,
                             Nonlinearity.from_series([10.0]))
    with pytest.raises(KernelRangeError, match=r"cell \(0, 0\).*at P = 6") as info:
        fd_solve(problem, 2, 1, 0, 6)
    n1, n2 = (int(v) for v in re.search(r"N1 = (\d+), N2 = (\d+)", str(info.value)).groups())
    assert 60.0 / (n1 * n2) <= zeta_limit(6) < 60.0 / ((n1 - 1) * (n2 - 1))
    fd_solve(problem, n1, n2, 0, 6)
    # an infinite coefficient is refused too, with no mesh to suggest
    problem = GoursatProblem(3.0, 2.0, lambda x: 10.0, lambda y: 10.0, lambda x, y: 1.0,
                             Nonlinearity.from_series([0.0, 1.0e308]))
    with np.errstate(over="ignore"), \
            pytest.raises(KernelRangeError, match=r"\|zeta\| = inf exceeds [0-9.]+ at P = 6$"):
        fd_solve(problem, 2, 1, 0, 6)


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
    u0 = solve_basic(problem, grid, 8)
    assert np.max(np.abs(u0.values)) == 0.0


def test_solve_basic_reproduces_benchmark_error():
    # published error of the frozen-coefficient field at h = 0.5
    preset = liouville_problem()
    grid = Grid(4.0, 4.0, 8, 8)
    u0 = solve_basic(preset.problem, grid, P)
    fracs = np.linspace(0, 1, 5)
    err = 0.0
    for i in range(8):
        for j in range(8):
            x0, x1, y0, y1 = cell_rect(grid, i, j)
            for fx in fracs:
                for fy in fracs:
                    x, y = x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)
                    err = max(err, abs(u0.evaluate(x, y) - preset.exact(x, y)))
    assert err == pytest.approx(1.0584498110834e-1, rel=1e-2)
    # frozen coefficients are the multiplier at the corner, negative here
    assert np.all(fd_solve(preset.problem, 8, 8, 0, P).cell_coeffs < 0)


def test_solve_basic_boundary_and_continuity():
    preset = liouville_problem()
    grid = Grid(4.0, 4.0, 6, 5)
    u0 = solve_basic(preset.problem, grid, 10)
    assert max_edge_jump(u0) <= 1e-10 * (1 + np.max(np.abs(u0.values)))
    xs, ys = grid.cell_nodes(unit_cheb_nodes(10))
    assert np.max(np.abs(u0.values[:, 0, :, 0] - preset.problem.psi(xs))) <= 1e-12
    assert np.max(np.abs(u0.values[0, :, 0, :] - preset.problem.phi(ys))) <= 1e-12


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
        x0, _, y0, _ = cell_rect(grid, i, j)
        assert correction_rhs(expansion, 1, (i, j), (x0, y0)) == pytest.approx(0.0, abs=1e-12)


def test_correction_rhs_k1_closed_form():
    # F1 = [N(corner) - N(u0)] * u0
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 4, 4, 0, 10)
    nl = preset.problem.nonlinearity
    rng = np.random.default_rng(2)
    for _ in range(20):
        i, j = rng.integers(0, 4, size=2)
        x0, x1, y0, y1 = cell_rect(expansion.grid, i, j)
        x = float(rng.uniform(x0, x1))
        y = float(rng.uniform(y0, y1))
        u0 = evaluate_in_cell(expansion.corrections[0], i, j, x, y)
        corner = expansion.corrections[0].values[i, j, 0, 0]
        ref = (float(nl.eval(corner)) - float(nl.eval(u0))) * u0
        assert correction_rhs(expansion, 1, (int(i), int(j)), (x, y)) == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_correction_rhs_matches_partition_sum_assembly():
    # independent term-by-term assembly of the rank-k source from the
    # partition-sum Adomian oracle, through rank 7 (the depth of the deep
    # benchmark study), on the benchmark and on a cubic multiplier
    cubic = GoursatProblem(
        X=1.0, Y=1.0, psi=lambda x: 0.4 * np.sin(2 * x), phi=lambda y: 0.3 * y,
        f=lambda x, y: 1.0 + x - y, nonlinearity=Nonlinearity.from_series([0.8, -0.5, 0.3, 0.2]),
    )
    rng = np.random.default_rng(3)
    for problem in (liouville_problem().problem, cubic):
        expansion = fd_solve(problem, 3, 3, 6, 10)
        nl = problem.nonlinearity
        for k in range(1, 8):
            for _ in range(8):
                i, j = (int(v) for v in rng.integers(0, 3, size=2))
                x0, x1, y0, y1 = cell_rect(expansion.grid, i, j)
                x = float(rng.uniform(x0, x1))
                y = float(rng.uniform(y0, y1))
                corners = [expansion.corrections[s].values[i, j, 0, 0] for s in range(k)]
                here = [evaluate_in_cell(expansion.corrections[s], i, j, x, y) for s in range(k)]
                val = 0.0
                for s in range(1, k):
                    val -= adomian_partition(nl, corners[: k - s + 1]) * here[s]
                for s in range(k):
                    a_frozen = adomian_partition(nl, corners[: k - s])
                    a_here = adomian_partition(nl, here[: k - s])
                    val += (a_frozen - a_here) * here[s]
                val -= adomian_partition(nl, corners + [0.0]) * here[0]
                mine = correction_rhs(expansion, k, (i, j), (x, y))
                assert mine == pytest.approx(val, rel=1e-10, abs=1e-13), (k, i, j)


@pytest.mark.parametrize("nl", [liouville_problem().problem.nonlinearity,
                                Nonlinearity.from_series([0.8, -0.5, 0.3, 0.2])],
                         ids=["liouville", "cubic"])
def test_corner_weights_match_the_partition_sum(nl):
    # weight s of rank k is A^c_(k-1-s) - A^c_(k-s), each A^c_n the partition
    # sum at the corner values v_0..v_n, the top slot A^c_k taken at v_k = 0
    # (not zero itself: it is N's composition with the lower ranks' corners)
    rng = np.random.default_rng(41)
    frozen = [rng.uniform(-2.0, -0.6, size=5)] + [rng.uniform(-0.3, 0.3, size=5) for _ in range(6)]
    for k in range(1, 8):
        mine = _corner_weights(nl, frozen[:k])
        assert mine.shape == (k, 5)
        for q in range(5):
            corners = [float(f[q]) for f in frozen[:k]] + [0.0]
            a = [adomian_partition(nl, corners[: n + 1]) for n in range(k + 1)]
            tol = 1e-13 * (1.0 + max(abs(x) for x in a))
            for s in range(k):
                assert abs(mine[s, q] - (a[k - 1 - s] - a[k - s])) <= tol, (k, s, q)


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


def test_cells_start_with_their_left_trace():
    # every kernel term vanishes at sigma = 0, so a cell's first x-row is its
    # left trace bit for bit and its first node is the corner the march froze
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 5, 4, 2, 10)
    for k in range(3):
        v = expansion.corrections[k].values
        assert np.array_equal(v[1:, :, 0, :], v[:-1, :, -1, :])
    u0 = expansion.corrections[0].values
    assert np.array_equal(expansion.cell_coeffs, preset.problem.nonlinearity.eval(u0[:, :, 0, 0]))


def test_rank1_source_vanishes_at_every_lower_left_node():
    # F^(1) = (N(corner) - N(u0)) u0 is zero where u0 is the corner value;
    # with zero rank-1 corners the N' term adds nothing, so the march's
    # source must be exactly zero at every cell's first node
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 40, 40, 0, P)
    cells = slice(None)
    rhs = correction_source(expansion, 1)(cells, cells, np.zeros((40, 40)))
    assert np.count_nonzero(rhs[:, :, 0, 0]) == 0


def _random_cells(rng, n, p):
    """(left, bottom, rhs) of n cells whose traces agree at the corner."""
    left = rng.standard_normal((n, p))
    bottom = rng.standard_normal((n, p))
    bottom[:, 0] = left[:, 0]
    return left, bottom, rng.standard_normal((n, p, p))


@pytest.mark.parametrize("p", range(4, 25))
def test_engine_stack_holds_every_accepted_term_count(monkeypatch, p):
    # one term-major stack per operand, as deep as the largest |zeta| the
    # range accepts; the operands of n terms, reshaped as the kernel terms
    # read them, are views of it and equal a stack built with exactly n
    eng = _CellEngine(p)
    terms = series_length(zeta_limit(p), p)
    stacks = (eng.a, eng.a_t, eng.powers, eng.left_powers)
    assert [a.shape[0] for a in stacks] == [terms] * 4 and terms <= 32
    for n in range(1, terms + 1):
        monkeypatch.setattr(solver, "series_length", lambda zmax, q, n=n: n)
        exact = _CellEngine(p)
        for mine, ref in zip(stacks, (exact.a, exact.a_t, exact.powers, exact.left_powers)):
            prefix = mine[:n].reshape(-1, p).T
            assert np.shares_memory(prefix, mine), n
            assert mine[:n].shape == ref.shape and mine[:n].tobytes() == ref.tobytes(), n


@pytest.mark.parametrize("batch", [[0, 1, 2, 3, 4], [4]])
def test_a_batch_does_not_mix_its_cells(batch):
    # zero, positive and negative coefficients, with |zeta| = |c| h1 h2
    # needing from 1 to 19 series terms; the batch takes the longest series
    h1, h2 = 0.5, 0.4
    coeffs = np.array([0.0, 3.0, -3.0, 0.05, -40.0])
    assert sorted({series_length(abs(c) * h1 * h2, P) for c in coeffs}) == [1, 6, 11, 19]
    coeffs = coeffs[batch]
    rng = np.random.default_rng(7)
    left, bottom, _ = _random_cells(rng, 5, P)
    left, bottom = left[batch], bottom[batch]
    sources = [lambda x, y, s=s: np.cos(s * x - y) + s * x * y for s in batch]
    xs, ys = cheb_nodes(P, 0.0, h1)[None], cheb_nodes(P, 0.0, h2)[None]
    rhs = np.concatenate([_sample_cells(f, xs, ys)[0] for f in sources])
    cells = np.zeros(len(batch), dtype=int)
    weights = _kernel_weights(Grid(h1, h2, 1, 1), P, coeffs, cells, cells)
    out = _solve_cells(_engine(P), weights, left, bottom, rhs)
    for n, c in enumerate(coeffs):
        ref = solve_cell_linear(c, left[n], bottom[n], left[n, 0], sources[n],
                                (0.0, h1, 0.0, h2), P)
        assert np.max(np.abs(out[n] - ref)) <= 1e-14 * np.max(np.abs(ref)), c


def test_terms_below_the_floor_are_inert(monkeypatch):
    # two more 0F1 terms than series_length asks for leave the field unchanged
    preset = liouville_problem()
    u = fd_solve(preset.problem, 20, 20, 0, 16).corrections[0].values
    monkeypatch.setattr(solver, "series_length", lambda zmax, p: series_length(zmax, p) + 2)
    assert fd_solve(preset.problem, 20, 20, 0, 16).corrections[0].values.tobytes() == u.tobytes()


def test_axis_data_are_sampled_in_one_call():
    calls = []

    def counted(fn):
        def wrapped(v):
            calls.append(np.shape(v))
            return fn(v)
        return wrapped

    preset = liouville_problem()
    problem = GoursatProblem(4.0, 4.0, counted(preset.problem.psi), counted(preset.problem.phi),
                             preset.problem.f, preset.problem.nonlinearity)
    calls.clear()
    u0 = solve_basic(problem, Grid(4.0, 4.0, 5, 3), 8)
    assert calls == [(3, 8), (5, 8)]
    # a scalar-only callable is sampled point by point, to the same values
    scalar = GoursatProblem(4.0, 4.0, lambda x: float(preset.problem.psi(x)),
                            lambda y: float(preset.problem.phi(y)), preset.problem.f,
                            preset.problem.nonlinearity)
    assert solve_basic(scalar, Grid(4.0, 4.0, 5, 3), 8).values.tobytes() == u0.values.tobytes()


def _block_mesh(p):
    """(N1, N2, cells per block) of a mesh whose source spans more than two
    blocks, ends in a partial block and has a block boundary inside a row."""
    per_block = _SOURCE_BLOCK // (p * p)
    n2 = math.isqrt(2 * per_block)
    while per_block % n2 == 0:
        n2 += 1
    n1 = 2 * per_block // n2 + 1
    while n1 * n2 % per_block == 0:
        n1 += 1
    return n1, n2, per_block


def _poly_problem():
    return GoursatProblem(
        X=1.5, Y=1.0,
        psi=lambda x: 0.3 * np.sin(x), phi=lambda y: 0.2 * y * y,
        f=lambda x, y: 1.0 + x * y,
        nonlinearity=Nonlinearity.from_series([0.5, -0.4, 0.3, 0.1]),
    )


@pytest.mark.parametrize("problem,rank", [(liouville_problem().problem, 7), (_poly_problem(), 3)],
                         ids=["liouville", "poly"])
def test_blocked_source_equals_per_wavefront_assembly(problem, rank):
    # the whole-mesh source, assembled in blocks of whole cells, must equal
    # the Adomian source of each anti-diagonal's gathered cells bit for bit;
    # liouville through the deep benchmark's rank 7, every order of its recurrence
    n1, n2, per_block = _block_mesh(P)
    assert n1 * n2 > 2 * per_block and n1 * n2 % per_block and per_block % n2
    expansion = fd_solve(problem, n1, n2, rank, P)
    nl = problem.nonlinearity
    prior = [c.values for c in expansion.corrections]
    nprime = nl.deriv(prior[0][:, :, 0, 0])
    for k in range(1, rank + 1):
        source = correction_source(expansion, k)
        for d in range(n1 + n2 - 1):
            ii = np.arange(max(0, d - n2 + 1), min(n1, d + 1))
            jj = d - ii
            corners = prior[k][ii, jj, 0, 0]
            here = [v[ii, jj] for v in prior[:k]]
            weights = _corner_weights(nl, [v[ii, jj, 0, 0] for v in prior[:k]])
            ref = _adomian_source(nl, here, weights)
            ref -= (nprime[ii, jj] * corners)[:, None, None] * here[0]
            assert source(ii, jj, corners).tobytes() == ref.tobytes(), (k, d)


def test_source_is_assembled_once_per_block(monkeypatch):
    # one Adomian assembly per block of whole cells, not one per anti-diagonal
    n1, n2, per_block = _block_mesh(P)
    expansion = fd_solve(liouville_problem().problem, n1, n2, 0, P)
    calls = []

    def counted(*args):
        calls.append(1)
        return _adomian_source(*args)

    monkeypatch.setattr(solver, "_adomian_source", counted)
    for k in range(1, 4):
        calls.clear()
        expansion.corrections.append(solve_correction(expansion, k))
        assert len(calls) == math.ceil(n1 * n2 / per_block) < n1 + n2 - 1, k


@pytest.mark.parametrize("problem", [liouville_problem().problem, _poly_problem()],
                         ids=["liouville", "poly"])
def test_correction_reads_taylor_rows_of_n_only_at_corners(monkeypatch, problem):
    # the running part of the source is one coefficient of G = u N at the cell
    # points; rows of N are taken only at the N1 * N2 corner values.  The one
    # per-node read is N itself (order 0), for A_0(G) = u0 N(u0) at rank 1
    n1, n2, _ = _block_mesh(P)
    expansion = fd_solve(problem, n1, n2, 0, P)
    calls = []
    taylor_at = Nonlinearity.taylor_at

    def counted(self, center, order):
        calls.append((np.size(center), order))
        return taylor_at(self, center, order)

    monkeypatch.setattr(Nonlinearity, "taylor_at", counted)
    for k in range(1, 4):
        calls.clear()
        expansion.corrections.append(solve_correction(expansion, k))
        per_node = [order for size, order in calls if size > n1 * n2]
        assert len(calls) > len(per_node), k
        assert per_node == ([0] * len(per_node) if k == 1 else []), (k, per_node)


def test_correction_memory_stays_within_four_fields():
    # the whole-mesh source is one field; its blocks add only small
    # temporaries, so a rank-7 correction peaks at no more than four fields
    expansion = fd_solve(liouville_problem().problem, 40, 40, 6, P)
    field_bytes = expansion.corrections[0].values.nbytes
    tracemalloc.start()
    try:
        solve_correction(expansion, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * field_bytes, peak / field_bytes


# the perfbench cli-poly problem of seed 1: N = nu0 + nu1 u + nu2 u^2 with a
# manufactured u* = a sin(x + b y) + c x y on [0, 2]^2
_CLI_POLY_SEED1 = """\
X = 2
Y = 2
psi = (0.75591081235012836)*sin(x)
phi = (0.75591081235012836)*sin((1.4504636963259352)*y)
f = -(0.75591081235012836)*(1.4504636963259352)*sin(x + (1.4504636963259352)*y) \
+ (-0.21350423236821975) + ((1.4486494471372438) + (-0.11290112879370873)*\
((0.75591081235012836)*sin(x + (1.4504636963259352)*y) + (-0.21350423236821975)*x*y) \
+ (-0.023002065308227293)*((0.75591081235012836)*sin(x + (1.4504636963259352)*y) \
+ (-0.21350423236821975)*x*y)**2)*((0.75591081235012836)*sin(x + (1.4504636963259352)*y) \
+ (-0.21350423236821975)*x*y)
exact = ((0.75591081235012836)*sin(x + (1.4504636963259352)*y) + (-0.21350423236821975)*x*y)
nu = 1.4486494471372438, -0.11290112879370873, -0.023002065308227293
"""


def _prefix(expansion, k):
    """A copy of `expansion` holding corrections 0..k-1 only."""
    return FdExpansion(expansion.problem, expansion.grid, expansion.order,
                       expansion.corrections[:k])


@pytest.mark.parametrize("case", ["liouville-40", "poly-blocks", "cli-poly-seed1"])
def test_correction_matches_the_per_wavefront_cell_solve(case, tmp_path, monkeypatch):
    # the mesh-wide series weights against each anti-diagonal's own, on the
    # same gathered sources, rank by rank on the same prior ranks
    if case == "liouville-40":
        problem, (n1, n2), m = liouville_problem().problem, (40, 40), 7
    elif case == "poly-blocks":
        problem, (n1, n2), m = _poly_problem(), _block_mesh(P)[:2], 3
    else:
        path = tmp_path / "poly.problem"
        path.write_text(_CLI_POLY_SEED1, encoding="utf-8")
        problem, (n1, n2), m = load_problem_file(str(path)).problem, (40, 40), 4
    expansion = fd_solve(problem, n1, n2, m, P)
    u0 = solve_basic(problem, expansion.grid, P).values
    assert expansion.corrections[0].values.tobytes() == u0.tobytes()
    nl = problem.nonlinearity
    assert expansion.cell_coeffs.tobytes() == nl.eval(u0[:, :, 0, 0]).tobytes()
    for k in range(1, m + 1):
        mine = expansion.corrections[k].values
        ref = solve_correction_per_wavefront(_prefix(expansion, k), k).values
        sup = np.max(np.abs(ref))
        assert np.max(np.abs(mine - ref)) <= 1e-13 * sup, (k, np.max(np.abs(mine - ref)) / sup)
        assert np.array_equal(mine[1:, :, 0, :], mine[:-1, :, -1, :])
    # every cell sums the term count of the mesh's largest |zeta|, also where
    # the anti-diagonals alone would take fewer (seed 1 mixes K = 5 and 6)
    zeta = np.abs(expansion.cell_coeffs) * (expansion.grid.h1 * expansion.grid.h2)
    k = series_length(float(np.max(zeta)), P)
    shapes = []

    def spy(eng, weights, left, bottom, rhs):
        shapes.append({w.shape for w in weights})
        return solve_cells(eng, weights, left, bottom, rhs)

    solve_cells = solver._solve_cells
    monkeypatch.setattr(solver, "_solve_cells", spy)
    solve_correction(_prefix(expansion, 1), 1)
    diagonals = [(step.ii, step.jj) for step in _plan(n1, n2)[0]]
    assert shapes == [{(len(ii), k)} for ii, _ in diagonals]
    if case == "cli-poly-seed1":
        assert {series_length(float(np.max(zeta[d])), P) for d in diagonals} == {k - 1, k}


def test_correction_hoists_weights_and_source_out_of_the_march(monkeypatch):
    # per correction the series weights and the source are built once, before
    # the march; the march makes one cell solve per anti-diagonal, as at rank 0
    n1, n2, _ = _block_mesh(P)
    problem = liouville_problem().problem
    expansion = fd_solve(problem, n1, n2, 0, P)
    calls = Counter()
    marching = [False]

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name, marching[0]] += 1
            return fn(*args, **kwargs)
        return wrapped

    def flagged(*args):
        marching[0] = True
        try:
            return march(*args)
        finally:
            marching[0] = False

    march = solver._march
    monkeypatch.setattr(solver, "_march", flagged)
    for name in ("series_length", "series_terms", "_kernel_weights", "_solve_cells",
                 "_area_term", "_source_field"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    diagonals = n1 + n2 - 1
    for k in range(1, 4):
        calls.clear()
        expansion.corrections.append(solve_correction(expansion, k))
        assert calls == Counter({
            ("series_length", False): 1, ("series_terms", False): 1,
            ("_kernel_weights", False): 1, ("_source_field", False): 1,
            ("_solve_cells", True): diagonals, ("_area_term", True): diagonals}), k
        # the residual reads the source the march reads
        calls.clear()
        res = residual_correction(expansion, k).max()
        assert calls == Counter({("_source_field", False): 1}), k
        assert res <= 1e-8 * (1.0 + np.max(np.abs(expansion.corrections[k].values)))
    # through fd_solve, rank 0 takes its weights per anti-diagonal inside the march
    calls.clear()
    fd_solve(problem, n1, n2, 3, P)
    assert calls["_kernel_weights", True] == diagonals
    assert calls["_kernel_weights", False] == calls["_source_field", False] == 3
    assert calls["_solve_cells", True] == 4 * diagonals
    assert calls["_solve_cells", False] == 0


def test_standalone_correction_keeps_only_its_field():
    # after the call, traced memory has grown by the returned field alone, and
    # the expansion's attributes are the ones it had
    expansion = fd_solve(liouville_problem().problem, 40, 40, 0, P)
    before = dict(vars(expansion))
    coeffs = expansion.cell_coeffs.copy()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        uk = solve_correction(expansion, 1)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    field_bytes = uk.values.nbytes
    assert field_bytes <= grown <= 1.01 * field_bytes, grown / field_bytes
    assert vars(expansion).keys() == before.keys()
    assert all(vars(expansion)[key] is value for key, value in before.items())
    assert np.array_equal(expansion.cell_coeffs, coeffs)
    assert len(expansion.corrections) == 1


def test_non_finite_rank2_source_names_the_first_bad_cell():
    # a NaN in A_1(G) at the largest u0 values reaches only the rank-2 source;
    # the march reports the first cell, in march order, whose source carries
    # it, as the per-wavefront cell solve does
    problem = _poly_problem()
    base = problem.nonlinearity
    grid = Grid(problem.X, problem.Y, 6, 5)
    u0 = solve_basic(problem, grid, 8).values
    threshold = np.quantile(u0, 0.9)

    def term_adomian(v, n):
        out = base.term_adomian(v, n)
        if n == 1:
            out[v[0] > threshold] = np.nan
        return out

    nl = Nonlinearity(base.taylor_at, term_adomian)
    poisoned = GoursatProblem(problem.X, problem.Y, problem.psi, problem.phi, problem.f, nl)
    expansion = fd_solve(poisoned, 6, 5, 1, 8)
    bad = (u0 > threshold).any(axis=(2, 3))
    first = min(zip(*np.nonzero(bad)), key=lambda ij: (ij[0] + ij[1], ij[0]))
    with pytest.raises(FdSolverError, match=rf"cell \({first[0]}, {first[1]}\): non-finite") as mine:
        solve_correction(expansion, 2)
    with pytest.raises(FdSolverError) as ref:
        solve_correction_per_wavefront(expansion, 2)
    assert str(mine.value) == str(ref.value)


def _hand_built_expansion():
    """A 6x5, P = 12 expansion of `_poly_problem` with u^(0) only."""
    problem = _poly_problem()
    grid = Grid(problem.X, problem.Y, 6, 5)
    return FdExpansion(problem, grid, P, [solve_basic(problem, grid, P)])


# `_poly_problem`'s cubic N is about 1e4 at u = 46 and about 9e2 at u = 20;
# a rank-0 corner value set there puts its cell far beyond the kernel range
_FAR, _NEAR = 46.0, 20.0


def test_cell_coeffs_are_read_from_rank0_only():
    # N at the rank-0 corner values, bit for bit, and nothing to assign
    expansion = _hand_built_expansion()
    nl, u0 = expansion.problem.nonlinearity, expansion.corrections[0].values
    assert expansion.cell_coeffs.tobytes() == nl.eval(u0[:, :, 0, 0]).tobytes()
    with pytest.raises(AttributeError):
        expansion.cell_coeffs = np.zeros((6, 5))
    assert "cell_coeffs" not in vars(expansion)


def test_complex_data_is_refused_by_name():
    # refused, not cast to real: f by the cell where it is complex, the axis
    # data by name, and no ComplexWarning on the way
    def problem(**data):
        data = {"psi": lambda x: 0 * x, "phi": lambda y: 0 * y, "f": lambda x, y: 1.0, **data}
        return GoursatProblem(X=2.0, Y=2.0, nonlinearity=Nonlinearity.from_series([1.0]), **data)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FdSolverError, match=r"^cell \(0, 0\): complex value np.complex128\(1j\)"):
            fd_solve(problem(f=lambda x, y: np.sqrt(x - 1 + 0j)), 3, 3, 1, 8)
        # real at the corner, complex at every other node
        psi = lambda x: np.sqrt(-x + 0j) if x else 0.0  # noqa: E731
        with pytest.raises(ValueError, match=r"^psi: complex value np.complex128\("):
            fd_solve(problem(psi=psi), 3, 3, 0, 8)
        with pytest.raises(ValueError, match=r"^phi: complex value \(0.5\+0j\)"):
            problem(phi=lambda y: 0.5 + 0j)


def test_an_axis_datum_that_raises_is_named():
    # a scalar-only psi whose math.exp overflows: refused by name and node,
    # with the OverflowError chained
    problem = GoursatProblem(X=4.0, Y=4.0, psi=lambda x: math.exp(300 * x) - 1, phi=lambda y: 0.0,
                             f=lambda x, y: 1.0, nonlinearity=Nonlinearity.from_series([1.0]))
    with pytest.raises(ValueError, match=r"^psi: at node \d\S*: math range error$") as info:
        fd_solve(problem, 3, 1, 0, 8)
    assert isinstance(info.value.__cause__, OverflowError)
    with pytest.raises(ValueError, match=r"^phi: at node 0.0: float division by zero$"):
        GoursatProblem(X=1.0, Y=1.0, psi=lambda x: 0.0, phi=lambda y: 1 / y,
                       f=lambda x, y: 1.0, nonlinearity=Nonlinearity.from_series([1.0]))


def test_an_expansion_without_rank0_is_refused_by_name():
    # a hand-built 2x2 liouville expansion that holds no correction at all
    problem = liouville_problem().problem
    expansion = FdExpansion(problem, Grid(problem.X, problem.Y, 2, 2), 8)
    message = re.escape("expected corrections 0..0 complete, have 0")
    for read in (lambda: expansion.cell_coeffs, lambda: residual_basic(expansion),
                 lambda: solve_correction(expansion, 1)):
        with pytest.raises(ValueError, match=message):
            read()


def test_standalone_correction_refuses_an_out_of_range_coefficient():
    # a hand-built expansion whose rank-0 corner value at cell (3, 2) puts its
    # coefficient far beyond the kernel range: the correction names that cell
    # and a mesh that passes
    expansion = _hand_built_expansion()
    problem = expansion.problem
    solve_correction(expansion, 1)
    # a later call solves on the rank-0 field the expansion holds then
    values = expansion.corrections[0].values.copy()
    values[3, 2, 0, 0] = _FAR
    expansion.corrections[0] = PiecewiseField(expansion.grid, values)
    c = float(expansion.cell_coeffs[3, 2])
    assert 1.0e4 < c == float(problem.nonlinearity.eval(_FAR))
    with pytest.raises(KernelRangeError, match=rf"cell \(3, 2\).*at P = {P}; refine") as info:
        solve_correction(expansion, 1)
    n1, n2 = (int(v) for v in re.search(r"N1 = (\d+), N2 = (\d+)", str(info.value)).groups())
    zeta = lambda a, b: c * (problem.X / a) * (problem.Y / b)
    assert zeta(n1, n2) <= zeta_limit(P) < zeta(n1 - 1, n2 - 1)
    with pytest.raises(KernelRangeError):
        solve_correction_per_wavefront(expansion, 1)


def test_correction_sees_an_in_place_edit_of_the_coefficients():
    # every call reads its coefficients from the rank-0 corner values it finds
    expansion = _hand_built_expansion()
    solve_correction(expansion, 1)
    expansion.corrections[0].values[3, 2, 0, 0] = _FAR
    with pytest.raises(KernelRangeError, match=r"cell \(3, 2\)"):
        solve_correction(expansion, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_correction_names_a_non_finite_coefficient(bad):
    # a non-finite rank-0 corner value gives a non-finite coefficient, which
    # sets the term count of every cell, so it is refused
    expansion = _hand_built_expansion()
    expansion.corrections[0].values[4, 1, 0, 0] = bad
    assert not np.isfinite(expansion.cell_coeffs[4, 1])
    with pytest.raises(KernelRangeError, match=r"cell \(4, 1\).*at P = 12$"):
        solve_correction(expansion, 1)


def test_suggested_mesh_brings_every_cell_within_the_range():
    # the cell named is the mesh's largest |c|, not the first refused in march
    # order, so the mesh it suggests passes for every cell
    expansion = _hand_built_expansion()
    problem, u0 = expansion.problem, expansion.corrections[0].values
    u0[1, 0, 0, 0], u0[3, 2, 0, 0] = _NEAR, _FAR
    coeffs = expansion.cell_coeffs
    # cell (1, 0), earlier in march order, is beyond the range too
    assert zeta_limit(P) < coeffs[1, 0] * expansion.grid.h1 * expansion.grid.h2
    with pytest.raises(KernelRangeError, match=r"cell \(3, 2\)") as info:
        solve_correction(expansion, 1)
    n1, n2 = (int(v) for v in re.search(r"N1 = (\d+), N2 = (\d+)", str(info.value)).groups())
    assert np.max(np.abs(coeffs)) * (problem.X / n1) * (problem.Y / n2) <= zeta_limit(P)


@pytest.mark.parametrize("bad", [1.0, np.nan])
def test_march_refuses_a_trace_that_misses_its_corner(bad):
    # cell (0, 1)'s left trace starts away from the corner value of the cell
    # below it; the march names the cell before solving it
    grid, p = Grid(1.0, 1.0, 2, 2), 8
    left_edge, bottom_edge = np.zeros((2, p)), np.zeros((2, p))
    left_edge[1, 0] = bad

    def cells(step, left):
        zeros = np.zeros(len(step.ii))
        return _kernel_weights(grid, p, zeros, step.ii, step.jj), np.zeros((len(step.ii), p, p))

    with pytest.raises(FdSolverError, match=r"cell \(0, 1\): .*corner"):
        solver._march(grid, p, left_edge, bottom_edge, cells)


@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 7), (7, 1), (7, 3), (40, 40)])
def test_march_plan_lists_every_cell_once_in_march_order(n1, n2):
    # anti-diagonal by anti-diagonal, i ascending; each neighbour off an axis
    # lies on the previous anti-diagonal, and the axis flags are exact
    steps, order = _plan(n1, n2)
    assert _plan(n1, n2)[1] is order
    assert len(steps) == n1 + n2 - 1
    assert np.array_equal(np.sort(order), np.arange(n1 * n2))
    ii, jj = np.divmod(order, n2)
    assert np.array_equal(np.lexsort((ii, ii + jj)), np.arange(n1 * n2))
    start = 0
    for d, step in enumerate(steps):
        assert np.array_equal(step.ii, ii[step.at]) and np.array_equal(step.jj, jj[step.at])
        assert np.array_equal(step.ids, order[step.at]) and np.all(step.ii + step.jj == d)
        assert step.at == slice(start, start + len(step.ids))
        start += len(step.ids)
        assert step.on_left == (step.ii[0] == 0) and step.on_bottom == (step.jj[-1] == 0)
        assert np.all(step.ii[1:] > 0) and np.all(step.jj[:-1] > 0)
        prev = steps[d - 1].ids if d else np.array([], dtype=int)
        left = slice(1 if step.on_left else 0, None)
        bottom = slice(None, -1 if step.on_bottom else None)
        assert np.array_equal(step.left_ids[left], (step.ids - n2)[left])
        assert np.array_equal(step.bottom_ids[bottom], (step.ids - 1)[bottom])
        assert np.isin(step.left_ids[left], prev).all() and np.isin(step.bottom_ids[bottom], prev).all()
        assert not any(a.flags.writeable for a in step[:5])
    assert start == n1 * n2


def test_a_refused_run_emits_no_numpy_warning():
    # f = exp(800 x y) overflows on cell (3, 3) only; the march names that
    # cell, and no overflow or invalid-value warning comes before the error
    problem = GoursatProblem(X=1.0, Y=1.0, psi=lambda x: 0 * x, phi=lambda y: 0 * y,
                             f=lambda x, y: np.exp(800.0 * x * y),
                             nonlinearity=Nonlinearity.from_series([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FdSolverError, match=r"^cell \(3, 3\): non-finite values in the solution$"):
            fd_solve(problem, 4, 4, 2, 8)


def test_a_finite_field_whose_sum_overflows_is_accepted():
    # u = 1e308 x y on the unit cell: every value is finite, their sum is not
    problem = GoursatProblem(X=1.0, Y=1.0, psi=lambda x: 0 * x, phi=lambda y: 0 * y,
                             f=lambda x, y: 1e308, nonlinearity=Nonlinearity.from_series([0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = solve_basic(problem, Grid(1.0, 1.0, 1, 1), P).values
    assert np.isfinite(u).all() and u.max() <= 1e308
    with np.errstate(over="ignore"):
        assert np.isinf(u.sum())


def test_a_residual_that_overflows_is_named():
    # u = 1e308 x y, accepted by the march, overflows the residual's second
    # derivative: both residuals name the cell, with no numpy warning
    problem = GoursatProblem(X=1.0, Y=1.0, psi=lambda x: 0 * x, phi=lambda y: 0 * y,
                             f=lambda x, y: 1e308, nonlinearity=Nonlinearity.from_series([0.0]))
    expansion = fd_solve(problem, 1, 1, 1, P)
    expansion.corrections[1] = expansion.corrections[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (lambda: residual_basic(expansion), lambda: residual_correction(expansion, 1)):
            with pytest.raises(FdSolverError, match=r"^cell \(0, 0\): the residual is not finite$"):
                read()


# metamorphic relations: the solver against itself on a transformed problem,
# with no exact solution; each compares every rank within 1e-13 of its sup

_META_MESH, _META_RANK = (13, 9), 5


def _meta_problem(nu=(0.3, -0.2, 0.1), a=1.0, b=1.0, psi=None, phi=None, f=None):
    """An asymmetric problem on [0, 2] x [0, 1.5], in x = a x', y = b y'.

    The map turns u_xy + N(u) u = f into u_x'y' + ab N(u) u = ab f on
    [0, 2 / a] x [0, 1.5 / b], with psi and phi read at a x' and b y'.
    """
    psi = psi or (lambda x: 0.5 + 0.4 * np.sin(1.3 * x))
    phi = phi or (lambda y: 0.5 + 0.3 * y - 0.2 * y * y)
    f = f or (lambda x, y: 1.0 + x * y * y - 0.5 * x)
    return GoursatProblem(X=2.0 / a, Y=1.5 / b, psi=lambda x: psi(a * x), phi=lambda y: phi(b * y),
                          f=lambda x, y: a * b * f(a * x, b * y),
                          nonlinearity=Nonlinearity.from_series([a * b * v for v in nu]))


def _assert_ranks_match(mine, ref):
    for k, (u, v) in enumerate(zip(mine, ref)):
        sup = np.max(np.abs(v))
        assert np.max(np.abs(u - v)) <= 1e-13 * sup, (k, np.max(np.abs(u - v)) / sup)


def test_axis_swap_transposes_every_rank():
    # (X, Y, psi, phi, f(x, y)) on N1 x N2 cells against (Y, X, phi, psi,
    # f(y, x)) on N2 x N1: the bottom-trace term meets the left-trace term
    n1, n2 = _META_MESH
    problem = _meta_problem()
    swapped = GoursatProblem(problem.Y, problem.X, problem.phi, problem.psi,
                             lambda x, y: problem.f(y, x), problem.nonlinearity)
    mine = fd_solve(problem, n1, n2, _META_RANK, P).corrections
    ref = fd_solve(swapped, n2, n1, _META_RANK, P).corrections
    _assert_ranks_match([u.values for u in mine], [v.values.transpose(1, 0, 3, 2) for v in ref])


@pytest.mark.parametrize("a, b", [(2.0, 0.5), (1.3, 0.7)])
def test_domain_scaling_leaves_every_rank_unchanged(a, b):
    # zeta = c h1 h2 is invariant, so the cells see the same kernel; a != b
    # shows a swapped h1 / h2, and 1.3 x 0.7 is not exact in binary
    n1, n2 = _META_MESH
    mine = fd_solve(_meta_problem(a=a, b=b), n1, n2, _META_RANK, P).corrections
    ref = fd_solve(_meta_problem(), n1, n2, _META_RANK, P).corrections
    _assert_ranks_match([u.values for u in mine], [v.values for v in ref])


def test_constant_multiplier_superposes_and_has_no_corrections():
    # for N = 0.7 the equation is linear: rank 0 superposes, and every
    # Adomian term cancels, so each correction is exactly zero
    n1, n2 = _META_MESH
    one = dict(psi=lambda x: 0.5 + 0.4 * np.sin(1.3 * x), phi=lambda y: 0.5 + 0.3 * y,
               f=lambda x, y: 1.0 + x * y * y)
    two = dict(psi=lambda x: -0.2 + x * x, phi=lambda y: -0.2 - 0.7 * y * y * y,
               f=lambda x, y: np.cos(x - 2.0 * y))
    both = {key: (lambda g, h: lambda *v: g(*v) + h(*v))(one[key], two[key]) for key in one}
    solves = [fd_solve(_meta_problem(nu=(0.7,), **data), n1, n2, _META_RANK, P)
              for data in (one, two, both)]
    total = solves[0].corrections[0].values + solves[1].corrections[0].values
    _assert_ranks_match([solves[2].corrections[0].values], [total])
    for n, expansion in enumerate(solves):
        for k, uk in enumerate(expansion.corrections[1:], 1):
            assert not np.any(uk.values), (n, k)
