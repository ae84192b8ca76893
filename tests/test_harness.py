"""Solve driver, error metrics, convergence studies, and recurrence diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from goursatfd.harness import (
    StudySpec,
    _rank_errors,
    convergence_study,
    error_norm1,
    error_vs_exact,
    fd_solve,
    liouville_multiplier,
    liouville_problem,
    run_selftest,
)
from goursatfd import harness, solver
from goursatfd.kernels import series_terms
from goursatfd.series import Nonlinearity, compose
from goursatfd.solver import (
    FdSolverError,
    GoursatProblem,
    _area_term,
    _kernel_weights,
    _solve_cells,
    _trace_terms,
    solve_basic,
)
from goursatfd.cli import load_problem_file
from goursatfd.field import Grid, unit_cheb_nodes
from oracles import (
    _ExactSamples,
    cli_poly_text,
    mu_bound_check,
    mu_explicit,
    mu_recurrence,
    sample_field,
)


def test_mu_collapsed_recurrence():
    # a=1, b=0, c=1 walks one step per column: mu_{i,j} = i
    mu = mu_recurrence(1.0, 0.0, 1.0, 5, 4)
    for i in range(6):
        for j in range(5):
            expect = float(i) if i and j else 0.0
            assert mu[i, j] == expect
            assert mu_explicit(1.0, 0.0, 1.0, i, j) == expect


def test_mu_first_cell_is_c():
    for a, b in [(0.3, 1.7), (2.0, 0.0), (1.1, 1.1)]:
        assert mu_recurrence(a, b, 0.25, 1, 1)[1, 1] == 0.25
        assert mu_explicit(a, b, 0.25, 1, 1) == 0.25


def test_mu_hand_value():
    # mu11=1, mu21=3, mu12=2, mu22=8 for a=2, b=1, c=1
    mu = mu_recurrence(2.0, 1.0, 1.0, 2, 2)
    assert mu[1, 1] == 1.0 and mu[2, 1] == 3.0 and mu[1, 2] == 2.0 and mu[2, 2] == 8.0
    assert mu_explicit(2.0, 1.0, 1.0, 2, 2) == 8.0


def test_mu_recurrence_matches_explicit():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a, b, c = rng.uniform(0, 2, size=3)
        n1, n2 = (int(v) for v in rng.integers(1, 21, size=2))
        mu = mu_recurrence(a, b, c, n1, n2)
        for _ in range(5):
            i = int(rng.integers(0, n1 + 1))
            j = int(rng.integers(0, n2 + 1))
            ref = mu_explicit(a, b, c, i, j)
            assert mu[i, j] == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_mu_bound_holds_and_checks_precondition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a1, b1, c1 = rng.uniform(0, 2, size=3)
        assert mu_bound_check(a1, b1, c1, 0.1, 1.0, 1.0, 10, 10)
    assert mu_bound_check(1.0, 1.0, 0.0, 0.1, 1.0, 1.0, 5, 5)  # c1 = 0: equality 0 <= 0
    assert mu_bound_check(0.5, 0.5, 0.5, 0.2, 1.0, 1.0, 1, 1)  # single cell
    with pytest.raises(ValueError, match="h1 <= h2"):
        mu_bound_check(1.0, 1.0, 1.0, 0.1, 1.0, 1.0, 2, 10)


def test_fd_solve_rank_zero_is_basic_solve():
    preset = liouville_problem()
    grid = Grid(4.0, 4.0, 3, 3)
    u0 = solve_basic(preset.problem, grid, 8)
    expansion = fd_solve(preset.problem, 3, 3, 0, 8)
    assert np.array_equal(expansion.corrections[0].values, u0.values)
    assert expansion.rank == 0


def test_fd_solve_validation():
    preset = liouville_problem()
    with pytest.raises(ValueError):
        fd_solve(preset.problem, 2, 2, -1, 8)
    with pytest.raises(ValueError):
        fd_solve(preset.problem, 2, 2, 17, 8)
    with pytest.raises(ValueError):
        fd_solve(preset.problem, 2, 2, 1, 3)


def test_partial_sum_equals_rank0_for_constant_multiplier():
    problem = GoursatProblem(
        X=1.0, Y=1.0, psi=lambda x: x * 0.5, phi=lambda y: y * 0.5 * 0.0,
        f=lambda x, y: 1.0, nonlinearity=Nonlinearity.from_series([1.5]),
    )
    # psi(0) = phi(0) = 0
    expansion = fd_solve(problem, 3, 3, 4, 8)
    u0 = expansion.corrections[0].values
    for m in range(5):
        total = expansion.partial_sum(m).values
        assert np.max(np.abs(total - u0)) <= 1e-13 * (1 + np.max(np.abs(u0)))


def test_error_vs_exact_self_is_zero():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 3, 3, 1, 8)
    total = expansion.partial_sum(1)
    delta = error_vs_exact(expansion, total.evaluate, 1)
    assert delta <= 1e-13


def test_error_vs_exact_rank_bounds():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 2, 2, 1, 8)
    with pytest.raises(ValueError):
        error_vs_exact(expansion, preset.exact, 2)


@pytest.mark.parametrize("read", [
    lambda e, m: error_vs_exact(e, liouville_problem().exact, m),
    lambda e, m: error_norm1(e, liouville_problem().exact, m),
    lambda e, m: e.partial_sum(m),
], ids=["error_vs_exact", "error_norm1", "partial_sum"])
@pytest.mark.parametrize("m", [5, -1])
def test_every_rank_read_names_the_stored_range(read, m):
    expansion = fd_solve(liouville_problem().problem, 2, 2, 3, 8)
    with pytest.raises(ValueError, match=rf"^partial sum rank must be in 0\.\.3, got {m}$"):
        read(expansion, m)


def test_error_norm1_dominates_sup_norm():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 4, 4, 1, 10)
    exact_nodes = sample_field(expansion.grid, 10, preset.exact).values
    for m in (0, 1):
        node_sup = np.max(np.abs(expansion.partial_sum(m).values - exact_nodes))
        norm1 = error_norm1(expansion, preset.exact, m)
        assert norm1 >= node_sup * (1 - 1e-12)


def test_error_non_increasing_in_cheb_order():
    # representation error only shrinks with P; allow roundoff wiggle once the
    # series error dominates
    preset = liouville_problem()
    deltas = {}
    for p in (8, 12, 16):
        expansion = fd_solve(preset.problem, 8, 8, 4, p)
        deltas[p] = [error_vs_exact(expansion, preset.exact, m) for m in range(5)]
    for m in range(5):
        assert deltas[12][m] <= deltas[8][m] * (1 + 1e-6)
        assert deltas[16][m] <= deltas[12][m] * (1 + 1e-6)


def test_convergence_study_layout():
    preset = liouville_problem()
    spec = StudySpec(problem=preset.problem, exact=preset.exact,
                     meshes=((2, 2), (3, 3)), max_rank=2, p=8)
    report = convergence_study(spec)
    assert not report.failures
    assert len(report.rows) == 6
    assert [(r.n1, r.m) for r in report.rows] == [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]
    for r in report.rows:
        assert r.h1 == pytest.approx(4.0 / r.n1)
        assert r.p_order == 8
        assert r.delta >= 0 and r.wall_ms >= 0
    # per-rank times are cumulative within a mesh
    for n in (2, 3):
        walls = [r.wall_ms for r in report.rows if r.n1 == n]
        assert walls == sorted(walls)


def test_convergence_study_rows_equal_the_public_metrics():
    # one sampling per mesh and a running sum, against a fresh sampling and
    # partial_sum per rank: the same numbers, bit for bit
    preset = liouville_problem()
    spec = StudySpec(problem=preset.problem, exact=preset.exact, meshes=((8, 8),),
                     max_rank=3, p=12)
    rows = convergence_study(spec).rows
    expansion = fd_solve(preset.problem, 8, 8, 3, 12)
    for r in rows:
        assert r.delta == error_vs_exact(expansion, preset.exact, r.m)
        assert r.norm1_delta == error_norm1(expansion, preset.exact, r.m)


def test_convergence_study_samples_exact_once_per_mesh():
    preset = liouville_problem()
    calls = []

    def exact(x, y):
        calls.append(np.size(x))
        return preset.exact(x, y)

    spec = StudySpec(problem=preset.problem, exact=exact, meshes=((8, 8),), max_rank=7, p=12)
    rows = convergence_study(spec).rows
    assert len(rows) == 8
    # the tensor nodes and the 5 x 5 refine lattice of every cell
    assert len(calls) <= 2
    assert sum(calls) == 8 * 8 * (12 * 12 + 5 * 5)


def test_rank_errors_take_one_node_sup_per_rank(monkeypatch):
    # `delta` and `norm1_delta` share the node sup: one pass over the node
    # error and one over the lattice error per rank and block
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 4, 3, 3, 8)
    passes = []
    sup_abs = harness._sup_abs

    def counted(e, ii, jj):
        passes.append((e.shape[1:], list(zip(ii.tolist(), jj.tolist()))))
        return sup_abs(e, ii, jj)

    monkeypatch.setattr(harness, "_sup_abs", counted)
    monkeypatch.setattr(harness, "_ERROR_BLOCK", 5 * 8 * 8)
    rows = _rank_errors(expansion, preset.exact, [0, 1, 2, 3])
    cells = [(i, j) for i in range(4) for j in range(3)]
    assert passes == [pass_ for block in (cells[:5], cells[5:10], cells[10:])
                      for pass_ in [((8, 8), block), ((5, 5), block)] * 4]
    monkeypatch.undo()
    assert rows == [(error_vs_exact(expansion, preset.exact, m),
                     error_norm1(expansion, preset.exact, m)) for m in range(4)]


def _cli_poly_problem(seed, tmp_path):
    """The problem file and exact solution of the benchmark's cli-poly workload."""
    path = tmp_path / f"poly{seed}.problem"
    path.write_text(cli_poly_text(seed), encoding="utf-8")
    preset = load_problem_file(str(path))
    return preset.problem, preset.exact


@pytest.mark.parametrize("case", ["liouville-40", "liouville-7x5", "liouville-33x29",
                                  "liouville-p16", "cli-poly-seed1", "cli-poly-seed2"])
def test_rank_errors_equal_the_whole_mesh_oracle(case, monkeypatch, tmp_path):
    # blocks of one cell, of seven cells (a block boundary inside a row, a
    # partial last block) and the default, against one whole-mesh sampling;
    # liouville-p16 is rank 0 at P = 16, as in the rank0-p16 benchmark
    if case.startswith("cli-poly"):
        problem, exact = _cli_poly_problem(int(case[-1]), tmp_path)
        n1, n2, m, p = 40, 40, 4, 12
    else:
        preset = liouville_problem()
        problem, exact = preset.problem, preset.exact
        n1, n2, m, p = {"liouville-40": (40, 40, 7, 12), "liouville-7x5": (7, 5, 3, 8),
                        "liouville-33x29": (33, 29, 4, 12), "liouville-p16": (30, 30, 0, 16)}[case]
    expansion = fd_solve(problem, n1, n2, m, p)
    samples = _ExactSamples(expansion, exact, harness._LATTICE)
    expect = [samples.errors(expansion.partial_sum(k).values) for k in range(m + 1)]
    for cells in (1, 7, None):
        if cells:
            monkeypatch.setattr(harness, "_ERROR_BLOCK", cells * p * p)
        assert _rank_errors(expansion, exact, range(m + 1)) == expect, cells


def _nan_at(x0, y0):
    # x*y, and NaN at the one point (x0, y0)
    return lambda x, y: np.where((x == x0) & (y == y0), np.nan, x * y)


def test_non_finite_sample_in_a_later_block_names_its_cell(monkeypatch):
    # blocks of two cells: cell (2, 1) is flat cell 7, in the fourth block
    monkeypatch.setattr(harness, "_ERROR_BLOCK", 2 * 8 * 8)
    expansion = fd_solve(_product_problem(), 4, 3, 1, 8)
    grid = expansion.grid
    xs, ys = grid.cell_nodes(unit_cheb_nodes(8))
    at_node = _nan_at(xs[2, 3], ys[1, 4])
    for metric in (error_vs_exact, error_norm1):
        with pytest.raises(FdSolverError, match=r"cell \(2, 1\).*not finite"):
            metric(expansion, at_node, 1)
    # an interior lattice point, on no node: only `delta` reads it
    xl, yl = grid.cell_nodes(harness._LATTICE)
    points = []

    def at_lattice(x, y):
        points.append(np.size(x))
        return _nan_at(xl[2, 1], yl[1, 3])(x, y)

    with pytest.raises(FdSolverError, match=r"cell \(2, 1\).*not finite"):
        error_vs_exact(expansion, at_lattice, 1)
    points.clear()
    assert error_norm1(expansion, at_lattice, 1) <= 1e-10
    assert sum(points) == 4 * 3 * 8 * 8


def test_error_metrics_hold_no_whole_mesh_field():
    # the samples, partial sums and errors of a block of cells at a time: at
    # 80 x 80 cells and P = 16 the traced peak stays below a quarter of one
    # field (13.1 MB), where whole-mesh samples and errors took 26.7 MB
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 80, 80, 0, 16)
    field_bytes = expansion.corrections[0].values.nbytes
    for metric in (error_vs_exact, error_norm1):
        tracemalloc.start()
        try:
            metric(expansion, preset.exact, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field_bytes / 4, (metric.__name__, peak / field_bytes)


def _error_pass_peak(metric):
    """The traced peak of `metric` at rank 0 on two error blocks, in block-sized arrays."""
    preset, p = liouville_problem(), 16
    expansion = fd_solve(preset.problem, 16, 16, 0, p)
    block_bytes = harness._ERROR_BLOCK // (p * p) * (p * p) * 8
    assert 2 * block_bytes <= expansion.corrections[0].values.nbytes
    tracemalloc.start()
    try:
        metric(expansion, preset.exact, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / block_bytes


def test_the_sup_error_pass_holds_no_derivative_buffer():
    # error_vs_exact reads no derivative, and a block's samples, sum and
    # error are released before the next block samples: 3.6 block-sized
    # arrays, where an unread derivative buffer would add one and the last
    # block's arrays, held while the next one samples, made it 5.4
    blocks = _error_pass_peak(error_vs_exact)
    assert blocks <= 4, blocks


def test_the_derivative_error_pass_holds_one_block_at_a_time():
    # error_norm1's samples, sum, error and derivative buffer are four
    # block-sized arrays; it reads 4.1, where the last block's arrays, held
    # while the next one samples, made it 6.2
    blocks = _error_pass_peak(error_norm1)
    assert blocks <= 4.5, blocks


@pytest.mark.parametrize("case", ["liouville", "cli-poly-seed1"])
def test_a_solve_to_rank_m_holds_m_plus_one_fields(case, tmp_path):
    # each correction marches in its source's storage, so past the m + 1
    # fields it returns a solve holds only series weights and block
    # temporaries; a source held beside each correction would read m + 2.26
    if case == "liouville":
        problem = liouville_problem().problem
    else:
        problem = _cli_poly_problem(1, tmp_path)[0]
    for m in (0, 1, 3):
        tracemalloc.start()
        try:
            expansion = fd_solve(problem, 80, 80, m, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fields = peak / expansion.corrections[0].values.nbytes
        assert m + 1 <= fields <= m + 1.5, (m, fields)


def test_error_norm1_samples_only_the_nodes():
    # the 5 x 5 lattice is read by `delta` alone, so `error_norm1` skips it
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 8, 6, 3, 12)
    points = []

    def exact(x, y):
        points.append(np.size(x))
        return preset.exact(x, y)

    error_norm1(expansion, exact, 3)
    assert sum(points) == 8 * 6 * 12 * 12
    for m in range(4):
        points.clear()
        delta = error_vs_exact(expansion, exact, m)
        assert sum(points) == 8 * 6 * (12 * 12 + 5 * 5)
        assert delta == _rank_errors(expansion, preset.exact, [m])[0][0]
    points.clear()
    rows = _rank_errors(expansion, exact, [0, 3])
    assert sum(points) == 8 * 6 * (12 * 12 + 5 * 5)
    assert [d for d, _ in rows] == [error_vs_exact(expansion, preset.exact, m) for m in (0, 3)]


def test_convergence_study_records_failures_and_continues():
    # a huge cell pushes the kernel argument beyond its series range
    problem = GoursatProblem(
        X=4.0, Y=4.0, psi=lambda x: 0.0, phi=lambda y: 0.0,
        f=lambda x, y: 1.0, nonlinearity=Nonlinearity.from_series([10.0]),
    )
    spec = StudySpec(problem=problem, exact=None, meshes=((1, 1), (8, 8)), max_rank=0, p=8)
    report = convergence_study(spec)
    assert len(report.failures) == 1
    assert report.failures[0][:2] == (1, 1)
    assert [r.n1 for r in report.rows] == [8]
    assert math.isnan(report.rows[0].delta)


def _product_problem():
    # u = x*y solves u_xy + u = 1 + x*y with zero data on the axes
    return GoursatProblem(
        X=2.0, Y=2.0, psi=lambda x: 0.0 * x, phi=lambda y: 0.0 * y,
        f=lambda x, y: 1.0 + x * y, nonlinearity=Nonlinearity.from_series([1.0]),
    )


def _log_exact(x, y):
    # -inf on the whole y axis
    with np.errstate(divide="ignore"):
        return x * y + np.log(x)


def _lattice_nan_exact(x, y):
    # NaN on the line x = 1.25, which holds lattice points of cells (1, j)
    # but no cell node
    return np.where(x == 1.25, np.nan, x * y)


def test_non_finite_exact_solution_is_an_error_naming_its_cell():
    expansion = fd_solve(_product_problem(), 2, 2, 1, 8)
    assert error_vs_exact(expansion, lambda x, y: x * y, 1) <= 1e-12
    for metric in (error_vs_exact, error_norm1):
        with pytest.raises(FdSolverError, match=r"cell \(0, 0\).*not finite"):
            metric(expansion, _log_exact, 1)
    with pytest.raises(FdSolverError, match=r"cell \(1, 0\).*not finite"):
        error_vs_exact(expansion, _lattice_nan_exact, 1)
    # the derivative-augmented norm reads the cell nodes only
    assert error_norm1(expansion, _lattice_nan_exact, 1) <= 1e-10


def test_convergence_study_records_a_non_finite_exact_solution_as_a_failure():
    spec = StudySpec(problem=_product_problem(), exact=_log_exact, meshes=((2, 2), (3, 3)),
                     max_rank=1, p=8)
    report = convergence_study(spec)
    assert report.rows == []
    assert [f[:2] for f in report.failures] == [(2, 2), (3, 3)]
    assert all(f[2].startswith("FdSolverError: cell (0, 0)") for f in report.failures)


def test_convergence_study_propagates_programming_errors(monkeypatch):
    # only the solver's own error types become "failed mesh" rows
    from goursatfd import harness

    def broken(*args, **kwargs):
        raise TypeError("bug in the solver")

    monkeypatch.setattr(harness, "fd_solve", broken)
    preset = liouville_problem()
    spec = StudySpec(problem=preset.problem, exact=preset.exact, meshes=((2, 2),), max_rank=0, p=8)
    with pytest.raises(TypeError, match="bug in the solver"):
        convergence_study(spec)


def test_study_spec_validation():
    preset = liouville_problem()
    with pytest.raises(ValueError):
        StudySpec(preset.problem, preset.exact, ((2, 2),), max_rank=17)
    with pytest.raises(ValueError):
        StudySpec(preset.problem, preset.exact, ((0, 2),), max_rank=1)
    with pytest.raises(ValueError):
        StudySpec(preset.problem, preset.exact, ((2, 2),), max_rank=1, p=30)


def test_liouville_preset_consistency():
    preset = liouville_problem()
    problem = preset.problem
    assert problem.psi(0.0) == problem.phi(0.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = float(rng.uniform(0, 4))
        y = float(rng.uniform(0, 4))
        assert preset.exact(x, 0.0) == pytest.approx(problem.psi(x), abs=1e-14)
        assert preset.exact(0.0, y) == pytest.approx(problem.phi(y), abs=1e-14)
        # u_xy = exp(2u) rewritten with multiplier and unit source
        u = preset.exact(x, y)
        lhs = float(problem.nonlinearity.eval(u)) * u
        assert lhs + np.exp(2 * u) == pytest.approx(1.0, rel=1e-12)
    assert float(problem.f(1.0, 2.0)) == 1.0


def test_liouville_exact_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    exact = liouville_problem().exact
    pts = np.random.default_rng(11).uniform(0.0, 4.0, size=(2000, 2))
    with mpmath.workdps(40):
        ref = np.array([float((x + y) / 2 - mpmath.log(mpmath.exp(x) + mpmath.exp(y)))
                        for x, y in (map(mpmath.mpf, p) for p in pts)])
    assert np.max(np.abs(exact(pts[:, 0], pts[:, 1]) - ref)) <= 4.5e-16


def test_liouville_data_keep_their_input_shape():
    # the samplers call them once on the whole node array
    preset = liouville_problem()
    x = np.linspace(0.0, 4.0, 24).reshape(2, 3, 4)
    y = x[::-1].copy()
    assert preset.exact(x, y).shape == x.shape
    assert preset.exact(x, y[0, 0]).shape == x.shape
    assert preset.problem.psi(x).shape == preset.problem.phi(x).shape == x.shape
    assert np.array_equal(preset.problem.psi(x), preset.exact(x, 0.0))
    assert np.array_equal(preset.problem.phi(y), preset.exact(0.0, y))
    assert np.array_equal(x, np.linspace(0.0, 4.0, 24).reshape(2, 3, 4))


def test_liouville_multiplier_is_negative_on_solution_range():
    nl = liouville_multiplier()
    for u in np.linspace(-2.2, -0.6, 9):
        assert float(nl.eval(u)) < 0


def test_selftest_passes(capsys):
    passed, failed, lines = run_selftest()
    assert failed == 0
    assert passed == 4
    assert lines[-1].startswith("selftest:")
    # the lines are returned, and only the CLI prints them
    assert capsys.readouterr().out == ""


def _series_terms_without_z_term(z, n):
    out = series_terms(z, n)
    out[:, 1] = 0.0
    return out


def _compose_without_top_horner_term(taylor, tail):
    # Horner's rule loses its innermost term, the last Taylor row a_d
    rows = np.array(taylor, dtype=float)
    rows[-1] = 0.0
    return compose(rows, tail)


def _cell_solve_of_negated_source(eng, weights, left, bottom, rhs):
    return _solve_cells(eng, weights, left, bottom, -rhs)


def _negated_area_weights(grid, p, c, ii, jj):
    bottom_w, left_w, area_w = _kernel_weights(grid, p, c, ii, jj)
    return bottom_w, left_w, -area_w


def _negated_trace_terms(*args):
    return -_trace_terms(*args)


def _negated_area_term(*args):
    return -_area_term(*args)


def test_selftest_checks_the_benchmark_term_recurrence(monkeypatch):
    # the march composes liouville's G by its exponential recurrence, not by
    # the Horner composition the polynomial checks reach: a recurrence with one wrong
    # product from order 3 on must fail the composition check
    recurrence = harness._liouville_term_adomian

    def broken(v, n):
        return recurrence(v, n) + (2.0 * v[1] * v[n - 1] if n >= 3 else 0.0)

    monkeypatch.setattr(harness, "_liouville_term_adomian", broken)
    passed, failed, lines = run_selftest()
    assert any(line.startswith("FAIL adomian composition") for line in lines), lines


@pytest.mark.parametrize("name,broken,check", [
    ("series_terms", _series_terms_without_z_term, "kernel series"),
    ("compose", _compose_without_top_horner_term, "adomian composition"),
    ("_kernel_weights", _negated_area_weights, "benchmark problem"),
    ("_solve_cells", _cell_solve_of_negated_source, "benchmark problem"),
    ("_trace_terms", _negated_trace_terms, "benchmark problem"),
    ("_area_term", _negated_area_term, "benchmark problem"),
])
def test_selftest_fails_when_a_production_piece_breaks(monkeypatch, name, broken, check):
    # the march looks these up as solver module globals, and so do the checks
    passed, failed, lines = run_selftest()
    assert (passed, failed, len(lines)) == (4, 0, 5)
    monkeypatch.setattr(solver, name, broken)
    passed, failed, lines = run_selftest()
    assert failed >= 1
    assert any(line.startswith("FAIL " + check) for line in lines), lines
    # a stand-in that no longer fits the call it replaces proves nothing
    assert not [line for line in lines if "(TypeError:" in line], lines
