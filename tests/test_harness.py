"""Solve driver, error metrics, convergence studies, and recurrence diagnostics."""

import math

import numpy as np
import pytest

from goursatfd.harness import (
    StudySpec,
    characteristic_transform,
    convergence_study,
    error_norm1,
    error_vs_exact,
    fd_solve,
    liouville_multiplier,
    liouville_problem,
    mu_bound_check,
    mu_explicit,
    mu_recurrence,
    run_selftest,
)
from goursatfd.series import Nonlinearity
from goursatfd.solver import GoursatProblem, solve_basic
from goursatfd.field import Grid


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


def test_characteristic_transform():
    assert characteristic_transform(lambda t, xi: 0.0)(0.3, 0.9) == 0.0
    f = characteristic_transform(lambda t, xi: xi)
    assert f(0.7, 0.2) == pytest.approx(0.9)
    g = characteristic_transform(lambda t, xi: t * xi)
    for x, y in [(0.5, 0.1), (1.2, 2.0)]:
        assert g(x, y) == pytest.approx(x * x - y * y)


def test_fd_solve_rank_zero_is_basic_solve():
    preset = liouville_problem()
    grid = Grid(4.0, 4.0, 3, 3)
    u0, table, coeffs = solve_basic(preset.problem, grid, 8)
    expansion = fd_solve(preset.problem, 3, 3, 0, 8)
    assert np.array_equal(expansion.corrections[0].values, u0.values)
    assert np.array_equal(expansion.corner_tables[0], table)
    assert np.array_equal(expansion.cell_coeffs, coeffs)
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
    delta = error_vs_exact(expansion, lambda x, y: total.evaluate(float(x), float(y)), 1)
    assert delta <= 1e-13


def test_error_vs_exact_rank_bounds():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 2, 2, 1, 8)
    with pytest.raises(ValueError):
        error_vs_exact(expansion, preset.exact, 2)


def test_error_norm1_dominates_sup_norm():
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 4, 4, 1, 10)
    for m in (0, 1):
        delta = error_vs_exact(expansion, preset.exact, m, refine=0)
        norm1 = error_norm1(expansion, preset.exact, m)
        assert norm1 >= delta * (1 - 1e-12)


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


def test_convergence_study_records_failures_and_continues():
    # a huge cell pushes the kernel argument beyond its series range
    problem = GoursatProblem(
        X=40.0, Y=40.0, psi=lambda x: 0.0, phi=lambda y: 0.0,
        f=lambda x, y: 1.0, nonlinearity=Nonlinearity.from_series([10.0]),
    )
    spec = StudySpec(problem=problem, exact=None, meshes=((1, 1), (8, 8)), max_rank=0, p=8)
    report = convergence_study(spec)
    assert len(report.failures) == 1
    assert report.failures[0][:2] == (1, 1)
    assert [r.n1 for r in report.rows] == [8]
    assert math.isnan(report.rows[0].delta)


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


def test_liouville_multiplier_is_negative_on_solution_range():
    nl = liouville_multiplier()
    for u in np.linspace(-2.2, -0.6, 9):
        assert float(nl.eval(u)) < 0


def test_selftest_passes():
    passed, failed, lines = run_selftest(verbose=False)
    assert failed == 0
    assert passed >= 6
    assert lines[-1].startswith("selftest:")
