"""Every exported name resolves: a deleted helper cannot stay exported."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import goursatfd

MODULES = ("field", "kernels", "series", "solver", "harness", "cli")


@pytest.mark.parametrize("name", ("goursatfd",) + tuple(f"goursatfd.{m}" for m in MODULES))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_solver_error_is_defined_once():
    # the cell sampler in `field` raises the class the solver and the package export
    assert goursatfd.FdSolverError is goursatfd.solver.FdSolverError is goursatfd.field.FdSolverError


def test_oracles_live_only_beside_the_tests():
    # reference code the solver does not run is defined in tests/oracles.py only
    import oracles

    moved = [n for n, v in vars(oracles).items()
             if getattr(v, "__module__", None) == "oracles" and not n.startswith("_")]
    assert len(moved) == 27
    for name in ("goursatfd",) + tuple(f"goursatfd.{m}" for m in MODULES):
        module = importlib.import_module(name)
        assert not [n for n in moved if hasattr(module, n)], name


def test_every_private_definition_is_used_in_src():
    # a `_`-prefixed function, class or module-level name that no other src
    # line names is test-only code, which belongs in tests/oracles.py
    files = sorted(Path(goursatfd.__file__).parent.glob("*.py"))
    lines = [(path.name, n, line) for path in files
             for n, line in enumerate(path.read_text().splitlines(), 1)]
    unused = []
    for path in files:
        tree = ast.parse(path.read_text())
        defs = [(node.name, node.lineno) for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        defs += [(t.id, node.lineno) for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)]
        for name, lineno in defs:
            if not name.startswith("_") or name.startswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for f, n, line in lines if (f, n) != (path.name, lineno)):
                unused.append(f"{path.name}:{lineno} {name}")
    assert not unused


@pytest.mark.parametrize("name,signature", [
    ("fd_solve", "(problem: 'GoursatProblem', n1: 'int', n2: 'int', m: 'int', p: 'int') -> 'FdExpansion'"),
    ("solve_basic", "(problem: 'GoursatProblem', grid: 'Grid', p: 'int') -> 'PiecewiseField'"),
    ("solve_correction", "(expansion: 'FdExpansion', k: 'int') -> 'PiecewiseField'"),
    ("convergence_study", "(spec: 'StudySpec') -> 'ErrorReport'"),
])
def test_solver_entry_points_take_no_new_knobs(name, signature):
    assert str(inspect.signature(getattr(goursatfd, name))) == signature


def test_a_multiplier_is_its_two_functions():
    # a custom multiplier gives N's Taylor rows and G's Adomian coefficient and
    # nothing else; a polynomial gives its global coefficients
    nl = goursatfd.Nonlinearity
    assert str(inspect.signature(nl)) == "(taylor_fn: 'Callable', term_adomian_fn: 'Callable')"
    assert str(inspect.signature(nl.from_series)) == "(nu) -> 'Nonlinearity'"


def test_package_exports_are_pinned():
    assert goursatfd.__all__ == [
        "__version__",
        "Grid", "PiecewiseField", "cheb_nodes", "max_edge_jump",
        "KernelRangeError", "Nonlinearity",
        "GoursatProblem", "FdExpansion", "FdSolverError", "solve_basic", "solve_correction",
        "residual_basic", "residual_correction",
        "Preset", "StudySpec", "ErrorRow", "ErrorReport", "fd_solve", "error_vs_exact",
        "error_norm1", "convergence_study", "liouville_problem",
        "liouville_multiplier", "run_selftest",
    ]
