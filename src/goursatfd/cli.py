"""Command-line front end: solve, study, selftest.

Outputs are plain machine-readable tables; numbers are printed in scientific
notation with 17 significant digits so files round-trip through doubles.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .harness import (
    MAX_RANK,
    P_RANGE,
    PRESETS,
    Preset,
    StudySpec,
    convergence_study,
    error_norm1,
    error_vs_exact,
    fd_solve,
    run_selftest,
)
from .field import unit_cheb_nodes
from .series import Nonlinearity
from .solver import FdSolverError, GoursatProblem
from .kernels import KernelRangeError

__all__ = ["RunConfig", "parse_config", "run", "main"]

_MODES = ("solve", "study", "selftest")
_CONFIG_KEYS = {
    "problem": str,
    "n1": int,
    "n2": int,
    "n_list": str,
    "rank": int,
    "cheb_order": int,
    "tol": float,
    "output": str,
    "format": str,
}


@dataclass
class RunConfig:
    mode: str
    problem: str | None = None
    n1: int | None = None
    n2: int | None = None
    n_list: tuple | None = None
    rank: int = 0
    cheb_order: int = 12
    tol: float = 1.0e-13
    output: str | None = None
    format: str = "csv"


class ConfigError(ValueError):
    """Invalid flag or config key; maps to exit code 2."""


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return "%.16e" % v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goursatfd",
        description="Solve u_xy + N(u) u = f Goursat problems by cell-marching "
        "series corrections; reproduce convergence tables.",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="{solve,study,selftest}")
    for mode in _MODES:
        p = sub.add_parser(mode)
        p.add_argument("--problem", help="preset name or path to a problem spec file")
        p.add_argument("--n1", type=int, help="cells along x")
        p.add_argument("--n2", type=int, help="cells along y")
        p.add_argument("--n-list", dest="n_list", help="comma-separated cell counts for a study")
        p.add_argument("--rank", type=int, help="number of corrections m")
        p.add_argument("--cheb-order", dest="cheb_order", type=int, help="points per cell direction")
        p.add_argument("--tol", type=float, help="oracle iteration tolerance (selftest)")
        p.add_argument("--output", help="output file path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--config", help="key = value config file; flags override it")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key `{key}`")
        caster = _CONFIG_KEYS[key]
        try:
            values[key] = caster(val)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: key `{key}` expects {caster.__name__}, got {val!r}"
            ) from exc
    return values


def _parse_n_list(text: str) -> tuple:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece))
        except ValueError as exc:
            raise ConfigError(f"key `n_list` expects comma-separated integers, got {piece!r}") from exc
    if not out:
        raise ConfigError("key `n_list` is empty")
    return tuple(out)


def parse_config(argv, config_file: str | None = None) -> RunConfig:
    """Merge command-line flags over config-file values into a RunConfig.

    Exits with code 2 (via argparse) on unknown flags; raises ConfigError with
    the offending key named for everything else.
    """
    ns = _build_parser().parse_args(argv)
    path = ns.config if ns.config is not None else config_file
    fromfile = _read_config_file(path) if path else {}

    cfg = RunConfig(mode=ns.mode)
    for key in _CONFIG_KEYS:
        flag = getattr(ns, key, None)
        value = flag if flag is not None else fromfile.get(key)
        if value is None:
            continue
        if key == "n_list":
            value = _parse_n_list(value) if isinstance(value, str) else value
        setattr(cfg, key, value)

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.mode not in _MODES:
        raise ConfigError(f"key `mode` must be one of {_MODES}, got {cfg.mode!r}")
    if cfg.mode in ("solve", "study"):
        if not cfg.problem:
            raise ConfigError("key `problem` is required (preset name or spec file path)")
    if cfg.mode == "solve":
        if not cfg.n1 or cfg.n1 < 1:
            raise ConfigError(f"key `n1` expects a positive int, got {cfg.n1!r}")
        if cfg.n2 is None:
            cfg.n2 = cfg.n1
        if cfg.n2 < 1:
            raise ConfigError(f"key `n2` expects a positive int, got {cfg.n2!r}")
    if cfg.mode == "study":
        if not cfg.n_list:
            if cfg.n1:
                cfg.n_list = (cfg.n1,)
            else:
                raise ConfigError("key `n_list` is required for a study")
        if any(n < 1 for n in cfg.n_list):
            raise ConfigError(f"key `n_list` entries must be positive, got {cfg.n_list}")
    if not 0 <= cfg.rank <= MAX_RANK:
        raise ConfigError(f"key `rank` expects int in 0..{MAX_RANK}, got {cfg.rank}")
    if not P_RANGE[0] <= cfg.cheb_order <= P_RANGE[1]:
        raise ConfigError(
            f"key `cheb_order` expects int in {P_RANGE[0]}..{P_RANGE[1]}, got {cfg.cheb_order}"
        )
    if cfg.tol <= 0:
        raise ConfigError(f"key `tol` expects a positive float, got {cfg.tol}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"key `format` must be csv or json, got {cfg.format!r}")


# ---------------------------------------------------------------------------
# problem spec files: a small closed expression grammar

_FUNCS = {"exp": np.exp, "log": np.log, "ln": np.log, "sin": np.sin, "cos": np.cos}
_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


def _check_expr(node: ast.AST, variables: set, text: str):
    if isinstance(node, ast.Expression):
        return _check_expr(node.body, variables, text)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            return
        raise ConfigError(f"literal {node.value!r} not allowed in {text!r}")
    if isinstance(node, ast.Name):
        if node.id in variables or node.id in _FUNCS:
            return
        raise ConfigError(f"unknown symbol `{node.id}` in {text!r}")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_OPS):
        _check_expr(node.left, variables, text)
        _check_expr(node.right, variables, text)
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_OPS):
        _check_expr(node.operand, variables, text)
        return
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in _FUNCS and not node.keywords \
                and len(node.args) == 1:
            _check_expr(node.args[0], variables, text)
            return
        raise ConfigError(f"only {sorted(_FUNCS)} calls of one argument allowed, got {text!r}")
    raise ConfigError(f"unsupported syntax in expression {text!r}")


def compile_expression(text: str, variables: tuple):
    """Compile a polynomial/exp/ln/sin/cos expression of the named variables."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}") from exc
    _check_expr(tree, set(variables), text)
    code = compile(tree, "<expression>", "eval")
    namespace = dict(_FUNCS)

    def fn(*args):
        local = dict(zip(variables, args))
        return eval(code, {"__builtins__": {}}, {**namespace, **local})

    return fn


def load_problem_file(path: str) -> Preset:
    """Preset-style spec file: X, Y, psi, phi, f expressions and nu coefficients."""
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ConfigError(f"cannot read problem file {path}: {exc}") from exc
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        entries[key.strip()] = val.strip()
    required = ("X", "Y", "psi", "phi", "f", "nu")
    for key in required:
        if key not in entries:
            raise ConfigError(f"problem file {path} is missing key `{key}`")
    try:
        X = float(entries["X"])
        Y = float(entries["Y"])
    except ValueError as exc:
        raise ConfigError(f"keys `X`/`Y` expect floats in {path}") from exc
    try:
        nu = [float(v) for v in entries["nu"].split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"key `nu` expects comma-separated floats in {path}") from exc
    psi = compile_expression(entries["psi"], ("x",))
    phi = compile_expression(entries["phi"], ("y",))
    f = compile_expression(entries["f"], ("x", "y"))
    exact = None
    if "exact" in entries:
        exact = compile_expression(entries["exact"], ("x", "y"))
    problem = GoursatProblem(X=X, Y=Y, psi=psi, phi=phi, f=f,
                             nonlinearity=Nonlinearity.from_series(nu))
    name = os.path.splitext(os.path.basename(path))[0]
    return Preset(name, problem, exact)


def _resolve_problem(spec: str) -> Preset:
    if spec in PRESETS:
        return PRESETS[spec]()
    if os.path.exists(spec):
        return load_problem_file(spec)
    raise ConfigError(
        f"key `problem`: {spec!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
        f"nor an existing file"
    )


# ---------------------------------------------------------------------------
# output writers

STUDY_HEADER = ("n1", "n2", "h1", "h2", "m", "delta", "norm1_delta", "wall_ms", "p_order")


def _study_rows_text(rows) -> list:
    out = [",".join(STUDY_HEADER)]
    for r in rows:
        out.append(",".join([
            str(r.n1), str(r.n2), _fmt(r.h1), _fmt(r.h2), str(r.m),
            _fmt(r.delta), _fmt(r.norm1_delta), _fmt(r.wall_ms), str(r.p_order),
        ]))
    return out


def _study_json(rows) -> str:
    objs = []
    for r in rows:
        objs.append({
            "n1": r.n1, "n2": r.n2, "h1": r.h1, "h2": r.h2, "m": r.m,
            "delta": None if math.isnan(r.delta) else r.delta,
            "norm1_delta": None if math.isnan(r.norm1_delta) else r.norm1_delta,
            "wall_ms": r.wall_ms, "p_order": r.p_order,
        })
    return json.dumps(objs, indent=1)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _run_solve(cfg: RunConfig) -> int:
    preset = _resolve_problem(cfg.problem)
    expansion = fd_solve(preset.problem, cfg.n1, cfg.n2, cfg.rank, cfg.cheb_order)
    total = expansion.partial_sum(cfg.rank)
    grid = expansion.grid
    s = unit_cheb_nodes(cfg.cheb_order)
    lines = []
    delta = norm1 = None
    if preset.exact is not None:
        delta = error_vs_exact(expansion, preset.exact, cfg.rank)
        norm1 = error_norm1(expansion, preset.exact, cfg.rank)
        print(f"delta={_fmt(delta)}")
        print(f"norm1_delta={_fmt(norm1)}")
    samples = []
    for i in range(grid.N1):
        for j in range(grid.N2):
            x0, x1, y0, y1 = grid.cell_rect(i, j)
            xn = x0 + (x1 - x0) * s
            yn = y0 + (y1 - y0) * s
            for a in range(cfg.cheb_order):
                for b in range(cfg.cheb_order):
                    samples.append((xn[a], yn[b], total.values[i, j, a, b]))
    if cfg.format == "csv":
        if delta is not None:
            lines.append(f"# delta = {_fmt(delta)}")
            lines.append(f"# norm1_delta = {_fmt(norm1)}")
        lines.append("x,y,u")
        lines.extend(f"{_fmt(x)},{_fmt(y)},{_fmt(u)}" for x, y, u in samples)
        _emit("\n".join(lines), cfg.output)
    else:
        obj = {
            "delta": delta,
            "norm1_delta": norm1,
            "samples": [{"x": x, "y": y, "u": u} for x, y, u in samples],
        }
        _emit(json.dumps(obj, indent=1), cfg.output)
    return 0


def _run_study(cfg: RunConfig) -> int:
    preset = _resolve_problem(cfg.problem)
    spec = StudySpec(
        problem=preset.problem,
        exact=preset.exact,
        meshes=tuple((n, n) for n in cfg.n_list),
        max_rank=cfg.rank,
        p=cfg.cheb_order,
    )
    report = convergence_study(spec)
    if cfg.format == "csv":
        _emit("\n".join(_study_rows_text(report.rows)), cfg.output)
    else:
        _emit(_study_json(report.rows), cfg.output)
    for n1, n2, message in report.failures:
        print(f"error: mesh ({n1},{n2}) failed: {message}", file=sys.stderr)
    return 1 if report.failures else 0


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        if config.mode == "solve":
            return _run_solve(config)
        if config.mode == "study":
            return _run_study(config)
        passed, failed, _ = run_selftest(config.tol)
        return 0 if failed == 0 else 1
    except ConfigError:
        raise
    except (FdSolverError, KernelRangeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
