"""Command-line front end: solve, study, selftest.

Outputs are plain machine-readable tables; numbers are printed in scientific
notation with 17 significant digits so files round-trip through doubles.
`solve` formats its field in numpy blocks: exactly `%.16e` for 1e-6 <= |u| < 1e17.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import math
import os
import sys
from typing import get_type_hints

import numpy as np

from .harness import (
    MAX_RANK,
    P_RANGE,
    PRESETS,
    ErrorRow,
    Preset,
    StudySpec,
    _rank_errors,
    convergence_study,
    fd_solve,
    run_selftest,
)
from .field import unit_cheb_nodes
from .series import Nonlinearity
from .solver import FdSolverError, GoursatProblem, _blocks
from .kernels import KernelRangeError

__all__ = ["parse_config", "run", "main"]

_MODES = ("solve", "study", "selftest")
_FORMATS = ("csv", "json")
_RUNS = ("solve", "study")
# key -> (type, default, modes that read it, help): the flags of each
# subcommand, the config-file keys with their casts, and the defaults all
# come from this one table
_OPTIONS = {
    "problem": (str, None, _RUNS, "preset name or path to a problem spec file"),
    "n1": (int, None, _RUNS, "cells along x"),
    "n2": (int, None, ("solve",), "cells along y"),
    "n_list": (str, None, ("study",), "comma-separated cell counts for a study"),
    "rank": (int, 0, _RUNS, "number of corrections m"),
    "cheb_order": (int, 12, _RUNS, "points per cell direction"),
    "output": (str, None, _RUNS, "output file path (default stdout)"),
    "format": (str, "csv", _RUNS, "output format"),
}


def _mode_keys(mode: str) -> list:
    return [key for key, (_, _, modes, _) in _OPTIONS.items() if mode in modes]


class ConfigError(ValueError):
    """Invalid flag or config key; maps to exit code 2."""


def _build_parser():
    """The top-level parser and the subcommand parsers by mode."""
    parser = argparse.ArgumentParser(
        prog="goursatfd",
        description="Solve u_xy + N(u) u = f Goursat problems by cell-marching "
        "series corrections; reproduce convergence tables.",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="{solve,study,selftest}")
    for mode in _MODES:
        p = sub.add_parser(mode)
        keys = _mode_keys(mode)
        for key in keys:
            typ, _, _, text = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=typ, help=text,
                           choices=_FORMATS if key == "format" else None)
        if keys:
            p.add_argument("--config", help="key = value config file; flags override it")
    return parser, sub.choices


def _read_key_values(path: str, kind: str) -> list:
    """(line number, key, value) of every `key = value` line; `#` starts a comment."""
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        out.append((lineno, key.strip(), val.strip()))
    return out


def _read_config(path: str, mode: str) -> dict:
    values = {}
    for lineno, key, val in _read_key_values(path, "config"):
        key = key.replace("-", "_")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key `{key}`")
        if key not in _mode_keys(mode):
            raise ConfigError(f"{path}:{lineno}: key `{key}` is not read by `{mode}`")
        caster = _OPTIONS[key][0]
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


def parse_config(argv) -> argparse.Namespace:
    """Parsed flags, with unset keys taken from the config file, then from _OPTIONS.

    The namespace carries the keys its mode reads, and no others.  Exits with
    code 2 (via argparse) on unknown flags, a flag of another mode among
    them, printing the usage of the chosen mode; raises ConfigError with the
    offending key named for everything else.
    """
    parser, modes = _build_parser()
    cfg, extra = parser.parse_known_args(argv)
    if extra:
        # argparse itself would report them under the top-level usage line
        modes[cfg.mode].error("unrecognized arguments: " + " ".join(extra))
    keys = _mode_keys(cfg.mode)
    fromfile = _read_config(cfg.config, cfg.mode) if keys and cfg.config else {}
    for key in keys:
        if getattr(cfg, key) is None:
            setattr(cfg, key, fromfile.get(key, _OPTIONS[key][1]))
    if cfg.mode == "study" and cfg.n_list is not None:
        cfg.n_list = _parse_n_list(cfg.n_list)
    _validate(cfg)
    return cfg


def _validate(cfg: argparse.Namespace):
    if cfg.mode == "selftest":
        return
    if not cfg.problem:
        raise ConfigError("key `problem` is required (preset name or spec file path)")
    if cfg.mode == "solve":
        if not cfg.n1 or cfg.n1 < 1:
            raise ConfigError(f"key `n1` expects a positive int, got {cfg.n1!r}")
        if cfg.n2 is None:
            cfg.n2 = cfg.n1
        if cfg.n2 < 1:
            raise ConfigError(f"key `n2` expects a positive int, got {cfg.n2!r}")
    else:
        if cfg.n1 is not None and cfg.n_list is not None:
            raise ConfigError("keys `n1` and `n_list` exclude each other: "
                              "give `n_list`, or `n1` for a one-mesh study")
        if cfg.n_list is None:
            if cfg.n1 is None:
                raise ConfigError("key `n_list` is required for a study")
            if cfg.n1 < 1:
                raise ConfigError(f"key `n1` expects a positive int, got {cfg.n1!r}")
            cfg.n_list = (cfg.n1,)
        if any(n < 1 for n in cfg.n_list):
            raise ConfigError(f"key `n_list` entries must be positive, got {cfg.n_list}")
    if not 0 <= cfg.rank <= MAX_RANK:
        raise ConfigError(f"key `rank` expects int in 0..{MAX_RANK}, got {cfg.rank}")
    if not P_RANGE[0] <= cfg.cheb_order <= P_RANGE[1]:
        raise ConfigError(
            f"key `cheb_order` expects int in {P_RANGE[0]}..{P_RANGE[1]}, got {cfg.cheb_order}"
        )
    if cfg.format not in _FORMATS:
        raise ConfigError(f"key `format` must be csv or json, got {cfg.format!r}")
    # the file itself is opened only after the work, so that a run that fails
    # leaves an existing file as it was; a bad path is caught before the work
    if cfg.output and (os.path.isdir(cfg.output)
                       or not os.path.isdir(os.path.dirname(os.path.abspath(cfg.output)))):
        raise ConfigError(f"key `output`: cannot write {cfg.output}: "
                          "not a file path in an existing directory")


# ---------------------------------------------------------------------------
# problem spec files: a small closed expression grammar

_FUNCS = {"exp": np.exp, "log": np.log, "ln": np.log, "sin": np.sin, "cos": np.cos}
_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


def _check_expr(node: ast.AST, variables: set, text: str):
    if isinstance(node, ast.Expression):
        return _check_expr(node.body, variables, text)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            # CPython does not fold `9**9**9`; as an int power it would be
            # computed in full at every call, so every literal is a float
            node.value = float(node.value)
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
    """Compile a polynomial/exp/ln/sin/cos expression of the named variables.

    Numeric literals are floats, so arithmetic follows float rules.
    """
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
    entries = {key: val for _, key, val in _read_key_values(path, "problem")}
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
    compiled = {}
    for key, variables in (("psi", ("x",)), ("phi", ("y",)), ("f", ("x", "y")),
                           ("exact", ("x", "y"))):
        if key in entries:
            try:
                compiled[key] = compile_expression(entries[key], variables)
            except RecursionError as exc:
                # the parser and the grammar check recurse once per nesting level
                raise ConfigError(f"key `{key}` in {path}: expression nested too deeply") from exc
    psi, phi, f = compiled["psi"], compiled["phi"], compiled["f"]
    for key, fn in (("psi", psi), ("phi", phi)):
        try:
            # the corner check below reads both at 0; a negative base to a
            # fractional power gives a complex value, which float() rejects
            float(fn(0.0))
        except (ArithmeticError, TypeError) as exc:
            raise ConfigError(f"key `{key}` in {path} fails at 0: {exc}") from exc
    try:
        problem = GoursatProblem(X=X, Y=Y, psi=psi, phi=phi, f=f,
                                 nonlinearity=Nonlinearity.from_series(nu))
    except ValueError as exc:
        # a non-finite or non-positive extent, or psi(0) != phi(0); the
        # message names the keys
        raise ConfigError(f"problem file {path}: {exc}") from exc
    name = os.path.splitext(os.path.basename(path))[0]
    return Preset(name, problem, compiled.get("exact"))


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

# one column per ErrorRow field, in declaration order, each cell printed by
# the field's type; `%.16e` prints an unknown error as `nan`
_STUDY_TYPES = tuple(get_type_hints(ErrorRow).items())
STUDY_HEADER = tuple(name for name, _ in _STUDY_TYPES)
_CSV_CELL = {int: str, float: lambda v: "%.16e" % v}


def _study_csv(rows) -> str:
    lines = [",".join(STUDY_HEADER)]
    lines += [",".join(_CSV_CELL[typ](getattr(r, name)) for name, typ in _STUDY_TYPES)
              for r in rows]
    return "\n".join(lines)


def _study_json(rows) -> str:
    # JSON has no NaN: an unknown error is null
    objs = [{name: None if typ is float and math.isnan(getattr(r, name)) else getattr(r, name)
             for name, typ in _STUDY_TYPES} for r in rows]
    return json.dumps(objs, indent=1)


def _open_output(output: str | None):
    if not output:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(output, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"key `output`: cannot write {output}: {exc}") from exc


def _emit(text: str, output: str | None):
    with _open_output(output) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


# points per block of the solve writer, rounded down to whole cells
_ROW_BLOCK = 4096
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
# the least double >= 10**e, e in -6..17: a double is >= it exactly when >= 10**e;
# of the nearest doubles to these powers only 1e-6 lies below (the tests check each)
_DECADES = np.array([math.nextafter(1e-6, 1.0)] + [float("1e%d" % e) for e in range(-5, 18)])


def _split(a):
    c = 134217729.0 * a  # Dekker's split by 2**27 + 1: a = hi + lo, 26 bits each
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# a fast `%.16e` field is six 4-byte words: g < 10000 is g's two digit pairs, 10000 + 10 s + d
# is a padding zero, "-" if s, digit d and ".", and 10026 + e is "e" and exponent e
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
_WORDS = np.frombuffer(np.dstack(np.meshgrid(_PAIRS, _PAIRS, indexing="ij")).tobytes() + b"".join(
    [b"\0%s%d." % (s, d) for s in (b"\0", b"-") for d in range(10)]
    + [b"e%+03d" % e for e in range(-6, 17)]), np.uint32)


def _format_e17(v: np.ndarray) -> np.ndarray:
    """`"%.16e" % x` of each x of v, as the rows, padded on the left with zeros, of a
    (len(v), 24) uint8 matrix.

    Where 1e-6 <= |x| < 1e17, with 10**e <= |x| < 10**(e + 1), the product of the
    doubles |x| and 10**(16 - e) is p + lo exactly (Dekker's TwoProduct), and
    p + rint(lo) is the 17-digit mantissa, rounded as `%.16e` rounds, ties to even.
    Python formats every other x: zeros, subnormals, smaller or larger |x|, inf, nan.
    """
    a = np.abs(v)
    e = np.searchsorted(_DECADES, a, side="right") - 7
    fast = (e >= -6) & (e <= 16)
    a[~fast], e[~fast] = 1.0, 0
    a_hi, a_lo = _split(a)
    p = a * _POW10.take(16 - e)
    b_hi, b_lo = _POW10_HI.take(16 - e), _POW10_LO.take(16 - e)
    lo = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # p >= 1e16 > 2**53 is an even integer and |lo| <= ulp(p) / 2.  No double in
    # range rounds up to 10**17 (the tests check every decade); Python prints any that did
    d = p.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= d < 10 ** 17
    lead, d = np.divmod(d, 10 ** 16)
    words = np.empty((6, len(v)), np.intp)
    words[0], words[5] = 10000 + 10 * (v < 0) + lead, 10026 + e
    words[1:5:2], words[2:5:2] = np.divmod(np.array(np.divmod(d, 10 ** 8)), 10 ** 4)
    # a row that Python formats may hold any index: clip it
    out = np.ascontiguousarray(_WORDS.take(words, mode="clip").T).view(np.uint8)
    # right-aligned, so that every pad byte of a row is a leading one
    text = [("%.16e" % x).rjust(24, "\0") for x in v[~fast].tolist()]
    out[~fast] = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
    return out


def _format_repr(v: np.ndarray) -> np.ndarray:
    """`repr(x)`, as json prints a float, of each x of v: zero-padded uint8 rows."""
    return np.array([repr(x) for x in v.tolist()], "S").view(np.uint8).reshape(len(v), -1)


def _format_e17_cut(v: np.ndarray) -> np.ndarray:
    """`_format_e17` rows without the leading columns that are zero in every row."""
    f = _format_e17(v)
    return f[:, f.any(axis=0).argmax():]


# the value formatter, the text before x, y and u and after u in a row, the
# bytes the first row drops, and how a block of rows drops its zeros; a JSON
# row is a sample of json.dumps(obj, indent=1).  Cut to its values' common
# width, a CSV row keeps at most one zero per value (a sign's place), which
# bytes.replace skips fastest, where the left-aligned JSON rows keep several,
# which a mask drops faster
_ROWS = {"csv": (_format_e17_cut, ("", ",", ",", "\n"), 0,
                 lambda m: m.tobytes().replace(b"\0", b"")),
         "json": (_format_repr, (',\n  {\n   "x": ', ',\n   "y": ', ',\n   "u": ', "\n  }"), 2,
                  lambda m: m[m != 0].tobytes())}


def _run_solve(cfg: argparse.Namespace) -> int:
    preset = _resolve_problem(cfg.problem)
    expansion = fd_solve(preset.problem, cfg.n1, cfg.n2, cfg.rank, cfg.cheb_order)
    delta = norm1 = None
    if preset.exact is not None:
        delta, norm1 = _rank_errors(expansion, preset.exact, [cfg.rank])[0]
        print("delta=%.16e\nnorm1_delta=%.16e" % (delta, norm1))
    p = cfg.cheb_order
    fields = [u.values.reshape(-1, p, p) for u in expansion.corrections[:cfg.rank + 1]]
    xs, ys = expansion.grid.cell_nodes(unit_cheb_nodes(p))
    value, text, drop, squeeze = _ROWS[cfg.format]
    lit = [np.frombuffer(t.encode(), np.uint8) for t in text]
    # the N1*P and N2*P nodes, once each, as rows (N1, P, 1, w) and (N2, 1, P, w)
    xb = value(xs.ravel()).reshape(len(xs), p, 1, -1)
    yb = value(ys.ravel()).reshape(len(ys), 1, p, -1)
    with _open_output(cfg.output) as fh:
        if cfg.format == "csv":
            if delta is not None:
                fh.write("# delta = %.16e\n# norm1_delta = %.16e\n" % (delta, norm1))
            fh.write("x,y,u\n")
        else:
            # the text of json.dumps(obj, indent=1), written piece by piece
            fh.write('{\n "delta": %s,\n "norm1_delta": %s,\n "samples": [\n'
                     % (json.dumps(delta), json.dumps(norm1)))
        # one row per cell tensor node, cell-major, in blocks of whole cells; a block
        # is a zero-padded byte array (cells, P, P, row), and the field's text is never
        # held.  A block sums its own corrections, in the order `partial_sum` adds them
        for block in _blocks(len(fields[0]), p, _ROW_BLOCK):
            ii, jj = np.divmod(np.arange(len(fields[0]))[block], len(ys))
            u = fields[0][block]
            for f in fields[1:]:
                u = u + f[block]
            parts = (lit[0], xb[ii], lit[1], yb[jj], lit[2],
                     value(u.ravel()).reshape(u.shape + (-1,)), lit[3])
            m = np.concatenate([np.broadcast_to(c, u.shape + c.shape[-1:]) for c in parts], -1)
            if not block.start:
                m[0, 0, 0, :drop] = 0
            fh.write(squeeze(m).decode("ascii"))
        if cfg.format == "json":
            fh.write("\n ]\n}\n")
    return 0


def _run_study(cfg: argparse.Namespace) -> int:
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
        _emit(_study_csv(report.rows), cfg.output)
    else:
        _emit(_study_json(report.rows), cfg.output)
    for n1, n2, message in report.failures:
        print(f"error: mesh ({n1},{n2}) failed: {message}", file=sys.stderr)
    return 1 if report.failures else 0


def run(config: argparse.Namespace) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        if config.mode == "solve":
            return _run_solve(config)
        if config.mode == "study":
            return _run_study(config)
        _, failed, lines = run_selftest()
        print("\n".join(lines))
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
