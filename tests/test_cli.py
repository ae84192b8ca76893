"""Flag/file configuration, output schemas, grammar safety, and exit codes."""

import inspect
import json
import math
import os
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from goursatfd.field import Grid, unit_cheb_nodes
from goursatfd import cli
from goursatfd.harness import (
    _rank_errors,
    error_norm1,
    error_vs_exact,
    fd_solve,
    liouville_problem,
    run_selftest,
)
from goursatfd.solver import FdSolverError
from goursatfd.cli import (
    _OPTIONS,
    ConfigError,
    STUDY_HEADER,
    _build_parser,
    compile_expression,
    load_problem_file,
    main,
    parse_config,
)


def test_parse_solve_flags():
    cfg = parse_config(["solve", "--problem", "pr1", "--n1", "4", "--n2", "4", "--rank", "3"])
    assert cfg.mode == "solve"
    assert cfg.problem == "pr1"
    assert (cfg.n1, cfg.n2, cfg.rank) == (4, 4, 3)
    assert cfg.cheb_order == 12 and cfg.format == "csv"


def test_parse_study_flags():
    cfg = parse_config(["study", "--problem", "pr1", "--n-list", "4,20,40,80", "--rank", "7"])
    assert cfg.mode == "study"
    assert cfg.n_list == (4, 20, 40, 80)
    assert cfg.rank == 7


def test_missing_problem_names_key(capsys):
    assert main(["solve", "--n1", "4"]) == 2
    assert "`problem`" in capsys.readouterr().err


def test_invalid_values_exit_2(capsys):
    assert main(["solve", "--problem", "pr1", "--n1", "0"]) == 2
    assert "`n1`" in capsys.readouterr().err
    assert main(["solve", "--problem", "pr1", "--n1", "2", "--rank", "99"]) == 2
    assert "`rank`" in capsys.readouterr().err
    assert main(["solve", "--problem", "pr1", "--n1", "2", "--cheb-order", "3"]) == 2
    assert "`cheb_order`" in capsys.readouterr().err
    assert main(["study", "--problem", "pr1", "--n-list", "4,x"]) == 2
    assert "`n_list`" in capsys.readouterr().err
    # a one-mesh study names the key it was given
    for n1 in ("0", "-3"):
        assert main(["study", "--problem", "pr1", "--n1", n1]) == 2
        err = capsys.readouterr().err
        assert "`n1`" in err and "`n_list`" not in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_config(["solve", "--problem", "pr1", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_unknown_preset_or_path(capsys):
    assert main(["solve", "--problem", "no_such_thing", "--n1", "2"]) == 2
    err = capsys.readouterr().err
    assert "`problem`" in err and "no_such_thing" in err


def test_config_file_merging(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# study configuration\n"
        "problem = pr1\n"
        "n_list = 2, 3\n"
        "rank = 2\n"
        "cheb_order = 8\n"
    )
    cfg = parse_config(["study", "--config", str(cfgfile)])
    assert cfg.problem == "pr1" and cfg.n_list == (2, 3) and cfg.rank == 2
    assert cfg.cheb_order == 8
    # flags override file values
    cfg = parse_config(["study", "--config", str(cfgfile), "--rank", "1", "--cheb-order", "10"])
    assert cfg.rank == 1 and cfg.cheb_order == 10


def _flags(settings: dict) -> list:
    return [arg for key, value in settings.items() for arg in ("--" + key.replace("_", "-"), value)]


def test_every_option_sets_the_same_value_by_flag_and_by_config_file(tmp_path):
    # one non-default value per key of the option table, set in the first mode
    # that reads it, next to the keys that mode requires (at other values)
    values = {"problem": "pr1", "n1": "3", "n2": "5", "n_list": "2, 3", "rank": "2",
              "cheb_order": "8", "output": "out.csv", "format": "json"}
    assert set(values) == set(_OPTIONS)
    required = {"solve": {"problem": "liouville", "n1": "4"},
                "study": {"problem": "liouville", "n_list": "4"}}
    for key, value in values.items():
        mode = _OPTIONS[key][2][0]
        base = [mode] + _flags(required[mode])
        defaults = vars(parse_config(base))
        cfgfile = tmp_path / f"{key}.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in {**required[mode], key: value}.items()))
        by_flag = vars(parse_config(base + _flags({key: value})))
        by_file = vars(parse_config([mode, "--config", str(cfgfile)]))
        assert by_flag[key] != defaults[key], key
        assert by_flag == {**by_file, "config": None}, key


def test_each_mode_rejects_the_flags_it_does_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "pr1", "--n1", "1", "--cheb-order", "6", "--n-list", "9"])
    assert exc.value.code == 2
    assert "--n-list" in capsys.readouterr().err
    for mode in ("solve", "study", "selftest"):
        unread = [key for key, opt in _OPTIONS.items() if mode not in opt[2]]
        if mode == "selftest":  # it takes no flags at all
            unread.append("config")
        for key in unread:
            with pytest.raises(SystemExit) as exc:
                parse_config([mode, "--" + key.replace("_", "-"), "3"])
            assert exc.value.code == 2, (mode, key)


def test_flag_of_another_mode_is_reported_with_that_mode_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["solve", "--problem", "pr1", "--n1", "1", "--cheb-order", "6",
                      "--n-list", "9"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: goursatfd solve")
    assert "unrecognized arguments: --n-list 9" in err


def test_study_rejects_n1_with_n_list(tmp_path, capsys):
    args = ["study", "--problem", "pr1", "--rank", "0", "--cheb-order", "6"]
    with pytest.raises(ConfigError, match="`n1`.*`n_list`"):
        parse_config(args + ["--n1", "3", "--n-list", "2"])
    assert main(args + ["--n1", "3", "--n-list", "2"]) == 2
    err = capsys.readouterr().err
    assert "`n1`" in err and "`n_list`" in err
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("n1 = 3\nn_list = 2\n")
    assert main(args + ["--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert "`n1`" in err and "`n_list`" in err
    cfgfile.write_text("n1 = 3\n")
    with pytest.raises(ConfigError, match="`n1`.*`n_list`"):
        parse_config(args + ["--config", str(cfgfile), "--n-list", "2"])
    # n1 alone is a one-mesh study
    assert parse_config(args + ["--n1", "3"]).n_list == (3,)
    assert parse_config(args + ["--config", str(cfgfile)]).n_list == (3,)


def test_config_key_of_another_mode_names_key_and_mode(tmp_path, capsys):
    cfgfile = tmp_path / "solve.cfg"
    cfgfile.write_text("problem = pr1\nn1 = 2\nn_list = 9\n")
    with pytest.raises(ConfigError, match="`n_list`.*`solve`"):
        parse_config(["solve", "--config", str(cfgfile)])
    assert main(["solve", "--config", str(cfgfile)]) == 2
    assert "`n_list`" in capsys.readouterr().err
    cfgfile.write_text("problem = pr1\nn_list = 2\nn2 = 3\n")
    with pytest.raises(ConfigError, match="`n2`.*`study`"):
        parse_config(["study", "--config", str(cfgfile)])


def test_tol_knob_is_gone(tmp_path):
    # the oracle tolerance is picard_cell_oracle's own default
    with pytest.raises(SystemExit) as exc:
        parse_config(["selftest", "--tol", "1e-9"])
    assert exc.value.code == 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem = pr1\nn_list = 2\ntol = 1e-9\n")
    with pytest.raises(ConfigError, match="unknown key `tol`"):
        parse_config(["study", "--config", str(cfgfile)])
    assert "tol" not in inspect.signature(run_selftest).parameters


def test_config_file_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem = pr1\nmystery_knob = 7\n")
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_config(["study", "--config", str(bad)])


def test_config_file_type_error_names_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rank = fast\n")
    with pytest.raises(ConfigError, match="`rank`"):
        parse_config(["study", "--config", str(bad)])


def test_threads_knob_is_gone(monkeypatch, tmp_path):
    # the march is batched per wavefront; there are no workers to configure
    with pytest.raises(SystemExit) as exc:
        parse_config(["solve", "--problem", "pr1", "--n1", "2", "--threads", "2"])
    assert exc.value.code == 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem = pr1\nthreads = 2\n")
    with pytest.raises(ConfigError, match="threads"):
        parse_config(["study", "--config", str(cfgfile)])
    monkeypatch.setenv("FD_THREADS", "zero")
    cfg = parse_config(["solve", "--problem", "pr1", "--n1", "2"])
    assert not hasattr(cfg, "threads")


def test_solve_csv_output(tmp_path, capsys):
    out = tmp_path / "field.csv"
    code = main(["solve", "--problem", "liouville", "--n1", "2", "--rank", "1",
                 "--cheb-order", "6", "--output", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "delta=" in stdout and "norm1_delta=" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# delta = ")
    assert lines[1].startswith("# norm1_delta = ")
    assert lines[2] == "x,y,u"
    assert len(lines) == 3 + 2 * 2 * 6 * 6
    x, y, u = (float(v) for v in lines[3].split(","))
    assert (x, y) == (0.0, 0.0)
    assert u == pytest.approx(-math.log(2.0), rel=1e-12)


def _reference_rows(problem, n1, n2, m, p):
    """The `x,y,u` CSV rows, formatted one whole row at a time in cell-major order."""
    expansion = fd_solve(problem, n1, n2, m, p)
    u = expansion.partial_sum(m).values
    xs, ys = expansion.grid.cell_nodes(unit_cheb_nodes(p))
    rows = ["x,y,u"]
    for i in range(n1):
        for j in range(n2):
            for a in range(p):
                for b in range(p):
                    rows.append("%.16e,%.16e,%.16e"
                                % (float(xs[i, a]), float(ys[j, b]), float(u[i, j, a, b])))
    return expansion, rows


def _assert_lines(text, expect):
    # the first differing line, not a diff of thousands of lines
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    bad = next((k for k, (a, b) in enumerate(zip(lines, expect)) if a != b), None)
    assert bad is None, f"line {bad}: {lines[bad]!r} != {expect[bad]!r}"
    assert len(lines) == len(expect)


def test_solve_csv_output_in_blocks(tmp_path, capsys):
    # 7 x 5 cells at P = 12 give 5040 rows, more than one block and not a
    # multiple of it; file and stdout match a row-by-row formatter line by line
    preset = liouville_problem()
    expansion, rows = _reference_rows(preset.problem, 7, 5, 2, 12)
    assert len(rows) - 1 > cli._ROW_BLOCK
    delta = error_vs_exact(expansion, preset.exact, 2)
    norm1 = error_norm1(expansion, preset.exact, 2)
    argv = ["solve", "--problem", "liouville", "--n1", "7", "--n2", "5", "--rank", "2",
            "--cheb-order", "12"]
    out = tmp_path / "field.csv"
    assert main(argv + ["--output", str(out)]) == 0
    printed = ["delta=%.16e" % delta, "norm1_delta=%.16e" % norm1]
    assert capsys.readouterr().out.splitlines() == printed
    header = ["# delta = %.16e" % delta, "# norm1_delta = %.16e" % norm1]
    _assert_lines(out.read_text(), header + rows)
    assert main(argv) == 0
    _assert_lines(capsys.readouterr().out, printed + header + rows)


def test_solve_csv_without_exact_has_no_header_comments(tmp_path, capsys):
    spec = tmp_path / "no_exact.prob"
    spec.write_text("X = 2.0\nY = 1.5\npsi = sin(x)\nphi = sin(2*y)\nf = 1 + x*y\n"
                    "nu = 0.5, -0.25\n")
    _, rows = _reference_rows(load_problem_file(str(spec)).problem, 3, 2, 1, 8)
    argv = ["solve", "--problem", str(spec), "--n1", "3", "--n2", "2", "--rank", "1",
            "--cheb-order", "8"]
    out = tmp_path / "field.csv"
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    _assert_lines(out.read_text(), rows)
    assert main(argv) == 0
    _assert_lines(capsys.readouterr().out, rows)


def test_solve_json_output(tmp_path):
    preset = liouville_problem()
    out = tmp_path / "field.json"
    code = main(["solve", "--problem", "liouville", "--n1", "3", "--n2", "2", "--rank", "1",
                 "--cheb-order", "6", "--format", "json", "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"delta", "norm1_delta", "samples"}
    # every sample is a node and the rank-1 field there, exactly, cell-major
    expansion = fd_solve(preset.problem, 3, 2, 1, 6)
    u = expansion.partial_sum(1).values
    xs, ys = expansion.grid.cell_nodes(unit_cheb_nodes(6))
    expect = [{"x": xs[i, a], "y": ys[j, b], "u": u[i, j, a, b]}
              for i in range(3) for j in range(2) for a in range(6) for b in range(6)]
    assert obj["samples"] == expect


def _reference_json(expansion, m, exact):
    """The text of json.dumps(obj, indent=1) on the whole field, as one dict per node."""
    u = expansion.partial_sum(m).values
    n1, n2, p, _ = u.shape
    xs, ys = expansion.grid.cell_nodes(unit_cheb_nodes(p))
    delta = norm1 = None
    if exact is not None:
        delta, norm1 = error_vs_exact(expansion, exact, m), error_norm1(expansion, exact, m)
    obj = {"delta": delta, "norm1_delta": norm1,
           "samples": [{"x": float(xs[i, a]), "y": float(ys[j, b]), "u": float(u[i, j, a, b])}
                       for i in range(n1) for j in range(n2) for a in range(p) for b in range(p)]}
    return json.dumps(obj, indent=1) + "\n", delta, norm1


def test_solve_json_streams_the_json_dumps_text(tmp_path, capsys):
    # meshes of more than one block of rows, not a multiple of it; the file
    # and stdout hold the very text json.dumps gives, null without `exact`
    spec = tmp_path / "no_exact.prob"
    spec.write_text("X = 2.0\nY = 1.5\npsi = sin(x)\nphi = sin(2*y)\nf = 1 + x*y\n"
                    "nu = 0.5, -0.25\n")
    preset = liouville_problem()
    for name, problem, exact in [("liouville", preset.problem, preset.exact),
                                 (str(spec), load_problem_file(str(spec)).problem, None)]:
        expansion = fd_solve(problem, 7, 5, 2, 12)
        assert expansion.grid.N1 * expansion.grid.N2 * 12 * 12 > cli._ROW_BLOCK
        text, delta, norm1 = _reference_json(expansion, 2, exact)
        printed = "" if exact is None else "delta=%.16e\nnorm1_delta=%.16e\n" % (delta, norm1)
        argv = ["solve", "--problem", name, "--n1", "7", "--n2", "5", "--rank", "2",
                "--cheb-order", "12", "--format", "json"]
        out = tmp_path / "field.json"
        assert main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().out == printed
        assert out.read_text() == text
        assert main(argv) == 0
        assert capsys.readouterr().out == printed + text


def test_solve_json_holds_less_than_its_text(tmp_path):
    # 57,600 rows: the writer holds a block of rows at a time, never one
    # object per node or the text of the whole field
    argv = ["solve", "--problem", "liouville", "--n1", "20", "--n2", "20", "--rank", "1",
            "--cheb-order", "12", "--format", "json", "--output", str(tmp_path / "f.json")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "f.json").stat().st_size
    assert peak < size, (peak, size)


def test_solve_csv_holds_less_than_its_text(tmp_path):
    argv = ["solve", "--problem", "liouville", "--n1", "20", "--n2", "20", "--rank", "1",
            "--cheb-order", "12", "--output", str(tmp_path / "f.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "f.csv").stat().st_size
    assert peak < size, (peak, size)


@pytest.mark.parametrize("rank", [0, 2])
def test_solve_writes_without_a_copy_of_the_partial_sum(monkeypatch, rank):
    # with the solve done beforehand, `solve` holds only blocks: the error
    # pass's and the writer's, each summing its own corrections, and never
    # the rank-m partial sum as one field (at 40 x 40, P = 16 a field is 3.3 MB
    # and the traced peak 1.7-1.9 MB; a whole partial sum put it at 4.5 MB)
    expansion = fd_solve(liouville_problem().problem, 40, 40, rank, 16)
    monkeypatch.setattr(cli, "fd_solve", lambda *args: expansion)
    argv = ["solve", "--problem", "liouville", "--n1", "40", "--n2", "40", "--rank", str(rank),
            "--cheb-order", "16", "--output", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = expansion.corrections[0].values.nbytes
    assert peak < 0.75 * field, (peak, field)


def test_solve_prints_the_errors_of_the_rank_errors_running_sum(capsys):
    # the CLI reads both errors from the one partial sum it writes; the study
    # path adds the same corrections in the same order, so they agree bit for bit
    preset = liouville_problem()
    expansion = fd_solve(preset.problem, 4, 3, 3, 8)
    expect = _rank_errors(expansion, preset.exact, [0, 1, 2, 3])
    for m in range(4):
        assert main(["solve", "--problem", "liouville", "--n1", "4", "--n2", "3",
                     "--rank", str(m), "--cheb-order", "8", "--output", os.devnull]) == 0
        printed = capsys.readouterr().out
        assert printed == "delta=%.16e\nnorm1_delta=%.16e\n" % expect[m]


def _assert_formats_as_percent_e17(v):
    # both sides as one stream of newline-ended rows with the padding zeros
    # dropped: equal streams mean equal rows
    v = np.asarray(v, dtype=float)
    if v.size > 65536:
        for start in range(0, v.size, 65536):
            _assert_formats_as_percent_e17(v[start:start + 65536])
        return
    with np.errstate(all="raise"):
        got = cli._format_e17(v)
    assert got.shape == (v.size, 24)
    # right-aligned: a row's zeros all come before its first character
    assert np.all(np.diff((got != 0).view(np.int8), axis=1) >= 0)
    got = np.concatenate([got, np.full((v.size, 1), ord("\n"), np.uint8)], axis=1)
    got = got[got != 0].tobytes().decode("ascii")
    expect = "".join("%.16e\n" % x for x in v.tolist())
    if got != expect:
        bad = next(k for k, (a, b) in enumerate(zip(got.split(), expect.split())) if a != b)
        raise AssertionError(f"{v[bad]!r}: {got.split()[bad]} != {expect.split()[bad]}")


def test_format_e17_on_log_uniform_doubles():
    rng = np.random.default_rng(14)
    n = 1_000_000
    # log-uniform over [5e-324, 1e308], subnormals included
    v = np.power(10.0, rng.uniform(math.log10(5e-324), 308.0, n))
    v[v == 0] = 5e-324
    _assert_formats_as_percent_e17(v * rng.choice([-1.0, 1.0], n))
    # the fast range itself, densely
    t = rng.uniform(-6.5, 17.5, 200_000)
    _assert_formats_as_percent_e17(np.power(10.0, t) * rng.choice([-1.0, 1.0], t.size))


def test_format_e17_on_zeros_subnormals_specials_and_odd_block_sizes():
    tiny = np.finfo(float).tiny
    v = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0), 1e-310, -3e-320,
         math.inf, -math.inf, math.nan, np.finfo(float).max, -np.finfo(float).max]
    _assert_formats_as_percent_e17(v)
    rng = np.random.default_rng(3)
    for n in (1, 2, 4095, 4097, 5040):
        _assert_formats_as_percent_e17(rng.standard_normal(n) * 10.0 ** rng.integers(-9, 19, n))
    _assert_formats_as_percent_e17([])


def test_format_e17_at_powers_of_ten_and_decade_round_ups():
    # the formatter's decade bounds are the least doubles >= 10**e
    for e, bound in zip(range(-6, 18), cli._DECADES.tolist()):
        assert Fraction(bound) >= Fraction(10) ** e > Fraction(np.nextafter(bound, 0.0))
    v = []
    for e in range(-8, 19):
        p = float(Fraction(10) ** e)
        v += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    # a double within half a unit in the 17th digit below 10**e prints as
    # 10**e; only the largest double below 10**e can be one, and none lies in
    # the formatter's exact range 1e-6 <= |x| < 1e17
    ups = []
    for e in range(-323, 309):
        top = Fraction(10) ** e
        x = float(top)
        if Fraction(x) >= top:
            x = float(np.nextafter(x, 0.0))
        if Fraction(x) >= top - Fraction(10) ** (e - 17) / 2:
            ups.append(x)
            assert "%.16e" % x == "1.0000000000000000e%+03d" % e
    assert len(ups) == 14 and not any(1e-6 <= x < 1e17 for x in ups)
    v += ups
    v = np.array(v)
    _assert_formats_as_percent_e17(np.concatenate([v, -v]))


def test_format_e17_rounds_exact_ties_to_even():
    # x * 10**k = D + 1/2 exactly with D of 17 digits: x = n / 2**(k + 1) for
    # odd n with n * 5**k = 2 D + 1; such x is a double when n < 2**53
    rng = np.random.default_rng(7)
    ties = []
    for k in range(1, 23):
        low = -(-2 * 10 ** 16 // 5 ** k)
        high = min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
        for n in {int(rng.integers(low, high)) | 1 for _ in range(600)}:
            if not low <= n < high:
                continue
            x = math.ldexp(n, -(k + 1))
            D2 = Fraction(x) * 10 ** k * 2
            assert D2.denominator == 1 and D2.numerator % 2 == 1
            assert 2 * 10 ** 16 <= D2.numerator < 2 * 10 ** 17
            ties.append(x)
    assert len(ties) > 10_000
    evens = sum(int(("%.16e" % x).split("e")[0][-1]) % 2 == 0 for x in ties)
    assert evens == len(ties)
    # and their neighbours, a hair off the tie either way
    ties = np.array(ties)
    ties = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, math.inf)])
    _assert_formats_as_percent_e17(np.concatenate([ties, -ties]))


def test_solve_csv_formats_zeros_and_huge_values_as_python(tmp_path):
    # u(0, 0) = 0 exactly and |u| >= 1e17 on much of the domain: both take
    # the `%.16e` fallback in a real file
    spec = tmp_path / "huge.prob"
    spec.write_text("X = 2.0\nY = 1.5\npsi = 1e17*sin(x)\nphi = 1e17*sin(2*y)\nf = 0*x\n"
                    "nu = 0.5\n")
    expansion, rows = _reference_rows(load_problem_file(str(spec)).problem, 3, 2, 1, 8)
    u = expansion.partial_sum(1).values
    assert (u == 0).any() and (np.abs(u) >= 1e17).any()
    out = tmp_path / "field.csv"
    assert main(["solve", "--problem", str(spec), "--n1", "3", "--n2", "2", "--rank", "1",
                 "--cheb-order", "8", "--output", str(out)]) == 0
    _assert_lines(out.read_text(), rows)


def test_study_csv_schema_and_json_roundtrip(tmp_path):
    csv_out = tmp_path / "study.csv"
    json_out = tmp_path / "study.json"
    args = ["study", "--problem", "liouville", "--n-list", "2,3", "--rank", "1",
            "--cheb-order", "6"]
    assert main(args + ["--output", str(csv_out)]) == 0
    assert main(args + ["--format", "json", "--output", str(json_out)]) == 0

    lines = csv_out.read_text().splitlines()
    assert lines[0] == ",".join(STUDY_HEADER)
    assert len(lines) == 1 + 2 * 2
    rows_csv = [dict(zip(STUDY_HEADER, line.split(","))) for line in lines[1:]]
    rows_json = json.loads(json_out.read_text())
    assert len(rows_json) == 4
    for rc, rj in zip(rows_csv, rows_json):
        for key in ("n1", "n2", "m", "p_order"):
            assert int(rc[key]) == rj[key]
        for key in ("h1", "h2", "delta", "norm1_delta"):
            assert float(rc[key]) == pytest.approx(rj[key], rel=1e-15)


def test_study_output_is_reproducible_modulo_wall_time(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["study", "--problem", "liouville", "--n-list", "2", "--rank", "1",
            "--cheb-order", "6"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    wall_col = STUDY_HEADER.index("wall_ms")

    def strip(path):
        rows = []
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            del cells[wall_col]
            rows.append(cells)
        return rows

    assert strip(a) == strip(b)


def test_study_without_exact_writes_nan_and_null(tmp_path):
    spec = tmp_path / "noexact.prob"
    spec.write_text("X = 2.0\nY = 2.0\npsi = 0*x\nphi = 0*y\nf = 1 + x*y\nnu = 1.0\n")
    csv_out = tmp_path / "study.csv"
    json_out = tmp_path / "study.json"
    args = ["study", "--problem", str(spec), "--n-list", "2,3", "--rank", "1",
            "--cheb-order", "6"]
    assert main(args + ["--output", str(csv_out)]) == 0
    assert main(args + ["--format", "json", "--output", str(json_out)]) == 0
    lines = csv_out.read_text().splitlines()
    rows_csv = [dict(zip(STUDY_HEADER, line.split(","))) for line in lines[1:]]
    rows_json = json.loads(json_out.read_text())
    assert len(rows_csv) == len(rows_json) == 4
    for rc, rj in zip(rows_csv, rows_json):
        assert rc["delta"] == rc["norm1_delta"] == "nan"
        assert rj["delta"] is None and rj["norm1_delta"] is None
        for key in ("n1", "n2", "m", "p_order"):
            assert int(rc[key]) == rj[key]
        for key in ("h1", "h2"):  # wall_ms differs from run to run
            assert float(rc[key]) == rj[key]


def test_readme_lists_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags_paragraph = cli_section.split("Flags:", 1)[1].split("\n\n", 1)[0]
    # one `mode`: entry per subcommand, each listing that subcommand's flags
    entries = re.split(r"`(solve|study|selftest)`:", flags_paragraph)[1:]
    documented = {mode: set(re.findall(r"`(--[a-z0-9-]+)", text))
                  for mode, text in zip(entries[::2], entries[1::2])}
    _, modes = _build_parser()
    assert set(documented) == set(modes)
    for mode, parser in modes.items():
        options = {opt for action in parser._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
        assert documented[mode] == options, mode


def test_expression_grammar():
    f = compile_expression("x/2 - log(1 + exp(x))", ("x",))
    assert f(1.3) == pytest.approx(0.65 - math.log(1 + math.exp(1.3)))
    g = compile_expression("sin(x)*cos(y) + x**2", ("x", "y"))
    assert g(0.4, 1.1) == pytest.approx(math.sin(0.4) * math.cos(1.1) + 0.16)
    h = compile_expression("ln(exp(2))", ("x",))
    assert h(0.0) == pytest.approx(2.0)


def test_expression_grammar_rejects_bad_input():
    with pytest.raises(ConfigError, match="unknown symbol"):
        compile_expression("x + q", ("x",))
    with pytest.raises(ConfigError):
        compile_expression("__import__('os').system('true')", ("x",))
    with pytest.raises(ConfigError):
        compile_expression("exp(x, 2)", ("x",))
    with pytest.raises(ConfigError):
        compile_expression("x if x else 0", ("x",))
    with pytest.raises(ConfigError):
        compile_expression("'hello'", ("x",))


def test_custom_problem_file_roundtrip(tmp_path, capsys):
    # u = x*y solves u_xy + N(u) u = 1 + x*y with constant N = 1: the frozen
    # rank-0 problem is already the full equation, so the error is roundoff
    spec = tmp_path / "product.prob"
    spec.write_text(
        "X = 2.0\n"
        "Y = 2.0\n"
        "psi = 0*x\n"
        "phi = 0*y\n"
        "f = 1 + x*y\n"
        "nu = 1.0\n"
        "exact = x*y\n"
    )
    out = tmp_path / "o.csv"
    code = main(["solve", "--problem", str(spec), "--n1", "3", "--rank", "1",
                 "--cheb-order", "8", "--output", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    delta = float(stdout.split("delta=")[1].splitlines()[0])
    assert delta <= 1e-12
    # one row per cell tensor node, at exactly the nodes the solver used
    data = np.loadtxt(out, delimiter=",", comments="#", skiprows=3)
    assert data.shape == (3 * 3 * 8 * 8, 3)
    xs, ys = Grid(2.0, 2.0, 3, 3).cell_nodes(unit_cheb_nodes(8))
    shape = (3, 3, 8, 8)
    assert np.array_equal(data[:, 0], np.broadcast_to(xs[:, None, :, None], shape).ravel())
    assert np.array_equal(data[:, 1], np.broadcast_to(ys[None, :, None, :], shape).ravel())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_exact_solution_exits_1(tmp_path, capsys, fmt):
    # log(x) is -inf on the y axis: no `Infinity` reaches the output, and a
    # study records the mesh as failed
    spec = tmp_path / "log.prob"
    spec.write_text("X = 2.0\nY = 2.0\npsi = 0*x\nphi = 0*y\nf = 1 + x*y\n"
                    "nu = 1.0\nexact = x*y + log(x)\n")
    out = tmp_path / "o.txt"
    with np.errstate(divide="ignore"):
        code = main(["solve", "--problem", str(spec), "--n1", "2", "--cheb-order", "8",
                     "--format", fmt, "--output", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "FdSolverError: cell (0, 0)" in captured.err and "delta" not in captured.out
        assert not out.exists()
        code = main(["study", "--problem", str(spec), "--n-list", "2,3", "--cheb-order", "8",
                     "--format", fmt, "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "mesh (2,2) failed: FdSolverError" in err and "mesh (3,3) failed" in err
    assert "Infinity" not in out.read_text() and "inf" not in out.read_text()


@pytest.mark.parametrize("n1", [1, 2])
def test_kernel_out_of_range_exits_1(tmp_path, capsys, n1):
    # u = x*y with N = 300 on [0, 2]^2: |zeta| = 1200 / n1 on one row of
    # cells, far past the accurate range; the solve must refuse, not print
    # a wrong field
    spec = tmp_path / "stiff.prob"
    spec.write_text("X = 2.0\nY = 2.0\npsi = 0*x\nphi = 0*y\nf = 1 + 300*x*y\n"
                    "nu = 300\nexact = x*y\n")
    out = tmp_path / "o.csv"
    code = main(["solve", "--problem", str(spec), "--n1", str(n1), "--n2", "1",
                 "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "KernelRangeError: cell (0, 0)" in captured.err
    assert captured.out == "" and not out.exists()


def test_literals_are_floats():
    # an int power like 9**9**9 is not constant-folded and would run unbounded
    assert isinstance(compile_expression("2**70", ("x",))(0.0), float)


def test_huge_power_in_problem_file_fails_fast(tmp_path, capsys):
    spec = tmp_path / "huge_power.prob"
    spec.write_text("X = 1\nY = 1\npsi = 0*x\nphi = 0*y\nf = 9**9**9\nnu = 1.0\n")
    code = main(["solve", "--problem", str(spec), "--n1", "2", "--cheb-order", "6"])
    assert code in (1, 2)
    assert "error:" in capsys.readouterr().err


def test_load_time_arithmetic_error_names_key(tmp_path, capsys):
    spec = tmp_path / "overflow.prob"
    spec.write_text("X = 1\nY = 1\npsi = 0*x\nphi = 9**9**9 + 0*y\nf = 1\nnu = 1.0\n")
    with pytest.raises(ConfigError, match="`phi`"):
        load_problem_file(str(spec))
    assert main(["solve", "--problem", str(spec), "--n1", "2", "--cheb-order", "6"]) == 2
    assert "`phi`" in capsys.readouterr().err


@pytest.mark.parametrize("key, term", [("psi", "0*x"), ("f", "0*x*y")])
@pytest.mark.parametrize("terms", [2000, 20000])
def test_deeply_nested_expression_is_a_config_error(tmp_path, capsys, key, term, terms):
    # a long sum nests one level per term: the grammar check overflows the
    # recursion limit at 2000 terms, and the parser itself at 20000
    lines = {"X": "1", "Y": "1", "psi": "0*x", "phi": "0*y", "f": "1", "nu": "1.0"}
    lines[key] = "+".join([term] * terms)
    spec = tmp_path / "deep.prob"
    spec.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    message = f"key `{key}` in {spec}: expression nested too deeply"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_problem_file(str(spec))
    assert main(["solve", "--problem", str(spec), "--n1", "2", "--cheb-order", "6"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("edit, key", [
    ("X = nan", "extent X "),
    ("Y = inf", "extent Y "),
    # (-1.0)**0.5 is complex in Python float arithmetic
    ("psi = (x - 1)**0.5", "key `psi`"),
    ("phi = 1 + y", "phi(0)=1.0"),
])
def test_bad_problem_data_is_a_config_error_naming_the_key(tmp_path, capsys, edit, key):
    lines = dict(line.split(" = ") for line in
                 ["X = 1", "Y = 1", "psi = x", "phi = y", "f = 1", "nu = 1.0"])
    name, value = edit.split(" = ")
    lines[name] = value
    spec = tmp_path / "bad.prob"
    spec.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_problem_file(str(spec))
    assert main(["solve", "--problem", str(spec), "--n1", "2", "--cheb-order", "6"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["solve", "study"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch, mode):
    # rejected before the work: neither the solve nor the study runs
    def never(*args, **kwargs):
        raise AssertionError("the work ran before `output` was checked")

    monkeypatch.setattr(cli, "fd_solve", never)
    monkeypatch.setattr(cli, "convergence_study", never)
    for output in (tmp_path, tmp_path / "missing" / "out.csv"):
        argv = [mode, "--problem", "liouville", "--n1", "2", "--cheb-order", "6",
                "--output", str(output)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "`output`" in captured.err and captured.out == ""


def test_failed_solve_leaves_an_existing_output_as_it_was(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise FdSolverError("no solve")

    monkeypatch.setattr(cli, "fd_solve", fail)
    out = tmp_path / "field.csv"
    out.write_text("kept\n")
    argv = ["solve", "--problem", "liouville", "--n1", "2", "--cheb-order", "6",
            "--output", str(out)]
    assert main(argv) == 1
    assert "no solve" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_problem_file_missing_key(tmp_path):
    spec = tmp_path / "broken.prob"
    spec.write_text("X = 1\nY = 1\npsi = 0*x\nphi = 0*y\nf = 1\n")
    with pytest.raises(ConfigError, match="`nu`"):
        load_problem_file(str(spec))


def test_selftest_mode_exits_zero(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest:" in out and "0 failed" in out
    # one line per check, then the summary
    assert [line[:5] for line in out.splitlines()] == ["ok   "] * 4 + ["selft"]


def test_run_reports_numerical_failure(capsys, tmp_path):
    # single huge cell: kernel series range exceeded -> exit 1 with a reason
    spec = tmp_path / "huge.prob"
    spec.write_text(
        "X = 40.0\nY = 40.0\npsi = 0*x\nphi = 0*y\nf = 1\nnu = 10.0\n"
    )
    code = main(["solve", "--problem", str(spec), "--n1", "1", "--cheb-order", "8"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
