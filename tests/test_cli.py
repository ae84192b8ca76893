"""Flag/file configuration, output schemas, grammar safety, and exit codes."""

import json
import math

import pytest

from goursatfd.cli import (
    ConfigError,
    STUDY_HEADER,
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


def test_config_file_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem = pr1\nmystery_knob = 7\n")
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_config(["study", "--config", str(bad)])


def test_config_file_type_error_names_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rank = fast\n")
    with pytest.raises(ConfigError, match="`rank`"):
        parse_config(["selftest", "--config", str(bad)])


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


def test_solve_json_output(tmp_path):
    out = tmp_path / "field.json"
    code = main(["solve", "--problem", "liouville", "--n1", "2", "--rank", "0",
                 "--cheb-order", "6", "--format", "json", "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"delta", "norm1_delta", "samples"}
    assert len(obj["samples"]) == 2 * 2 * 6 * 6
    assert set(obj["samples"][0]) == {"x", "y", "u"}


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
    code = main(["solve", "--problem", str(spec), "--n1", "3", "--rank", "1",
                 "--cheb-order", "8", "--output", str(tmp_path / "o.csv")])
    assert code == 0
    stdout = capsys.readouterr().out
    delta = float(stdout.split("delta=")[1].splitlines()[0])
    assert delta <= 1e-12


def test_problem_file_missing_key(tmp_path):
    spec = tmp_path / "broken.prob"
    spec.write_text("X = 1\nY = 1\npsi = 0*x\nphi = 0*y\nf = 1\n")
    with pytest.raises(ConfigError, match="`nu`"):
        load_problem_file(str(spec))


def test_selftest_mode_exits_zero(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest:" in out and "0 failed" in out


def test_run_reports_numerical_failure(capsys, tmp_path):
    # single huge cell: kernel series range exceeded -> exit 1 with a reason
    spec = tmp_path / "huge.prob"
    spec.write_text(
        "X = 40.0\nY = 40.0\npsi = 0*x\nphi = 0*y\nf = 1\nnu = 10.0\n"
    )
    code = main(["solve", "--problem", str(spec), "--n1", "1", "--cheb-order", "8"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
