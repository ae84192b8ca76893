"""Self-tests of the benchmark at a tiny size (8x8 meshes, rank <= 2).

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import goursatfd as gf  # noqa: E402
import goursatfd.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as W  # noqa: E402
from workloads import Check  # noqa: E402

# 8x8 versions of each workload; references are PAPER.md's h = 0.5 column
TINY = {
    "deep-p12": dataclasses.replace(
        W.WORKLOADS["deep-p12"], n=8, rank=2,
        checks=(Check(0, 1.058e-1, "rel", 0.05), Check(1, 1.588e-2, "rel", 0.05),
                Check(2, 2.088e-2, "rel", 0.05))),
    "rank0-p16": dataclasses.replace(
        W.WORKLOADS["rank0-p16"], n=8, checks=(Check(0, 1.058e-1, "rel", 0.05),)),
    "cli-poly": dataclasses.replace(
        W.WORKLOADS["cli-poly"], n=8, rank=2, checks=(Check(2, 1.0e-3, "max"),)),
}


def _registered():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]}, spec)


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


@pytest.fixture(scope="module")
def results(outdir):
    saved = run.OUT
    run.OUT = outdir
    try:
        yield {(name, trace): run.run_workload(wl, 3, 0.0, trace, probes=1)
               for name, wl in TINY.items() for trace in (0, 1)}
    finally:
        run.OUT = saved


def test_registration_matches_code():
    e2e, layers, spec = _registered()
    assert e2e == dict(run.END_TO_END_METRICS)
    assert layers == dict(tr.PER_LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == W.WORKLOADS[w["name"]].why


def test_every_metric_emitted_with_its_unit(results):
    e2e, layers, _ = _registered()
    for (name, trace), res in results.items():
        line = res.line()
        assert line["correct"] and line["failed"] == 0, (name, trace, res.ops)
        assert line["attempted"] >= 2 + trace  # warm-up, plain, traced
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == (layers if trace else e2e), (name, trace)
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values()), name
        text = "\n".join(run.summary(res))
        for metric in ("delta", "failed_ops", *line["metrics"]):
            assert f"{metric} = " in text, (name, metric)


def test_run_record_holds_context(results, outdir):
    for name, trace in results:
        record = json.loads((outdir / f"result-{name}-seed3-trace{trace}.json").read_text())
        ctx = record["context"]
        for key in ("nproc", "python", "numpy", "blas", "blas_threads_found",
                    "blas_threads_used", "git_commit", "src_loc"):
            assert key in ctx, key
        assert ctx["src_loc"] > 0
        assert record["result"] == results[name, trace].line()
    assert (outdir / "spans-deep-p12-seed3.npz").is_file()


def test_layers_that_run_report_work(results):
    deep = results["deep-p12", 1].metrics
    assert deep["harness.convergence_study.calls"][0] == 1
    assert deep["solver.solve_correction.calls"][0] == 2
    assert deep["solver.cells"][0] == 8 * 8 * 3
    assert deep["problem.exact.calls"][0] > 0
    assert deep["cli.main.calls"][0] == 0
    rank0 = results["rank0-p16", 1].metrics
    assert rank0["series.compose_with_tail.calls"][0] == 0
    if hasattr(gf.solver, "hyp0f1_array"):  # an entry point later changes may remove
        assert deep["kernels.hyp0f1_array.calls"][0] == 3 * 8 * 8 * 3
        assert rank0["kernels.hyp0f1_array.points"][0] > 0
    poly = results["cli-poly", 1].metrics
    assert poly["cli.main.calls"][0] == 1 and poly["cli.load_problem_file.calls"][0] == 1
    assert poly["problem.f.calls"][0] > 0 and poly["problem.boundary.calls"][0] > 0
    assert poly["cli.output_bytes"][0] > 0


def test_child_spans_lie_within_their_parent(results):
    for (name, trace), res in results.items():
        if not trace:
            continue
        spans = res.tracer.spans
        assert spans
        for rec in spans:
            assert rec[1] <= rec[2], (name, rec)
            if rec[3] >= 0:
                parent = spans[rec[3]]
                assert parent[1] <= rec[1] and rec[2] <= parent[2], (name, rec, parent)
                assert parent[4] == rec[4]


def test_self_times_add_up_to_the_operation(results):
    for (name, trace), res in results.items():
        if not trace:
            continue
        t = res.tracer
        (op,) = t.op_ids()
        (wall,) = [r[2] - r[1] for r in t.spans if r[0] == tr.ROOT and r[4] == op]
        selfs = t.self_times(op)
        assert sum(selfs.values()) == pytest.approx(wall, rel=1e-9)
        layer_sum = sum(res.metrics[f"{layer}.self_s"][0] for layer in tr.LAYERS)
        # all but the benchmark's own glue around the calls is inside a layer
        assert wall - layer_sum == pytest.approx(selfs[tr.ROOT.split(".")[0]], abs=1e-9)
        assert 0.0 <= wall - layer_sum <= 0.01 * wall + 1e-3, name
        untraced = next(op.wall for op in res.ops if op.kind == "plain")
        overhead = res.metrics["trace_overhead"][0]
        assert layer_sum <= untraced * (1.0 + overhead) + 1e-9


def test_patches_are_restored(results):
    assert gf.harness.fd_solve is gf.fd_solve
    assert not hasattr(gf.harness.solve_basic, "__wrapped__")
    assert not hasattr(gf.series.Nonlinearity.taylor_at, "__wrapped__")
    assert not hasattr(gf.cli.main, "__wrapped__")


def test_missing_entry_points_read_zero():
    fake = types.SimpleNamespace(harness=types.ModuleType("h"), solver=types.ModuleType("s"),
                                 cli=types.ModuleType("c"), series=types.ModuleType("x"))
    t = tr.Tracer()
    t.install(fake)
    assert t._patches == []
    t.operation(lambda: None)
    values = t.op_metrics(0)
    assert values["kernels.hyp0f1_array.calls"] == 0 and values["kernels.zmax"] == 0
    assert set(values) == {name for name, _ in tr.PER_LAYER_METRICS} - {"trace_overhead"}


@pytest.mark.parametrize("check,delta,ok", [
    (Check(0, 1e-3, "rel", 0.05), 1.04e-3, True),
    (Check(0, 1e-3, "rel", 0.05), 1.06e-3, False),
    (Check(0, 1e-3, "ratio", 3.0), 2.9e-3, True),
    (Check(0, 1e-3, "ratio", 3.0), 3.2e-4, False),
    (Check(0, 1e-3, "max"), 1e-3, True),
    (Check(0, 1e-3, "max"), 2e-3, False),
    (Check(0, 1e-3, "max"), float("nan"), False),
])
def test_check_kinds(check, delta, ok):
    assert (check.failure(delta) is None) == ok


def test_wrong_reference_fails_the_gate(monkeypatch, tmp_path, capsys):
    wrong = dataclasses.replace(TINY["deep-p12"], checks=(Check(2, 4.0e-2, "rel", 0.05),))
    monkeypatch.setitem(W.WORKLOADS, "deep-p12", wrong)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "deep-p12", "--seed", "1", "--seconds", "0", "--trace", "0"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert line["correct"] is False and line["failed"] == line["attempted"] >= 1


def test_cli_poly_inputs_follow_the_seed(tmp_path):
    inputs = W.make_inputs(W.WORKLOADS["cli-poly"], 5, tmp_path)
    assert inputs.seed_used
    assert Path(inputs.problem).read_text() == W.poly_problem_text(W.poly_params(5))
    assert W.poly_params(5) == W.poly_params(5) != W.poly_params(6)
    assert not W.make_inputs(W.WORKLOADS["deep-p12"], 5, tmp_path).seed_used


def test_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep-p12",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
