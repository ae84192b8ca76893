"""The tools in tools/: the line counter and the benchmark recorder."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SNIPPET = '''\
"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line

# a comment line


def f(x):
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return math.sqrt(x) + len(text)


class C:
    """Class docstring."""

    y = 1
'''


def test_line_counter_rules():
    # code: import, def, the two string lines, return, class, y = 1
    assert src_lines.count_lines(SNIPPET) == (19, 7)


def test_line_counter_lists_every_module_and_the_total(capsys):
    assert src_lines.main([]) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()]
    src = _PATH.parent.parent / "src" / "goursatfd"
    assert [r[0] for r in rows] == sorted(p.name for p in src.glob("*.py")) + ["total"]
    assert [sum(int(r[i]) for r in rows[:-1]) for i in (1, 2)] == [int(v) for v in rows[-1][1:]]


# ---------------------------------------------------------------------------
# tools/bench_record.py, on fake trees whose runner stands in for perfbench

_BENCH_PATH = _PATH.parent / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _BENCH_PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# the n-th run of a tree reads n * scale for every metric; a tree without
# scale.txt fails before printing its result
FAKE_RUNNER = '''\
import json, os, sys
from pathlib import Path
tree, args = Path.cwd(), sys.argv[1:]
log = Path(os.environ["FAKE_BENCH_LOG"])
with log.open("a") as fh:
    fh.write(json.dumps([tree.name, args]) + "\\n")
n = sum(json.loads(line)[0] == tree.name for line in log.read_text().splitlines())
value = n * float((tree / "scale.txt").read_text())
out = tree / "perfbench" / "out"
out.mkdir(exist_ok=True)
workload = args[args.index("--workload") + 1]
(out / f"result-{workload}-seed1-trace0.json").write_text(json.dumps({"context": {"n": n}}))
print("# summary line")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {m: {"value": value, "unit": "s"}
                              for m in ("op_s", "setup_s", "us_per_cell_rank", "peak_rss_mb")}}))
'''


def _fake_tree(root, name, scale):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUNNER)
    (tree / "src" / "goursatfd").mkdir(parents=True)
    (tree / "src" / "goursatfd" / "a.py").write_text('"""Doc."""\n\nx = 1\n')
    if scale is not None:
        (tree / "scale.txt").write_text(str(scale))
    return tree


def _log(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_bench_record_alternates_the_pairs_and_summarises_each_side(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FAKE_BENCH_LOG", str(tmp_path / "log"))
    change, parent = _fake_tree(tmp_path, "change", 1.0), _fake_tree(tmp_path, "parent", 1.5)
    argv = ["7", "--tree", str(parent), "--runs", "3", "--seconds", "0.5",
            "--workload", "deep-p12", "--workload", "cli-poly"]
    assert bench_record.main(argv, root=change) == 0
    assert capsys.readouterr().out.strip() == str(change / "BENCH_7.json")
    runs = _log(tmp_path / "log")
    assert [tree for tree, _ in runs] == ["change", "parent", "parent", "change", "change",
                                          "parent"] * 2
    assert {tuple(args) for _, args in runs[:6]} == {
        ("--workload", "deep-p12", "--seconds", "0.5", "--trace", "0")}
    assert runs[6][1][1] == "cli-poly"
    data = json.loads((change / "BENCH_7.json").read_text())
    assert data["runs"] == 3
    assert data["sides"]["change"] == {"commit": None, "src_lines": {"total": 3, "code": 1}}
    deep, poly = data["workloads"]["deep-p12"], data["workloads"]["cli-poly"]
    # runs 1..3 of each tree, then 4..6 for the second workload
    assert deep["change"]["op_s"] == [2.0, 1.5, 2.5]
    assert deep["parent"]["peak_rss_mb"] == [3.0, 2.25, 3.75]
    assert poly["change"]["setup_s"] == [5.0, 4.5, 5.5]
    assert deep["change_lower_in"] == dict.fromkeys(bench_record.METRICS, 3)
    # lower in 3/3 pairs, but by 1.0 against the parent's q3 - q1 of 1.5
    assert deep["claim"]["op_s"] == {"parent_q3_q1": 1.5, "median_gap": 1.0, "lower_in": "3/3",
                                     "holds": False}
    assert deep["change"]["correct"] and deep["change"]["failed"] == 0
    assert deep["change"]["errors"] == [] and poly["parent"]["context"] == {"n": 6}


def test_bench_record_reports_a_run_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FAKE_BENCH_LOG", str(tmp_path / "log"))
    change = _fake_tree(tmp_path, "change", None)
    assert bench_record.main(["3", "--runs", "2", "--workload", "rank0-p16"], root=change) == 1
    entry = json.loads((change / "BENCH_3.json").read_text())["workloads"]["rank0-p16"]
    assert "parent" not in entry and "change_lower_in" not in entry
    side = entry["change"]
    assert not side["correct"] and side["op_s"] is None and len(side["errors"]) == 2
    assert side["errors"][0].startswith("exit 1:") and "scale.txt" in side["errors"][0]


def test_bench_record_states_the_claim_rule(tmp_path, monkeypatch):
    # a parent three times slower: lower in 3/3 pairs, and the median gap of
    # 4.0 clears the parent's q3 - q1 of 3.0
    monkeypatch.setenv("FAKE_BENCH_LOG", str(tmp_path / "log"))
    change, parent = _fake_tree(tmp_path, "change", 1.0), _fake_tree(tmp_path, "parent", 3.0)
    argv = ["8", "--tree", str(parent), "--runs", "3", "--workload", "rank0-p16"]
    assert bench_record.main(argv, root=change) == 0
    entry = json.loads((change / "BENCH_8.json").read_text())["workloads"]["rank0-p16"]
    assert entry["claim"] == dict.fromkeys(bench_record.METRICS, {
        "parent_q3_q1": 3.0, "median_gap": 4.0, "lower_in": "3/3", "holds": True})
    # 9 of 10 pairs is enough, 8 of 10 is not; the gap must exceed q3 - q1
    claim = bench_record.claim
    assert claim([1.0, 0.9, 1.1], [2.0, 1.9, 2.1], 9, 10)["holds"]
    assert not claim([1.0, 0.9, 1.1], [2.0, 1.9, 2.1], 8, 10)["holds"]
    assert not claim([1.0, 0.9, 1.1], [2.0, 1.0, 3.0], 10, 10)["holds"]
    assert claim(None, [2.0, 1.9, 2.1], 0, 0) is None
