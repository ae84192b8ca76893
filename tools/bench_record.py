"""Record perfbench runs of one or two trees as `BENCH_<n>.json`.  Stdlib only.

    python3 tools/bench_record.py N [--tree PATH] [--runs R] [--seconds S] [--workload W ...]

Runs each tree's own `perfbench/run.py --workload W --seconds S --trace 0`,
unchanged, as a subprocess from the tree's root, R times per workload
(10 runs of 10 s each by default, every workload unless named).  The tree
this script lives in is the "change"; `--tree PATH` adds a "parent"
checkout.  With two trees every run of the change is paired with one of the
parent, and the order inside a pair alternates, so that a drift of the
machine's speed falls on both sides alike.

Each run's last line of standard output is perfbench's JSON result.  Per
workload and side the record holds `op_s`, `setup_s`, `us_per_cell_rank` and
`peak_rss_mb` as [median, q1, q3] over the runs, whether every run was
correct, the failed operations summed over the runs, and the run context of
the last run's `perfbench/out` record.  With two trees it also counts, per
metric, the pairs in which the change read lower, and states per metric
whether a claim of a lower value holds: the change is lower in at least 9
of every 10 pairs, and its median lies below the parent's by more than the
parent's q3 - q1.  Per side it holds the commit and the `src/goursatfd`
total and code lines of `tools/src_lines.py`.  The file is written at the
root of the change tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from src_lines import count_lines  # noqa: E402

METRICS = ("op_s", "setup_s", "us_per_cell_rank", "peak_rss_mb")
WORKLOADS = ("deep-p12", "rank0-p16", "cli-poly")
SEED = 1  # perfbench's default seed, which names its result record


def _quartiles(values: list) -> list:
    """[median, q1, q3] of the values, or None for none."""
    if not values:
        return None
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [statistics.median(values), q1, q3]


def claim(change: list, parent: list, lower_in: int, pairs: int) -> dict | None:
    """Whether the change's [median, q1, q3] is lower than the parent's, by the claim rule."""
    if change is None or parent is None or not pairs:
        return None
    iqr, gap = parent[2] - parent[1], parent[0] - change[0]
    return {"parent_q3_q1": iqr, "median_gap": gap, "lower_in": f"{lower_in}/{pairs}",
            "holds": 10 * lower_in >= 9 * pairs and gap > iqr}


def _commit(tree: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=tree,
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("-dirty" if dirty else "")


def _src_lines(tree: Path) -> dict:
    total = code = 0
    for path in sorted((tree / "src" / "goursatfd").glob("*.py")):
        t, c = count_lines(path.read_text(encoding="utf-8"))
        total, code = total + t, code + c
    return {"total": total, "code": code}


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One perfbench run: its JSON result, or a failed one naming the exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    record = tree / "perfbench" / "out" / f"result-{workload}-seed{SEED}-trace0.json"
    if record.is_file():
        result["context"] = json.loads(record.read_text(encoding="utf-8")).get("context")
    return result


def record(trees: dict, workloads, runs: int, seconds: float) -> dict:
    """Run every workload `runs` times on each of `trees` ({side: path}), pairs alternating."""
    sides = list(trees)
    out = {"command": f"perfbench/run.py --workload W --seconds {seconds} --trace 0",
           "runs": runs,
           "sides": {side: {"commit": _commit(tree), "src_lines": _src_lines(tree)}
                     for side, tree in trees.items()},
           "workloads": {}}
    for workload in workloads:
        results = {side: [] for side in sides}
        for i in range(runs):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                results[side].append(run_once(trees[side], workload, seconds))
        entry = {}
        for side in sides:
            done = results[side]
            values = {m: [r["metrics"][m]["value"] for r in done if m in r["metrics"]]
                      for m in METRICS}
            entry[side] = {m: _quartiles(values[m]) for m in METRICS}
            entry[side].update(
                correct=all(r["correct"] for r in done),
                failed=sum(r["failed"] or 0 for r in done),
                errors=[r["error"] for r in done if "error" in r],
                context=next((r["context"] for r in reversed(done) if r.get("context")), None))
        if len(sides) == 2:
            pairs = {m: [(a["metrics"][m]["value"], b["metrics"][m]["value"])
                         for a, b in zip(*results.values())
                         if m in a["metrics"] and m in b["metrics"]] for m in METRICS}
            entry["change_lower_in"] = {m: sum(a < b for a, b in pairs[m]) for m in METRICS}
            entry["claim"] = {m: claim(entry["change"][m], entry["parent"][m],
                                       entry["change_lower_in"][m], len(pairs[m]))
                              for m in METRICS}
        out["workloads"][workload] = entry
    return out


def main(argv=None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="the n of BENCH_<n>.json")
    parser.add_argument("--tree", type=Path, help="a parent checkout to pair the runs with")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = {"change": root}
    if args.tree is not None:
        trees["parent"] = args.tree.resolve()
    data = record(trees, args.workload or WORKLOADS, args.runs, args.seconds)
    path = root / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0 if all(entry[side]["correct"] for entry in data["workloads"].values()
                    for side in trees) else 1


if __name__ == "__main__":
    sys.exit(main())
