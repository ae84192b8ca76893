"""Benchmark of the goursatfd solver: end-to-end solve metrics and a traced per-layer split.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from `src/` of the
same checkout and fails (exit 2, no result) if that is missing.  Each run
sets up once in-process and in several fresh set-up probes, runs one
untimed warm-up operation, then repeats the workload's operation, one at a
time on one thread, until about `--seconds` seconds have passed; every
operation's result is checked against the workload's reference values.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  With `--trace 0` the metrics are the
end-to-end ones, timed with tracing off; with `--trace 1` one untraced
operation is followed by traced ones, and the metrics are the per-layer
split plus the tracing overhead.  Details of every run (samples, deltas,
run context) and the spans of traced runs go to `perfbench/out/`.  The exit
code is 0 only if every operation passed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is mostly interpreter imports, whose speed drifts with the load on
# the machine; half the probes run before the operations and half after.
SETUP_PROBES = 8
# OpenBLAS spins one thread per core; on a shared 2-core machine any other
# load then slows a P=16 solve up to tenfold, so runs pin BLAS to one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_METRICS = (("setup_s", "s"), ("op_s", "s"), ("us_per_cell_rank", "us"),
                      ("peak_rss_mb", "MB"))


@dataclass
class OpRecord:
    kind: str  # "warmup" (gated, untimed), "plain" or "traced"
    wall: float
    deltas: dict
    failures: list


@dataclass
class Result:
    workload: object
    seed: int
    trace: int
    setup_samples: list
    ops: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    tracer: object = None
    blas_found: dict | None = None  # BLAS thread variables before pinning

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failures)

    @property
    def correct(self) -> bool:
        return bool(self.ops) and self.failed == 0

    def walls(self, kind) -> list:
        """Wall times of the passing operations of one kind (all of them if none passed)."""
        ops = [op for op in self.ops if op.kind == kind]
        return [op.wall for op in ops if not op.failures] or [op.wall for op in ops]

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": len(self.ops), "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


# ---------------------------------------------------------------------------
# measurement


def probe_setup(wl, inputs) -> float:
    """Set-up time of a fresh interpreter, as measured inside it."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), inputs.problem, str(wl.p)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(wl, seed: int, seconds: float, trace: int, probes: int | None = None,
                 blas_found: dict | None = None) -> Result:
    """Set up, then run operations for about `seconds`; metrics per `trace`.

    The first operation of a process runs about 30% slower than later ones
    (the C allocator adapts its thresholds to the solver's large temporaries),
    so one gated but untimed warm-up operation comes first.  Timed operations
    follow while the next is expected to end within `seconds` of the warm-up's
    start; there is always at least one.
    """
    import workloads
    from tracer import PER_LAYER_METRICS, Tracer

    probes = (SETUP_PROBES if probes is None else probes) if not trace else 0
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs = workloads.make_inputs(wl, seed, Path(tmp))
        samples = [probe_setup(wl, inputs) for _ in range(probes // 2)]
        import goursatfd as gf
        import goursatfd.cli  # noqa: F401

        problem, exact = workloads.setup(gf, wl, inputs)
        result = Result(wl, seed, trace, samples, blas_found=blas_found)
        tracer = Tracer()

        def one_op(kind, problem, exact) -> float:
            run = lambda: workloads.run_op(gf, wl, inputs, problem, exact)  # noqa: E731
            t0 = perf_counter()
            deltas = {}
            try:
                deltas = tracer.operation(run) if kind == "traced" else run()
                wall = perf_counter() - t0
                fails = workloads.gate(wl, deltas)
                if wl.kind == "cli" and not fails:
                    fails = workloads.check_cli_output(wl, inputs)
            except Exception as exc:  # a failed operation is counted; the run goes on
                wall = perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                fails = [f"{type(exc).__name__}: {exc}"]
            result.ops.append(OpRecord(kind, wall, deltas, fails))
            return wall

        def loop(kind, start, problem, exact):
            walls = []
            while True:
                walls.append(one_op(kind, problem, exact))
                if perf_counter() - start + statistics.median(walls) > seconds:
                    return

        start = perf_counter()
        one_op("warmup", problem, exact)
        if not trace:
            loop("plain", start, problem, exact)
        else:
            one_op("plain", problem, exact)
            tracer.install(gf)
            try:
                loop("traced", start, *tracer.traced_problem(problem, exact))
            finally:
                tracer.restore()
        samples += [probe_setup(wl, inputs) for _ in range(probes - probes // 2)]
        output_bytes = inputs.csv.stat().st_size if inputs.csv and inputs.csv.exists() else 0

    plain = result.walls("plain")
    if not trace:
        op_s = statistics.median(plain)
        values = {
            "setup_s": statistics.median(samples),
            "op_s": op_s,
            "us_per_cell_rank": op_s * 1e6 / wl.cell_ranks,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result.metrics = {name: (values[name], unit) for name, unit in END_TO_END_METRICS}
    else:
        per_op = [tracer.op_metrics(op) for op in tracer.op_ids()]
        for name, unit in PER_LAYER_METRICS:
            if name != "trace_overhead":
                result.metrics[name] = (statistics.median(m[name] for m in per_op), unit)
        if wl.kind == "cli":
            result.metrics["cli.output_bytes"] = (float(output_bytes), "B")
        result.metrics["trace_overhead"] = (
            statistics.median(result.walls("traced")) / statistics.median(plain) - 1.0, "ratio")
        result.tracer = tracer
        tracer.save(OUT / f"spans-{wl.name}-seed{seed}.npz")
    _write_record(result, inputs)
    return result


# ---------------------------------------------------------------------------
# run context and reporting


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(blas_found=None) -> dict:
    """Where and on what the numbers were taken.

    `blas_found` is the BLAS thread environment as the benchmark found it,
    before pinning; the environment the run used is recorded next to it.
    """
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    loc = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_found": blas_found,
        "blas_threads_used": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "fd_threads_env": os.environ.get("FD_THREADS"),
        "git_commit": _git_commit(),
        "src_loc": loc,
    }


def _write_record(result: Result, inputs):
    wl = result.workload
    record = {
        "workload": wl.name, "seed": result.seed, "seed_used": inputs.seed_used,
        "params": inputs.params, "trace": result.trace,
        "config": {"n1": wl.n, "n2": wl.n, "rank": wl.rank, "p": wl.p},
        "context": run_context(result.blas_found),
        "setup_samples_s": result.setup_samples,
        "ops": [{"wall_s": op.wall, "kind": op.kind,
                 "deltas": {str(k): v for k, v in op.deltas.items()},
                 "failures": op.failures} for op in result.ops],
        "result": result.line(),
    }
    path = OUT / f"result-{wl.name}-seed{result.seed}-trace{result.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")


def summary(result: Result) -> list:
    """Human-readable lines: every metric with its unit, delta and failed_ops."""
    wl = result.workload
    lines = [f"# {wl.name} seed={result.seed} trace={result.trace} "
             f"mesh={wl.n}x{wl.n} rank={wl.rank} P={wl.p}"]
    walls = result.walls("traced" if result.trace else "plain")
    if walls:
        q1, q3 = _quartiles(walls)
        lines.append(f"#   op wall: median {statistics.median(walls):.4f} s, "
                     f"q1 {q1:.4f} s, q3 {q3:.4f} s, n={len(walls)}")
    for name, (value, unit) in result.metrics.items():
        lines.append(f"#   {name} = {value:.6g} {unit}")
    last = result.ops[-1].deltas if result.ops else {}
    if last:
        m = max(last)
        lines.append(f"#   delta = {last[m]:.6e} (sup error, rank {m})")
    lines.append(f"#   failed_ops = {result.failed}/{len(result.ops)}")
    for op in result.ops:
        for failure in op.failures:
            lines.append(f"#   FAILED: {failure}")
    return lines


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS stays its own."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "goursatfd" / "__init__.py").is_file():
        print(f"error: no goursatfd package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    found = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update({k: "1" for k in BLAS_THREAD_VARS})  # before numpy loads BLAS
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    result = run_workload(wl, args.seed, args.seconds, args.trace, blas_found=found)
    print("\n".join(summary(result)))
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
