"""Set-up steps shared by the benchmark and its set-up probe.

Set-up is: import `goursatfd`, build or load the workload's problem, and run
one 1x1 rank-0 solve at the workload's Chebyshev order so that every
per-order cache is filled before the first timed operation.

Run as a script, this module times those steps in a fresh interpreter and
prints {"setup_s": ...}; the benchmark starts several such probes and reports
their median.  Timing starts before `goursatfd` (and with it numpy) is first
imported, so this file imports nothing heavy at module level.

    python3 perfbench/probe.py SRC_DIR PROBLEM CHEB_ORDER
"""

import sys
import time


def load_problem(gf, problem):
    """(GoursatProblem, exact) for the `liouville` preset or a problem file."""
    if problem == "liouville":
        preset = gf.liouville_problem()
    else:
        preset = gf.cli.load_problem_file(problem)
    return preset.problem, preset.exact


def warm(gf, problem, p):
    """One 1x1 rank-0 solve at order p: builds the per-order cell engine."""
    gf.fd_solve(problem, 1, 1, 0, p)


def main(argv):
    start = time.perf_counter()
    src, problem, p = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, src)
    import goursatfd as gf
    import goursatfd.cli  # noqa: F401  (the cli workload loads its problem through it)

    warm(gf, load_problem(gf, problem)[0], p)
    elapsed = time.perf_counter() - start
    print('{"setup_s": %.9f}' % elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
