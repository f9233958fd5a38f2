"""Set-up and loop times and minor page faults of each pass of a perfbench workload.

    python tools/loop_faults.py CHECKOUT --workload W --passes N [--seed K]

CHECKOUT is the root of a goldsplit checkout (the directory holding
``src/goldsplit`` and ``perfbench/``); its library and its
``perfbench/workloads.py`` are imported, and nothing is written. Each pass
repeats what a timed ``perfbench`` pass does: generate and relabel the
instance, make the stepsize set-up calls, then run every solver of the
workload. Set-up is generation, the set-up calls and each solver's start
up to its iteration-1 callback, as in ``perfbench``, so it includes one
iteration; the loop is the rest of the run. Faults are getrusage
``ru_minflt`` of this process over the same spans. One line per pass:

    pass <i>: setup <ms> ms <faults> faults; loop <ms> ms <faults> faults over <n> iterations (<faults/iteration>); peak rss <MiB> MiB; scipy <yes|no>

The peak RSS is this process's getrusage ``ru_maxrss`` so far, and scipy
says whether any ``scipy`` module is loaded in it at the end of the pass.

A pass whose set-up faults do not fall to 0 after the first passes, or
whose loop takes a fault per iteration or more, is paging its temporaries
in again (glibc returning freed heap to the system between them).
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import time
from pathlib import Path


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)


def run_pass(workload, seed, run_solver, np):
    """(set-up s, set-up faults, loop s, loop faults, loop iterations) of one pass."""
    setup_s = loop_s = 0.0
    setup_faults = loop_faults = iterations = 0
    faults, start = minor_faults(), time.perf_counter()
    problem = workload.build()
    setup_s += time.perf_counter() - start
    setup_faults += minor_faults() - faults
    # the relabelling is outside the timed set-up, as in perfbench
    problem, starts = workload.relabel(problem, np.random.default_rng(seed))
    faults, start = minor_faults(), time.perf_counter()
    configs = workload.configs(problem)
    setup_s += time.perf_counter() - start
    setup_faults += minor_faults() - faults
    for cfg in configs:
        marks = []

        def mark(state):
            if state.n == 1:
                marks.append((time.perf_counter(), minor_faults()))

        faults, start = minor_faults(), time.perf_counter()
        _, _, summary = run_solver(problem, cfg, callback=mark, **starts)
        end, end_faults = time.perf_counter(), minor_faults()
        loop_start, loop_faults_start = marks[0] if marks else (end, end_faults)
        setup_s += loop_start - start
        setup_faults += loop_faults_start - faults
        loop_s += end - loop_start
        loop_faults += end_faults - loop_faults_start
        iterations += max(summary.iterations - 1, 0)
    return setup_s, setup_faults, loop_s, loop_faults, iterations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    if not (root / "src" / "goldsplit").is_dir() or not (root / "perfbench").is_dir():
        parser.error(f"{args.checkout} holds no src/goldsplit and perfbench/")
    sys.path[:0] = [str(root / "src"), str(root)]

    import numpy as np
    from goldsplit import run_solver
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    for i in range(1, args.passes + 1):
        gc.collect()
        setup_s, setup_faults, loop_s, loop_faults, iterations = run_pass(
            workload, args.seed, run_solver, np)
        per_iter = loop_faults / iterations if iterations else 0.0
        print(f"pass {i}: setup {1e3 * setup_s:.2f} ms {setup_faults} faults; "
              f"loop {1e3 * loop_s:.1f} ms {loop_faults} faults over {iterations} "
              f"iterations ({per_iter:.3f}/iteration); peak rss {peak_rss_mib():.1f} MiB; "
              f"scipy {'yes' if scipy_loaded() else 'no'}", flush=True)


if __name__ == "__main__":
    main()
