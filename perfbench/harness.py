"""Timed passes over a workload, the oracle tracer and the metrics built from them.

A pass is one closed-loop time-to-solution measurement: generate the
instance, make the set-up calls, then run every solver of the workload in
turn, one at a time. Set-up of a solver ends at its iteration-1 callback,
the first point the library exposes, so it includes one iteration.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import math
import resource
import time
import warnings
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from goldsplit import ALGORITHM_NAMES, GoldsplitError, run_solver

clock = time.perf_counter

# Every untraced run takes at least this many set-up samples.
MIN_SETUP_SAMPLES = 5
# Tolerance of the traced run's time accounting (an identity up to rounding).
ACCOUNTING_RTOL = 1e-6

# Methods shadowed on each oracle of a traced instance.
TRACED_METHODS = {
    "K": ("matvec", "rmatvec"),
    "f": ("prox", "value"),
    "g": ("prox", "value"),
    "h": ("grad", "value", "lipschitz"),
}


class Tracer:
    """Call counts and busy time per oracle method, split by phase.

    The phase is set-up until a solver's iteration-1 callback and solve
    after it. In the solve phase the tracer also sums the gaps between
    oracle calls: the solvers' self time, measured independently of the
    busy times. Only the outermost of nested oracle calls is timed.
    """

    def __init__(self):
        self.solving = False
        self.setup = {}
        self.solve = {}
        self.self_s = 0.0
        self._depth = 0
        self._last_exit = 0.0

    def start_loop(self, now):
        self.solving = True
        self._last_exit = now

    def end_loop(self, now):
        if self.solving:
            self.self_s += now - self._last_exit
        self.solving = False

    def wrap(self, problem):
        """A shallow copy of the instance whose oracles report to this tracer.

        Each oracle is shallow-copied and its methods are shadowed by
        instance attributes, so isinstance checks in the library still
        see the original classes.
        """
        oracles = {}
        for role, methods in TRACED_METHODS.items():
            oracle = copy.copy(getattr(problem, role))
            for method in methods:
                setattr(oracle, method, self._timed(f"{role}.{method}", getattr(oracle, method)))
            oracles[role] = oracle
        return dataclasses.replace(problem, **oracles)

    def _timed(self, key, fn):
        setup = self.setup[key] = [0, 0.0]
        solve = self.solve[key] = [0, 0.0]

        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._depth = 0
                if self.solving:
                    solve[0] += 1
                    solve[1] += end - start
                    self.self_s += start - self._last_exit
                    self._last_exit = end
                else:
                    setup[0] += 1
                    setup[1] += end - start

        return timed

    def total(self, phase, *keys):
        """(calls, busy seconds) summed over the given keys of one phase."""
        slots = getattr(self, phase)
        keys = keys or slots
        return sum(slots[k][0] for k in keys), sum(slots[k][1] for k in keys)


@dataclass
class SolverRun:
    algorithm: str
    setup_s: float = 0.0
    solve_s: float = 0.0
    iterations: int = 0
    stop_reason: str = ""
    F: float = math.nan
    psnr: float | None = None
    trace_rows: int = 0
    x_hash: str = ""
    warnings: tuple = ()
    error: str | None = None
    chunks: list = field(default_factory=list)


@dataclass
class Pass:
    gen_s: float = 0.0
    configs_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    runs: list = field(default_factory=list)
    tracer: Tracer | None = None
    dense_bytes: int = 0

    @property
    def time_to_solution_s(self):
        return self.setup_s + self.solve_s

    @property
    def setup_stages(self):
        """Set-up times in pass order: generation, stepsize calls, each solver's."""
        return [self.gen_s, self.configs_s] + [r.setup_s for r in self.runs]


class _SetupDone(Exception):
    """Raised from the iteration-1 callback of a set-up-only pass."""


def run_pass(workload, seed, tracer=None, setup_only=False):
    """One pass over the workload; times only the library's work.

    The relabelling and the benchmark's bookkeeping between solvers are
    outside the timed segments; time to solution is the sum of generation,
    the stepsize set-up calls and every solver call. The iteration callback
    also reads the clock every ``workload.chunk_iters`` iterations, which
    splits each loop into the chunks that chunked_best compares.
    """
    record = Pass(tracer=tracer)
    start = clock()
    problem = workload.build()
    record.gen_s = clock() - start
    problem, starts = workload.relabel(problem, np.random.default_rng(seed))
    matrix = getattr(problem.K, "matrix", None)
    record.dense_bytes = 0 if matrix is None else matrix.nbytes
    if tracer is not None:
        problem = tracer.wrap(problem)
    start = clock()
    configs = workload.configs(problem)
    record.configs_s = clock() - start
    record.setup_s = record.gen_s + record.configs_s

    chunk = workload.chunk_iters
    for cfg in configs:
        run = SolverRun(cfg.algorithm)
        loop_start = None
        stamps = []

        def mark(state):
            nonlocal loop_start
            if state.n == 1:
                loop_start = clock()
                stamps.append(loop_start)
                if setup_only:
                    raise _SetupDone
                if tracer is not None:
                    tracer.start_loop(loop_start)
            elif state.n % chunk == 0:
                stamps.append(clock())

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call = clock()
            try:
                state, trace, summary = run_solver(problem, cfg, callback=mark, **starts)
            except _SetupDone:
                state = None
            except GoldsplitError as exc:
                state = None
                run.error = f"{type(exc).__name__}: {exc}"
            end = clock()
        if tracer is not None:
            tracer.end_loop(end)
        if loop_start is None:
            run.setup_s = end - call
        else:
            run.setup_s = loop_start - call
            run.solve_s = end - loop_start
            stamps.append(end)
            run.chunks = np.diff(stamps).tolist()
        record.setup_s += run.setup_s
        record.solve_s += run.solve_s
        run.warnings = tuple(str(w.message) for w in caught)
        if state is not None:
            run.iterations = summary.iterations
            run.stop_reason = summary.stop_reason
            run.F = summary.final["F"]
            run.psnr = summary.final.get("psnr")
            run.trace_rows = len(trace)
            run.x_hash = hashlib.sha256(state.x.tobytes() + state.y.tobytes()).hexdigest()
        record.runs.append(run)
    return record


def check_run(workload, run, f_star):
    """Why a solver run fails the workload's acceptance test, or None."""
    if run.error:
        return run.error
    if run.stop_reason != "stop_tol":
        return f"stopped by {run.stop_reason} after {run.iterations} iterations"
    tol = workload.f_rtol * max(1.0, abs(f_star))
    if run.F < f_star - tol:
        return f"F = {run.F!r} lies below the reference F* = {f_star!r}: bad reference"
    if run.F > f_star + tol:
        return f"F - F* = {run.F - f_star:.3e} exceeds the tolerance {tol:.3e}"
    if workload.min_psnr is not None and not (run.psnr >= workload.min_psnr):
        return f"PSNR {run.psnr} dB below {workload.min_psnr} dB"
    return None


def signature(record):
    """What a traced pass must reproduce: per-solver counts, iterates, warnings."""
    return [
        (r.algorithm, r.iterations, r.stop_reason, r.x_hash, r.warnings, r.trace_rows)
        for r in record.runs
    ]


def layer_metrics(record):
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json name."""
    t = record.tracer
    loop_iters = sum(max(r.iterations - 1, 0) for r in record.runs)
    per_iter = 1.0 / loop_iters if loop_iters else 0.0
    norm_calls, norm_s = t.total("setup", "K.matvec", "K.rmatvec")
    mv_calls, mv_s = t.total("solve", "K.matvec")
    rmv_calls, rmv_s = t.total("solve", "K.rmatvec")
    f_calls, f_s = t.total("solve", "f.prox")
    g_calls, g_s = t.total("solve", "g.prox")
    grad_calls, grad_s = t.total("solve", "h.grad")
    _, lip_s = t.total("setup", "h.lipschitz")
    _, lip_solve_s = t.total("solve", "h.lipschitz")
    _, value_s = t.total("solve", "f.value", "g.value", "h.value")
    K_s = mv_s + rmv_s
    K_calls = mv_calls + rmv_calls
    metrics = {
        "problems.gen_s": record.gen_s,
        "linops.norm_s": norm_s,
        "linops.norm_applies": norm_calls,
        "linops.K_matvec_s": mv_s,
        "linops.K_matvec_calls": mv_calls,
        "linops.K_rmatvec_s": rmv_s,
        "linops.K_rmatvec_calls": rmv_calls,
        "linops.K_applies_per_iter": K_calls * per_iter,
        "linops.K_gbps_computed": record.dense_bytes * K_calls / K_s / 1e9 if K_s else 0.0,
        "prox.f_prox_s": f_s,
        "prox.f_prox_calls": f_calls,
        "prox.g_prox_s": g_s,
        "prox.g_prox_calls": g_calls,
        "prox.h_grad_s": grad_s,
        "prox.h_grad_calls": grad_calls,
        "prox.h_lipschitz_s": lip_s + lip_solve_s,
        "metrics.trace_rows": sum(r.trace_rows for r in record.runs),
        "metrics.value_s": value_s,
        "solvers.self_s": t.self_s,
        "solvers.self_us_per_iter": 1e6 * t.self_s * per_iter,
        "solvers.iterations": sum(r.iterations for r in record.runs),
        "solvers.us_per_iter": 1e6 * record.solve_s * per_iter,
    }
    for name in ALGORITHM_NAMES:
        runs = [r for r in record.runs if r.algorithm == name]
        metrics[f"solvers.{name}.iterations"] = sum(r.iterations for r in runs)
        metrics[f"solvers.{name}.solve_s"] = sum(r.solve_s for r in runs)
    return metrics


def accounting_error(record):
    """|solve-phase oracle busy time + self time - solve_s|, relative to solve_s.

    Zero up to rounding when every oracle call inside the loops went through
    the tracer in the right phase and none was timed twice.
    """
    t = record.tracer
    _, busy = t.total("solve")
    return abs(busy + t.self_s - record.solve_s) / record.solve_s


def chunked_best(runs):
    """A solver's loop time assembled from its fastest pass through each chunk.

    ``runs`` are the same solver's runs from every pass; their chunks cover
    the same iterations, since every pass repeats the first one exactly.
    Falls back to the best whole loop if the chunkings differ.
    """
    chunks = [r.chunks for r in runs]
    if len({len(c) for c in chunks}) != 1:
        return min(float(np.sum(c)) for c in chunks)
    return float(np.min(chunks, axis=0).sum())


def high_percentile(values):
    """The highest percentile with at least ten samples above it, or None.

    Returns (percent, value) using the nearest-rank sample below those ten.
    """
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    return math.floor(100 * (n - 10) / n), ordered[n - 11]


def summarize(values):
    """Best, median, the highest percentile with ten samples beyond it, and n."""
    out = {"best": min(values), "median": median(values), "n": len(values), "values": values}
    high = high_percentile(values)
    if high is not None:
        out[f"p{high[0]}"] = high[1]
    return out


def measure(workload, seed, seconds, trace):
    """Repeat cycles while the next one, as long as the last, fits the budget.

    A cycle is a full untraced pass followed, with trace, by a traced pass
    and, without, by a set-up-only pass. There is always one cycle, and an
    untraced run then tops its set-up samples up to MIN_SETUP_SAMPLES.
    """
    plain, traced, setups = [], [], []
    deadline = clock() + seconds
    cycle = 0.0
    while not plain or clock() + cycle <= deadline:
        begin = clock()
        gc.collect()
        plain.append(run_pass(workload, seed))
        gc.collect()
        if trace:
            traced.append(run_pass(workload, seed, Tracer()))
        else:
            setups.append(run_pass(workload, seed, setup_only=True))
        cycle = clock() - begin
    while not trace and len(plain) + len(setups) < MIN_SETUP_SAMPLES:
        gc.collect()
        setups.append(run_pass(workload, seed, setup_only=True))
    return plain, traced, setups


def evaluate(workload, seed, seconds, trace, reference, declared):
    """Measure one workload and check its answers.

    End-to-end times are best-of-run per stage: setup_s sums the best time
    of each set-up stage, solve_s sums each solver's chunked best loop time
    (see chunked_best), and time_to_solution_s is their sum. Interference
    on a shared host only ever slows a stage down, and much of it comes and
    goes within seconds, so the best of each short stage depends least on
    how busy the host was. Per-layer metrics are medians over the traced
    passes.
    ``reference`` holds the workload's F*; ``declared`` maps each metric name
    the run must report to its unit. Returns the result object (correct,
    attempted, failed, metrics) and a report with the samples and checks.
    """
    plain, traced, setups = measure(workload, seed, seconds, trace)
    f_star = reference["F_star"]

    problems = []
    attempted = failed = 0
    for record in plain + traced:
        for run in record.runs:
            attempted += 1
            why = check_run(workload, run, f_star)
            if why is not None:
                failed += 1
                problems.append(f"{run.algorithm}: {why}")
    expected = signature(plain[0])
    if any(signature(p) != expected for p in plain[1:]):
        problems.append("untraced passes differ in iterations, iterates or warnings")
    if any(signature(p) != expected for p in traced):
        problems.append("a traced pass differs from the untraced ones (transparency)")
    for record in traced:
        err = accounting_error(record)
        if not err <= ACCOUNTING_RTOL:
            problems.append(f"oracle busy + self time misses solve_s by {err:.2e}")

    samples = {
        "time_to_solution_s": [p.time_to_solution_s for p in plain],
        "setup_s": [p.setup_s for p in plain + setups],
        "solve_s": [p.solve_s for p in plain],
    }
    for i, run in enumerate(plain[0].runs):
        samples[f"solve_s.{run.algorithm}"] = [p.runs[i].solve_s for p in plain]
    if trace:
        layers = [layer_metrics(p) for p in traced]
        samples = {k: [m[k] for m in layers] for k in layers[0]}
        metrics = {k: median(v) for k, v in samples.items()}
        metrics["trace.overhead_frac"] = (
            median([p.solve_s for p in traced]) / median([p.solve_s for p in plain]) - 1.0
        )
    else:
        setup_s = float(np.min([p.setup_stages for p in plain + setups], axis=0).sum())
        solve_s = sum(chunked_best(p.runs[i] for p in plain) for i in range(len(plain[0].runs)))
        metrics = {
            "time_to_solution_s": setup_s + solve_s,
            "setup_s": setup_s,
            "solve_s": solve_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")

    problems = list(dict.fromkeys(problems))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": {"untraced": len(plain), "traced": len(traced), "setup_only": len(setups)},
        "failed_frac": f"{failed}/{attempted}",
        "problems": problems,
        "reference": reference,
        "solvers": [
            {
                "algorithm": r.algorithm,
                "iterations": r.iterations,
                "stop_reason": r.stop_reason,
                "F_gap": r.F - f_star,
                "psnr": r.psnr,
                "warnings": list(r.warnings),
            }
            for r in plain[0].runs
        ],
        "samples": {k: summarize(v) for k, v in samples.items()},
    }
    return result, report


def compute_reference(workload):
    """F* of the workload from one long aegrpda run, with its provenance.

    Runs on the unrelabelled instance from the zero start; every seed's
    relabelling leaves F* unchanged. As in acceptance criterion 10a, F* is
    the smallest objective over the trace.
    """
    problem = workload.build()
    cfg = workload.reference_config
    _, trace, summary = run_solver(problem, cfg, record_time=False)
    F = trace.column("F")
    f_star = float(np.nanmin(F))
    return {
        "F_star": f_star,
        "provenance": (
            f"{problem.name}, identity relabelling, zero start: aegrpda tau0={cfg.tau0} "
            f"psi={cfg.psi} beta={cfg.beta}, {summary.iterations} iterations, trace "
            f"stride {cfg.trace_stride}; F* = min F over the trace; the last ten rows "
            f"rise {float(np.nanmax(F[-10:])) - f_star:.1e} above it; final ||x-z|| "
            f"{summary.final['xz']:.1e}"
        ),
    }
