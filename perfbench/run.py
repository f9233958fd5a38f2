"""Time-to-solution benchmark of the goldsplit solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. One process runs one solver at a time
(closed loop). Within the time budget it repeats whole passes of the
workload. With --trace 0 it prints the end-to-end metrics, each the best
of the run stage by stage (README.md says how and why), with the median,
the high percentile and the sample count beside it; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics as
medians over the traced passes. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

import os

# Pin BLAS to one thread before numpy loads: this is the single-threaded
# baseline, and it steadies the timings on a small shared host.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_JSON = Path(__file__).resolve().parent / "reference.json"


def import_library():
    """Import goldsplit from this checkout's source tree, never from elsewhere."""
    package = SRC / "goldsplit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no goldsplit source at {package}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import goldsplit

    if Path(goldsplit.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported goldsplit from {goldsplit.__file__}")


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_commit():
    """The checked-out commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_info():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / n) for n in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {"model": model, "caches": caches}


def environment():
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    thread_prefixes = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_info(),
        "threads": {
            k: v
            for k, v in sorted(os.environ.items())
            if k.startswith(thread_prefixes) or k.endswith("_NUM_THREADS")
        },
        "pinned": PINNED_THREADS,
        "git_commit": git_commit(),
    }


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_reference(name):
    entry = json.loads(REFERENCE_JSON.read_text()).get(name)
    if entry is None:
        raise SystemExit(f"perfbench: no reference F* for {name} in {REFERENCE_JSON}")
    return entry


def print_human(result, report):
    print(
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}: "
        f"passes {report['passes']}"
    )
    for name, metric in result["metrics"].items():
        stats = report["samples"].get(name)
        n = ""
        if stats:
            extra = "".join(
                f", {k} {v:.6g}" for k, v in stats.items() if k[0] == "p" and k[1:].isdigit()
            )
            n = (
                f" (n={stats['n']}: best pass {stats['best']:.6g}, "
                f"median {stats['median']:.6g}{extra})"
            )
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}{n}")
    print(f"  failed_frac {report['failed_frac']} solver runs")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({"report": report}))


def run_all(args):
    """Run every workload in its own process, so peak RSS is per workload."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        child = json.loads(lines[-1])
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    from perfbench.harness import evaluate
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        run_all(args)
        return
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    result, report = evaluate(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        load_reference(args.workload),
        declared_metrics(args.trace),
    )
    report["environment"] = environment()
    print_human(result, report)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
