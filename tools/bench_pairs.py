"""Alternating paired perfbench runs of two checkouts.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K \
        [--json BENCH.json]

PARENT and CHANGE are roots of two goldsplit checkouts. Each pair runs

    python3 perfbench/run.py --workload W --seed K --seconds S --trace 0

once in each checkout, one after the other: odd pairs start with PARENT and
even pairs with CHANGE, so a slow phase of the host falls on both sides
alike. The script prints each pair's value of every end-to-end metric as
it finishes, then per metric each side's median and quartiles, the change
of the median relative to PARENT, whether that change exceeds PARENT's
interquartile range, and in how many pairs CHANGE was better. The last
lines give each side's failed and attempted solver runs. Which direction is
better comes from PARENT's BENCHMARK.json.

With --json the set is also recorded in the BENCH file at that path: each
side's commit and perfbench's environment block, every pair's values and
the summary statistics. A set is appended to the file's ``sets`` list, so
one file can hold several workloads, seeds and an A/A set (PARENT and
CHANGE the same commit), whose spread is the floor a change must exceed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root, args):
    """The result and report objects that perfbench prints last, from one run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: perfbench in {root} exited {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, help="append the set to this BENCH file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    results = {side: [] for side in SIDES}
    environment = {}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            result, report = run_once(roots[side], args)
            results[side].append(result)
            environment.setdefault(side, report["environment"])
        values = "  ".join(
            f"{name} {results['parent'][-1]['metrics'][name]['value']:.6g}"
            f" -> {results['change'][-1]['metrics'][name]['value']:.6g}"
            for name in lower_is_better
        )
        print(f"pair {pair} ({order[0]} first): {values}", flush=True)

    print(f"{args.workload}, {args.pairs} pairs at {args.seconds:g} s, seed {args.seed}:")
    summary = {}
    for name, lower in lower_is_better.items():
        series = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(series[side]) for side in SIDES)
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(series["parent"], series["change"])
        )
        rel = (cm - pm) / pm if pm else float("nan")
        summary[name] = {
            "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "median_change": rel,
            "parent_iqr_rel": (p3 - p1) / pm if pm else None,
            "gap_exceeds_parent_iqr": abs(cm - pm) > p3 - p1,
            "change_better": wins,
        }
        print(
            f"  {name}: parent median {pm:.6g} [{p1:.6g}, {p3:.6g}], "
            f"change median {cm:.6g} [{c1:.6g}, {c3:.6g}], {rel:+.1%}; "
            f"|gap| {'>' if abs(cm - pm) > p3 - p1 else '<='} parent IQR {p3 - p1:.3g}; "
            f"change better in {wins}/{args.pairs}"
        )
    for side in SIDES:
        failed = [r["failed"] for r in results[side]]
        attempted = sum(r["attempted"] for r in results[side])
        print(f"  {side} failed {sum(failed)}/{attempted} solver runs (per pair {failed})")
    if args.json:
        record(args, environment, results, summary)


def record(args, environment, results, summary):
    """Append this set to the BENCH file at ``args.json``."""
    bench = json.loads(args.json.read_text()) if args.json.exists() else {"sets": []}
    bench["sets"].append({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commits": {side: environment[side]["git_commit"] for side in SIDES},
        "environment": environment["parent"],
        "pairs": [
            {side: {"metrics": {k: v["value"] for k, v in results[side][i]["metrics"].items()},
                    "failed": results[side][i]["failed"],
                    "attempted": results[side][i]["attempted"]}
             for side in SIDES} | {"first": SIDES[i % 2]}
            for i in range(args.pairs)
        ],
        "summary": summary,
    })
    args.json.write_text(json.dumps(bench, indent=2) + "\n")


if __name__ == "__main__":
    main()
