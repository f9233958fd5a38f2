"""Alternating paired perfbench runs of two checkouts.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

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
    """The result object that perfbench prints last, from one run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: perfbench in {root} exited {proc.returncode}")
    return json.loads(lines[-1])


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
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    results = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            results[side].append(run_once(roots[side], args))
        values = "  ".join(
            f"{name} {results['parent'][-1]['metrics'][name]['value']:.6g}"
            f" -> {results['change'][-1]['metrics'][name]['value']:.6g}"
            for name in lower_is_better
        )
        print(f"pair {pair} ({order[0]} first): {values}", flush=True)

    print(f"{args.workload}, {args.pairs} pairs at {args.seconds:g} s, seed {args.seed}:")
    for name, lower in lower_is_better.items():
        series = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(series[side]) for side in SIDES)
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(series["parent"], series["change"])
        )
        rel = (cm - pm) / pm if pm else float("nan")
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


if __name__ == "__main__":
    main()
