"""Compute the reference optimum F* of each workload into reference.json.

    python3 perfbench/reference.py [NAME ...]

Run from the repository root, outside any timed measurement. Each entry
is one long aegrpda run (see perfbench.harness.compute_reference) and
records its provenance. With no names, every workload is recomputed.
"""

import json
import sys

import run  # pins BLAS threads before numpy loads

run.import_library()

from perfbench.harness import compute_reference  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(names):
    path = run.REFERENCE_JSON
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in names or list(WORKLOADS):
        table[name] = compute_reference(WORKLOADS[name])
        print(name, table[name], flush=True)
        path.write_text(json.dumps(table, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
