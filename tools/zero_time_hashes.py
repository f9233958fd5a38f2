"""Byte-identity fingerprint of every solver run through a checkout's CLI.

    python tools/zero_time_hashes.py CHECKOUT [--max-iters N]

CHECKOUT is the root of a goldsplit checkout (the directory holding
``src/goldsplit``). The script generates each instance with that
checkout's ``goldsplit generate``, then runs each solver alone with
``goldsplit run --zero-time`` on every setting below, and prints one line
per run:

    <setting> <solver> exit=<code> csv=<sha256|-> summary=<sha256|-> cviol=<sha256|-> stderr=<text>

``csv`` hashes every trace column except ``cviol``, ``summary`` hashes the
summary JSON without its cviol-derived values (``final.cviol`` and the
``cviol_loglog_slope`` fit), and ``cviol`` hashes those values. The
constraint violation is the only output read from the ergodic averages, so
a change that only re-rounds them differs in ``cviol`` alone.

The ``lasso-config`` setting takes its parameters from a ``--config``
file (``CONFIG``, written into the script's temp directory) instead of
flags, so the merge of ``--config`` sections into each solver's
configuration is fingerprinted as well. The ``lasso-fstar-ref`` setting
computes F\* with a 300-iteration ``--fstar-ref-iters`` reference run
before each solver, so the reference run, and the F\* and provenance it
puts in every summary, are fingerprinted too; it runs on its own copy of
the lasso instance, because the reference run records F\* in the
manifest, where the other lasso settings would read it.

The next line fingerprints the power iteration itself, on operators of
every kind, not only the dense ``k_norm`` of the run summaries:

    norms sha256=<sha256>

It hashes ``estimate_operator_norm(op, tol, seed).hex()`` for each
operator of ``_NORMS``, tolerances 1e-8 and 1e-13 and seeds 0 and 1, each
estimated twice on the same object, so the estimate an operator keeps and
returns on a repeat call is fingerprinted too.

The last line fingerprints the acceptance battery's cheap suites:

    verify exit=<code> report=<sha256|->

``report`` hashes the ``--report`` JSON of ``goldsplit verify --suite
VERIFY_SUITES`` with every ``elapsed`` removed, so a change to any check,
its name or its detail shows, and its timing does not.

Run it on two checkouts and diff the outputs: a refactor or a speed-up that
keeps every iterate and every check prints the same lines. Warnings are
printed without their source location, so moving a line of code does not
change them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SOLVERS = ("pgrpda", "aegrpda", "egrpda", "condat_vu", "pdhg", "grpda", "agraal")

# Runs the checkout's CLI with location-free warnings.
_CLI = (
    "import sys, warnings\n"
    "warnings.formatwarning = lambda m, c, *a, **k: f'{c.__name__}: {m}\\n'\n"
    "from goldsplit.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)

INSTANCES = {
    "lasso": ["--family", "lasso", "--m", "50", "--n", "100", "--s", "5", "--seed", "1"],
    "lasso_ref": ["--family", "lasso", "--m", "50", "--n", "100", "--s", "5", "--seed", "1"],
    "fused_lasso": ["--family", "fused_lasso", "--m", "40", "--n", "80", "--seed", "2"],
    "graphnet": ["--family", "graphnet", "--n1", "8", "--n2", "8", "--m", "40", "--seed", "3"],
    "strongly_convex": ["--family", "strongly_convex", "--m", "40", "--n", "60", "--seed", "4"],
    "inpainting_24x20": ["--family", "inpainting", "--rows", "24", "--cols", "20", "--seed", "5"],
    "inpainting_16x8": ["--family", "inpainting", "--rows", "16", "--cols", "8", "--seed", "6"],
    # an odd grid: no view of the run's block fills whole cache lines
    "inpainting_13x11": ["--family", "inpainting", "--rows", "13", "--cols", "11", "--seed", "8"],
}

_STEPS = ["--tau", "0.5/K", "--sigma", "0.5/K"]

# setting name -> (instance name or "libsvm", run flags)
SETTINGS = {
    "lasso-y0-zero": ("lasso", ["--y0", "zero", *_STEPS]),
    "lasso-y0-neg-b": ("lasso", ["--y0", "neg-b", "--tau0", "5", "--beta", "0.2", *_STEPS]),
    "lasso-extended": ("lasso", ["--y0", "neg-b", "--extended", "--psi", "1.8", "--mu", "0.7",
                                 "--mu-prime", "0.2", *_STEPS]),
    "lasso-stop-1e-6-neg-b": ("lasso", ["--y0", "neg-b", "--stop-tol", "1e-6", *_STEPS]),
    "lasso-stop-1e-4-neg-b": ("lasso", ["--y0", "neg-b", "--stop-tol", "1e-4", *_STEPS]),
    "lasso-stop-1e-6-zero": ("lasso", ["--y0", "zero", "--stop-tol", "1e-6", *_STEPS]),
    "fused-lasso": ("fused_lasso", ["--tau", "0.4/K", "--sigma", "0.4/K"]),
    "graphnet": ("graphnet", ["--tau", "0.4/K", "--sigma", "0.4/K"]),
    "strongly-convex": ("strongly_convex", ["--tau", "0.1/K", "--sigma", "0.1/K"]),
    "strongly-convex-diverging": ("strongly_convex", ["--tau", "5/K", "--sigma", "5/K"]),
    "inpainting-24x20-damaged": ("inpainting_24x20", ["--x0", "damaged", *_STEPS]),
    "inpainting-16x8": ("inpainting_16x8", [*_STEPS]),
    "inpainting-13x11": ("inpainting_13x11", [*_STEPS]),
    "logistic-1": ("libsvm", ["--setting", "1", *_STEPS]),
    "logistic-2": ("libsvm", ["--setting", "2", *_STEPS]),
    "lasso-config": ("lasso", ["--config", "{tmp}/config.json"]),
    "lasso-fstar-ref": ("lasso_ref", ["--y0", "neg-b", "--fstar-ref-iters", "300", *_STEPS]),
}

# Prints the power-iteration estimate of each operator kind, in hex, one per
# line, and again from a repeat call on the same object.
_NORMS = (
    "import numpy as np\n"
    "from goldsplit.linops import (DenseOperator, DiscreteGradient2D, FirstDifference,\n"
    "    GramOperator, GridIncidence, IdentityOperator, csr_from_triplets,\n"
    "    estimate_operator_norm)\n"
    "rng = np.random.default_rng(19)\n"
    "rows, cols = rng.integers(0, 30, 120), rng.integers(0, 45, 120)\n"
    "triplets = [(int(r), int(c), float(v))\n"
    "            for r, c, v in zip(rows, cols, rng.standard_normal(120))]\n"
    "A = rng.standard_normal((50, 100))\n"
    "ops = [DenseOperator(A), csr_from_triplets(30, 45, triplets), FirstDifference(40),\n"
    "       DiscreteGradient2D(13, 11), GridIncidence(6, 7), GramOperator(DenseOperator(A)),\n"
    "       IdentityOperator(9), DenseOperator(np.zeros((4, 6))),\n"
    "       DenseOperator(rng.standard_normal((100, 50)))]\n"
    "for op in ops:\n"
    "    for tol in (1e-8, 1e-13):\n"
    "        for seed in (0, 1):\n"
    "            for _ in range(2):\n"
    "                print(estimate_operator_norm(op, tol=tol, seed=seed).hex())\n"
)

# the acceptance suites of the verify line (about 4 s on a 2-core host)
VERIFY_SUITES = "prox,operators,stepsize,determinism"

# the --config file of the lasso-config setting
CONFIG = {
    "defaults": {"tau": "0.5/K", "sigma": "0.5/K", "tau0": 5, "beta": 0.2},
    "pgrpda": {"mu": 0.6, "mu_prime": 0.2},
}


def write_libsvm_file(path, m=60, n=30, density=0.3, seed=7):
    """A seeded sparse classification problem in LIBSVM text."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    lines = []
    for _ in range(m):
        cols = np.flatnonzero(rng.random(n) < density)
        vals = rng.standard_normal(cols.size)
        label = 1 if vals @ w[cols] + 0.1 * rng.standard_normal() > 0 else -1
        feats = " ".join(f"{c + 1}:{v:.6f}" for c, v in zip(cols, vals))
        lines.append(f"{label} {feats}".rstrip())
    Path(path).write_text("\n".join(lines) + "\n")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _hashes(csv_path, summary_path):
    """(csv, summary, cviol) hashes of one run's outputs; "-" for a missing file."""
    cviol = []
    csv = summary = "-"
    if csv_path.exists():
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        col = rows[0].index("cviol")
        cviol.append([row.pop(col) for row in rows])
        csv = _sha("\n".join(",".join(row) for row in rows))
    if summary_path.exists():
        payload = json.loads(summary_path.read_text())
        cviol.append([payload["final"].pop("cviol", None),
                      payload["fits"].pop("cviol_loglog_slope", None)])
        summary = _sha(json.dumps(payload, sort_keys=True))
    return csv, summary, _sha(json.dumps(cviol)) if cviol else "-"


def _python(checkout, code, args=()):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def _cli(checkout, args):
    return _python(checkout, _CLI, args)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="root of the goldsplit checkout to run")
    parser.add_argument("--max-iters", type=int, default=400)
    args = parser.parse_args(argv)
    if not (Path(args.checkout) / "src" / "goldsplit").is_dir():
        parser.error(f"{args.checkout} holds no src/goldsplit")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sources = {"libsvm": ["--libsvm", str(tmp / "data.libsvm")]}
        write_libsvm_file(tmp / "data.libsvm")
        (tmp / "config.json").write_text(json.dumps(CONFIG))
        for name, gen_args in INSTANCES.items():
            proc = _cli(args.checkout, ["generate", *gen_args, "--out", str(tmp / name)])
            if proc.returncode != 0:
                sys.exit(f"generate {name} failed: {proc.stderr.strip()}")
            sources[name] = ["--manifest", str(tmp / name / "manifest.json")]
        for setting, (source, flags) in SETTINGS.items():
            for solver in SOLVERS:
                out = tmp / "runs" / setting / solver
                proc = _cli(args.checkout, [
                    "run", *sources[source], "--solvers", solver,
                    *(flag.format(tmp=tmp) for flag in flags),
                    "--max-iters", str(args.max_iters), "--trace-stride", "5",
                    "--zero-time", "--out", str(out),
                ])
                stderr = proc.stderr.replace(str(tmp), "<tmp>").strip()
                csv, summary, cviol = _hashes(out / f"{solver}.csv",
                                              out / f"{solver}_summary.json")
                print(f"{setting} {solver} exit={proc.returncode} csv={csv} "
                      f"summary={summary} cviol={cviol} stderr={json.dumps(stderr)}",
                      flush=True)
        proc = _python(args.checkout, _NORMS)
        if proc.returncode != 0:
            sys.exit(f"norms failed: {proc.stderr.strip()}")
        print(f"norms sha256={_sha(proc.stdout)}", flush=True)
        report_path = tmp / "verify.json"
        proc = _cli(args.checkout, ["verify", "--suite", VERIFY_SUITES,
                                    "--report", str(report_path)])
        report = "-"
        if report_path.exists():
            payload = json.loads(report_path.read_text())
            payload.pop("elapsed")
            for check in payload["checks"]:
                check.pop("elapsed")
            report = _sha(json.dumps(payload, sort_keys=True))
        print(f"verify exit={proc.returncode} report={report}", flush=True)


if __name__ == "__main__":
    main()
