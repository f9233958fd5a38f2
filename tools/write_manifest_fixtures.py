"""Write the on-disk format fixtures: one small generated instance per family.

    python tools/write_manifest_fixtures.py CHECKOUT [--out tests/data/manifests]

CHECKOUT is the root of a goldsplit checkout (the directory holding
``src/goldsplit``). For each family below the script runs that checkout's

    goldsplit generate <FIXTURES[family]> --out OUT/<family>

and leaves ``manifest.json`` plus its ``.bin`` payloads there, replacing
whatever the directory held. ``tests/test_manifest_fixtures.py`` loads the
checked-in files and regenerates them with the same flags, so a change to
the generators, the manifest writer or the loader that alters a byte fails
the test. Rewrite the fixtures only for an intended format change.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

# family -> generate flags (without --out)
FIXTURES = {
    "lasso": ["--family", "lasso", "--m", "10", "--n", "15", "--s", "3",
              "--scheme", "correlated", "--q", "0.6", "--lam", "0.05", "--seed", "11"],
    "fused_lasso": ["--family", "fused_lasso", "--m", "8", "--n", "12", "--seed", "12"],
    "graphnet": ["--family", "graphnet", "--n1", "4", "--n2", "3", "--m", "6",
                 "--alpha", "1.5", "--sparsity-fraction", "0.25", "--seed", "13"],
    "inpainting": ["--family", "inpainting", "--rows", "7", "--cols", "5",
                   "--missing-fraction", "0.25", "--seed", "14"],
    "strongly_convex": ["--family", "strongly_convex", "--m", "9", "--n", "6",
                        "--ridge", "0.5", "--seed", "15"],
}


def generate(checkout, flags, out):
    """Run CHECKOUT's ``goldsplit generate`` with FLAGS into OUT."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    return subprocess.run(
        [sys.executable, "-m", "goldsplit.cli", "generate", *flags, "--out", str(out)],
        env=env, capture_output=True, text=True,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="root of the goldsplit checkout to run")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1]
                                             / "tests" / "data" / "manifests"))
    args = parser.parse_args(argv)
    if not (Path(args.checkout) / "src" / "goldsplit").is_dir():
        parser.error(f"{args.checkout} holds no src/goldsplit")
    for family, flags in FIXTURES.items():
        out = Path(args.out) / family
        shutil.rmtree(out, ignore_errors=True)
        proc = generate(args.checkout, flags, out)
        if proc.returncode != 0:
            sys.exit(f"generate {family} failed: {proc.stderr.strip()}")
        print(out / "manifest.json")


if __name__ == "__main__":
    main()
