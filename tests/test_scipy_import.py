"""scipy is imported only by the code paths that use it.

Other test modules import scipy themselves, so these checks run in fresh
interpreters: there, a module that imports scipy at top level, or a
scipy-backed path that lost its own import, shows.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import goldsplit

_SRC = str(Path(goldsplit.__file__).resolve().parent.parent)


def _run_fresh(code, tmp_path):
    """Run CODE in a new interpreter that imports goldsplit from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dense_and_matrix_free_runs_leave_scipy_unloaded(tmp_path):
    out = _run_fresh("""
        import sys

        import goldsplit
        import goldsplit.cli
        from goldsplit import SolverConfig, run_solver
        from goldsplit.problems import (
            gen_fused_lasso, gen_inpainting, gen_lasso, synthetic_blocks_image)

        problems = (gen_lasso(20, 40, 3, seed=1), gen_fused_lasso(20, 40, seed=2),
                    gen_inpainting(synthetic_blocks_image(12, 12), seed=3))
        for problem in problems:
            for algorithm in ("aegrpda", "pgrpda"):
                _, trace, _ = run_solver(problem, SolverConfig(algorithm, max_iters=20),
                                         record_time=False)
                assert len(trace) == 20, (problem.name, algorithm)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """, tmp_path)
    assert out.strip() == "[]"


def test_scipy_backed_paths_import_it_themselves(tmp_path):
    (tmp_path / "toy.libsvm").write_text("+1 1:0.4 3:1.2\n-1 2:0.5\n+1 1:-0.3 2:0.2\n")
    out = _run_fresh("""
        import sys

        import numpy as np

        from goldsplit import ConstructionError
        from goldsplit.linops import CsrOperator, DenseOperator, GridIncidence, csr_from_triplets
        from goldsplit.problems import parse_libsvm
        from goldsplit.prox import Logistic

        assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
        try:
            CsrOperator(np.eye(2))
        except ConstructionError:
            pass
        else:
            raise AssertionError("a dense array passed as a CSR matrix")
        A = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
        labels = np.array([1.0, -1.0, 1.0])
        x = np.array([0.3, -0.2])
        s = 1.0 / (1.0 + np.exp(labels * (A @ x)))
        assert np.allclose(Logistic(A, labels).grad(x), -A.T @ (labels * s))
        op = csr_from_triplets(3, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, -1.0),
                                      (2, 0, 3.0), (2, 1, 0.5), (2, 1, 0.0)])
        assert np.array_equal(op.matvec(x), A @ x)
        assert np.array_equal(CsrOperator(op._mat).rmatvec(labels), A.T @ labels)
        grid = GridIncidence(2, 3)
        assert grid.shape.codomain_dim == 7 and grid.nnz == 14
        design, y = parse_libsvm("toy.libsvm")
        assert design.shape.codomain_dim == 3 and design.nnz == 5
        assert np.array_equal(y, [1.0, -1.0, 1.0])
        print("ok")
    """, tmp_path)
    assert out.strip() == "ok"
