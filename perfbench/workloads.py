"""The benchmark's workloads: one seeded instance each, and the solvers run on it.

Every workload builds one fixed instance through the library generator (its
generation seed belongs to the workload), then relabels it from the
benchmark seed by an exact symmetry of the problem. A relabelled instance
has the same optimal value and, in exact arithmetic, the same iterates up to
the relabelling, so every seed needs the same number of iterations and the
stored reference optimum serves every seed. Drawing a fresh instance per
seed instead moves the iteration counts by 20% (lasso 50x100) to 2x
(inpainting masks), which would drown any code change in instance noise.
The relabellings also leave the power iterations behind the stepsizes on
the same path, so set-up work does not depend on the seed either.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from goldsplit import (
    GOLDEN,
    DenseOperator,
    DiscreteGradient2D,
    LeastSquares,
    MaskedLeastSquares,
    SolverConfig,
    SquaredL2Prox,
    estimate_operator_norm,
    gen_fused_lasso,
    gen_inpainting,
    gen_lasso,
    synthetic_blocks_image,
)


# Trace rows (objective and residual evaluations) every this many iterations.
TRACE_STRIDE = 100


@dataclass(frozen=True)
class Workload:
    """One instance family member plus its solvers, stop rule and acceptance test.

    ``build`` is the timed library generator call. ``relabel`` maps the
    instance and a seeded generator to the relabelled instance and the
    keyword arguments (``x0``/``y0``) every solver starts from. ``solvers``
    runs inside the timed set-up: it makes the operator-norm and Lipschitz
    calls that fixed stepsizes need and returns the configurations in run
    order. A solver run passes when it stops by ``stop_tol`` before
    ``max_iters`` and its objective is within ``f_rtol * max(1, |F*|)`` of the
    reference F* (and, with ``min_psnr``, reaches that PSNR in dB).
    ``chunk_iters`` sets how many iterations make one timed chunk of a
    loop; it is chosen to give about 5 ms of work.
    """

    name: str
    build: Callable
    relabel: Callable
    solvers: Callable
    stop_tol: float
    max_iters: int
    f_rtol: float
    reference_config: SolverConfig
    chunk_iters: int
    min_psnr: float | None = None

    def configs(self, problem):
        """Solver configurations with this workload's stop rule and cap, in run order."""
        return [
            dataclasses.replace(
                cfg,
                stop_tol=self.stop_tol,
                max_iters=self.max_iters,
                trace_stride=TRACE_STRIDE,
            )
            for cfg in self.solvers(problem)
        ]


def relabel_lasso(problem, rng):
    """Permute the rows of K together with b (and the start y0 = -b).

    Only the codomain is permuted: K*K is unchanged, so the power iteration
    behind ||K|| takes the same path for every seed, and so do the primal
    iterates.
    """
    b = problem.meta["b"]
    rows = rng.permutation(b.size)
    b_new = b[rows]
    relabelled = dataclasses.replace(
        problem,
        K=DenseOperator(problem.K.matrix[rows]),
        g=SquaredL2Prox(problem.g.weight, b_new),
        meta={**problem.meta, "b": b_new},
    )
    return relabelled, {"y0": -b_new}


def relabel_fused_lasso(problem, rng):
    """Permute the data rows of (A, b) and flip the sign of b.

    The least-squares term is invariant under row permutations, and a sign
    flip of b maps the solution x to -x, which both l1 terms ignore; the
    zero start is fixed. A^T A is unchanged, so the power iteration behind
    the smoothness constant takes the same path for every seed.
    """
    A = problem.meta["A"]
    b = problem.meta["b"]
    rows = rng.permutation(b.size)
    sign = float(rng.choice((-1.0, 1.0)))
    A_new = A[rows]
    b_new = sign * b[rows]
    relabelled = dataclasses.replace(
        problem,
        h=LeastSquares(A_new, b_new, scale=problem.h.scale),
        x_true=sign * problem.x_true,
        meta={**problem.meta, "A": A_new, "b": b_new},
    )
    return relabelled, {}


def relabel_inpainting(problem, rng):
    """Optionally transpose the image and invert its intensities.

    Transposition swaps the two gradient channels pixel by pixel, which the
    isotropic group norm does not see. Inversion u -> 1 - u negates the
    gradient (K 1 = 0) and the masked residual; it maps the zero start to
    the all-ones start, which the solver is given. Transposition permutes
    the power iteration's start vector; at this size that iteration runs to
    its 5000-step cap either way.
    """
    rows, cols = problem.dims["rows"], problem.dims["cols"]
    image = problem.x_true.reshape(rows, cols)
    mask = problem.meta["mask"].reshape(rows, cols)
    if rng.integers(2):
        image, mask = image.T, mask.T
        rows, cols = cols, rows
    invert = bool(rng.integers(2))
    if invert:
        image = 1.0 - image
    x_true = image.ravel().copy()
    mask = mask.ravel().copy()
    b = mask * x_true
    relabelled = dataclasses.replace(
        problem,
        K=DiscreteGradient2D(rows, cols),
        h=MaskedLeastSquares(mask, b),
        x_true=x_true,
        dims={"rows": rows, "cols": cols},
        meta={**problem.meta, "mask": mask, "damaged": b},
    )
    return relabelled, ({"x0": np.ones(rows * cols)} if invert else {})


# Criterion 10a's featured pgrpda, in the region enlarged past the golden ratio.
PGRPDA_EXTENDED = SolverConfig(
    "pgrpda", tau0=10.0, psi=1.76, mu=0.77236, mu_prime=0.25, beta=0.2, extended=True
)


def featured_solvers(problem):
    """Criterion 10a's featured parameters; aegrpda resolves ||K|| itself."""
    k_norm = estimate_operator_norm(problem.K, seed=0)
    step = 0.99 * math.sqrt(1.5) / k_norm
    return [
        PGRPDA_EXTENDED,
        SolverConfig("aegrpda", tau0=10.0, psi=1.5, beta=0.2),
        SolverConfig("egrpda", psi=1.5, tau=step, sigma=step, K_norm=k_norm),
        SolverConfig("condat_vu", tau=1.0 / k_norm, sigma=1.0 / k_norm, K_norm=k_norm),
    ]


def all_lasso_solvers(problem):
    """The featured four plus grpda, pdhg and agraal."""
    configs = featured_solvers(problem)
    k_norm = configs[-1].K_norm
    step = 0.99 * math.sqrt(GOLDEN) / k_norm
    return configs + [
        SolverConfig("grpda", psi=GOLDEN, tau=step, sigma=step, K_norm=k_norm),
        SolverConfig("pdhg", tau=1.0 / k_norm, sigma=1.0 / k_norm, K_norm=k_norm),
        SolverConfig("agraal", tau0=0.01, psi=1.5),
    ]


def fused_lasso_solvers(problem):
    """Fixed stepsizes from ||K|| and the smoothness constant L of h."""
    k_norm = estimate_operator_norm(problem.K, seed=0)
    L = problem.h.lipschitz()
    psi = 1.5
    eg_step = 0.9 * psi / (math.sqrt(psi) * k_norm + 2.0 * L)
    cv_step = 1.0 / (k_norm + L / 2.0)
    return [
        PGRPDA_EXTENDED,
        SolverConfig("aegrpda", tau0=10.0, psi=psi, beta=0.2),
        SolverConfig("egrpda", psi=psi, tau=eg_step, sigma=eg_step, K_norm=k_norm),
        SolverConfig("condat_vu", tau=cv_step, sigma=cv_step, K_norm=k_norm),
    ]


def inpainting_solvers(problem):
    """aegrpda with K_norm unset, so run_solver estimates ||K||."""
    return [SolverConfig("aegrpda", tau0=1.0, psi=1.5, beta=0.1)]


def lasso_workload(name, m, n, s, solvers, chunk_iters):
    return Workload(
        name=name,
        build=lambda: gen_lasso(m, n, s, "gaussian", seed=1),
        relabel=relabel_lasso,
        solvers=solvers,
        stop_tol=1e-6,
        max_iters=30_000,
        f_rtol=1e-7,
        reference_config=SolverConfig(
            "aegrpda", tau0=10.0, psi=1.5, beta=0.2, max_iters=100_000,
            trace_stride=1000,
        ),
        chunk_iters=chunk_iters,
    )


WORKLOADS = {
    w.name: w
    for w in (
        lasso_workload("lasso-dense", 300, 1000, 10, featured_solvers, 20),
        lasso_workload("lasso-small", 50, 100, 5, all_lasso_solvers, 200),
        Workload(
            name="fused-lasso",
            build=lambda: gen_fused_lasso(200, 1000, seed=2),
            relabel=relabel_fused_lasso,
            solvers=fused_lasso_solvers,
            stop_tol=1e-4,
            max_iters=60_000,
            f_rtol=1e-4,
            reference_config=SolverConfig(
                "aegrpda", tau0=10.0, psi=1.5, beta=0.2, max_iters=200_000,
                trace_stride=1000,
            ),
            chunk_iters=40,
        ),
        Workload(
            name="inpainting-176",
            build=lambda: gen_inpainting(
                synthetic_blocks_image(176, 176), 0.3, 1e-2, seed=3
            ),
            relabel=relabel_inpainting,
            solvers=inpainting_solvers,
            stop_tol=1e-3,
            max_iters=10_000,
            f_rtol=3e-3,
            reference_config=SolverConfig(
                "aegrpda", tau0=1.0, psi=1.5, beta=0.1, max_iters=30_000,
                trace_stride=500,
            ),
            chunk_iters=3,
            min_psnr=40.0,
        ),
    )
}
