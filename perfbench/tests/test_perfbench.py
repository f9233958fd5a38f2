"""Self-tests of the benchmark on tiny instances; the file runs in about 25 s."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from goldsplit import (
    SolverConfig,
    gen_fused_lasso,
    gen_inpainting,
    gen_lasso,
    run_solver,
    synthetic_blocks_image,
)
from perfbench import harness
from perfbench.workloads import (
    Workload,
    all_lasso_solvers,
    fused_lasso_solvers,
    inpainting_solvers,
    relabel_fused_lasso,
    relabel_inpainting,
    relabel_lasso,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_LASSO = Workload(
    name="tiny-lasso",
    build=lambda: gen_lasso(20, 40, 3, "gaussian", seed=1),
    relabel=relabel_lasso,
    solvers=all_lasso_solvers,
    stop_tol=1e-6,
    max_iters=20_000,
    f_rtol=1e-7,
    reference_config=SolverConfig(
        "aegrpda", tau0=10.0, psi=1.5, beta=0.2, max_iters=20_000, trace_stride=100
    ),
    chunk_iters=100,
)
TINY_FUSED = dataclasses.replace(
    TINY_LASSO,
    name="tiny-fused-lasso",
    build=lambda: gen_fused_lasso(20, 60, seed=2),
    relabel=relabel_fused_lasso,
    solvers=fused_lasso_solvers,
    stop_tol=1e-5,
)
TINY_INPAINTING = dataclasses.replace(
    TINY_LASSO,
    name="tiny-inpainting",
    build=lambda: gen_inpainting(synthetic_blocks_image(12, 16), 0.3, 1e-2, seed=3),
    relabel=relabel_inpainting,
    solvers=inpainting_solvers,
    stop_tol=1e-5,
    reference_config=SolverConfig(
        "aegrpda", tau0=1.0, psi=1.5, beta=0.1, max_iters=20_000, trace_stride=100
    ),
    min_psnr=20.0,
)


@pytest.fixture(scope="module")
def lasso_reference():
    return harness.compute_reference(TINY_LASSO)


def declared(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(lasso_reference, trace):
    result, report = harness.evaluate(
        TINY_LASSO, 4, 0.0, bool(trace), lasso_reference, declared(trace)
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 7
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(trace)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and np.isfinite(metric["value"])
    if not trace:
        passes = report["passes"]
        assert passes["untraced"] + passes["setup_only"] >= harness.MIN_SETUP_SAMPLES


def test_counts_repeat_exactly_across_runs(lasso_reference):
    runs = [
        harness.evaluate(TINY_LASSO, 9, 0.0, True, lasso_reference, declared(1))[0]
        for _ in range(2)
    ]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "count/iter")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["solvers.iterations"] > 0


def test_iteration_cap_counts_as_failure_without_crashing(lasso_reference):
    capped = dataclasses.replace(TINY_LASSO, max_iters=5)
    result, report = harness.evaluate(capped, 4, 0.0, False, lasso_reference, declared(0))
    assert result["attempted"] == 7
    assert result["failed"] == 7
    assert not result["correct"]
    assert report["failed_frac"] == "7/7"
    assert all("stopped by budget" in p for p in report["problems"])


@pytest.mark.parametrize("workload", [TINY_LASSO, TINY_FUSED, TINY_INPAINTING])
def test_relabelling_keeps_iterations_and_optimum(workload):
    base = workload.build()
    base_runs = {}
    for cfg in workload.configs(base):
        _, _, summary = run_solver(base, cfg, **workload.relabel(base, _identity())[1])
        base_runs[cfg.algorithm] = summary
    for seed in range(4):
        problem, starts = workload.relabel(workload.build(), np.random.default_rng(seed))
        for cfg in workload.configs(problem):
            _, _, summary = run_solver(problem, cfg, **starts)
            ref = base_runs[cfg.algorithm]
            assert summary.stop_reason == "stop_tol"
            # rounding differs between relabellings; agraal amplifies it most
            assert abs(summary.iterations - ref.iterations) <= max(2, 0.02 * ref.iterations)
            assert summary.final["F"] == pytest.approx(ref.final["F"], rel=1e-8)


def _identity():
    """A generator stand-in that draws the identity relabelling."""

    class Identity:
        def permutation(self, n):
            return np.arange(n)

        def choice(self, options, size=None):
            return np.ones(size) if size else 1.0

        def integers(self, n):
            return 0

    return Identity()


def test_tracer_is_transparent_and_accounts_for_solve_time(lasso_reference):
    plain = harness.run_pass(TINY_LASSO, 2)
    traced = harness.run_pass(TINY_LASSO, 2, harness.Tracer())
    assert harness.signature(traced) == harness.signature(plain)
    assert harness.accounting_error(traced) <= harness.ACCOUNTING_RTOL
    layers = harness.layer_metrics(traced)
    assert layers["linops.norm_applies"] > 0
    assert layers["solvers.iterations"] == sum(r.iterations for r in plain.runs)


def test_chunks_cover_each_loop_and_chunked_best_bounds_best_loop():
    passes = [harness.run_pass(TINY_LASSO, 3) for _ in range(3)]
    for i, run in enumerate(passes[0].runs):
        runs = [p.runs[i] for p in passes]
        for r in runs:
            assert len(r.chunks) == r.iterations // TINY_LASSO.chunk_iters + 1
            assert sum(r.chunks) == pytest.approx(r.solve_s, rel=1e-9)
        assert 0 < harness.chunked_best(runs) <= min(r.solve_s for r in runs)


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lasso-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "no goldsplit source" in proc.stderr
    assert '"metrics"' not in proc.stdout
