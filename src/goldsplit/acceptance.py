"""Acceptance battery behind ``goldsplit verify`` and tests/test_acceptance.py.

Each criterion is registered once, with its suite and title, by the
``criterion`` decorator; ``CRITERIA`` and ``SUITES`` are filled from
those registrations in file order. A check returns ``(passed, detail)``
instead of raising, and the registered callable times it and wraps it in a
CheckResult, so the CLI can emit one pass/fail line per criterion and a
machine-readable report. Expected values come from independent oracles
computed here (golden-section minimization, dense eigensolves, control
series), never from the code paths under test.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .linops import (
    DenseOperator,
    DiscreteGradient2D,
    FirstDifference,
    GridIncidence,
    IdentityOperator,
    csr_from_triplets,
    estimate_operator_norm,
    graph_laplacian,
)
from .metrics import fit_loglinear, loglog_slope, psnr
from .problems import (
    gen_graphnet,
    gen_inpainting,
    gen_lasso,
    gen_strongly_convex,
    synthetic_blocks_image,
)
from .prox import (
    GroupL21Prox,
    L1Prox,
    SquaredL2Prox,
    ZeroProx,
    moreau_conjugate_prox,
)
from .solvers import SolverConfig, config_violations, run_solver
from .stepsizes import GOLDEN, aegrpda_tau_update, eta_bound, pgrpda_tau_update


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0


# criterion key ("criterion_1") -> callable returning its CheckResult
CRITERIA = {}
# suite name -> criterion keys; "all" (every key) is added after the last criterion
SUITES = {}


def criterion(suite, title):
    """Register the decorated check, named ``criterion_<key>``, in SUITE.

    The check returns ``(passed, detail)``. The registered callable, which
    also replaces the check's module name, times it and returns the
    CheckResult named ``criterion <key> (<title>)``.
    """

    def register(check):
        name = f"{check.__name__.replace('_', ' ')} ({title})"

        def run():
            start = time.perf_counter()
            passed, detail = check()
            return CheckResult(name, bool(passed), detail, time.perf_counter() - start)

        CRITERIA[check.__name__] = run
        SUITES.setdefault(suite, []).append(check.__name__)
        return run

    return register


_memo = {}


# ---------------------------------------------------------------------------
# oracle helpers


def golden_section(fn, lo, hi, tol=1e-11, max_iter=300):
    """Derivative-free scalar minimizer on [lo, hi]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# prox and operator checks


@criterion("prox", "prox vs minimization oracle")
def criterion_1():
    rng = np.random.default_rng(101)
    worst = 0.0
    moreau_worst = 0.0
    n_inputs = 0

    def check_vec(got, expect):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(got - expect))))

    # l1: separable, one golden-section per coordinate
    for _ in range(70):
        dim = int(rng.integers(2, 7))
        v = rng.normal(0, 3, dim)
        t = float(rng.uniform(0, 2))
        lam = float(rng.uniform(0, 2))
        got = L1Prox(lam).prox(v, t)
        expect = np.empty(dim)
        for i in range(dim):
            span = abs(v[i]) + t * lam + 1.0
            expect[i] = golden_section(
                lambda u, vi=v[i]: t * lam * abs(u) + 0.5 * (u - vi) ** 2, -span, span
            )
        check_vec(got, expect)
        n_inputs += 1

    # translated quadratic: separable per coordinate
    for _ in range(70):
        dim = int(rng.integers(2, 7))
        v = rng.normal(0, 3, dim)
        b = rng.normal(0, 3, dim)
        t = float(rng.uniform(0, 2))
        w = float(rng.uniform(0.1, 3))
        got = SquaredL2Prox(w, b).prox(v, t)
        expect = np.empty(dim)
        for i in range(dim):
            span = abs(v[i]) + abs(b[i]) + 5.0
            expect[i] = golden_section(
                lambda u, vi=v[i], bi=b[i]: t * 0.5 * w * (u - bi) ** 2
                + 0.5 * (u - vi) ** 2,
                -span,
                span,
            )
        check_vec(got, expect)
        n_inputs += 1

    # group l21: the minimizer lies on the ray through v_p (any orthogonal
    # component only increases both terms), so radial golden-section is an
    # independent 1-D oracle per pixel
    for _ in range(60):
        npix = int(rng.integers(1, 5))
        v = rng.normal(0, 3, 2 * npix)
        t = float(rng.uniform(0, 2))
        lam = float(rng.uniform(0, 2))
        got = GroupL21Prox(lam, npix).prox(v, t)
        expect = np.zeros_like(v)
        for p in range(npix):
            vp = np.array([v[p], v[npix + p]])
            nv = float(np.linalg.norm(vp))
            if nv == 0:
                continue
            r = golden_section(
                lambda r_: t * lam * r_ + 0.5 * (r_ - nv) ** 2, 0.0, nv + 1.0
            )
            expect[p], expect[npix + p] = (r / nv) * vp
        check_vec(got, expect)
        n_inputs += 1

    # Moreau identity for every oracle kind
    oracles = [
        ZeroProx(),
        L1Prox(0.7),
        SquaredL2Prox(1.0, rng.normal(0, 1, 8)),
        SquaredL2Prox(2.5),
        GroupL21Prox(0.8, 4),
    ]
    for g in oracles:
        for _ in range(25):
            v = rng.normal(0, 4, 8)
            sigma = float(rng.uniform(0.05, 5))
            recon = moreau_conjugate_prox(g, v, sigma) + sigma * g.prox(
                v / sigma, 1.0 / sigma
            )
            moreau_worst = max(moreau_worst, float(np.max(np.abs(recon - v))))

    passed = worst <= 1e-6 and moreau_worst <= 1e-12
    return passed, (
        f"{n_inputs} inputs, worst prox err {worst:.2e} (tol 1e-6), "
        f"worst Moreau residual {moreau_worst:.2e} (tol 1e-12)"
    )


@criterion("operators", "operator correctness")
def criterion_2():
    rng = np.random.default_rng(202)
    ops = [
        DenseOperator(rng.standard_normal((30, 20))),
        csr_from_triplets(
            25,
            40,
            [
                (int(r), int(c), float(v))
                for r, c, v in zip(
                    rng.integers(0, 25, 120),
                    rng.integers(0, 40, 120),
                    rng.normal(0, 1, 120),
                )
            ],
        ),
        FirstDifference(17),
        GridIncidence(4, 5),
        DiscreteGradient2D(8, 8),
        IdentityOperator(13),
        graph_laplacian(GridIncidence(3, 4)),
    ]
    worst_adj = 0.0
    for op in ops:
        for _ in range(100):
            x = rng.standard_normal(op.shape.domain_dim)
            y = rng.standard_normal(op.shape.codomain_dim)
            kx = op.matvec(x)
            lhs = float(kx @ y)
            rhs = float(x @ op.rmatvec(y))
            rel = abs(lhs - rhs) / (1.0 + np.linalg.norm(kx) * np.linalg.norm(y))
            worst_adj = max(worst_adj, rel)

    worst_norm = 0.0
    for shape, seed in [((200, 300), 1), ((50, 60), 2), ((120, 80), 3)]:
        A = np.random.default_rng(seed).standard_normal(shape)
        op = DenseOperator(A)
        est = estimate_operator_norm(op, seed=seed)
        exact = float(np.linalg.svd(A, compute_uv=False)[0])
        worst_norm = max(worst_norm, abs(est - exact) / exact)

    d5 = estimate_operator_norm(FirstDifference(5), seed=0)
    d5_exact = 2.0 * math.sin(2.0 * math.pi / 5.0)
    d5_err = abs(d5 - d5_exact)

    grad_ok = True
    grad_max = 0.0
    for rows, cols in [(8, 8), (16, 16), (64, 64), (7, 5)]:
        est = estimate_operator_norm(DiscreteGradient2D(rows, cols), seed=0)
        grad_max = max(grad_max, est)
        grad_ok = grad_ok and est <= math.sqrt(8.0) + 1e-6

    passed = worst_adj <= 1e-10 and worst_norm <= 1e-4 and d5_err <= 1e-4 and grad_ok
    return passed, (
        f"adjoint worst {worst_adj:.2e} (tol 1e-10), norm-vs-eigensolve worst rel "
        f"{worst_norm:.2e} (tol 1e-4), ||D_5|| err {d5_err:.2e}, "
        f"max gradient norm {grad_max:.6f} <= sqrt(8)"
    )


# ---------------------------------------------------------------------------
# stepsize theory on a seeded sparse-regression instance


def _stepsize_instance():
    if "step" not in _memo:
        problem = gen_lasso(100, 300, 5, scheme="gaussian", seed=1)
        k_exact = float(np.linalg.svd(problem.K.matrix, compute_uv=False)[0])
        _memo["step"] = (problem, k_exact)
    return _memo["step"]


@criterion("stepsize", "partially adaptive stepsize floor")
def criterion_3():
    problem, k_exact = _stepsize_instance()
    y0 = -problem.meta["b"]
    mu, mu_prime, beta, tau0 = 0.77236, 0.25, 0.2, 10.0
    cfg = SolverConfig(
        "pgrpda", tau0=tau0, psi=1.76, mu=mu, mu_prime=mu_prime, beta=beta,
        extended=True, max_iters=10_000, trace_stride=10_000,
    )
    taus = []
    run_solver(problem, cfg, y0=y0, callback=lambda st: taus.append(st.tau))
    eta = eta_bound(tau0, mu, mu_prime, beta, k_exact, 0.0)
    nonincreasing = all(t1 <= t0 for t0, t1 in zip(taus, taus[1:]))
    above_eta = min(taus) >= eta - 1e-12

    # constant-stepsize regime: tau0 at half the theoretical floor
    tau0_small = 0.5 * mu / (math.sqrt(beta) * k_exact)
    cfg_small = dataclasses.replace(cfg, tau0=tau0_small)
    taus_small = []
    run_solver(problem, cfg_small, y0=y0, callback=lambda st: taus_small.append(st.tau))
    constant = all(t == tau0_small for t in taus_small)

    passed = nonincreasing and above_eta and constant
    return passed, (
        f"10k iters: nonincreasing={nonincreasing}, min tau {min(taus):.6f} >= "
        f"eta {eta:.6f} - 1e-12: {above_eta}, constant-at-small-tau0: {constant}"
    )


@criterion("stepsize", "adaptive stepsize bounds")
def criterion_4():
    problem, _ = _stepsize_instance()
    y0 = -problem.meta["b"]
    psi, beta, tau_max = 1.5, 0.2, 1e7
    k_norm = estimate_operator_norm(problem.K, seed=0)
    cfg = SolverConfig(
        "aegrpda", tau0=10.0, psi=psi, beta=beta, tau_max=tau_max,
        K_norm=k_norm, max_iters=10_000, trace_stride=10_000,
    )
    rho = cfg.effective_rho
    recs = []
    run_solver(
        problem,
        cfg,
        y0=y0,
        callback=lambda st: recs.append((st.tau, st.theta, st.theta_prev, st.L_local)),
    )
    bound1_ok = bound2_ok = theta_ok = cap_ok = True
    n_defined = 0
    for tau, theta, theta_prev, L in recs:
        theta_ok = theta_ok and theta <= psi * rho + 1e-12
        cap_ok = cap_ok and tau <= tau_max
        if L is None:
            # curvature estimate undefined: only the growth branch applies
            continue
        n_defined += 1
        root = math.sqrt(theta * theta_prev)
        bound1_ok = bound1_ok and tau * L <= root / 3.0 + 1e-12
        bound2_ok = bound2_ok and tau <= root / (
            3.0 * math.sqrt(beta * psi) * k_norm
        ) + 1e-12
    passed = bound1_ok and bound2_ok and theta_ok and cap_ok and n_defined > 9000
    return passed, (
        f"{len(recs)} iters ({n_defined} with defined curvature): "
        f"tau*L bound {bound1_ok}, tau-vs-||K|| bound {bound2_ok}, "
        f"theta <= psi*rho {theta_ok}, tau <= tau_max {cap_ok}"
    )


# ---------------------------------------------------------------------------
# convergence and rates on small instances


def _convergence_instance():
    if "conv" not in _memo:
        problem = gen_lasso(50, 100, 5, scheme="gaussian", seed=1)
        y0 = -problem.meta["b"]
        ref_cfg = SolverConfig(
            "aegrpda", tau0=10.0, psi=1.5, beta=0.2,
            max_iters=200_000, trace_stride=1000,
        )
        _, ref_trace, ref_summary = run_solver(problem, ref_cfg, y0=y0)
        f_star = float(np.nanmin(ref_trace.column("F")))
        _memo["conv"] = (problem, y0, f_star, ref_summary.k_norm)
    return _memo["conv"]


def _featured_configs(k_norm, beta=0.2, iters=30_000, stride=100):
    psi = 1.5
    return {
        "pgrpda": SolverConfig(
            "pgrpda", tau0=10.0, psi=1.76, mu=0.77236, mu_prime=0.25, beta=beta,
            extended=True, max_iters=iters, trace_stride=stride,
        ),
        "aegrpda": SolverConfig(
            "aegrpda", tau0=10.0, psi=psi, beta=beta, K_norm=k_norm,
            max_iters=iters, trace_stride=stride,
        ),
        "egrpda": SolverConfig(
            "egrpda", psi=psi, tau=0.99 * math.sqrt(psi) / k_norm,
            sigma=0.99 * math.sqrt(psi) / k_norm, K_norm=k_norm,
            max_iters=iters, trace_stride=stride,
        ),
        "condat_vu": SolverConfig(
            "condat_vu", tau=1.0 / k_norm, sigma=1.0 / k_norm, K_norm=k_norm,
            max_iters=iters, trace_stride=stride,
        ),
    }


@criterion("convergence", "global convergence, four schemes")
def criterion_5():
    problem, y0, f_star, k_norm = _convergence_instance()
    details = []
    passed = True
    for name, cfg in _featured_configs(k_norm).items():
        _, trace, _ = run_solver(problem, cfg, y0=y0, f_star=f_star)
        gaps = trace.column("F_gap")
        best_gap = float(np.nanmin(gaps))
        ok = best_gap <= 1e-6
        if name in ("pgrpda", "aegrpda", "egrpda"):
            xz = trace.last("xz")
            ok = ok and xz <= 1e-6
            details.append(f"{name}: gap {best_gap:.1e}, |x-z| {xz:.1e}")
        else:
            details.append(f"{name}: gap {best_gap:.1e}")
        passed = passed and ok
    return passed, "; ".join(details) + " (tolerances 1e-6)"


@criterion("rates", "ergodic constraint-violation rate")
def criterion_6():
    problem, y0, _, k_norm = _convergence_instance()
    slopes = {}
    for name in ("pgrpda", "aegrpda"):
        cfg = dataclasses.replace(
            _featured_configs(k_norm)[name], max_iters=10_000, trace_stride=50
        )
        _, trace, _ = run_solver(problem, cfg, y0=y0)
        slopes[name] = loglog_slope(trace, "cviol", (100, 10_000))
    passed = all(s <= -0.9 for s in slopes.values())
    return passed, (
        ", ".join(f"{k} slope {v:.3f}" for k, v in slopes.items())
        + " (need <= -0.9 over [1e2, 1e4])"
    )


@criterion("rates", "geometric decay under strong convexity")
def criterion_7():
    problem = gen_strongly_convex(200, 50, ridge=1.0, seed=7)
    cfg_ref = SolverConfig(
        "pgrpda", tau0=10.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=100.0,
        max_iters=30_000, trace_stride=30_000,
    )
    state_ref, _, _ = run_solver(problem, cfg_ref)
    x_ref = state_ref.x

    cfg = dataclasses.replace(cfg_ref, max_iters=4000)
    errs = []
    run_solver(
        problem, cfg,
        callback=lambda st: errs.append(float(np.linalg.norm(st.x - x_ref))),
    )
    errs = np.asarray(errs)
    rel = errs / float(np.linalg.norm(x_ref))
    # fit only above the reference-precision floor
    keep = np.nonzero(rel > 1e-9)[0]
    n_keep = int(keep[-1]) + 1
    ns = np.arange(1, n_keep + 1)
    burn = int(0.1 * n_keep)
    window = ns >= burn
    rate, _, r2, _ = fit_loglinear(ns[window], rel[:n_keep][window])
    # control: a 1/n decay must not pass the calibrated threshold
    _, _, r2_control, _ = fit_loglinear(ns[window], 3.0 / ns[window])
    threshold = max(0.9, r2_control + 0.02)
    passed = r2 >= threshold and rate < 0.0
    return passed, (
        f"fit over [{burn}, {n_keep}]: rate {rate:.3e}/iter, R^2 {r2:.4f} >= "
        f"threshold {threshold:.4f} (1/n control R^2 {r2_control:.4f})"
    )


@criterion("convergence", "enlarged parameter region")
def criterion_8():
    problem, y0, f_star, _ = _convergence_instance()
    cfg = SolverConfig(
        "pgrpda", tau0=10.0, psi=2.5, mu=0.26, mu_prime=0.08, beta=0.2,
        extended=True, max_iters=100_000, trace_stride=500,
    )
    _, trace, _ = run_solver(problem, cfg, y0=y0, f_star=f_star)
    best_gap = float(np.nanmin(trace.column("F_gap")))
    rejected = config_violations(
        SolverConfig("pgrpda", psi=2.8, mu=0.2, mu_prime=0.05, extended=True)
    )
    passed = best_gap <= 1e-5 and len(rejected) > 0 and cfg.psi > GOLDEN
    return passed, (
        f"psi=2.5 gap {best_gap:.1e} (tol 1e-5); psi=2.8 rejected with "
        f"{len(rejected)} diagnostics"
    )


@criterion("stepsize", "zero-step conventions")
def criterion_9():
    zero = np.zeros(4)
    dx = np.array([1.0, -2.0, 0.5, 0.0])
    ok = []
    # vanishing step keeps the previous stepsize
    ok.append(pgrpda_tau_update(3.7, zero, zero, zero, 0.7, 0.3, 0.2) == 3.7)
    # vanishing operator and curvature differences with a real step
    ok.append(pgrpda_tau_update(3.7, dx, zero, zero, 0.7, 0.3, 0.2) == 3.7)
    # only one denominator defined
    only_grad = pgrpda_tau_update(10.0, dx, zero, 2.0 * dx, 0.7, 0.3, 0.2)
    ok.append(abs(only_grad - 0.15) < 1e-15)
    # adaptive scheme: undefined curvature takes the growth branch exactly
    tau, theta = aegrpda_tau_update(2.0, 1.5, None, 4.0, 1.0, 1.5, 1.1, 1e7)
    ok.append(tau == min(1.1 * 2.0, 1e7) and theta == 1.5 * tau / 2.0)
    tau2, _ = aegrpda_tau_update(2.0, 1.5, None, 4.0, 1.0, 1.5, 1.1, 2.1)
    ok.append(tau2 == 2.1)
    passed = all(ok)
    return passed, f"{sum(ok)}/{len(ok)} convention checks returned the documented fallbacks"


# ---------------------------------------------------------------------------
# desk-scale experiment reproduction and determinism


@criterion("experiments", "sparse regression at benchmark scale")
def criterion_10a():
    problem = gen_lasso(300, 1000, 10, scheme="gaussian", seed=1)
    y0 = -problem.meta["b"]
    k_norm = estimate_operator_norm(problem.K, seed=0)
    ref_cfg = SolverConfig(
        "aegrpda", tau0=10.0, psi=1.5, beta=0.2, K_norm=k_norm,
        max_iters=100_000, trace_stride=1000,
    )
    _, ref_trace, _ = run_solver(problem, ref_cfg, y0=y0)
    f_vals = ref_trace.column("F")
    f_star = float(np.nanmin(f_vals))
    ref_drift = float(np.nanmax(f_vals[-10:]) - f_star)

    details = [f"reference drift {ref_drift:.1e}"]
    passed = ref_drift < 1e-6
    for name, cfg in _featured_configs(k_norm, beta=0.2, iters=30_000, stride=200).items():
        _, trace, _ = run_solver(problem, cfg, y0=y0, f_star=f_star)
        best = float(np.nanmin(trace.column("F_gap")))
        details.append(f"{name} gap {best:.1e}")
        passed = passed and best <= 1e-4
    return passed, "; ".join(details) + " (tol 1e-4 within 3e4 iterations)"


@criterion("experiments", "TV inpainting recovery")
def criterion_10b():
    image = synthetic_blocks_image(32, 32)
    problem = gen_inpainting(image, missing_fraction=0.3, lam=1e-2, seed=3)
    damaged_psnr = psnr(problem.meta["damaged"], problem.x_true)
    cfg = SolverConfig(
        "aegrpda", tau0=1.0, psi=1.5, beta=0.1, K_norm=math.sqrt(8.0),
        max_iters=2000, trace_stride=100,
    )
    state, trace, _ = run_solver(problem, cfg)
    recon_psnr = psnr(state.x, problem.x_true)
    passed = recon_psnr >= damaged_psnr + 5.0
    return passed, (
        f"damaged {damaged_psnr:.2f} dB -> reconstruction {recon_psnr:.2f} dB "
        f"(need +5 dB within 2000 iterations)"
    )


@criterion("experiments", "grid-graph signal recovery")
def criterion_10c():
    problem = gen_graphnet(10, 10, 60, alpha=2.0, seed=11)
    k_norm = estimate_operator_norm(problem.K, seed=0)
    cfg = SolverConfig(
        "aegrpda", tau0=10.0, psi=1.5, beta=1e-6, K_norm=k_norm,
        max_iters=4000, trace_stride=20,
    )
    _, trace, _ = run_solver(problem, cfg)
    best_rel = float(np.nanmin(trace.column("rel_err")))
    passed = best_rel < 0.3
    return passed, f"best relative error {best_rel:.3f} (need < 0.3)"


@criterion("determinism", "byte-identical reruns")
def criterion_11():
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        gen = subprocess.run(
            [sys.executable, "-m", "goldsplit.cli", "generate", "--family", "lasso",
             "--m", "40", "--n", "80", "--s", "4", "--scheme", "gaussian",
             "--seed", "5", "--out", str(tmp / "inst")],
            capture_output=True, text=True,
        )
        manifest = gen.stdout.strip()
        argsets = []
        for tag in ("a", "b"):
            argsets.append(
                [sys.executable, "-m", "goldsplit.cli", "run",
                 "--manifest", manifest,
                 "--solvers", "pgrpda,aegrpda",
                 "--tau0", "5", "--beta", "0.2", "--psi", "1.5",
                 "--mu", "0.7", "--mu-prime", "0.3",
                 "--max-iters", "500", "--trace-stride", "10", "--seed", "3",
                 "--zero-time", "--out", str(tmp / tag)]
            )
        outs = [subprocess.run(a, capture_output=True, text=True) for a in argsets]
        identical = gen.returncode == 0 and all(o.returncode == 0 for o in outs)
        for solver in ("pgrpda", "aegrpda"):
            b1 = (tmp / "a" / f"{solver}.csv").read_bytes()
            b2 = (tmp / "b" / f"{solver}.csv").read_bytes()
            identical = identical and b1 == b2
    return identical, (
        "two identical-seed runs produced byte-identical trace CSVs"
        if identical
        else "reruns differed or a subprocess failed"
    )


SUITES["all"] = list(CRITERIA)


def run_suites(names):
    """Run the selected suites; returns a JSON-serializable report."""
    selected = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        for crit in SUITES[name]:
            if crit not in selected:
                selected.append(crit)
    start = time.perf_counter()
    checks = [CRITERIA[c]() for c in selected]
    return {
        "suites": list(names),
        "checks": [dataclasses.asdict(c) for c in checks],
        "n_checks": len(checks),
        "n_passed": sum(c.passed for c in checks),
        "all_passed": all(c.passed for c in checks),
        "elapsed": time.perf_counter() - start,
    }
