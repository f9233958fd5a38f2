import dataclasses
import math
import warnings

import numpy as np
import pytest

from goldsplit import linops
from goldsplit.errors import ConfigError, NumericAbort, StepsizeWarning
from goldsplit.linops import (
    DenseOperator,
    DiscreteGradient2D,
    IdentityOperator,
    estimate_operator_norm,
)
from goldsplit.problems import (
    ProblemInstance,
    gen_inpainting,
    gen_lasso,
    gen_strongly_convex,
    synthetic_blocks_image,
)
from goldsplit.prox import L1Prox, LeastSquares, SquaredL2Prox, ZeroProx, ZeroSmooth
from goldsplit.solvers import (
    ALGORITHM_NAMES,
    GOLDEN,
    SolverConfig,
    aegrpda_tau_update,
    config_violations,
    eta_bound,
    local_lipschitz,
    pgrpda_tau_update,
    run_solver,
    validate_config,
)

import oracles


# ---------------------------------------------------------------------------
# configuration validation


def test_validate_accepts_published_extended_parameters():
    cfg = SolverConfig(
        "pgrpda", tau0=10.0, psi=1.76, mu=0.77236, mu_prime=0.25, beta=0.2,
        extended=True,
    )
    assert validate_config(cfg) is cfg


def test_validate_rejects_mu_above_half_psi():
    cfg = SolverConfig("pgrpda", psi=1.5, mu=0.8, mu_prime=0.3)
    errs = config_violations(cfg)
    assert any("psi/2" in e for e in errs)
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_base_region_needs_two_mu_prime():
    errs = config_violations(SolverConfig("pgrpda", psi=1.5, mu=0.5, mu_prime=0.3))
    assert any("2*mu_prime" in e for e in errs)


def test_validate_extended_region_bounds():
    ok = SolverConfig("pgrpda", psi=2.5, mu=0.26, mu_prime=0.08, extended=True)
    assert not config_violations(ok)
    bad = SolverConfig("pgrpda", psi=2.8, mu=0.2, mu_prime=0.05, extended=True)
    errs = config_violations(bad)
    assert errs  # psi range and the mu bound both fail


def test_validate_aegrpda_rho_cap():
    psi = 1.5
    cap = 1.0 / psi + 1.0 / psi**2
    ok = SolverConfig("aegrpda", psi=psi, rho=cap)
    assert not config_violations(ok)
    assert math.isclose(ok.effective_rho, 1.1111111111111112)
    bad = SolverConfig("aegrpda", psi=psi, rho=cap + 0.01)
    assert any("rho" in e for e in config_violations(bad))


def test_validate_aegrpda_psi_capped_at_golden():
    errs = config_violations(SolverConfig("aegrpda", psi=1.7))
    assert any("psi" in e for e in errs)


def test_validate_fixed_step_solvers_need_tau_sigma():
    errs = config_violations(SolverConfig("pdhg"))
    assert len([e for e in errs if "fixed" in e]) == 2
    assert not config_violations(SolverConfig("pdhg", tau=0.1, sigma=0.1))


def test_validate_unknown_algorithm():
    assert config_violations(SolverConfig("nope")) == ["unknown algorithm 'nope'"]


def test_validate_reports_every_violation():
    cfg = SolverConfig("pgrpda", tau0=-1.0, beta=-2.0, psi=3.0, mu=0.9, mu_prime=0.5)
    errs = config_violations(cfg)
    assert len(errs) >= 4


_FIXED = ("egrpda", "condat_vu", "pdhg", "grpda")

# every float field of SolverConfig and the schemes whose validation reads it
_FLOAT_FIELD_READERS = {
    "tau0": ("pgrpda", "aegrpda", "agraal"),
    "beta": ALGORITHM_NAMES,
    "psi": ("pgrpda", "aegrpda", "egrpda", "grpda", "agraal"),
    "mu": ("pgrpda",),
    "mu_prime": ("pgrpda",),
    "rho": ("aegrpda", "agraal"),
    "theta0": ("aegrpda", "agraal"),
    "tau_max": ("aegrpda", "agraal"),
    "tau": _FIXED,
    "sigma": _FIXED,
    "K_norm": ALGORITHM_NAMES,
    "stop_tol": ALGORITHM_NAMES,
}


def test_nan_table_covers_every_float_field():
    floats = {f.name for f in dataclasses.fields(SolverConfig) if "float" in f.type}
    assert floats == set(_FLOAT_FIELD_READERS)


@pytest.mark.parametrize(
    "name,alg",
    [(name, alg) for name, algs in _FLOAT_FIELD_READERS.items() for alg in algs],
)
def test_nan_parameter_is_rejected(name, alg):
    steps = {"tau": 0.1, "sigma": 0.1} if alg in _FIXED else {}
    base = SolverConfig(alg, **steps)
    assert validate_config(base) is base
    with pytest.raises(ConfigError) as exc:
        validate_config(dataclasses.replace(base, **{name: math.nan}))
    assert any("nan" in v for v in exc.value.violations)


# ---------------------------------------------------------------------------
# stepsize updates


def test_eta_bound_formula():
    got = eta_bound(10.0, 0.7, 0.3, 0.2, 2.0, 3.0)
    assert math.isclose(got, 0.1)
    mid = 0.7 / (math.sqrt(0.2) * 2.0)
    assert math.isclose(eta_bound(0.5, 0.7, 0.3, 0.2, 2.0, 0.0), 0.5)
    assert math.isclose(eta_bound(10.0, 0.7, 0.3, 0.2, 2.0, 0.0), mid)


def test_eta_bound_infinity_convention():
    assert eta_bound(10.0, 0.7, 0.3, 0.2, 0.0, 0.0) == 10.0


def test_eta_bound_beta_scaling():
    # scaling beta by 4 halves the middle term only
    a = eta_bound(1e9, 0.7, 0.3, 0.2, 2.0, 0.0)
    b = eta_bound(1e9, 0.7, 0.3, 0.8, 2.0, 0.0)
    assert math.isclose(b, a / 2.0)
    assert eta_bound(1e9, 0.7, 0.3, 0.8, 0.0, 3.0) == eta_bound(
        1e9, 0.7, 0.3, 0.2, 0.0, 3.0
    )


def test_pgrpda_tau_update_formula():
    dx = np.array([1.0, 0.0])
    dK = np.array([0.0, 2.0])
    dg = np.array([3.0, 0.0])
    got = pgrpda_tau_update(1.0, dx, dK, dg, 0.7, 0.3, 0.25)
    assert math.isclose(got, 0.1)  # min{1, 0.7/(0.5*2), 0.3/3}


def test_pgrpda_tau_update_conventions():
    zero = np.zeros(3)
    dx = np.array([0.5, 0.0, 0.0])
    assert pgrpda_tau_update(2.5, zero, zero, zero, 0.7, 0.3, 0.2) == 2.5
    assert pgrpda_tau_update(2.5, dx, zero, zero, 0.7, 0.3, 0.2) == 2.5


def test_local_lipschitz():
    dx = np.array([2.0, 0.0])
    assert local_lipschitz(np.zeros(2), dx) == 0.0  # linear h
    assert local_lipschitz(dx, dx) == 1.0  # identity gradient
    assert local_lipschitz(np.ones(2), np.zeros(2)) is None


def test_aegrpda_tau_update_formula():
    psi = 1.5
    rho = 1.0 / psi + 1.0 / psi**2
    tau, theta = aegrpda_tau_update(1.0, 1.5, 0.0, 1.0, 1.0, psi, rho, 1e7)
    assert math.isclose(tau, 1.0 / 6.0)
    assert math.isclose(theta, 0.25)


def test_aegrpda_tau_update_undefined_curvature():
    tau, theta = aegrpda_tau_update(2.0, 0.9, None, 5.0, 1.0, 1.5, 1.1, 1e7)
    assert tau == 2.2 and math.isclose(theta, 1.5 * 2.2 / 2.0)


def test_aegrpda_tau_update_zero_curvature_and_norm():
    # L = 0 and ||K|| = 0 leave no curvature bound (1/0 = infinity): tau grows
    psi = 1.5
    rho = 1.0 / psi + 1.0 / psi**2
    tau, theta = aegrpda_tau_update(2.0, 0.9, 0.0, 0.0, 1.0, psi, rho, 1e7)
    assert tau == rho * 2.0 and theta == psi * tau / 2.0


def test_aegrpda_update_implies_derived_bounds(rng):
    # after the update, tau * L <= sqrt(theta * theta_prev) / 3
    psi = 1.5
    rho = 1.0 / psi + 1.0 / psi**2
    for _ in range(200):
        tau_prev = float(rng.uniform(0.01, 10))
        theta_prev = float(rng.uniform(0.05, psi * rho))
        L = float(rng.uniform(0, 5))
        k = float(rng.uniform(0.1, 5))
        beta = float(rng.uniform(0.01, 3))
        tau, theta = aegrpda_tau_update(tau_prev, theta_prev, L, k, beta, psi, rho, 1e7)
        assert tau * L <= math.sqrt(theta * theta_prev) / 3.0 + 1e-12
        assert tau <= math.sqrt(theta * theta_prev / (beta * psi)) / (3.0 * k) + 1e-12
        assert theta <= psi * rho + 1e-12


# ---------------------------------------------------------------------------
# one-to-one agreement with straight-line transcriptions on a 2-variable toy


def _toy_problem():
    b = np.array([1.0, 0.0])
    return (
        ProblemInstance(
            f=L1Prox(0.1),
            g=SquaredL2Prox(1.0, b),
            K=IdentityOperator(2),
            h=ZeroSmooth(),
            name="toy",
        ),
        b,
    )


_X0 = np.array([0.3, -0.2])
_Y0 = np.array([0.1, 0.05])


def _run(problem, cfg, iters):
    cfg = dataclasses.replace(cfg, max_iters=iters, trace_stride=iters)
    state, _, _ = run_solver(problem, cfg, x0=_X0, y0=_Y0)
    return state


def test_pgrpda_matches_transcription():
    problem, b = _toy_problem()
    cfg = SolverConfig(
        "pgrpda", tau0=1.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=0.2
    )
    state = _run(problem, cfg, 6)
    x, y, tau, w = oracles.pgrpda_toy(_X0, _Y0, b, 0.1, 1.0, 1.5, 0.7, 0.3, 0.2, 6)
    assert np.max(np.abs(state.x - x)) <= 1e-12
    assert np.max(np.abs(state.y - y)) <= 1e-12
    assert np.max(np.abs(state.w - w)) <= 1e-12
    assert abs(state.tau - tau) <= 1e-12


def test_aegrpda_matches_transcription():
    problem, b = _toy_problem()
    cfg = SolverConfig(
        "aegrpda", tau0=1.0, psi=1.5, beta=0.2, theta0=1.0, tau_max=1e7, K_norm=1.0
    )
    state = _run(problem, cfg, 6)
    x, y, tau, theta, w = oracles.aegrpda_toy(
        _X0, _Y0, b, 0.1, 1.0, 1.5, 0.2, 1.0, 1e7, 6
    )
    assert np.max(np.abs(state.x - x)) <= 1e-12
    assert np.max(np.abs(state.y - y)) <= 1e-12
    assert np.max(np.abs(state.w - w)) <= 1e-12
    assert abs(state.tau - tau) <= 1e-12
    assert abs(state.theta - theta) <= 1e-12


def test_egrpda_matches_transcription():
    problem, b = _toy_problem()
    cfg = SolverConfig("egrpda", psi=1.5, tau=0.9, sigma=0.7, K_norm=1.0)
    state = _run(problem, cfg, 6)
    x, y, w = oracles.egrpda_toy(_X0, _Y0, b, 0.1, 0.9, 0.7, 1.5, 6)
    assert np.max(np.abs(state.x - x)) <= 1e-12
    assert np.max(np.abs(state.y - y)) <= 1e-12
    assert np.max(np.abs(state.w - w)) <= 1e-12


def test_grpda_matches_transcription():
    problem, b = _toy_problem()
    cfg = SolverConfig("grpda", psi=1.5, tau=0.9, sigma=0.7, K_norm=1.0)
    state = _run(problem, cfg, 6)
    x, y, w = oracles.grpda_toy(_X0, _Y0, b, 0.1, 0.9, 0.7, 1.5, 6)
    assert np.max(np.abs(state.x - x)) <= 1e-12
    assert np.max(np.abs(state.y - y)) <= 1e-12


def test_condat_vu_and_pdhg_match_transcription():
    problem, b = _toy_problem()
    for alg in ("condat_vu", "pdhg"):
        cfg = SolverConfig(alg, tau=0.9, sigma=0.7, K_norm=1.0)
        state = _run(problem, cfg, 6)
        x, y, w = oracles.condat_vu_toy(_X0, _Y0, b, 0.1, 0.9, 0.7, 6)
        assert np.max(np.abs(state.x - x)) <= 1e-12
        assert np.max(np.abs(state.y - y)) <= 1e-12
        assert np.max(np.abs(state.w - w)) <= 1e-12


def test_agraal_matches_transcription():
    problem, b = _toy_problem()
    cfg = SolverConfig("agraal", tau0=1.0, psi=1.5, theta0=1.0, tau_max=1e7, K_norm=1.0)
    state = _run(problem, cfg, 6)
    x, y, lam, w = oracles.agraal_toy(_X0, _Y0, b, 0.1, 1.0, 1.5, 1.0, 1e7, 6)
    assert np.max(np.abs(state.x - x)) <= 1e-12
    assert np.max(np.abs(state.y - y)) <= 1e-12
    assert np.max(np.abs(state.w - w)) <= 1e-12
    assert abs(state.tau - lam) <= 1e-12


def test_aegrpda_bounds_with_nonzero_curvature():
    # derived bounds must hold when the local curvature estimate is positive
    from goldsplit.linops import estimate_operator_norm
    from goldsplit.problems import gen_fused_lasso

    problem = gen_fused_lasso(30, 60, seed=3)
    k = estimate_operator_norm(problem.K, seed=0)
    beta, psi = 0.01, 1.5
    cfg = SolverConfig("aegrpda", tau0=10.0, psi=psi, beta=beta, K_norm=k,
                       max_iters=2000, trace_stride=2000)
    recs = []
    run_solver(problem, cfg,
               callback=lambda st: recs.append((st.tau, st.theta, st.theta_prev, st.L_local)))
    n_positive = 0
    for tau, theta, theta_prev, L in recs:
        if L is None:
            continue
        if L > 0:
            n_positive += 1
        root = math.sqrt(theta * theta_prev)
        assert tau * L <= root / 3.0 + 1e-12
        assert tau <= root / (3.0 * math.sqrt(beta * psi) * k) + 1e-12
    assert n_positive > 1900


def test_frozen_stepsize_matches_egrpda():
    # when tau0 sits below the adaptive floor the partially adaptive rule
    # never moves, and the trajectory coincides with fixed stepsizes
    problem = gen_lasso(15, 25, 3, scheme="gaussian", seed=6)
    y0 = -problem.meta["b"]
    k = float(np.linalg.svd(problem.K.matrix, compute_uv=False)[0])
    beta, mu = 0.2, 0.7
    tau0 = 0.5 * mu / (math.sqrt(beta) * k)
    cfg_a = SolverConfig(
        "pgrpda", tau0=tau0, psi=1.5, mu=mu, mu_prime=0.3, beta=beta,
        max_iters=200, trace_stride=200,
    )
    cfg_b = SolverConfig(
        "egrpda", psi=1.5, tau=tau0, sigma=beta * tau0, K_norm=k,
        max_iters=200, trace_stride=200,
    )
    sa, _, _ = run_solver(problem, cfg_a, y0=y0)
    sb, _, _ = run_solver(problem, cfg_b, y0=y0)
    assert np.array_equal(sa.x, sb.x)
    assert np.array_equal(sa.y, sb.y)


def test_constraint_violation_single_iteration():
    # the one-iteration ergodic average is the first iterate itself
    problem = gen_lasso(15, 25, 3, scheme="gaussian", seed=6)
    cfg = SolverConfig(
        "pgrpda", tau0=1.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=0.2,
        max_iters=1, trace_stride=1,
    )
    state, trace, _ = run_solver(problem, cfg, y0=-problem.meta["b"])
    expect = np.linalg.norm(problem.K.matvec(state.x) - state.w)
    assert math.isclose(trace.last("cviol"), expect, rel_tol=1e-12)


def test_pgrpda_degenerate_operator_fixed_point():
    # K = 0, h = 0: the iteration is proximal-point on f from z; a point in
    # the soft-threshold fixed set (the origin) stays put
    problem = ProblemInstance(
        f=L1Prox(0.5),
        g=SquaredL2Prox(1.0, np.zeros(2)),
        K=DenseOperator(np.zeros((2, 2))),
        h=ZeroSmooth(),
    )
    cfg = SolverConfig("pgrpda", tau0=1.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=0.2,
                       max_iters=50, trace_stride=50)
    state, _, _ = run_solver(problem, cfg, x0=np.zeros(2), y0=np.zeros(2))
    assert np.all(state.x == 0.0)


# ---------------------------------------------------------------------------
# shared dynamics properties


def _saddle_toy():
    # analytic saddle: x_bar = soft(b, lam), y_bar = x_bar - b
    lam = 0.1
    b = np.array([1.0, -0.2])
    x_bar = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
    y_bar = x_bar - b
    problem = ProblemInstance(
        f=L1Prox(lam),
        g=SquaredL2Prox(1.0, b),
        K=IdentityOperator(2),
        h=ZeroSmooth(),
    )
    return problem, x_bar, y_bar


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig("pgrpda", tau0=1.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=0.2),
        SolverConfig("aegrpda", tau0=1.0, psi=1.5, beta=0.2, K_norm=1.0),
        SolverConfig("egrpda", psi=1.5, tau=0.9, sigma=0.7, K_norm=1.0),
        SolverConfig("grpda", psi=1.5, tau=0.9, sigma=0.7, K_norm=1.0),
        SolverConfig("pdhg", tau=0.9, sigma=0.7, K_norm=1.0),
        SolverConfig("condat_vu", tau=0.9, sigma=0.7, K_norm=1.0),
        SolverConfig("agraal", tau0=1.0, psi=1.5, K_norm=1.0),
    ],
    ids=lambda c: c.algorithm,
)
def test_saddle_point_is_fixed_point(cfg):
    problem, x_bar, y_bar = _saddle_toy()
    cfg = dataclasses.replace(cfg, max_iters=100, trace_stride=100)
    steps = []
    run_solver(problem, cfg, x0=x_bar, y0=y_bar,
               callback=lambda st: steps.append(st.dx_norm))
    assert max(steps) <= 1e-8


def test_pgrpda_tau_monotone_on_random_instance():
    problem = gen_lasso(30, 60, 4, scheme="gaussian", seed=3)
    cfg = SolverConfig(
        "pgrpda", tau0=10.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=0.2,
        max_iters=3000, trace_stride=3000,
    )
    taus = []
    run_solver(problem, cfg, y0=-problem.meta["b"],
               callback=lambda st: taus.append(st.tau))
    assert all(t1 <= t0 for t0, t1 in zip(taus, taus[1:]))


def test_coupling_term_trend():
    # windowed max of ||x - z|| decreases along the run
    problem = gen_lasso(30, 60, 4, scheme="gaussian", seed=5)
    cfg = SolverConfig(
        "pgrpda", tau0=10.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=0.2,
        max_iters=4000, trace_stride=4000,
    )
    vals = []
    run_solver(problem, cfg, y0=-problem.meta["b"],
               callback=lambda st: vals.append(np.linalg.norm(st.x - st.z)))
    window = 500
    maxima = [max(vals[i : i + window]) for i in range(0, 4000, window)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(maxima, maxima[1:]))


def test_aegrpda_grows_in_flat_region():
    # tiny curvature and a tiny operator: the growth branch drives tau up
    problem = ProblemInstance(
        f=ZeroProx(),
        g=SquaredL2Prox(1.0, np.zeros(2)),
        K=DenseOperator(1e-8 * np.eye(2)),
        h=LeastSquares(1e-8 * np.eye(2), np.zeros(2)),
    )
    cfg = SolverConfig("aegrpda", tau0=1.0, psi=1.5, beta=1.0, K_norm=1e-8,
                       max_iters=40, trace_stride=40, tau_max=1e7)
    taus = []
    run_solver(problem, cfg, x0=np.array([1.0, -1.0]), y0=np.zeros(2),
               callback=lambda st: taus.append(st.tau))
    rho = cfg.effective_rho
    assert taus[5] > taus[0]
    growth = [b / a for a, b in zip(taus[1:10], taus[2:11])]
    assert all(abs(g - rho) < 1e-6 for g in growth)


def test_agraal_lambda_grows_when_field_constant():
    # linear h and K = 0 make the joint field constant, so lambda climbs by
    # rho until it hits the cap
    problem = ProblemInstance(
        f=SquaredL2Prox(1.0, np.ones(2)),
        g=SquaredL2Prox(1.0, np.zeros(2)),
        K=DenseOperator(np.zeros((2, 2))),
        h=ZeroSmooth(),
    )
    cap = 5.0
    cfg = SolverConfig("agraal", tau0=1.0, psi=1.5, tau_max=cap,
                       max_iters=60, trace_stride=60)
    lams = []
    run_solver(problem, cfg, x0=np.zeros(2), y0=np.zeros(2),
               callback=lambda st: lams.append(st.tau))
    rho = cfg.effective_rho
    assert math.isclose(lams[0], rho * 1.0)
    assert lams[-1] == cap


# ---------------------------------------------------------------------------
# the run loop


def test_zero_budget_returns_initial_state():
    problem, _ = _toy_problem()
    cfg = SolverConfig("pgrpda", max_iters=0)
    state, trace, summary = run_solver(problem, cfg, x0=_X0, y0=_Y0)
    assert len(trace) == 0
    assert np.array_equal(state.x, _X0)
    assert summary.iterations == 0


def test_incremental_mean_matches_batch_oracle():
    problem = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)
    cfg = SolverConfig(
        "pgrpda", tau0=1.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=0.2,
        max_iters=1000, trace_stride=1000,
    )
    xs, ws = [], []
    state, _, _ = run_solver(
        problem, cfg, y0=-problem.meta["b"],
        callback=lambda st: (xs.append(st.x.copy()), ws.append(st.w.copy())),
    )
    assert np.max(np.abs(state.x_bar - np.mean(xs, axis=0))) <= 1e-12
    assert np.max(np.abs(state.w_bar - np.mean(ws, axis=0))) <= 1e-12


def test_stop_tol_early_exit():
    problem = gen_strongly_convex(40, 10, ridge=1.0, seed=1)
    cfg = SolverConfig(
        "pgrpda", tau0=1.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=10.0,
        max_iters=50_000, stop_tol=1e-9, trace_stride=500,
    )
    state, trace, summary = run_solver(problem, cfg)
    assert summary.stop_reason == "stop_tol"
    assert summary.iterations < 50_000
    assert trace.last("xz") <= 1e-9


def test_aegrpda_resolves_closed_form_norm_without_power_iteration(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("power iteration called")

    monkeypatch.setattr(linops, "estimate_operator_norm", fail)
    problem = gen_inpainting(synthetic_blocks_image(12, 10), 0.3, 1e-2, seed=1)
    cfg = SolverConfig("aegrpda", tau0=1.0, psi=1.5, beta=0.1, max_iters=50)
    _, _, summary = run_solver(problem, cfg)
    assert summary.iterations == 50
    assert summary.k_norm == DiscreteGradient2D(12, 10).exact_norm()


def test_duck_typed_operator_norm_uses_seeded_power_iteration(rng):
    A = rng.standard_normal((8, 6))
    dense = DenseOperator(A)

    class DuckOperator:
        shape = dense.shape
        matvec = dense.matvec
        rmatvec = dense.rmatvec

    problem = ProblemInstance(
        f=L1Prox(0.1), g=SquaredL2Prox(1.0, rng.standard_normal(8)),
        K=DuckOperator(), h=ZeroSmooth(),
    )
    cfg = SolverConfig("aegrpda", tau0=1.0, psi=1.5, seed=3, max_iters=5)
    _, _, summary = run_solver(problem, cfg)
    assert summary.k_norm == estimate_operator_norm(dense, seed=3)


def test_numeric_abort_names_solver_and_iteration():
    problem = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)
    cfg = SolverConfig("pdhg", tau=1e8, sigma=1e8, K_norm=1.0, max_iters=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericAbort) as exc:
            run_solver(problem, cfg, y0=-problem.meta["b"])
    assert exc.value.solver == "pdhg"
    assert 0 < exc.value.iteration <= 2000


def test_aegrpda_zero_k_norm_without_curvature():
    # h = 0 and K_norm = 0 leave the curvature candidate without a bound
    problem = ProblemInstance(
        f=L1Prox(0.5),
        g=SquaredL2Prox(1.0, np.zeros(2)),
        K=DenseOperator(np.zeros((2, 2))),
        h=ZeroSmooth(),
    )
    cfg = SolverConfig("aegrpda", K_norm=0.0, max_iters=50, trace_stride=50)
    state, _, summary = run_solver(problem, cfg, x0=np.ones(2))
    assert summary.stop_reason == "budget" and np.all(state.x == 0.0)
    # a zero K_norm claimed for a nonzero K lets tau grow unchecked; the run
    # ends in the documented abort
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericAbort, match="aegrpda"):
            run_solver(gen_lasso(50, 100, 5, seed=1), SolverConfig("aegrpda", K_norm=0.0))


class _CountingSmooth:
    """A smooth oracle that counts its gradient calls."""

    def __init__(self, inner):
        self.inner = inner
        self.grad_calls = 0

    def value(self, x):
        return self.inner.value(x)

    def grad(self, x):
        self.grad_calls += 1
        return self.inner.grad(x)

    def lipschitz(self):
        return self.inner.lipschitz()


def test_grpda_ignores_smooth_term(rng):
    A = rng.standard_normal((6, 5))
    B = rng.standard_normal((4, 5))
    b = rng.standard_normal(6)
    h = _CountingSmooth(LeastSquares(B, rng.standard_normal(4)))
    runs = []
    for smooth in (h, ZeroSmooth()):
        problem = ProblemInstance(
            f=L1Prox(0.1), g=SquaredL2Prox(1.0, b),
            K=DenseOperator(A), h=smooth,
        )
        cfg = SolverConfig("grpda", psi=1.5, tau=0.1, sigma=0.1, max_iters=40)
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepsizeWarning)
            state, trace, _ = run_solver(
                problem, cfg, y0=np.ones(6), callback=lambda st: calls.append(h.grad_calls)
            )
        runs.append((state, trace, calls))
    (state, trace, calls), (zero_state, zero_trace, _) = runs
    for name in ("x", "z", "y", "w"):
        assert np.array_equal(getattr(state, name), getattr(zero_state, name))
    assert np.array_equal(trace.column("dx"), zero_trace.column("dx"))
    assert calls == [1] * 40  # the one call is init_state's


def test_run_determinism_bitwise(tmp_path):
    problem = gen_lasso(25, 50, 3, scheme="correlated", q=0.6, seed=8)
    cfg = SolverConfig(
        "aegrpda", tau0=5.0, psi=1.5, beta=0.2, max_iters=400, trace_stride=20, seed=9
    )
    paths = []
    for tag in ("a", "b"):
        _, trace, _ = run_solver(problem, cfg, y0=-problem.meta["b"], record_time=False)
        path = tmp_path / f"{tag}.csv"
        trace.to_csv(path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


# ---------------------------------------------------------------------------
# stepsize-region warnings


def _warned(problem, cfg, **kw):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        run_solver(problem, cfg, **kw)
    return [str(w.message) for w in rec if issubclass(w.category, StepsizeWarning)]


def test_egrpda_warns_outside_region():
    problem = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)
    k = 15.0
    cfg = SolverConfig("egrpda", psi=1.5, tau=10.0 / k, sigma=10.0 / k, K_norm=k,
                       max_iters=1, trace_stride=1)
    msgs = _warned(problem, cfg, y0=-problem.meta["b"])
    assert any("egrpda" in m for m in msgs)


def test_condat_vu_warning_threshold(rng):
    A = rng.standard_normal((10, 8))
    problem = ProblemInstance(
        f=L1Prox(0.1), g=SquaredL2Prox(1.0, np.zeros(10)),
        K=DenseOperator(A), h=LeastSquares(A, rng.standard_normal(10)),
    )
    k = float(np.linalg.svd(A, compute_uv=False)[0])
    L = k * k
    tau_ok = 0.5 / (k * k + L / 2.0)
    cfg = SolverConfig("condat_vu", tau=tau_ok, sigma=0.5, K_norm=k,
                       max_iters=1, trace_stride=1)
    assert _warned(problem, cfg) == []
    cfg_bad = SolverConfig("condat_vu", tau=10.0 * tau_ok, sigma=5.0, K_norm=k,
                           max_iters=1, trace_stride=1)
    assert any("condat_vu" in m for m in _warned(problem, cfg_bad))


def test_pdhg_boundary_product_is_quiet():
    problem = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)
    k = 12.0
    cfg = SolverConfig("pdhg", tau=25.0 / k, sigma=0.04 / k, K_norm=k,
                       max_iters=1, trace_stride=1)
    assert _warned(problem, cfg, y0=-problem.meta["b"]) == []
    cfg_bad = SolverConfig("pdhg", tau=25.0 / k, sigma=0.05 / k, K_norm=k,
                           max_iters=1, trace_stride=1)
    assert any("pdhg" in m for m in _warned(problem, cfg_bad, y0=-problem.meta["b"]))


def test_grpda_warns_above_golden_and_on_smooth_term(rng):
    problem = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)
    k = 12.0
    tau = math.sqrt(GOLDEN) / k
    cfg = SolverConfig("grpda", psi=1.5, tau=tau, sigma=tau, K_norm=k,
                       max_iters=1, trace_stride=1)
    assert _warned(problem, cfg, y0=-problem.meta["b"]) == []
    cfg_bad = SolverConfig("grpda", psi=1.5, tau=1.4 * tau, sigma=1.4 * tau, K_norm=k,
                           max_iters=1, trace_stride=1)
    assert any("golden" in m for m in _warned(problem, cfg_bad, y0=-problem.meta["b"]))
    A = rng.standard_normal((6, 5))
    smooth_problem = ProblemInstance(
        f=L1Prox(0.1), g=SquaredL2Prox(1.0, np.zeros(6)),
        K=DenseOperator(A), h=LeastSquares(A, np.zeros(6)),
    )
    cfg_h = SolverConfig("grpda", psi=1.5, tau=0.01, sigma=0.01, K_norm=5.0,
                         max_iters=1, trace_stride=1)
    assert any("smooth term" in m for m in _warned(smooth_problem, cfg_h))
