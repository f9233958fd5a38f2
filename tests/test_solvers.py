import copy
import dataclasses
import inspect
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldsplit import linops, solvers
from goldsplit.errors import ConfigError, NumericAbort, ParameterError, StepsizeWarning
from goldsplit.linops import (
    DenseOperator,
    DiscreteGradient2D,
    IdentityOperator,
    estimate_operator_norm,
)
from goldsplit.metrics import TRACE_COLUMNS
from goldsplit.problems import (
    ProblemInstance,
    gen_inpainting,
    gen_lasso,
    gen_strongly_convex,
    synthetic_blocks_image,
)
from goldsplit.prox import (
    GroupL21Prox,
    L1Prox,
    LeastSquares,
    MaskedLeastSquares,
    ProxOracle,
    SmoothOracle,
    SquaredL2Prox,
    ZeroProx,
    ZeroSmooth,
)
from goldsplit.solvers import (
    ALGORITHM_NAMES,
    SolverConfig,
    config_violations,
    run_solver,
    validate_config,
)
from goldsplit.stepsizes import (
    GOLDEN,
    aegrpda_tau_update,
    eta_bound,
    local_lipschitz,
    pgrpda_tau_update,
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


def test_negative_seed_is_config_error_before_any_norm():
    assert config_violations(SolverConfig("pgrpda", seed=-1)) == ["seed must be >= 0 (got -1)"]
    with pytest.raises(ConfigError) as exc:
        run_solver(gen_lasso(20, 40, 3, seed=1), SolverConfig("aegrpda", seed=-1))
    assert exc.value.violations == ["seed must be >= 0 (got -1)"]


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


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize(
    "name,alg",
    [(name, alg) for name, algs in _FLOAT_FIELD_READERS.items() for alg in algs],
)
def test_infinite_parameter_is_rejected(name, alg, value):
    # the NaN table above covers every float field, so it covers +-inf too
    steps = {"tau": 0.1, "sigma": 0.1} if alg in _FIXED else {}
    with pytest.raises(ConfigError) as exc:
        validate_config(SolverConfig(alg, **{**steps, name: value}))
    assert any("inf" in v for v in exc.value.violations)


# NaN, +-inf, and every finite negative float (-0.0 counts as zero)
_BAD_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=-5e-324, allow_infinity=False),
)


# the extended pgrpda region reads the fields pgrpda reads
_EXTENDED = {"extended": True, "mu_prime": 0.2}


@pytest.mark.parametrize(
    "name,alg,extra",
    [(name, alg, {}) for name, algs in _FLOAT_FIELD_READERS.items() for alg in algs]
    + [(name, "pgrpda", _EXTENDED) for name, algs in _FLOAT_FIELD_READERS.items()
       if "pgrpda" in algs],
    ids=lambda p: ("extended" if p else "base") if isinstance(p, dict) else None,
)
@settings(max_examples=25, deadline=None)
@given(value=_BAD_FLOATS)
def test_non_finite_or_negative_parameter_is_rejected(name, alg, extra, value):
    steps = {"tau": 0.1, "sigma": 0.1} if alg in _FIXED else {}
    base = SolverConfig(alg, **steps, **extra)
    assert validate_config(base) is base
    with pytest.raises(ConfigError):
        validate_config(dataclasses.replace(base, **{name: value}))


@pytest.mark.parametrize("psi", [-1.0, 0.0, 1e-200, -1e-200, 1e200, -1e200])
def test_psi_far_out_of_range_is_a_violation_not_an_arithmetic_error(psi):
    for cfg in (SolverConfig("pgrpda", psi=psi, **_EXTENDED),
                SolverConfig("aegrpda", psi=psi, rho=1.0),
                SolverConfig("agraal", psi=psi, rho=1.0)):
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert any("psi must lie in" in v for v in exc.value.violations)


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


def test_eta_bound_rejects_nan():
    # a NaN norm and smoothness constant used to drop both terms and return tau0
    with pytest.raises(ParameterError):
        eta_bound(1.0, 0.5, 0.2, 0.2, math.nan, math.nan)
    for slot in range(6):
        args = [1.0, 0.5, 0.2, 0.2, 2.0, 3.0]
        args[slot] = math.nan
        with pytest.raises(ParameterError):
            eta_bound(*args)


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


def test_tau_updates_reject_a_nan_previous_step():
    dx = np.array([0.5, 0.0, 0.0])
    for tau_prev in (math.nan, 0.0, -1.0):
        with pytest.raises(ParameterError):
            pgrpda_tau_update(tau_prev, dx, dx, dx, 0.7, 0.3, 0.2)
    for tau_prev, theta_prev in ((math.nan, 0.9), (2.0, math.nan), (0.0, 0.9), (2.0, -0.9)):
        with pytest.raises(ParameterError):
            aegrpda_tau_update(tau_prev, theta_prev, 1.0, 5.0, 1.0, 1.5, 1.1, 1e7)


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


def _agraal_step_fresh(state, problem, config, scheme):
    """The agraal step as written before it reused dx_norm: ||x - x_prev|| afresh."""
    psi = config.psi
    rho = config.effective_rho
    lam = state.tau
    Fx = state.grad_x + problem.K.rmatvec(state.y)
    Fy = -state.Kx
    du2 = np.linalg.norm(state.x - state.x_prev) ** 2 + np.linalg.norm(state.y - state.y_prev) ** 2
    dF2 = np.linalg.norm(Fx - state.Fx_prev) ** 2 + np.linalg.norm(Fy - state.Fy_prev) ** 2
    candidates = [rho * lam, config.tau_max]
    scale = 1.0 + np.linalg.norm(state.x) + np.linalg.norm(state.y)
    if math.sqrt(du2) > solvers._STEP_NOISE_FLOOR * scale and dF2 > 0.0:
        candidates.append(psi * state.theta / (4.0 * lam) * du2 / dF2)
    lam_new = min(candidates)
    x_bar = ((psi - 1.0) * state.x + state.z) / psi
    x_new = problem.f.prox(x_bar - lam_new * Fx, lam_new)
    y_bar = ((psi - 1.0) * state.y + state.y_bar) / psi
    w = problem.g.prox(y_bar / lam_new + state.Kx, 1.0 / lam_new)
    y_new = y_bar + lam_new * (state.Kx - w)
    state.dx_norm = np.linalg.norm(x_new - state.x)
    state.x_prev = state.x
    state.y_prev = state.y
    state.Fx_prev = Fx
    state.Fy_prev = Fy
    state.z = x_bar
    state.y_bar = y_bar
    state.x = x_new
    state.y = y_new
    state.w = w
    state.Kx = problem.K.matvec(x_new)
    if scheme.smooth:
        state.grad_x = problem.h.grad(x_new)
    state.tau = lam_new
    state.sigma = lam_new
    state.theta_prev = state.theta
    state.theta = psi * lam_new / lam
    return state


def _agraal_fresh_kernel(state, problem, config, scheme, **calls_and_views):
    """A kernel builder around ``_agraal_step_fresh``, with the run loop's bookkeeping."""
    solvers._agraal_kernel(state, problem, config, scheme, **calls_and_views)  # the start

    def step(n):
        state.n = n
        _agraal_step_fresh(state, problem, config, scheme)
        if not solvers._finite_iterates(state):
            raise NumericAbort(config.algorithm, n)
        state.n_avg += 1
        state.x_sum += state.x
        state.w_sum += state.w
        return np.linalg.norm(state.x - state.z)

    return step


@pytest.mark.parametrize("smooth", [False, True], ids=["h-zero", "h-least-squares"])
def test_agraal_reused_step_norm_matches_a_fresh_one(monkeypatch, smooth):
    # the step takes ||x - x_prev|| from the last step's dx_norm
    problem = gen_lasso(30, 60, 4, seed=8)
    if smooth:
        A = np.random.default_rng(3).standard_normal((20, 60))
        problem = dataclasses.replace(problem, h=LeastSquares(A, np.ones(20), scale=0.01))
    cfg = SolverConfig("agraal", tau0=0.5, psi=1.5, max_iters=400, trace_stride=7)
    x0 = np.random.default_rng(4).standard_normal(60)
    fresh = []
    state, trace, _ = run_solver(
        problem, cfg, x0=x0, record_time=False,
        callback=lambda st: fresh.append(st.dx_norm == np.linalg.norm(st.x - st.x_prev)),
    )
    assert len(fresh) == 400 and all(fresh)
    scheme = dataclasses.replace(solvers.SCHEMES["agraal"], step=_agraal_fresh_kernel)
    monkeypatch.setitem(solvers.SCHEMES, "agraal", scheme)
    state_f, trace_f, _ = run_solver(problem, cfg, x0=x0, record_time=False)
    for name in ("x", "y", "w", "x_bar", "w_bar"):
        assert getattr(state, name).tobytes() == getattr(state_f, name).tobytes()
    assert (state.tau, state.theta) == (state_f.tau, state_f.theta)
    for name in ("F", "tau", "sigma", "theta", "dx", "xz", "cviol"):
        assert trace.column(name).tobytes() == trace_f.column(name).tobytes()


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


def test_zero_budget_ergodic_averages_are_zeros():
    problem, _ = _toy_problem()
    state, _, _ = run_solver(problem, SolverConfig("pgrpda", max_iters=0), x0=_X0, y0=_Y0)
    assert state.n_avg == 0
    assert np.array_equal(state.x_bar, np.zeros_like(_X0))
    assert np.array_equal(state.w_bar, np.zeros_like(_Y0))


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


class _CountingDense(DenseOperator):
    """A dense operator that counts its forward products."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.products = 0

    def matvec(self, x, out=None):
        self.products += 1
        return super().matvec(x, out)


def test_smooth_bound_and_run_share_one_power_iteration(rng):
    matrix, b = rng.standard_normal((12, 8)), rng.standard_normal(12)

    def lasso(K):
        return ProblemInstance(
            f=L1Prox(0.1), g=SquaredL2Prox(1.0, b), K=K, h=LeastSquares(K, b),
        )

    problem = lasso(_CountingDense(matrix))
    L = problem.h.lipschitz()
    one_estimate = problem.K.products
    assert one_estimate > 0
    _, _, summary = run_solver(problem, SolverConfig("aegrpda", max_iters=5))
    assert summary.k_norm**2 == L
    # the run makes the products of a run given ||K||: no second power iteration
    given = lasso(_CountingDense(matrix))
    run_solver(given, SolverConfig("aegrpda", max_iters=5, K_norm=summary.k_norm))
    assert problem.K.products == one_estimate + given.K.products


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
    assert calls == [1] * 40  # the one call is _start's


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


# ---------------------------------------------------------------------------
# huge and non-finite operator norms


def test_non_finite_k_norm_is_config_error():
    for alg in ALGORITHM_NAMES:
        for k in (math.inf, -math.inf):
            cfg = SolverConfig(alg, tau=0.1, sigma=0.1, K_norm=k)
            assert any("K_norm" in v for v in config_violations(cfg))
    problem = gen_lasso(50, 100, 5, seed=1)
    with pytest.raises(ConfigError, match="K_norm"):
        run_solver(problem, SolverConfig("aegrpda", K_norm=math.inf))


@pytest.mark.parametrize("k_norm", [1e200, 1e300])
def test_huge_k_norm_aborts_when_the_stepsize_reaches_zero(k_norm):
    # the curvature candidate 1/(9 beta psi ||K||^2 tau) is 0 in float64
    problem = gen_lasso(50, 100, 5, seed=1)
    with pytest.raises(NumericAbort, match="stepsize reached 0") as exc:
        run_solver(problem, SolverConfig("aegrpda", K_norm=k_norm))
    assert exc.value.solver == "aegrpda"
    assert exc.value.iteration == 2  # the first step from x0 = 0 is negligible


@pytest.mark.parametrize("alg", ["pdhg", "egrpda"])
def test_huge_k_norm_fires_region_warning(alg):
    problem = gen_lasso(50, 100, 5, seed=1)
    cfg = SolverConfig(alg, tau=0.01, sigma=0.01, K_norm=1e200, max_iters=3)
    msgs = _warned(problem, cfg)
    assert any(alg in m and "inf" in m for m in msgs)


# ---------------------------------------------------------------------------
# finiteness checks


def _scheme_configs(problem, k=None):
    if k is None:
        k = float(np.linalg.svd(problem.K.matrix, compute_uv=False)[0])
    step = 0.9 / k
    return [
        SolverConfig("pgrpda", tau0=5.0, beta=0.2),
        SolverConfig("aegrpda", tau0=5.0, beta=0.2),
        SolverConfig("egrpda", tau=step, sigma=step, K_norm=k),
        SolverConfig("condat_vu", tau=step, sigma=step, K_norm=k),
        SolverConfig("pdhg", tau=step, sigma=step, K_norm=k),
        SolverConfig("grpda", tau=step, sigma=step, K_norm=k),
        SolverConfig("agraal", tau0=0.01),
    ]


class _NanAtCall:
    """Wraps a prox oracle; its prox puts NaN into one entry at call ``k``."""

    def __init__(self, inner, k):
        self.inner = inner
        self.k = k
        self.calls = 0

    def value(self, v):
        return self.inner.value(v)

    def prox(self, v, t):
        self.calls += 1
        out = self.inner.prox(v, t)
        if self.calls == self.k:
            out = out.copy()
            out[3] = np.nan
        return out


def test_nan_in_dual_iterate_aborts_at_its_iteration():
    # g.prox runs once per iteration and only feeds y, so x stays finite
    base = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)
    assert len(_scheme_configs(base)) == len(ALGORITHM_NAMES)
    for cfg in _scheme_configs(base):
        for k in (1, 7):
            problem = dataclasses.replace(base, g=_NanAtCall(base.g, k))
            cfg = dataclasses.replace(cfg, max_iters=20, trace_stride=1)
            with pytest.raises(NumericAbort) as exc:
                run_solver(problem, cfg, y0=-base.meta["b"])
            assert (exc.value.solver, exc.value.iteration) == (cfg.algorithm, k)


def test_finite_check_scans_entries_when_square_sums_overflow():
    x = np.full(4, 1e200)
    state = solvers.SolverState(
        x=x, z=x, y=-x, w=x, x_prev=x, grad_x=x, Kx=x, tau=1.0,
        sigma=1.0, theta=1.0, theta_prev=1.0, dx_norm=math.inf,
    )
    assert solvers._finite_iterates(state)
    for name in ("x", "y"):
        bad = getattr(state, name).copy()
        bad[2] = np.nan
        assert not solvers._finite_iterates(dataclasses.replace(state, **{name: bad}))
    assert not solvers._finite_iterates(dataclasses.replace(state, tau=math.nan))


def test_finite_check_emits_no_warning_on_overflow_or_nan():
    # np.vdot ignores the FP flags; if it ever checks them this test fails
    # rather than the run loop printing a RuntimeWarning per iteration
    y = np.full(50, 1e200)
    state = solvers.SolverState(
        x=y, z=y, y=y, w=y, x_prev=y, grad_x=y, Kx=y, tau=1.0,
        sigma=1.0, theta=1.0, theta_prev=1.0, dx_norm=1.0,
    )
    bad = y.copy()
    bad[7] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solvers._finite_iterates(state)
        assert not solvers._finite_iterates(dataclasses.replace(state, y=bad))


def test_overflowing_step_norm_does_not_abort():
    # from x0 = 1e200 the l1 prox moves x to 0: ||dx|| overflows, x stays finite
    problem = ProblemInstance(
        f=L1Prox(1.0), g=L1Prox(1.0), K=DenseOperator(np.eye(2)), h=ZeroSmooth(),
    )
    cfg = SolverConfig("pdhg", tau=2e200, sigma=1e-201, K_norm=1.0, max_iters=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state, trace, summary = run_solver(problem, cfg, x0=np.full(2, 1e200))
    assert summary.stop_reason == "budget" and summary.iterations == 3
    assert trace.column("dx")[0] == math.inf
    assert np.all(state.x == 0.0)


# ---------------------------------------------------------------------------
# h = ZeroSmooth


class _CountingZero(ZeroSmooth):
    def __init__(self):
        self.grad_calls = 0

    def grad(self, x, out=None):
        self.grad_calls += 1
        return super().grad(x, out)


class _DuckZero:
    """A zero smooth term that is not a ZeroSmooth."""

    def value(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros_like(x)

    def lipschitz(self):
        return 0.0


def test_zero_smooth_makes_no_gradient_calls_and_keeps_iterates():
    base = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)
    for cfg in _scheme_configs(base):
        cfg = dataclasses.replace(cfg, max_iters=60, trace_stride=1)
        counting = _CountingZero()
        calls = []
        runs = []
        for h in (counting, _DuckZero()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StepsizeWarning)
                runs.append(run_solver(
                    dataclasses.replace(base, h=h), cfg, y0=-base.meta["b"],
                    record_time=False, callback=lambda st: calls.append(counting.grad_calls),
                ))
        assert calls[:60] == [1] * 60, cfg.algorithm  # the one call is _start's
        (state, trace, _), (duck_state, duck_trace, _) = runs
        for name in ("x", "z", "y", "w", "x_bar", "w_bar"):
            assert getattr(state, name).tobytes() == getattr(duck_state, name).tobytes()
        for name in ("F", "tau", "sigma", "dx", "xz", "cviol"):
            assert trace.column(name).tobytes() == duck_trace.column(name).tobytes()


# ---------------------------------------------------------------------------
# the run's block: one allocation, oracles that write through out


class _NoOut:
    """A duck-typed copy of an oracle whose methods take no ``out``."""

    def __init__(self, inner):
        self.inner = inner
        self.shape = getattr(inner, "shape", None)

    def exact_norm(self):
        return linops.operator_norm(self.inner)

    def matvec(self, x):
        return self.inner.matvec(x)

    def rmatvec(self, y):
        return self.inner.rmatvec(y)

    def value(self, v):
        return self.inner.value(v)

    def prox(self, v, t):
        return self.inner.prox(v, t)

    def grad(self, x):
        return self.inner.grad(x)

    def lipschitz(self):
        return self.inner.lipschitz()


def _identity_problem():
    # IdentityOperator and ZeroProx return their input when called without out
    rng = np.random.default_rng(12)
    n = 9
    return ProblemInstance(
        f=ZeroProx(), g=SquaredL2Prox(1.0, rng.standard_normal(n)),
        K=IdentityOperator(n), h=LeastSquares(rng.standard_normal((5, n)), np.ones(5)),
    )


def _fixed_and_adaptive_configs(k_norm):
    step = 0.5 / k_norm
    return [
        SolverConfig("pgrpda", tau0=5.0, beta=0.2),
        SolverConfig("aegrpda", tau0=5.0, beta=0.2),
        SolverConfig("egrpda", tau=step, sigma=step),
        SolverConfig("condat_vu", tau=step, sigma=step),
        SolverConfig("pdhg", tau=step, sigma=step),
        SolverConfig("grpda", tau=step, sigma=step),
        SolverConfig("agraal", tau0=0.01),
    ]


_ALIAS_PROBLEMS = {
    "lasso": lambda: gen_lasso(20, 40, 3, scheme="gaussian", seed=2),
    "inpainting-12x12": lambda: gen_inpainting(synthetic_blocks_image(12, 12), 0.3, 1e-2, seed=4),
    "identity-zero-prox": _identity_problem,
}


@pytest.mark.parametrize("name", sorted(_ALIAS_PROBLEMS))
def test_oracles_without_out_give_the_bytes_of_oracles_with_it(name):
    base = _ALIAS_PROBLEMS[name]()
    duck = dataclasses.replace(base, **{r: _NoOut(getattr(base, r)) for r in "fgKh"})
    configs = _fixed_and_adaptive_configs(linops.operator_norm(base.K))
    assert {c.algorithm for c in configs} == set(ALGORITHM_NAMES)
    y0 = np.random.default_rng(5).standard_normal(base.K.shape.codomain_dim)
    for cfg in configs:
        cfg = dataclasses.replace(cfg, max_iters=60, trace_stride=7)
        runs = []
        for problem in (base, duck):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StepsizeWarning)
                runs.append(run_solver(problem, cfg, y0=y0, record_time=False))
        (state, trace, _), (duck_state, duck_trace, _) = runs
        assert not isinstance(duck.K, linops.LinearOperator)
        for field_name in ("x", "y", "z", "w", "x_bar", "w_bar"):
            assert (getattr(state, field_name).tobytes()
                    == getattr(duck_state, field_name).tobytes()), (cfg.algorithm, field_name)
        for column in ("F", "tau", "sigma", "dx", "xz", "cviol"):
            assert trace.column(column).tobytes() == duck_trace.column(column).tobytes(), (
                cfg.algorithm, column)


_WRAPPED_METHODS = {"K": (("matvec", 1), ("rmatvec", 1)), "f": (("prox", 2),),
                    "g": (("prox", 2),), "h": (("grad", 1),)}


def _recording(calls, key, n_args, method):
    """``method`` behind a ``*args`` wrapper that records whether it was given ``out``."""

    def wrapped(*args, **kwargs):
        calls.append((key, len(args) + len(kwargs) > n_args))
        return method(*args, **kwargs)

    return wrapped


def _forwarding_copy(problem, calls):
    """Shallow copies of the oracles with their methods shadowed by ``_recording`` wrappers."""
    oracles = {}
    for role, methods in _WRAPPED_METHODS.items():
        oracle = copy.copy(getattr(problem, role))
        for name, n_args in methods:
            setattr(oracle, name, _recording(calls, f"{role}.{name}", n_args,
                                             getattr(oracle, name)))
        oracles[role] = oracle
    return dataclasses.replace(problem, **oracles)


def test_forwarding_wrappers_receive_out_and_keep_the_bytes():
    # a wrapper that forwards *args around an oracle of the package's
    # classes still gets out from the run loop; the only calls without it
    # are the K x_bar of each trace row's constraint violation
    base = gen_inpainting(synthetic_blocks_image(12, 12), 0.3, 1e-2, seed=4)
    calls = []
    wrapped = _forwarding_copy(base, calls)
    y0 = np.random.default_rng(5).standard_normal(base.K.shape.codomain_dim)
    for cfg in _fixed_and_adaptive_configs(linops.operator_norm(base.K)):
        cfg = dataclasses.replace(cfg, max_iters=60, trace_stride=7)
        runs = []
        for problem in (base, wrapped):
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StepsizeWarning)
                runs.append(run_solver(problem, cfg, y0=y0, record_time=False))
        (state, trace, _), (wrapped_state, wrapped_trace, _) = runs
        without_out = [key for key, has_out in calls if not has_out]
        assert without_out == ["K.matvec"] * len(trace), cfg.algorithm
        assert {key for key, has_out in calls if has_out} >= {"K.matvec", "K.rmatvec",
                                                              "f.prox", "g.prox"}
        for field_name in ("x", "y", "w", "x_bar", "w_bar"):
            assert (getattr(state, field_name).tobytes()
                    == getattr(wrapped_state, field_name).tobytes()), (cfg.algorithm, field_name)
        for column in TRACE_COLUMNS:
            assert trace.column(column).tobytes() == wrapped_trace.column(column).tobytes(), (
                cfg.algorithm, column)


def _package_subclasses(base):
    found = [base]
    for cls in found:
        found.extend(cls.__subclasses__())
    return [cls for cls in found if cls.__module__.startswith("goldsplit.")]


@pytest.mark.parametrize("base, name, n_args", [
    (linops.LinearOperator, "matvec", 1), (linops.LinearOperator, "rmatvec", 1),
    (ProxOracle, "prox", 2), (SmoothOracle, "grad", 1)])
def test_every_package_oracle_method_takes_a_positional_out(base, name, n_args):
    # the run passes out to the methods of these classes
    for cls in _package_subclasses(base):
        # the unbound method takes self first
        param = list(inspect.signature(getattr(cls, name)).parameters.values())[n_args + 1]
        assert param.name == "out" and param.kind is param.POSITIONAL_OR_KEYWORD, cls


@pytest.mark.parametrize("alg", ALGORITHM_NAMES)
def test_x_prev_at_each_callback_is_the_previous_iterate(alg):
    base = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)
    A = np.random.default_rng(3).standard_normal((10, 40))
    problem = dataclasses.replace(base, h=LeastSquares(A, np.ones(10), scale=0.01))
    cfg = next(c for c in _scheme_configs(base) if c.algorithm == alg)
    cfg = dataclasses.replace(cfg, max_iters=120, trace_stride=50)
    seen = []

    def check(st):
        assert st.dx_norm == np.linalg.norm(st.x - st.x_prev)
        if seen:
            assert st.x_prev.tobytes() == seen[-1]
        seen.append(st.x.tobytes())

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepsizeWarning)
        run_solver(problem, cfg, y0=-base.meta["b"], callback=check)
    assert len(seen) == 120


@pytest.mark.parametrize("alg", ALGORITHM_NAMES)
def test_the_stepsize_rule_decides_fixed_steps_k_norm_and_theta(alg):
    # fixed schemes keep the configured (tau, sigma) and trace no theta; the
    # fixed and adaptive rules get ||K|| resolved; agraal has one stepsize
    fixed = alg in ("egrpda", "grpda", "condat_vu", "pdhg")
    problem = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)
    cfg = next(c for c in _scheme_configs(problem) if c.algorithm == alg)
    cfg = dataclasses.replace(cfg, K_norm=None, max_iters=30, trace_stride=1)
    steps = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepsizeWarning)
        _, trace, summary = run_solver(problem, cfg, y0=-problem.meta["b"],
                                       callback=lambda st: steps.append((st.tau, st.sigma)))
    assert (summary.k_norm is None) == (alg in ("pgrpda", "agraal"))
    theta = trace.column("theta")
    assert len(theta) == 30
    assert np.isnan(theta).all() if fixed else np.isfinite(theta).all()
    if fixed:
        assert steps == [(cfg.tau, cfg.sigma)] * 30
    if alg == "agraal":
        assert all(tau == sigma for tau, sigma in steps)


@pytest.mark.parametrize("alg", ["aegrpda", "agraal"])
def test_a_step_that_aborts_leaves_the_last_finished_iteration(alg):
    # the step writes x_new and z (and agraal's y_bar) before its dual step
    # finds the stepsize at 0; the state keeps the iterates of the last callback
    problem = gen_lasso(50, 100, 5, seed=1)
    kept = {}
    names = ("x", "x_prev", "z", "y", "w", "Kx", "grad_x", "y_prev", "y_bar")

    def keep(st):
        kept["state"] = st
        kept.update({name: getattr(st, name).tobytes() for name in names
                     if getattr(st, name) is not None})

    cfg = (SolverConfig("aegrpda", K_norm=1e300) if alg == "aegrpda"
           else SolverConfig("agraal", tau0=1.0, tau_max=1e300, rho=1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericAbort, match="stepsize reached 0"):
            run_solver(problem, cfg, callback=keep)
    state = kept["state"]
    for name in names:
        if getattr(state, name) is not None:
            assert getattr(state, name).tobytes() == kept[name], name


def _padded(length):
    """``length`` rounded up to whole 64-byte lines of float64 entries."""
    return -(-length // 8) * 8


def test_one_block_holds_the_whole_working_set():
    # aegrpda with a smooth h: x in three views, z, y, Kx and grad h in two,
    # w, the two ergodic sums and one scratch vector of length n; each row
    # is padded to whole cache lines, and numpy's array has 7 entries more,
    # so that the rows can start on a line wherever it lands
    problem = gen_inpainting(synthetic_blocks_image(12, 10), 0.3, 1e-2, seed=1)
    n, m = problem.K.shape
    state, step = solvers._start(problem, SolverConfig("aegrpda", K_norm=1.0))
    block = state.x.base
    assert block.size == 9 * _padded(n) + 6 * _padded(m) + 7 == 21 * n + 7
    kept = dict(zip(step.__code__.co_freevars, (c.cell_contents for c in step.__closure__)))
    assert kept["sm"] is None  # the aegrpda step needs no scratch_m
    arrays = _run_views(state, step)
    assert len(arrays) == 15
    assert all(a.base is block for a in arrays)
    starts = sorted(a.__array_interface__["data"][0] for a in arrays)
    assert len(set(starts)) == len(arrays)  # no two views share a start
    # a second run of the same problem shares nothing with the first
    other, _ = solvers._start(problem, SolverConfig("aegrpda", K_norm=1.0))
    assert not np.shares_memory(other.x.base, block)


def test_views_per_scheme_are_the_ones_its_step_uses():
    problem = gen_lasso(20, 40, 3, scheme="gaussian", seed=2)  # h = 0
    n, m = _padded(problem.K.shape[0]), _padded(problem.K.shape[1])
    sizes = {}
    for cfg in _scheme_configs(problem):
        state, _ = solvers._start(problem, cfg)
        sizes[cfg.algorithm] = state.x.base.size
    # x, z, grad h (0), the sum and a scratch vector; y, Kx, w and the sum;
    # the 7 entries that let the rows start on a cache line
    golden = 3 * n + 2 * n + n + 2 * n + 6 * m + 7
    assert sizes == {
        "aegrpda": golden, "egrpda": golden, "grpda": golden,
        # the pgrpda policy takes ||K x_new - K x|| in a second scratch vector
        "pgrpda": golden + m,
        # z is the previous iterate; the extrapolation needs the scratch
        "condat_vu": golden - 2 * n + m, "pdhg": golden - 2 * n + m,
        # and y_prev, y_bar, its spare, the lagged vector field and the scratch
        "agraal": golden + 2 * n + 6 * m,
    }


def _run_views(state, step):
    """Every view of a run made by ``_start``: the state's and those its kernel keeps."""
    kept = (c.cell_contents for c in step.__closure__)
    views = [a for a in vars(state).values() if isinstance(a, np.ndarray)]
    views += [a for a in kept if isinstance(a, np.ndarray) and a.base is state.x.base]
    return list({id(a): a for a in views}.values())  # state.z may be x_prev


@pytest.mark.parametrize("make", [
    lambda: gen_lasso(13, 7, 2, seed=3),  # h = 0: no grad h views
    lambda: gen_inpainting(synthetic_blocks_image(11, 13), 0.3, 1e-2, seed=1),  # smooth h
], ids=["lasso-13x7", "inpainting-11x13"])
def test_every_view_starts_on_a_cache_line(make):
    # neither n nor m is a multiple of 8, so unpadded rows would start off a line
    problem = make()
    n, m = problem.K.shape
    assert n % 8 and m % 8
    for cfg in _scheme_configs(problem, k=linops.operator_norm(problem.K)):
        state, step = solvers._start(problem, cfg)
        views = _run_views(state, step)
        assert len(views) >= 13, cfg.algorithm
        primal, dual, _ = solvers._layout(solvers._run_scheme(problem, cfg))
        assert len(views) == len(primal) + len(dual), cfg.algorithm
        for view in views:
            assert view.base is state.x.base and view.flags.c_contiguous
            assert view.ctypes.data % 64 == 0, (cfg.algorithm, view.size)


class _Peaks:
    """Largest traced memory growth of a run inside each oracle call and between calls.

    Keeps running maxima and counts in preallocated slots, so that the
    bookkeeping itself allocates nothing that lasts.
    """

    def __init__(self, names):
        self.level = None
        self.between = 0
        self.inside = dict.fromkeys(names, 0)
        self.calls = dict.fromkeys(names, 0)

    def start(self):
        tracemalloc.start()
        self.level = tracemalloc.get_traced_memory()[0]

    def stop(self):
        current, peak = tracemalloc.get_traced_memory()
        self.between = max(self.between, peak - self.level)
        tracemalloc.stop()
        return current - self.level

    def call(self, name, method, *args):
        if not tracemalloc.is_tracing():
            return method(*args)
        current, peak = tracemalloc.get_traced_memory()
        self.between = max(self.between, peak - self.level)
        tracemalloc.reset_peak()
        result = method(*args)
        self.inside[name] = max(self.inside[name], tracemalloc.get_traced_memory()[1] - current)
        self.calls[name] += 1
        tracemalloc.reset_peak()
        return result


def test_the_run_loop_allocates_only_oracle_temporaries():
    # From iteration 2 on, a 64x64 inpainting aegrpda run allocates no array
    # outside its oracles, and inside them only prox_group_l21 keeps
    # temporaries: two arrays of n_pixels entries at once besides its input
    # and out (the pixel norms and a square, then the norms and the scale).
    # Everything else stays far below one array of the shortest length, n.
    bounds = {"K.matvec": 0, "K.rmatvec": 0, "g.prox": 2, "f.prox": 0, "h.grad": 0}
    peaks = _Peaks(bounds)

    class Gradient(DiscreteGradient2D):
        def matvec(self, x, out=None):
            return peaks.call("K.matvec", super().matvec, x, out)

        def rmatvec(self, y, out=None):
            return peaks.call("K.rmatvec", super().rmatvec, y, out)

    class Zero(ZeroProx):
        def prox(self, v, t, out=None):
            return peaks.call("f.prox", super().prox, v, t, out)

    class GroupL21(GroupL21Prox):
        def prox(self, v, t, out=None):
            return peaks.call("g.prox", super().prox, v, t, out)

    class Masked(MaskedLeastSquares):
        def grad(self, x, out=None):
            return peaks.call("h.grad", super().grad, x, out)

    base = gen_inpainting(synthetic_blocks_image(64, 64), 0.3, 1e-2, seed=1)
    problem = dataclasses.replace(
        base, K=Gradient(64, 64), f=Zero(), g=GroupL21(base.g.lam, base.g.n_pixels),
        h=Masked(base.h.mask, base.h.b))
    n = problem.K.shape.domain_dim
    array_bytes = 8 * n
    slack = array_bytes / 4
    grown = []

    def window(st):
        if st.n == 1:
            peaks.start()
        elif st.n == 50:
            grown.append(peaks.stop())

    cfg = SolverConfig("aegrpda", tau0=1.0, psi=1.5, beta=0.1, max_iters=60, trace_stride=1000)
    try:
        run_solver(problem, cfg, callback=window)
    finally:
        tracemalloc.stop()
    assert peaks.calls == dict.fromkeys(bounds, 49)
    assert peaks.between < slack, peaks.between
    for name, arrays in bounds.items():  # in arrays of length n
        assert peaks.inside[name] < arrays * array_bytes + slack, (name, peaks.inside[name])
    assert grown[0] < slack  # and nothing accumulates


@pytest.mark.parametrize("alg", ALGORITHM_NAMES)
def test_an_iteration_makes_at_most_twelve_python_calls(alg):
    # the cap is now seven, tighter than the name, which test ids keep: the
    # run's kernel, its two bound proxes and their shared helpers, the
    # stepsize rule of pgrpda and aegrpda, and the callback (K and K* are
    # ndarray.dot, no Python frame); the window of 100 iterations holds no
    # trace row
    problem = gen_lasso(50, 100, 5, seed=1)
    cfg = next(c for c in _scheme_configs(problem) if c.algorithm == alg)
    cfg = dataclasses.replace(cfg, max_iters=300, trace_stride=1000)
    calls = []

    def count(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    def window(st):
        if st.n == 100:
            sys.setprofile(count)
        elif st.n == 200:
            sys.setprofile(None)

    try:
        run_solver(problem, cfg, y0=-problem.meta["b"], callback=window)
    finally:
        sys.setprofile(None)
    assert calls.count("window") == 100
    assert len(calls) <= 7 * 100, sorted(set(calls))


# ---------------------------------------------------------------------------
# run-bound oracle calls


_BOUND_PROBLEMS = {
    "lasso-50x100": lambda: gen_lasso(50, 100, 5, seed=1),
    "strongly-convex-40x30": lambda: gen_strongly_convex(40, 30, ridge=1.0, seed=2),
}


def test_dense_and_prox_oracles_give_a_run_bound_call_unless_shadowed():
    problem = gen_lasso(20, 30, 3, seed=1)
    K, f, g = problem.K, problem.f, problem.g
    assert solvers._oracle_call(K, linops.LinearOperator, "matvec") == K.matrix.dot
    assert solvers._oracle_call(K, linops.LinearOperator, "rmatvec") == K._matrix_t.dot
    for prox in (f, g):
        call = solvers._oracle_call(prox, ProxOracle, "prox")
        assert call.__name__ == "prox" and call != prox.prox
        # each run gets its own call, with its own scalars
        assert call is not solvers._oracle_call(prox, ProxOracle, "prox")
    shadowed = _forwarding_copy(problem, [])
    assert (solvers._oracle_call(shadowed.K, linops.LinearOperator, "matvec")
            is vars(shadowed.K)["matvec"])
    assert solvers._oracle_call(shadowed.f, ProxOracle, "prox") is vars(shadowed.f)["prox"]


@pytest.mark.parametrize("make", list(_BOUND_PROBLEMS.values()), ids=list(_BOUND_PROBLEMS))
def test_bound_calls_keep_the_bytes_of_the_methods(make):
    base = make()
    shadowed = _forwarding_copy(base, [])  # every method shadowed on the instance
    y0 = np.random.default_rng(3).standard_normal(base.K.shape.codomain_dim)
    # fixed steps small enough for egrpda's region on the smooth h as well
    k = linops.operator_norm(base.K) + base.h.lipschitz()
    for cfg in _scheme_configs(base, k=k):
        cfg = dataclasses.replace(cfg, max_iters=150, trace_stride=7)
        runs = []
        for problem in (base, shadowed):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StepsizeWarning)
                runs.append(run_solver(problem, cfg, y0=y0, record_time=False))
        (state, trace, _), (plain_state, plain_trace, _) = runs
        for name in ("x", "y", "w", "x_bar", "w_bar"):
            assert (getattr(state, name).tobytes()
                    == getattr(plain_state, name).tobytes()), (cfg.algorithm, name)
        for column in TRACE_COLUMNS:
            assert (np.asarray(trace.column(column)).tobytes()
                    == np.asarray(plain_trace.column(column)).tobytes()), (cfg.algorithm, column)


def test_subclass_overrides_are_called_instead_of_the_bound_calls():
    calls = {"matvec": 0, "rmatvec": 0, "f": 0, "g": 0}

    class Dense(DenseOperator):
        def matvec(self, x, out=None):
            calls["matvec"] += 1
            return super().matvec(x, out)

        def rmatvec(self, y, out=None):
            calls["rmatvec"] += 1
            return super().rmatvec(y, out)

    class L1(L1Prox):
        def prox(self, v, t, out=None):
            calls["f"] += 1
            return super().prox(v, t, out)

    class SquaredL2(SquaredL2Prox):
        def prox(self, v, t, out=None):
            calls["g"] += 1
            return super().prox(v, t, out)

    base = gen_lasso(30, 40, 3, seed=2)
    problem = dataclasses.replace(base, K=Dense(base.K.matrix), f=L1(base.f.lam),
                                  g=SquaredL2(base.g.weight, base.g.offset))
    cfg = SolverConfig("aegrpda", tau0=5.0, beta=0.2, K_norm=10.0, max_iters=25,
                       trace_stride=1000)
    state, _, _ = run_solver(problem, cfg, record_time=False)
    # _start's K x_0 and each iteration's products and proxes; the one
    # trace row's constraint violation applies K without the run's call
    assert calls == {"matvec": 1 + 25 + 1, "rmatvec": 25, "f": 25, "g": 25}
    plain, _, _ = run_solver(base, cfg, record_time=False)
    assert state.x.tobytes() == plain.x.tobytes()


def test_kernels_of_one_problem_own_their_scalars():
    # two runs of one problem stepped in turn match the same runs made one
    # after the other: the 0-d scalars of the kernels and of the bound
    # proxes belong to their run
    problem = gen_lasso(50, 100, 5, seed=1)
    first = SolverConfig("aegrpda", tau0=5.0, beta=0.2, K_norm=linops.operator_norm(problem.K))
    second = SolverConfig("pgrpda", tau0=0.5, beta=2.0, psi=1.3, mu=0.6, mu_prime=0.25)
    alone = []
    for cfg in (first, second):
        state, step = solvers._start(problem, cfg)
        for n in range(1, 41):
            step(n)
        alone.append(state)
    states, steps = zip(*(solvers._start(problem, cfg) for cfg in (first, second)))
    for n in range(1, 41):
        for step in steps:
            step(n)
    for state, single in zip(states, alone):
        for name in ("x", "y", "w", "x_sum", "w_sum"):
            assert getattr(state, name).tobytes() == getattr(single, name).tobytes(), name
        assert state.tau == single.tau


@pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf], ids=["nan", "negative", "-inf"])
def test_a_bound_prox_rejects_a_nan_or_negative_step(bad):
    v, out = np.ones(4), np.empty(4)
    for oracle in (L1Prox(0.1), SquaredL2Prox(1.0), SquaredL2Prox(2.0, np.arange(4.0))):
        call = solvers._oracle_call(oracle, ProxOracle, "prox")
        with pytest.raises(ParameterError):
            call(v, bad, out)
        with pytest.raises(ParameterError):
            oracle.prox(v, bad, out)


def test_a_bound_prox_takes_the_weight_that_the_method_checks():
    l1 = L1Prox(0.1)
    l1.lam = math.nan
    sq = SquaredL2Prox(1.0)
    sq.weight = -1.0
    for oracle in (l1, sq):
        with pytest.raises(ParameterError):
            oracle.prox(np.ones(3), 1.0, np.empty(3))
        with pytest.raises(ParameterError):
            solvers._oracle_call(oracle, ProxOracle, "prox")


@pytest.mark.parametrize("alg", ALGORITHM_NAMES)
def test_every_view_a_kernel_gets_is_contiguous_float64(alg, monkeypatch):
    # the bound products are ndarray.dot, which takes only such vectors
    problem = gen_strongly_convex(40, 30, ridge=1.0, seed=2)
    cfg = next(c for c in _scheme_configs(problem) if c.algorithm == alg)
    scheme = solvers.SCHEMES[alg]
    handed = {}

    def build(state, problem, config, scheme_, **kwargs):
        handed.update({k: v for k, v in kwargs.items() if isinstance(v, np.ndarray)})
        handed.update({k: v for k, v in vars(state).items() if isinstance(v, np.ndarray)})
        return scheme.step(state, problem, config, scheme_, **kwargs)

    monkeypatch.setitem(solvers.SCHEMES, alg, dataclasses.replace(scheme, step=build))
    solvers._start(problem, cfg)
    assert {"x", "y", "Kx", "x_spare", "y_spare", "scratch_n"} <= set(handed)
    for name, view in handed.items():
        assert view.dtype == np.float64 and view.flags.c_contiguous, (alg, name)
