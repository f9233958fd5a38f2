"""Primal-dual iteration schemes and the shared run loop.

Seven schemes operate on the splitting min_x f(x) + g(Kx) + h(x). The four
golden-ratio schemes are one step (``_golden_step``) under a stepsize policy:

* ``pgrpda``    nonincreasing primal stepsize from local operator and
                curvature ratios,
* ``aegrpda``   adaptive: the stepsize may also grow in flat regions, using
                a local Lipschitz estimate and ||K||,
* ``egrpda``    fixed stepsizes and the lagged gradient of h,
* ``grpda``     fixed stepsizes with the smooth term left out (classical).

``pdhg`` (primal-dual hybrid gradient with unit extrapolation) and its
gradient-aware extension ``condat_vu`` share one step and differ only in
their stepsize region; ``agraal`` is the fully adaptive golden-ratio scheme
on the joint primal-dual vector field. ``SCHEMES`` holds one record per
algorithm: step, policy, parameter checks and region warnings.

Every scheme materializes the auxiliary variable w (the g-block of the
splitting constraint Kx = w) so the constraint residual of the running
ergodic averages is uniformly reportable.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    NumericAbort,
    ParameterError,
    StepsizeWarning,
)
from .linops import operator_norm, vector_norm as _norm
from .metrics import IterationTrace, constraint_violation, objective, psnr
from .prox import ZeroSmooth

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Tolerance on the strict parameter-region inequalities: published tuned
# values sit within rounding distance of the bounds.
_REGION_TOL = 1e-5

# Steps below this relative size are float64 rounding noise; difference
# ratios computed from them are meaningless, so the zero-step convention
# (keep the previous stepsize) applies.
_STEP_NOISE_FLOOR = 1e-14


@dataclass
class SolverConfig:
    """Algorithm selector plus every scalar parameter.

    ``tau``/``sigma`` are the fixed stepsizes of the non-adaptive schemes;
    ``tau0`` doubles as the initial stepsize of the adaptive schemes and
    as lambda_0 for agraal; ``tau_max`` bounds the adaptive growth (and is
    lambda_max for agraal). ``extended`` selects the enlarged pgrpda
    parameter region with psi up to 1 + sqrt(3). ``seed`` seeds the
    power-iteration estimate of an unset ``K_norm``, which is only made
    for operators without a closed-form norm.
    """

    algorithm: str
    tau0: float = 1.0
    beta: float = 1.0
    psi: float = 1.5
    mu: float = 0.7
    mu_prime: float = 0.3
    extended: bool = False
    rho: float | None = None
    theta0: float = 1.0
    tau_max: float = 1e7
    tau: float | None = None
    sigma: float | None = None
    K_norm: float | None = None
    max_iters: int = 1000
    trace_stride: int = 1
    seed: int = 0
    stop_tol: float = 0.0

    @property
    def effective_rho(self):
        """Growth factor: defaults to 1/psi + 1/psi^2 when unset."""
        if self.rho is not None:
            return self.rho
        return 1.0 / self.psi + 1.0 / self.psi**2


def pgrpda_mu_bound(psi):
    """Upper bound on mu for the extended pgrpda region at a given psi."""
    return psi / 2.0 + psi * (1.0 + psi - psi**2) / (2.0 * (psi + 1.0))


def _finite_positive(value):
    """The rejecting form of 0 < value < inf: False for NaN and +-inf."""
    return math.isfinite(value) and value > 0


def _check_golden_psi(config):
    if not (1.0 < config.psi <= GOLDEN + 1e-12):
        yield f"{config.algorithm}: psi must lie in (1, {GOLDEN:.6f}] (got {config.psi})"


def _check_pgrpda(config):
    mu, mup, psi = config.mu, config.mu_prime, config.psi
    if not _finite_positive(mup):
        yield f"pgrpda: mu_prime must be finite and positive (got {mup})"
    if config.extended:
        psi_ok = 1.0 < psi < 1.0 + math.sqrt(3.0)
        if not psi_ok:
            yield f"pgrpda extended: psi must lie in (1, {1 + math.sqrt(3):.6f}) (got {psi})"
        if not (3.0 * mup < mu):
            yield f"pgrpda extended: need 3*mu_prime < mu (got {3 * mup} vs {mu})"
        # the bound is checked only on a psi in range: far outside it psi^2
        # may overflow, and the psi violation is reported already
        if psi_ok and not (mu < pgrpda_mu_bound(psi) + _REGION_TOL):
            yield (
                f"pgrpda extended: need mu < psi/2 + psi(1+psi-psi^2)/(2(psi+1)) "
                f"= {pgrpda_mu_bound(psi):.6f} (got {mu})"
            )
    else:
        yield from _check_golden_psi(config)
        if not (2.0 * mup < mu):
            yield f"pgrpda: need 2*mu_prime < mu (got {2 * mup} vs {mu})"
        if not (mu < psi / 2.0 + _REGION_TOL):
            yield f"pgrpda: need mu < psi/2 = {psi / 2.0} (got {mu})"


def _check_growth(config):
    """psi, the growth factor, theta0 and the cap of a stepsize that may grow."""
    psi_violations = list(_check_golden_psi(config))
    yield from psi_violations
    alg = config.algorithm
    # rho's cap is checked only on a psi in range, as in _check_pgrpda
    if config.rho is not None and not psi_violations:
        rho_cap = 1.0 / config.psi + 1.0 / config.psi**2
        if not (0.0 < config.rho <= rho_cap + 1e-12):
            yield (
                f"{alg}: rho must lie in (0, 1/psi + 1/psi^2] = (0, {rho_cap:.6f}] "
                f"(got {config.rho})"
            )
    if not _finite_positive(config.theta0):
        yield f"{alg}: theta0 must be finite and positive (got {config.theta0})"
    if not math.isfinite(config.tau_max):
        yield f"{alg}: tau_max must be finite (got {config.tau_max})"
    elif config.tau0 > 0 and not (config.tau_max > config.tau0):
        yield f"{alg}: tau_max must exceed tau0 (got {config.tau_max} <= {config.tau0})"


def config_violations(config):
    """Every violated parameter constraint of the selected algorithm.

    Bounds are written in their rejecting form, so NaN violates each one,
    and every float field must also be finite.
    """
    alg = config.algorithm
    scheme = SCHEMES.get(alg)
    if scheme is None:
        return [f"unknown algorithm {alg!r}"]
    v = []
    if not (config.max_iters >= 0):
        v.append(f"max_iters must be >= 0 (got {config.max_iters})")
    if not (config.trace_stride >= 1):
        v.append(f"trace_stride must be >= 1 (got {config.trace_stride})")
    if not (math.isfinite(config.stop_tol) and config.stop_tol >= 0):
        v.append(f"stop_tol must be finite and >= 0 (got {config.stop_tol})")
    if config.K_norm is not None and not (0 <= config.K_norm < math.inf):
        v.append(f"K_norm must be finite and >= 0 (got {config.K_norm})")
    if not _finite_positive(config.beta):
        v.append(f"beta must be finite and positive (got {config.beta})")

    if scheme.fixed_step:
        if config.tau is None or not _finite_positive(config.tau):
            v.append(f"{alg} needs a finite fixed tau > 0 (got {config.tau})")
        if config.sigma is None or not _finite_positive(config.sigma):
            v.append(f"{alg} needs a finite fixed sigma > 0 (got {config.sigma})")
    elif not _finite_positive(config.tau0):
        v.append(f"tau0 must be finite and positive (got {config.tau0})")

    if scheme.check is not None:
        v.extend(scheme.check(config))
    return v


def validate_config(config):
    """Return the config if every parameter constraint holds, else raise.

    The raised ConfigError carries one diagnostic per violated inequality.
    """
    violations = config_violations(config)
    if violations:
        raise ConfigError(violations)
    return config


def eta_bound(tau0, mu, mu_prime, beta, K_norm, L_bar):
    """Lower bound min{tau0, mu/(sqrt(beta)||K||), mu'/L} on the pgrpda stepsize.

    Zero ``K_norm`` or ``L_bar`` removes the corresponding term (the 1/0 =
    infinity convention).
    """
    if tau0 <= 0 or mu <= 0 or mu_prime <= 0 or beta <= 0:
        raise ParameterError("tau0, mu, mu_prime, beta must be positive")
    if K_norm < 0 or L_bar < 0:
        raise ParameterError("K_norm and L_bar must be >= 0")
    terms = [tau0]
    if K_norm > 0:
        terms.append(mu / (math.sqrt(beta) * K_norm))
    if L_bar > 0:
        terms.append(mu_prime / L_bar)
    return min(terms)


def pgrpda_tau_update(tau_prev, dx, dKx, dgrad, mu, mu_prime, beta):
    """Nonincreasing stepsize from local operator and curvature ratios.

    tau = min{tau_prev, mu ||dx|| / (sqrt(beta) ||dKx||), mu' ||dx|| / ||dgrad||},
    where a vanishing denominator removes its term and a vanishing dx
    keeps the previous stepsize.
    """
    if tau_prev <= 0:
        raise ParameterError("tau_prev must be positive")
    return _pgrpda_tau(tau_prev, _norm(dx), _norm(dKx), _norm(dgrad), mu, mu_prime, beta)


def _pgrpda_tau(tau_prev, ndx, ndK, ndg, mu, mu_prime, beta):
    """pgrpda_tau_update from the norms of dx, dKx and dgrad."""
    if ndx == 0.0:
        return tau_prev
    candidates = [tau_prev]
    if ndK > 0.0:
        candidates.append(mu * ndx / (math.sqrt(beta) * ndK))
    if ndg > 0.0:
        candidates.append(mu_prime * ndx / ndg)
    return min(candidates)


def local_lipschitz(dgrad, dx):
    """Curvature ratio ||dgrad|| / ||dx||, or None when dx vanishes.

    The None sentinel routes the caller to the growth branch of the
    adaptive stepsize update.
    """
    return _local_lipschitz(_norm(dgrad), _norm(dx))


def _local_lipschitz(ndg, ndx):
    return None if ndx == 0.0 else ndg / ndx


def aegrpda_tau_update(tau_prev, theta_prev, L_n, K_norm, beta, psi, rho, tau_max):
    """Adaptive stepsize and ratio update.

    tau = min{rho tau_prev, psi theta_prev / (9 (L^2 + beta psi ||K||^2) tau_prev),
    tau_max}; the middle branch is skipped when the curvature estimate is
    undefined (L_n is None) or its denominator vanishes (the 1/0 = infinity
    convention of eta_bound). Returns (tau, theta) with theta = psi tau / tau_prev.
    """
    if tau_prev <= 0 or theta_prev <= 0:
        raise ParameterError("tau_prev and theta_prev must be positive")
    candidates = [rho * tau_prev, tau_max]
    if L_n is not None:
        denom = 9.0 * (L_n**2 + beta * psi * (K_norm * K_norm)) * tau_prev
        if denom > 0.0:
            candidates.append(psi * theta_prev / denom)
    tau = min(candidates)
    theta = psi * tau / tau_prev
    return tau, theta


@dataclass
class SolverState:
    """Mutable per-run state shared by all schemes.

    ``grad_x`` caches the gradient of h at the current x (the lagged
    gradient of the next primal step; when the run leaves h out it keeps
    the zero gradient of the start), and ``Kx`` caches K x. For the
    non-golden schemes ``z`` holds the previous iterate so that
    ||x - z|| is uniformly the early-exit quantity. ``x_sum`` and
    ``w_sum`` add up the iterates of the ``n_avg`` finished iterations;
    the ergodic averages ``x_bar`` and ``w_bar`` divide them when read.
    The aGRAAL fields (y_prev, y_bar, Fx_prev, Fy_prev) stay None elsewhere.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    w: np.ndarray
    x_prev: np.ndarray
    grad_x: np.ndarray
    Kx: np.ndarray
    tau: float
    tau_prev: float
    sigma: float
    theta: float
    theta_prev: float
    n: int = 0
    n_avg: int = 0
    x_sum: np.ndarray = None
    w_sum: np.ndarray = None
    elapsed: float = 0.0
    dx_norm: float = 0.0
    L_local: float | None = None
    y_prev: np.ndarray = None
    y_bar: np.ndarray = None
    Fx_prev: np.ndarray = None
    Fy_prev: np.ndarray = None

    @property
    def x_bar(self):
        """Ergodic average of x; zeros before the first iteration."""
        return self.x_sum / max(self.n_avg, 1)

    @property
    def w_bar(self):
        """Ergodic average of w; zeros before the first iteration."""
        return self.w_sum / max(self.n_avg, 1)


def init_state(problem, config, x0=None, y0=None):
    """Fresh state at (x0, y0) with z0 = x0 and empty ergodic sums."""
    n = problem.K.shape.domain_dim
    m = problem.K.shape.codomain_dim
    x0 = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    y0 = np.zeros(m) if y0 is None else np.array(y0, dtype=np.float64)
    if x0.shape != (n,) or y0.shape != (m,):
        raise ParameterError(
            f"x0/y0 must have lengths {n}/{m}, got {x0.shape}/{y0.shape}"
        )
    scheme = SCHEMES[config.algorithm]
    if scheme.fixed_step:
        tau, sigma = config.tau, config.sigma
    else:
        tau, sigma = config.tau0, config.beta * config.tau0
    state = SolverState(
        x=x0,
        z=x0.copy(),
        y=y0,
        w=np.zeros(m),
        x_prev=x0.copy(),
        grad_x=problem.h.grad(x0),
        Kx=problem.K.matvec(x0),
        tau=tau,
        tau_prev=tau,
        sigma=sigma,
        theta=config.theta0,
        theta_prev=config.theta0,
        x_sum=np.zeros(n),
        w_sum=np.zeros(m),
    )
    if scheme.start is not None:
        scheme.start(state, problem, config)
    return state


def _dual_step(state, config, g, base, u, sigma):
    """Dual ascent through the primal prox of g.

    w = prox_{g/sigma}(base/sigma + u) and y = base + sigma (u - w); by the
    Moreau identity y equals the prox of sigma g* at base + sigma u. A
    stepsize that has reached 0 (or NaN) aborts the current iteration.
    """
    if not sigma > 0.0:
        raise NumericAbort(config.algorithm, state.n, "stepsize reached 0")
    w = g.prox(base / sigma + u, 1.0 / sigma)
    return w, base + sigma * (u - w)


def _negligible(ndx, x_new):
    return ndx <= _STEP_NOISE_FLOOR * (1.0 + _norm(x_new))


def _grad_change(state, grad_new):
    """||grad h(x_new) - grad h(x)||; 0 when the step leaves h out."""
    return 0.0 if grad_new is None else _norm(grad_new - state.grad_x)


def _nonincreasing_policy(state, config, ndx, x_new, Kx_new, grad_new):
    """pgrpda: shrink tau by the local operator and curvature ratios."""
    tau = tau_new = state.tau
    if not _negligible(ndx, x_new):
        tau_new = _pgrpda_tau(tau, ndx, _norm(Kx_new - state.Kx), _grad_change(state, grad_new),
                              config.mu, config.mu_prime, config.beta)
    return tau_new, config.beta * tau_new, tau_new / tau, state.L_local


def _adaptive_policy(state, config, ndx, x_new, Kx_new, grad_new):
    """aegrpda: grow or shrink tau from a local Lipschitz estimate and ||K||."""
    if config.K_norm is None:
        raise ParameterError("aegrpda needs K_norm; pass it in the config or use run_solver")
    L = None if _negligible(ndx, x_new) else _local_lipschitz(_grad_change(state, grad_new), ndx)
    tau_new, theta_new = aegrpda_tau_update(state.tau, state.theta, L, config.K_norm,
                                            config.beta, config.psi, config.effective_rho,
                                            config.tau_max)
    return tau_new, config.beta * tau_new, theta_new, L


def _fixed_policy(state, config, ndx, x_new, Kx_new, grad_new):
    """egrpda, grpda: keep the configured stepsizes."""
    return state.tau, state.sigma, state.theta, state.L_local


def _golden_step(state, problem, config, scheme):
    """One golden-ratio step; the scheme supplies the stepsize policy.

    z averages the iterate with the previous z; the primal prox runs from z
    with the lagged gradient of h unless the scheme leaves the smooth term
    out (then grad h is never called); the dual step uses the new sigma.
    """
    psi = config.psi
    tau = state.tau
    z = ((psi - 1.0) * state.x + state.z) / psi
    arg = z - tau * problem.K.rmatvec(state.y)
    if scheme.smooth:
        arg = arg - tau * state.grad_x
    x_new = problem.f.prox(arg, tau)
    Kx_new = problem.K.matvec(x_new)
    grad_new = problem.h.grad(x_new) if scheme.smooth else None
    ndx = _norm(x_new - state.x)
    tau_new, sigma, theta, L = scheme.policy(state, config, ndx, x_new, Kx_new, grad_new)
    w, y_new = _dual_step(state, config, problem.g, state.y, Kx_new, sigma)
    state.x_prev = state.x
    state.x = x_new
    state.z = z
    state.y = y_new
    state.w = w
    state.Kx = Kx_new
    if scheme.smooth:
        state.grad_x = grad_new
    state.tau_prev = tau
    state.tau = tau_new
    state.sigma = sigma
    state.theta_prev = state.theta
    state.theta = theta
    state.L_local = L
    state.dx_norm = ndx
    return state


def _condat_vu_step(state, problem, config, scheme):
    """Extrapolated primal-dual step with the lagged gradient of h.

    The dual update sees K(2 x_n - x_{n-1}); z tracks the previous iterate
    so the early-exit quantity ||x - z|| is the plain step norm. With h = 0
    this is the classical pdhg, which shares the step.
    """
    tau = state.tau
    arg = state.x - tau * problem.K.rmatvec(state.y)
    if scheme.smooth:
        arg = arg - tau * state.grad_x
    x_new = problem.f.prox(arg, tau)
    Kx_new = problem.K.matvec(x_new)
    u = 2.0 * Kx_new - state.Kx
    w, y_new = _dual_step(state, config, problem.g, state.y, u, state.sigma)
    state.dx_norm = _norm(x_new - state.x)
    state.x_prev = state.x
    state.z = state.x
    state.x = x_new
    state.y = y_new
    state.w = w
    state.Kx = Kx_new
    if scheme.smooth:
        state.grad_x = problem.h.grad(x_new)
    return state


def _agraal_start(state, problem, config):
    """aGRAAL's one stepsize and the lagged dual iterate and vector field."""
    state.sigma = state.tau
    state.y_prev = state.y.copy()
    state.y_bar = state.y.copy()
    state.Fx_prev = state.grad_x + problem.K.rmatvec(state.y)
    state.Fy_prev = -state.Kx


def _agraal_step(state, problem, config, scheme):
    """Fully adaptive golden-ratio step on the joint primal-dual field.

    The vector field is F(x, y) = (grad h(x) + K* y, -K x) over the product
    space with the sum inner product, so the stepsize ratio uses
    sqrt(||dx||^2 + ||dy||^2). Primal and dual updates share one stepsize
    and are computed from the lagged iterate (Jacobian style).
    """
    psi = config.psi
    rho = config.effective_rho
    lam = state.tau
    Fx = state.grad_x + problem.K.rmatvec(state.y)
    Fy = -state.Kx
    # ||x - x_prev|| is the last step's ||x_new - x||, from the same operands
    du2 = state.dx_norm**2 + _norm(state.y - state.y_prev) ** 2
    dF2 = _norm(Fx - state.Fx_prev) ** 2 + _norm(Fy - state.Fy_prev) ** 2
    candidates = [rho * lam, config.tau_max]
    scale = 1.0 + _norm(state.x) + _norm(state.y)
    if math.sqrt(du2) > _STEP_NOISE_FLOOR * scale and dF2 > 0.0:
        candidates.append(psi * state.theta / (4.0 * lam) * du2 / dF2)
    lam_new = min(candidates)
    x_bar = ((psi - 1.0) * state.x + state.z) / psi
    x_new = problem.f.prox(x_bar - lam_new * Fx, lam_new)
    y_bar = ((psi - 1.0) * state.y + state.y_bar) / psi
    w, y_new = _dual_step(state, config, problem.g, y_bar, state.Kx, lam_new)
    state.dx_norm = _norm(x_new - state.x)
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
    state.tau_prev = lam
    state.tau = lam_new
    state.sigma = lam_new
    state.theta_prev = state.theta
    state.theta = psi * lam_new / lam
    return state


# Fixed-stepsize region warnings from tau*sigma*||K||^2; boundary values stay quiet.
_REGION_SLACK = 1.0 + 1e-9


def _egrpda_region(problem, config, ts_k2):
    q = ts_k2 + 2.0 * config.tau * problem.h.lipschitz()
    if q >= config.psi * (1.0 - 1e-12):
        yield f"egrpda: tau*sigma*||K||^2 + 2*tau*L = {q:.6g} reaches psi = {config.psi}"


def _grpda_region(problem, config, ts_k2):
    if ts_k2 > GOLDEN * _REGION_SLACK:
        yield f"grpda: tau*sigma*||K||^2 = {ts_k2:.6g} exceeds the golden ratio {GOLDEN:.6f}"
    if not isinstance(problem.h, ZeroSmooth):
        yield "grpda ignores the smooth term h of this problem; use egrpda or condat_vu instead"


def _condat_vu_region(problem, config, ts_k2):
    q = ts_k2 + config.tau * problem.h.lipschitz() / 2.0
    if q > _REGION_SLACK:
        yield f"{config.algorithm}: tau*sigma*||K||^2 + tau*L/2 = {q:.6g} exceeds 1"


def _pdhg_region(problem, config, ts_k2):
    if not isinstance(problem.h, ZeroSmooth):
        yield from _condat_vu_region(problem, config, ts_k2)
    elif ts_k2 > _REGION_SLACK:
        yield f"pdhg: tau*sigma*||K||^2 = {ts_k2:.6g} exceeds 1"


@dataclass(frozen=True)
class Scheme:
    """One algorithm: its step, stepsize policy, parameter checks and warnings.

    The golden-ratio schemes share ``_golden_step`` and differ only in the
    ``policy`` that returns (tau, sigma, theta, L_local) and in ``smooth``,
    whether grad h enters the primal step; ``run_solver`` turns ``smooth``
    off for every scheme when h is a ``ZeroSmooth``. A ``fixed_step`` scheme keeps the
    configured tau and sigma; it and a ``needs_k_norm`` scheme get ||K||
    resolved before the run. ``check`` yields parameter violations beyond
    the shared ones, ``region`` the fixed-stepsize region warnings, and
    ``start`` sets up extra state the step keeps.
    """

    step: Callable
    policy: Callable | None = None
    smooth: bool = True
    fixed_step: bool = False
    needs_k_norm: bool = False
    check: Callable | None = None
    region: Callable | None = None
    start: Callable | None = None


SCHEMES = {
    "pgrpda": Scheme(_golden_step, _nonincreasing_policy, check=_check_pgrpda),
    "aegrpda": Scheme(_golden_step, _adaptive_policy, needs_k_norm=True, check=_check_growth),
    "egrpda": Scheme(_golden_step, _fixed_policy, fixed_step=True, check=_check_golden_psi,
                     region=_egrpda_region),
    "condat_vu": Scheme(_condat_vu_step, fixed_step=True, region=_condat_vu_region),
    "pdhg": Scheme(_condat_vu_step, fixed_step=True, region=_pdhg_region),
    "grpda": Scheme(_golden_step, _fixed_policy, smooth=False, fixed_step=True,
                    check=_check_golden_psi, region=_grpda_region),
    "agraal": Scheme(_agraal_step, check=_check_growth, start=_agraal_start),
}

ALGORITHM_NAMES = tuple(SCHEMES)


@dataclass
class RunSummary:
    solver: str
    iterations: int
    elapsed: float
    stop_reason: str
    k_norm: float | None
    warnings: list = field(default_factory=list)
    final: dict = field(default_factory=dict)
    f_star: float | None = None
    f_star_provenance: str | None = None


def _stepsize_messages(problem, config, k_norm):
    """Fixed-stepsize region diagnostics; boundary values stay quiet."""
    region = SCHEMES[config.algorithm].region
    if region is None or k_norm is None:
        return []
    return list(region(problem, config, config.tau * config.sigma * (k_norm * k_norm)))


def _finite_iterates(state):
    """Whether x, y and tau are finite after a step.

    Every step sets ``dx_norm`` from x_new - x, and a non-finite entry of
    x_new makes that difference non-finite whatever x holds, so a finite
    ||dx|| proves the new x finite; a finite square sum of y proves y
    finite. Only when a square sum is not finite (a non-finite entry, or
    finite entries whose squares overflow) are the entries scanned.
    ``np.vdot`` does not check the FP flags, so an overflowing sum returns
    inf without a RuntimeWarning (``@`` would warn).
    """
    if not math.isfinite(state.tau):
        return False
    if math.isfinite(state.dx_norm) and math.isfinite(np.vdot(state.y, state.y)):
        return True
    return bool(np.isfinite(state.x).all() and np.isfinite(state.y).all())


def _resolve_k_norm(problem, config):
    if config.K_norm is not None:
        return config.K_norm
    scheme = SCHEMES[config.algorithm]
    if scheme.fixed_step or scheme.needs_k_norm:
        return operator_norm(problem.K, seed=config.seed)
    return None


def run_solver(
    problem,
    config,
    x0=None,
    y0=None,
    f_star=None,
    f_star_provenance=None,
    callback=None,
    record_time=True,
):
    """Run one solver on one problem instance.

    Returns (state, trace, summary). Trace rows are recorded every
    ``trace_stride`` iterations and always at the final one; the run stops
    at the iteration budget, or early once ||x - z|| falls to ``stop_tol``
    (when positive). Non-finite iterates abort with NumericAbort naming
    the iteration. With ``record_time=False`` the trace timestamps are
    zero so that reruns are byte-identical.
    """
    validate_config(config)
    k_norm = _resolve_k_norm(problem, config)
    if k_norm is not None and config.K_norm is None:
        config = dataclasses.replace(config, K_norm=k_norm)
    messages = _stepsize_messages(problem, config, k_norm)
    for msg in messages:
        warnings.warn(msg, StepsizeWarning, stacklevel=2)

    if f_star is None:
        f_star = problem.F_star
        if f_star is not None and f_star_provenance is None:
            f_star_provenance = problem.F_star_provenance
    state = init_state(problem, config, x0, y0)
    trace = IterationTrace()
    scheme = SCHEMES[config.algorithm]
    if isinstance(problem.h, ZeroSmooth):
        # grad h is identically 0: no scheme needs to call or add it
        scheme = dataclasses.replace(scheme, smooth=False)
    step = scheme.step
    x_true = problem.x_true
    x_true_norm = None if x_true is None else _norm(x_true)
    track_psnr = (
        x_true is not None
        and "rows" in problem.dims
        and "cols" in problem.dims
    )

    stop_reason = "budget"
    start = time.perf_counter()
    for n in range(1, config.max_iters + 1):
        state.n = n
        step(state, problem, config, scheme)
        if not _finite_iterates(state):
            raise NumericAbort(config.algorithm, n)
        state.n_avg += 1
        state.x_sum += state.x
        state.w_sum += state.w
        if record_time:
            state.elapsed = time.perf_counter() - start
        xz = _norm(state.x - state.z)
        hit_stop = config.stop_tol > 0.0 and xz <= config.stop_tol
        if n % config.trace_stride == 0 or n == config.max_iters or hit_stop:
            try:
                f_val = objective(problem, state.x, Kx=state.Kx)
            except DataError:
                # finite iterates can still overflow the objective
                raise NumericAbort(config.algorithm, n) from None
            row = {
                "n": n,
                "t": state.elapsed,
                "F": f_val,
                "tau": state.tau,
                "sigma": state.sigma,
                "theta": None if scheme.fixed_step else state.theta,
                "dx": state.dx_norm,
                "xz": xz,
                "cviol": constraint_violation(problem.K, state.x_bar, state.w_bar),
            }
            if f_star is not None:
                row["F_gap"] = row["F"] - f_star
            if x_true is not None and x_true_norm and x_true_norm > 0:
                row["rel_err"] = _norm(state.x - x_true) / x_true_norm
            if track_psnr:
                row["psnr"] = psnr(state.x, x_true)
            trace.append(**row)
        if callback is not None:
            callback(state)
        if hit_stop:
            stop_reason = "stop_tol"
            break

    final = {}
    if len(trace):
        for name in ("n", "F", "F_gap", "tau", "sigma", "dx", "xz", "cviol", "rel_err", "psnr"):
            val = trace.last(name)
            if val is not None:
                final[name] = val
    summary = RunSummary(
        solver=config.algorithm,
        iterations=state.n,
        elapsed=state.elapsed,
        stop_reason=stop_reason,
        k_norm=k_norm,
        warnings=messages,
        final=final,
        f_star=f_star,
        f_star_provenance=f_star_provenance,
    )
    return state, trace, summary
