"""Primal-dual iteration schemes and the shared run loop.

Seven schemes operate on the splitting min_x f(x) + g(Kx) + h(x). The four
golden-ratio schemes are one kernel (``_golden_kernel``) under a stepsize
rule:

* ``pgrpda``    nonincreasing primal stepsize from local operator and
                curvature ratios,
* ``aegrpda``   adaptive: the stepsize may also grow in flat regions, using
                a local Lipschitz estimate and ||K||,
* ``egrpda``    fixed stepsizes and the lagged gradient of h,
* ``grpda``     fixed stepsizes with the smooth term left out (classical).

``pdhg`` (primal-dual hybrid gradient with unit extrapolation) and its
gradient-aware extension ``condat_vu`` share one kernel and differ only in
their stepsize region; ``agraal`` is the fully adaptive golden-ratio scheme
on the joint primal-dual vector field. ``SCHEMES`` holds one record per
algorithm: kernel builder, rule, parameter checks and region warnings (the
rules, checks and warnings themselves are in ``stepsizes``). A kernel makes
one whole iteration per call, bookkeeping included (see ``Scheme``), so an
iteration on small vectors costs little beyond its oracle calls. Each
ascends in the dual through the primal prox of g: w = prox_{g/s}(b/s + u)
and y = b + s (u - w), which by Moreau is the prox of s g* at b + s u.

Every scheme materializes the auxiliary variable w (the g-block of the
splitting constraint Kx = w) so the constraint residual of the running
ergodic averages is uniformly reportable.

A run allocates its arrays once: ``_start`` carves the state and every
buffer the kernel writes into from one float64 block, each view starting
on a 64-byte cache line, and the kernel writes through ``out`` from then
on. An oracle that is no ``LinearOperator``, ``ProxOracle`` or
``SmoothOracle`` is called without ``out`` and its result copied.
"""

from __future__ import annotations

import dataclasses
import functools
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
from .linops import LinearOperator, operator_norm, vector_norm as _norm
from .metrics import IterationTrace, constraint_violation, objective, psnr
from .prox import ProxOracle, SmoothOracle, ZeroSmooth
from .stepsizes import (  # noqa: F401  (GOLDEN and the public rules are re-exported)
    GOLDEN,
    _check_golden_psi,
    _check_growth,
    _check_pgrpda,
    _condat_vu_region,
    _egrpda_region,
    _finite_positive,
    _grpda_region,
    _pdhg_region,
    _pgrpda_tau,
    aegrpda_tau_update,
    eta_bound,
    local_lipschitz,
    pgrpda_mu_bound,
    pgrpda_tau_update,
)

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
    parameter region with psi up to 1 + sqrt(3). An unset ``K_norm`` is
    ``operator_norm(K, seed)``: the closed form where one exists, else the
    power-iteration estimate that ``estimate_operator_norm`` keeps on the
    operator per seed, tolerance and budget, so a caller's own estimate
    with the same seed and the default budget is not made again. The
    CLI's ``NUMBER/K`` stepsizes divide by the same ``K_norm``.
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
    if not (config.seed >= 0):
        v.append(f"seed must be >= 0 (got {config.seed})")
    if not (math.isfinite(config.stop_tol) and config.stop_tol >= 0):
        v.append(f"stop_tol must be finite and >= 0 (got {config.stop_tol})")
    if config.K_norm is not None and not (0 <= config.K_norm < math.inf):
        v.append(f"K_norm must be finite and >= 0 (got {config.K_norm})")
    if not _finite_positive(config.beta):
        v.append(f"beta must be finite and positive (got {config.beta})")

    if scheme.rule == "fixed":
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

    Every array of a run's state is a view into the run's block (see
    ``_start``). The steps overwrite these arrays in later iterations, so a
    callback that keeps one must copy it.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    w: np.ndarray
    x_prev: np.ndarray
    grad_x: np.ndarray
    Kx: np.ndarray
    tau: float
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


def _oracle_call(oracle, base, name):
    """``oracle.name`` for an instance of ``base``, else a wrapper that copies into ``out``."""
    method = getattr(oracle, name)
    if isinstance(oracle, base):
        return method

    def write(*args):
        np.copyto(args[-1], method(*args[:-1]))
        return args[-1]

    return write


# The views of every run besides the scheme's own, of the primal length n
# and of the dual length m.
_PRIMAL_VIEWS = ("x", "x_prev", "x_spare", "grad_x", "x_sum", "scratch_n")
_DUAL_VIEWS = ("y", "y_spare", "Kx", "Kx_spare", "w", "w_sum")
# a view named after a field of the state goes on it; the kernel keeps the rest
_STATE_FIELDS = frozenset(f.name for f in dataclasses.fields(SolverState))


@functools.lru_cache(maxsize=None)
def _without_smooth(scheme):
    return dataclasses.replace(scheme, smooth=False)


def _run_scheme(problem, config):
    """The algorithm's scheme record, with the gradient term off for a ZeroSmooth h."""
    scheme = SCHEMES[config.algorithm]
    if isinstance(problem.h, ZeroSmooth):
        # grad h is identically 0: no scheme needs to call or add it
        scheme = _without_smooth(scheme)
    return scheme


# float64 entries per 64-byte cache line: every view of a run's block starts
# on a line, since a ufunc pass over a long view that starts off one can take
# twice as long
_LINE = 8


@functools.lru_cache(maxsize=None)
def _layout(scheme):
    """The names of the views of length n and of length m, in block order, and of the state's."""
    primal = _PRIMAL_VIEWS + ("grad_spare",) * scheme.smooth + scheme.primal_views
    dual = _DUAL_VIEWS + scheme.dual_views
    return primal, dual, tuple(name for name in primal + dual if name in _STATE_FIELDS)


def _start(problem, config, x0=None, y0=None):
    """The run's state at (x0, y0), with z0 = x0 and empty ergodic sums, and its kernel.

    Carves every array of the run from one float64 block: the state's
    arrays, a spare view for each quantity a step replaces (``x_spare``,
    ``y_spare``, ``Kx_spare``, ``grad_spare`` when the step adds grad h, and
    the scheme's own), and the scratch vector ``scratch_n`` of the primal
    length, with ``scratch_m`` of the dual length for the schemes that need
    one. The block holds one row per view, each padded to a whole number of
    64-byte cache lines, and starts on a line, so every view starts on one;
    the views' base, the array numpy allocated, is 7 entries longer still.

    The scheme's builder gets, as keyword arguments, the views that are not
    the state's and the oracle calls ``matvec``, ``rmatvec``, ``f_prox``,
    ``g_prox`` and ``h_grad``, which take ``out`` last, fill it and return
    it (see ``_oracle_call``); its kernel keeps them. A step writes each new quantity into its spare view and,
    once nothing can raise, swaps it in; the view it replaces becomes the
    spare (x and aGRAAL's y keep their previous value too, so they rotate
    through three views). Only w is written in place, after the last check
    that can abort the step, so a step that raises part-way leaves the
    state at its last finished iteration.
    """
    n = problem.K.shape.domain_dim
    m = problem.K.shape.codomain_dim
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
    if y0 is not None:
        y0 = np.asarray(y0, dtype=np.float64)
    x_shape = (n,) if x0 is None else x0.shape
    y_shape = (m,) if y0 is None else y0.shape
    if x_shape != (n,) or y_shape != (m,):
        raise ParameterError(f"x0/y0 must have lengths {n}/{m}, got {x_shape}/{y_shape}")
    scheme = _run_scheme(problem, config)
    primal, dual, on_state = _layout(scheme)
    # each row rounded up to whole lines
    row_n, row_m = -(-n // _LINE) * _LINE, -(-m // _LINE) * _LINE
    size = row_n * len(primal)
    total = size + row_m * len(dual)
    block = np.empty(total + _LINE - 1)
    first = -(block.ctypes.data // block.itemsize) % _LINE  # the first entry on a line
    views = dict(zip(primal, block[first:first + size].reshape(len(primal), row_n)[:, :n]))
    views.update(zip(dual, block[first + size:first + total].reshape(len(dual), row_m)[:, :m]))
    kept = {name: views.pop(name) for name in on_state}
    x = kept["x"]
    if x0 is None:
        x.fill(0.0)
    else:
        x[:] = x0
    if y0 is None:
        kept["y"].fill(0.0)
    else:
        kept["y"][:] = y0
    kept["x_prev"][:] = x
    if "z" in kept:
        kept["z"][:] = x
    else:
        kept["z"] = kept["x_prev"]  # the non-golden schemes' z is x_prev
    for name in ("w", "x_sum", "w_sum"):
        kept[name].fill(0.0)
    if scheme.rule == "fixed":
        tau, sigma = config.tau, config.sigma
    else:
        tau, sigma = config.tau0, config.beta * config.tau0
    state = SolverState(tau=tau, sigma=sigma, theta=config.theta0, theta_prev=config.theta0,
                        **kept)
    matvec = _oracle_call(problem.K, LinearOperator, "matvec")
    h_grad = _oracle_call(problem.h, SmoothOracle, "grad")
    h_grad(x, state.grad_x)
    matvec(x, state.Kx)
    return state, scheme.step(
        state, problem, config, scheme, matvec=matvec, h_grad=h_grad,
        rmatvec=_oracle_call(problem.K, LinearOperator, "rmatvec"),
        f_prox=_oracle_call(problem.f, ProxOracle, "prox"),
        g_prox=_oracle_call(problem.g, ProxOracle, "prox"), **views)


def _golden_kernel(state, problem, config, scheme, *, matvec, rmatvec, f_prox, g_prox, h_grad,
                   x_spare, y_spare, Kx_spare, z_spare, scratch_n, scratch_m=None,
                   grad_spare=None):
    """The golden-ratio iteration; the scheme's ``rule`` picks the stepsize branch.

    z averages the iterate with the previous z; the primal prox runs from z
    with the lagged gradient of h unless the scheme leaves the smooth term
    out (then grad h is never called); the dual step uses the new sigma.
    The rules: ``nonincreasing`` (pgrpda) shrinks tau by the local operator
    and curvature ratios, ``adaptive`` (aegrpda) grows or shrinks it from a
    local Lipschitz estimate and ||K||, and ``fixed`` (egrpda, grpda) keeps
    the configured stepsizes.
    """
    sn, sm, w, x_sum, w_sum = scratch_n, scratch_m, state.w, state.x_sum, state.w_sum
    smooth, name = scheme.smooth, config.algorithm
    nonincreasing, adaptive = scheme.rule == "nonincreasing", scheme.rule == "adaptive"
    psi, beta, mu, mu_prime = config.psi, config.beta, config.mu, config.mu_prime
    rho, tau_max, K_norm = config.effective_rho, config.tau_max, config.K_norm
    # the ufuncs get their scalars as 0-d arrays, made once and written in
    # place: a ufunc takes one in about two thirds of the time of a Python
    # float, with the same bytes; the oracles and Python arithmetic get floats
    psi_op, psi_1_op, tau_op, sigma_op = map(np.array, (psi, psi - 1.0, 0.0, 0.0))

    def step(n):
        nonlocal x_spare, y_spare, Kx_spare, z_spare, grad_spare
        state.n = n
        x, y, Kx, grad_x, tau = state.x, state.y, state.Kx, state.grad_x, state.tau
        z, x_new, Kx_new, grad_new = z_spare, x_spare, Kx_spare, grad_spare
        tau_op[()] = tau
        np.divide(np.add(np.multiply(psi_1_op, x, z), state.z, z), psi_op, z)
        np.subtract(z, np.multiply(tau_op, rmatvec(y, sn), sn), sn)
        if smooth:  # x_new is free until the prox
            np.subtract(sn, np.multiply(tau_op, grad_x, x_new), sn)
        f_prox(sn, tau, x_new)
        matvec(x_new, Kx_new)
        if smooth:
            h_grad(x_new, grad_new)
        ndx = math.sqrt(np.subtract(x_new, x, sn).dot(sn))
        # below the noise floor the ratios of the rules are undefined
        if nonincreasing:
            tau_new, L = tau, state.L_local
            if not ndx <= _STEP_NOISE_FLOOR * (1.0 + math.sqrt(x_new.dot(x_new))):
                ndK = math.sqrt(np.subtract(Kx_new, Kx, sm).dot(sm))
                ndg = math.sqrt(np.subtract(grad_new, grad_x, sn).dot(sn)) if smooth else 0.0
                tau_new = _pgrpda_tau(tau, ndx, ndK, ndg, mu, mu_prime, beta)
            sigma, theta = beta * tau_new, tau_new / tau
        elif adaptive:
            L = None
            if not ndx <= _STEP_NOISE_FLOOR * (1.0 + math.sqrt(x_new.dot(x_new))):
                ndg = math.sqrt(np.subtract(grad_new, grad_x, sn).dot(sn)) if smooth else 0.0
                L = ndg / ndx
            tau_new, theta = aegrpda_tau_update(tau, state.theta, L, K_norm, beta, psi, rho,
                                                tau_max)
            sigma = beta * tau_new
        else:
            tau_new, sigma, theta, L = tau, state.sigma, state.theta, state.L_local
        if not sigma > 0.0:
            raise NumericAbort(name, n, "stepsize reached 0")
        sigma_op[()] = sigma
        y_new = np.add(np.divide(y, sigma_op, y_spare), Kx_new, y_spare)
        g_prox(y_new, 1.0 / sigma, w)
        np.add(y, np.multiply(sigma_op, np.subtract(Kx_new, w, y_new), y_new), y_new)
        x_spare, state.x_prev, state.x = state.x_prev, x, x_new
        y_spare, state.y = y, y_new
        Kx_spare, state.Kx = Kx, Kx_new
        if smooth:
            grad_spare, state.grad_x = grad_x, grad_new
        z_spare, state.z = state.z, z
        state.tau, state.sigma, state.L_local, state.dx_norm = tau_new, sigma, L, ndx
        state.theta_prev, state.theta = state.theta, theta
        if not (math.isfinite(tau_new) and math.isfinite(ndx)
                and math.isfinite(y_new.dot(y_new)) or _finite_iterates(state)):
            raise NumericAbort(name, n)
        state.n_avg += 1
        np.add(x_sum, x_new, x_sum)
        np.add(w_sum, w, w_sum)
        return math.sqrt(np.subtract(x_new, z, sn).dot(sn))

    return step


def _condat_vu_kernel(state, problem, config, scheme, *, matvec, rmatvec, f_prox, g_prox,
                      h_grad, x_spare, y_spare, Kx_spare, scratch_n, scratch_m,
                      grad_spare=None):
    """The extrapolated primal-dual iteration with the lagged gradient of h.

    The dual update sees K(2 x_n - x_{n-1}); z tracks the previous iterate
    so the early-exit quantity ||x - z|| is the plain step norm. With h = 0
    this is the classical pdhg, which shares the kernel.
    """
    sn, sm, w, x_sum, w_sum = scratch_n, scratch_m, state.w, state.x_sum, state.w_sum
    smooth, name, tau, sigma = scheme.smooth, config.algorithm, state.tau, state.sigma
    tau_op, sigma_op = np.array(tau), np.array(sigma)  # ufunc operands, as in _golden_kernel

    def step(n):
        nonlocal x_spare, y_spare, Kx_spare, grad_spare
        state.n = n
        x, y, Kx, grad_x = state.x, state.y, state.Kx, state.grad_x
        x_new, Kx_new, grad_new = x_spare, Kx_spare, grad_spare
        np.subtract(x, np.multiply(tau_op, rmatvec(y, sn), sn), sn)
        if smooth:  # x_new is free until the prox
            np.subtract(sn, np.multiply(tau_op, grad_x, x_new), sn)
        f_prox(sn, tau, x_new)
        matvec(x_new, Kx_new)
        np.subtract(np.add(Kx_new, Kx_new, sm), Kx, sm)  # 2 K x_new exactly, less K x
        if not sigma > 0.0:
            raise NumericAbort(name, n, "stepsize reached 0")
        y_new = np.add(np.divide(y, sigma_op, y_spare), sm, y_spare)
        g_prox(y_new, 1.0 / sigma, w)
        np.add(y, np.multiply(sigma_op, np.subtract(sm, w, y_new), y_new), y_new)
        ndx = math.sqrt(np.subtract(x_new, x, sn).dot(sn))
        if smooth:
            h_grad(x_new, grad_new)
            grad_spare, state.grad_x = grad_x, grad_new
        x_spare, state.x_prev, state.x = state.x_prev, x, x_new
        y_spare, state.y = y, y_new
        Kx_spare, state.Kx = Kx, Kx_new
        state.z, state.dx_norm = x, ndx
        if not (math.isfinite(tau) and math.isfinite(ndx)
                and math.isfinite(y_new.dot(y_new)) or _finite_iterates(state)):
            raise NumericAbort(name, n)
        state.n_avg += 1
        np.add(x_sum, x_new, x_sum)
        np.add(w_sum, w, w_sum)
        return ndx  # z is the previous x, so ||x - z|| has the operands of ndx

    return step


def _agraal_kernel(state, problem, config, scheme, *, matvec, rmatvec, f_prox, g_prox, h_grad,
                   x_spare, y_spare, Kx_spare, z_spare, y_bar_spare, Fx_spare, Fy_spare,
                   scratch_n, scratch_m, grad_spare=None):
    """The fully adaptive golden-ratio iteration on the joint primal-dual field.

    The vector field is F(x, y) = (grad h(x) + K* y, -K x) over the product
    space with the sum inner product, so the stepsize ratio uses
    sqrt(||dx||^2 + ||dy||^2). Primal and dual updates share one stepsize
    and are computed from the lagged iterate (Jacobian style). The start
    sets sigma to tau, the one stepsize, and the lagged dual iterate and
    vector field.
    """
    state.sigma = state.tau
    np.copyto(state.y_prev, state.y)
    np.copyto(state.y_bar, state.y)
    rmatvec(state.y, state.Fx_prev)
    np.add(state.grad_x, state.Fx_prev, state.Fx_prev)
    np.negative(state.Kx, state.Fy_prev)
    sn, sm, w, x_sum, w_sum = scratch_n, scratch_m, state.w, state.x_sum, state.w_sum
    smooth, name = scheme.smooth, config.algorithm
    psi, rho, tau_max = config.psi, config.effective_rho, config.tau_max
    psi_op, psi_1_op, lam_op = map(np.array, (psi, psi - 1.0, 0.0))  # as in _golden_kernel

    def step(n):
        nonlocal x_spare, y_spare, Kx_spare, z_spare, y_bar_spare, Fx_spare, Fy_spare, grad_spare
        state.n = n
        x, y, Kx, grad_x, lam = state.x, state.y, state.Kx, state.grad_x, state.tau
        Fx, Fy, x_bar, y_bar = Fx_spare, Fy_spare, z_spare, y_bar_spare
        x_new, Kx_new, grad_new = x_spare, Kx_spare, grad_spare
        np.add(grad_x, rmatvec(y, Fx), Fx)
        np.negative(Kx, Fy)
        # ||x - x_prev|| is the last step's ||x_new - x||, from the same operands
        du2 = state.dx_norm**2 + math.sqrt(np.subtract(y, state.y_prev, sm).dot(sm)) ** 2
        dF2 = (math.sqrt(np.subtract(Fx, state.Fx_prev, sn).dot(sn)) ** 2
               + math.sqrt(np.subtract(Fy, state.Fy_prev, sm).dot(sm)) ** 2)
        lam_new = min(rho * lam, tau_max)
        scale = 1.0 + math.sqrt(x.dot(x)) + math.sqrt(y.dot(y))
        if math.sqrt(du2) > _STEP_NOISE_FLOOR * scale and dF2 > 0.0:
            lam_new = min(lam_new, psi * state.theta / (4.0 * lam) * du2 / dF2)
        lam_op[()] = lam_new
        np.divide(np.add(np.multiply(psi_1_op, x, x_bar), state.z, x_bar), psi_op, x_bar)
        f_prox(np.subtract(x_bar, np.multiply(lam_op, Fx, sn), sn), lam_new, x_new)
        np.divide(np.add(np.multiply(psi_1_op, y, y_bar), state.y_bar, y_bar), psi_op, y_bar)
        if not lam_new > 0.0:
            raise NumericAbort(name, n, "stepsize reached 0")
        y_new = np.add(np.divide(y_bar, lam_op, y_spare), Kx, y_spare)
        g_prox(y_new, 1.0 / lam_new, w)
        np.add(y_bar, np.multiply(lam_op, np.subtract(Kx, w, y_new), y_new), y_new)
        ndx = math.sqrt(np.subtract(x_new, x, sn).dot(sn))
        matvec(x_new, Kx_new)
        if smooth:
            h_grad(x_new, grad_new)
            grad_spare, state.grad_x = grad_x, grad_new
        x_spare, state.x_prev, state.x = state.x_prev, x, x_new
        y_spare, state.y_prev, state.y = state.y_prev, y, y_new
        Kx_spare, state.Kx = Kx, Kx_new
        Fx_spare, state.Fx_prev = state.Fx_prev, Fx
        Fy_spare, state.Fy_prev = state.Fy_prev, Fy
        z_spare, state.z = state.z, x_bar
        y_bar_spare, state.y_bar = state.y_bar, y_bar
        state.tau = state.sigma = lam_new
        state.dx_norm = ndx
        state.theta_prev, state.theta = state.theta, psi * lam_new / lam
        if not (math.isfinite(lam_new) and math.isfinite(ndx)
                and math.isfinite(y_new.dot(y_new)) or _finite_iterates(state)):
            raise NumericAbort(name, n)
        state.n_avg += 1
        np.add(x_sum, x_new, x_sum)
        np.add(w_sum, w, w_sum)
        return math.sqrt(np.subtract(x_new, x_bar, sn).dot(sn))

    return step


@dataclass(frozen=True, eq=False)
class Scheme:
    """One algorithm: its kernel builder, stepsize rule, parameter checks and warnings.

    ``step(state, problem, config, scheme, **calls_and_views)`` builds the
    run's kernel once, in ``_start``: a closure ``step(n)`` that binds the
    oracle calls, the spare and scratch views (swapping the spares in its
    own scope) and the rule's constants, makes iteration n, checks that its
    iterates are finite, adds them to the ergodic sums and returns
    ||x - z||. The golden-ratio schemes share ``_golden_kernel`` and differ
    only in ``rule`` and in ``smooth``, whether grad h enters the primal
    step; ``run_solver`` turns ``smooth`` off for every scheme when h is a
    ``ZeroSmooth``. ``rule`` is the stepsize rule: ``nonincreasing``,
    ``adaptive``, ``fixed`` (the configured tau and sigma) or None (agraal's
    own, set up by its kernel). ||K|| is resolved before the run for the
    fixed and adaptive rules. ``check`` yields parameter violations beyond
    the shared ones and ``region`` the fixed-stepsize region warnings.
    ``primal_views`` and ``dual_views`` name the views of the run's block
    (see ``_start``) that the scheme keeps beyond every run's.
    """

    step: Callable
    rule: str | None = None
    smooth: bool = True
    check: Callable | None = None
    region: Callable | None = None
    primal_views: tuple = ()
    dual_views: tuple = ()


_Z_VIEWS = ("z", "z_spare")

SCHEMES = {
    "pgrpda": Scheme(_golden_kernel, "nonincreasing", check=_check_pgrpda,
                     primal_views=_Z_VIEWS, dual_views=("scratch_m",)),
    "aegrpda": Scheme(_golden_kernel, "adaptive", check=_check_growth, primal_views=_Z_VIEWS),
    "egrpda": Scheme(_golden_kernel, "fixed", check=_check_golden_psi, region=_egrpda_region,
                     primal_views=_Z_VIEWS),
    "condat_vu": Scheme(_condat_vu_kernel, "fixed", region=_condat_vu_region,
                        dual_views=("scratch_m",)),
    "pdhg": Scheme(_condat_vu_kernel, "fixed", region=_pdhg_region, dual_views=("scratch_m",)),
    "grpda": Scheme(_golden_kernel, "fixed", smooth=False, check=_check_golden_psi,
                    region=_grpda_region, primal_views=_Z_VIEWS),
    "agraal": Scheme(_agraal_kernel, check=_check_growth,
                     primal_views=(*_Z_VIEWS, "Fx_prev", "Fx_spare"),
                     dual_views=("y_prev", "y_bar", "y_bar_spare", "Fy_prev", "Fy_spare",
                                 "scratch_m")),
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

    Every kernel sets ``dx_norm`` from x_new - x, and a non-finite entry of
    x_new makes that difference non-finite whatever x holds, so a finite
    ||dx|| proves the new x finite; a finite square sum of y proves y
    finite. Only when a square sum is not finite (a non-finite entry, or
    finite entries whose squares overflow) are the entries scanned.
    ``np.vdot`` does not check the FP flags, so an overflowing sum returns
    inf without a RuntimeWarning (``@`` would warn). The kernels test the
    square sums inline and call this only when that test fails.
    """
    if not math.isfinite(state.tau):
        return False
    if math.isfinite(state.dx_norm) and math.isfinite(np.vdot(state.y, state.y)):
        return True
    return bool(np.isfinite(state.x).all() and np.isfinite(state.y).all())


def _resolve_k_norm(problem, config):
    if config.K_norm is not None:
        return config.K_norm
    if SCHEMES[config.algorithm].rule in ("fixed", "adaptive"):
        return operator_norm(problem.K, seed=config.seed)
    return None


def run_solver(problem, config, x0=None, y0=None, f_star=None, f_star_provenance=None,
               callback=None, record_time=True):
    """Run one solver on one problem instance.

    Returns (state, trace, summary). Each iteration is one call of the
    run's kernel; the loop keeps the clock, the trace rows, the callback
    and the stop test. Trace rows are recorded every
    ``trace_stride`` iterations and always at the final one; the run stops
    at the iteration budget, or early once ||x - z|| falls to ``stop_tol``
    (when positive). Non-finite iterates abort with NumericAbort naming
    the iteration; numpy's overflow and invalid-value warnings are off
    inside the loop, the callback included. With ``record_time=False`` the
    trace timestamps are zero so that reruns are byte-identical.
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
    # the kernel is kept out of the state: stored there it would close a
    # reference cycle that keeps each finished run's block alive until a gc pass
    state, step = _start(problem, config, x0, y0)
    trace = IterationTrace()
    fixed = SCHEMES[config.algorithm].rule == "fixed"
    stop_tol = config.stop_tol
    x_true = problem.x_true
    x_true_norm = None if x_true is None else _norm(x_true)
    track_psnr = x_true is not None and "rows" in problem.dims and "cols" in problem.dims

    stop_reason = "budget"
    start = time.perf_counter()
    # a diverging run overflows before its iterates turn non-finite; the
    # NumericAbort reports that, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, config.max_iters + 1):
            xz = step(n)
            if record_time:
                state.elapsed = time.perf_counter() - start
            hit_stop = stop_tol > 0.0 and xz <= stop_tol
            if n % config.trace_stride == 0 or n == config.max_iters or hit_stop:
                try:
                    f_val = objective(problem, state.x, Kx=state.Kx)
                except DataError:
                    # finite iterates can still overflow the objective
                    raise NumericAbort(config.algorithm, n) from None
                row = {"n": n, "t": state.elapsed, "F": f_val, "tau": state.tau,
                       "sigma": state.sigma, "theta": None if fixed else state.theta,
                       "dx": state.dx_norm, "xz": xz,
                       "cviol": constraint_violation(problem.K, state.x_bar, state.w_bar)}
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
    summary = RunSummary(solver=config.algorithm, iterations=state.n, elapsed=state.elapsed,
                         stop_reason=stop_reason, k_norm=k_norm, warnings=messages, final=final,
                         f_star=f_star, f_star_provenance=f_star_provenance)
    return state, trace, summary
