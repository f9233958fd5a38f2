"""The stepsize rules of the golden-ratio schemes and their parameter regions.

The nonincreasing pgrpda rule, the adaptive aegrpda rule and the lower
bound of the first, the parameter checks of the schemes that ``SCHEMES``
in ``solvers`` refers to, and the warnings for fixed stepsizes outside
their convergence region.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .linops import vector_norm as _norm
from .prox import ZeroSmooth

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Tolerance on the strict parameter-region inequalities: published tuned
# values sit within rounding distance of the bounds.
_REGION_TOL = 1e-5


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
