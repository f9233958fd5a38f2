"""Proximal and smooth oracles for the benchmark objectives.

Proximal oracles expose ``value(v)`` and ``prox(v, t)`` with
prox_t(v) = argmin_u value(u) + ||u - v||^2 / (2 t); a step of t = 0 is the
identity. Conjugate proxes are always derived through the Moreau
decomposition (``moreau_conjugate_prox``) rather than hand-coded per
function. Smooth oracles expose ``value``, ``grad`` and a gradient
Lipschitz bound ``lipschitz()`` whose norms come from ``operator_norm``.

``prox``, ``grad`` and the public prox functions take an optional ``out``,
a float64 array of the result's shape: as with numpy ufuncs, the result is
written there and ``out`` is returned. ``out`` may be the input itself but
must not otherwise overlap it. ``prox_group_l21`` also uses a separate
``out`` as its scratch space, so that call allocates no array. Without
``out`` every result is a new array computed as before, for any input
numpy broadcasts (an integer group-l21 field gives a floating result).
A subclass that overrides ``prox`` or ``grad`` keeps the positional
``out``: a run passes it.

scipy is imported only inside ``Logistic.grad``, for
``scipy.special.expit``, so the other oracles never load it.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError, ParameterError
from .linops import DenseOperator, into, operator_norm


def _check_step(t, lam=0.0):
    # written so that NaN fails; an infinite step is allowed
    if not (t >= 0 and lam >= 0):
        raise ParameterError("prox step and regularization weight must be >= 0")


def prox_l1(v, t, lam, out=None):
    """Soft thresholding: sign(v_i) * max(|v_i| - t*lam, 0)."""
    _check_step(t, lam)
    if out is None:
        return np.sign(v) * np.maximum(np.abs(v) - t * lam, 0.0)
    sign = np.sign(v)
    np.abs(v, out)
    np.subtract(out, t * lam, out)
    np.maximum(out, 0.0, out=out)
    return np.multiply(sign, out, out)


def prox_sq_l2(v, t, weight=1.0, b=None, out=None):
    """Prox of weight/2 * ||. - b||^2, closed form (v + t*weight*b) / (1 + t*weight)."""
    _check_step(t)
    if not weight > 0:
        raise ParameterError("weight must be positive")
    if out is None:
        if b is None:
            return v / (1.0 + t * weight)
        return (v + t * weight * b) / (1.0 + t * weight)
    if b is None:
        return np.divide(v, 1.0 + t * weight, out)
    if out is v:
        np.add(v, t * weight * b, out)
    else:
        np.multiply(t * weight, b, out)
        np.add(v, out, out)
    return np.divide(out, 1.0 + t * weight, out)


# sqrt(a*a + b*b) is within two ulp of np.hypot and several times faster,
# but its squares overflow for norms near 1e154 and lose relative precision
# below 1e-154; outside these guards the pixel norms come from np.hypot.
_SQRT_NORM_MAX = 1e150
_SQRT_NORM_MIN = 1e-150


def _pixel_norms(u, fast=True, norms=None, square=None):
    """Euclidean norms of the columns of the (2, n) field ``u``, in ``norms``.

    The norms are taken in the field's floating type and written to
    ``norms``, a new array when None. With ``fast`` the squares are
    accumulated there, one of them passing through ``square`` (a new array
    when None), and the result is taken from them unless the largest norm
    reaches _SQRT_NORM_MAX or is not finite.
    """
    dtype = np.promote_types(u.dtype, np.float16)
    if fast:
        with np.errstate(over="ignore"):
            norms = np.multiply(u[0], u[0], norms, dtype=dtype)
            np.add(norms, np.multiply(u[1], u[1], square, dtype=dtype), norms, dtype=dtype)
        # a float, not a float32, so the bound is not cast to float32 inf
        if float(np.max(norms, initial=0.0)) < _SQRT_NORM_MAX**2:
            return np.sqrt(norms, norms, dtype=dtype)
    return np.hypot(u[0], u[1], norms, dtype=dtype)


def prox_group_l21(v, t, lam, n_pixels, out=None):
    """Pixelwise shrinkage of a 2-channel field toward the group-l21 ball.

    The field stacks n_pixels horizontal components before n_pixels
    vertical ones; pixel p pairs (v[p], v[n_pixels + p]). Zero-norm pixels
    map to zero. A separate ``out`` doubles as the scratch space, so the
    call allocates no array: ``out[:n_pixels]`` holds the pixel norms and
    then the scale, and ``out[n_pixels:]`` a square. Without ``out``, or
    with an ``out`` that may share memory with the input, the same steps
    run in a new array of the result's type.
    """
    _check_step(t, lam)
    if v.shape != (2 * n_pixels,):
        raise DimensionError(
            f"group_l21 field must have length {2 * n_pixels}, got {v.shape}"
        )
    u = v.reshape(2, n_pixels)
    threshold = t * lam
    shrink = 0.0 < threshold < np.inf
    work = out
    if out is None or np.may_share_memory(out, v):
        dtype = np.promote_types(v.dtype, np.float16)
        work = np.empty(2 * n_pixels, np.result_type(dtype, threshold) if shrink else dtype)
    scale = work[:n_pixels]
    # a pixel whose squares underflow has a norm far below a threshold
    # above _SQRT_NORM_MIN, so it is zeroed whichever way its norm is taken
    _pixel_norms(u, threshold > _SQRT_NORM_MIN, scale, work[n_pixels:])
    if shrink:
        # raising each norm to at least the threshold keeps the ratio in
        # (0, 1], avoids overflow on subnormal pixel norms, and gives a NaN
        # pixel the scale 0 (fmax ignores NaN)
        np.fmax(scale, threshold, scale)
        np.divide(threshold, scale, scale)
        np.subtract(1.0, scale, scale)
    else:
        # scale 1 where the norm exceeds the threshold, else 0; a NaN
        # pixel's finite partner entry is zeroed
        np.greater(scale, threshold, scale)
    if out is None:
        out = work
    # channel by channel, the second first: the scale is the first half of
    # work, and a broadcast (2, n) product would take iteration buffers
    np.multiply(u[1], scale, out[n_pixels:])
    np.multiply(u[0], scale, out[:n_pixels])
    return out


class ProxOracle:
    """Base class: a convex function with an easy proximal map."""

    def value(self, v):
        raise NotImplementedError

    def prox(self, v, t, out=None):
        raise NotImplementedError


class ZeroProx(ProxOracle):
    """The zero function; its prox is the identity for every step."""

    def value(self, v):
        return 0.0

    def prox(self, v, t, out=None):
        _check_step(t)
        return into(out, v)


class L1Prox(ProxOracle):
    """lam * ||.||_1 with the soft-thresholding prox."""

    def __init__(self, lam):
        if not lam >= 0:
            raise ParameterError("l1 weight must be >= 0")
        self.lam = lam

    def value(self, v):
        return self.lam * float(np.abs(v).sum())

    def prox(self, v, t, out=None):
        return prox_l1(v, t, self.lam, out)


class GroupL21Prox(ProxOracle):
    """Isotropic group penalty lam * sum_p ||(v_h[p], v_v[p])||_2."""

    def __init__(self, lam, n_pixels):
        if not lam >= 0:
            raise ParameterError("group_l21 weight must be >= 0")
        self.lam = lam
        self.n_pixels = n_pixels

    def value(self, v):
        if v.shape != (2 * self.n_pixels,):
            raise DimensionError("group_l21 field has wrong length")
        u = v.reshape(2, self.n_pixels)
        total = float(_pixel_norms(u).sum())
        # a pixel whose squares underflow is off by at most about 3e-162,
        # which is below rounding once the sum exceeds n_pixels * 1e-146
        if total <= self.n_pixels * 1e-146:
            total = float(_pixel_norms(u, fast=False).sum())
        return self.lam * total

    def prox(self, v, t, out=None):
        return prox_group_l21(v, t, self.lam, self.n_pixels, out)


class SquaredL2Prox(ProxOracle):
    """weight/2 * ||. - offset||^2; offset None means the origin."""

    def __init__(self, weight=1.0, offset=None):
        if not weight > 0:
            raise ParameterError("weight must be positive")
        self.weight = weight
        self.offset = None if offset is None else np.asarray(offset, dtype=np.float64)

    def value(self, v):
        d = v if self.offset is None else v - self.offset
        return 0.5 * self.weight * float(d @ d)

    def prox(self, v, t, out=None):
        return prox_sq_l2(v, t, self.weight, self.offset, out)


def moreau_conjugate_prox(g, v, sigma):
    """prox of sigma * g^* via Moreau: v - sigma * prox_{g/sigma}(v / sigma)."""
    if not sigma > 0:
        raise ParameterError("sigma must be positive")
    return v - sigma * g.prox(v / sigma, 1.0 / sigma)


def _as_operator(A):
    if isinstance(A, np.ndarray):
        return DenseOperator(A)
    return A


class SmoothOracle:
    """Base class: a convex differentiable function with known smoothness."""

    def value(self, x):
        raise NotImplementedError

    def grad(self, x, out=None):
        raise NotImplementedError

    def lipschitz(self):
        """A bound on the gradient Lipschitz constant (0 for constant gradients)."""
        raise NotImplementedError


class ZeroSmooth(SmoothOracle):
    """h = 0."""

    def value(self, x):
        return 0.0

    def grad(self, x, out=None):
        if out is None:
            return np.zeros_like(x)
        out.fill(0.0)
        return out

    def lipschitz(self):
        return 0.0


class LeastSquares(SmoothOracle):
    """scale * 1/2 * ||A x - b||^2 with gradient scale * A^T (A x - b).

    The smoothness bound is scale * ||A||^2, with ||A|| from
    ``operator_norm``: a closed form, or an estimate made on first use
    and kept on A.
    """

    def __init__(self, A, b, scale=1.0):
        self.A = _as_operator(A)
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape != (self.A.shape.codomain_dim,):
            raise DimensionError("response length does not match the design matrix")
        self.scale = scale

    def value(self, x):
        r = self.A.matvec(x) - self.b
        return 0.5 * self.scale * float(r @ r)

    def grad(self, x, out=None):
        return np.multiply(self.scale, self.A.rmatvec(self.A.matvec(x) - self.b), out)

    def lipschitz(self):
        return self.scale * operator_norm(self.A) ** 2


class MaskedLeastSquares(SmoothOracle):
    """1/2 * ||M .* (x - b)||^2 for a binary mask M; the gradient is M .* (x - b)."""

    def __init__(self, mask, b):
        mask = np.asarray(mask, dtype=np.float64)
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise DataError("mask entries must be 0 or 1")
        self.mask = mask
        self.b = np.asarray(b, dtype=np.float64)
        if self.mask.shape != self.b.shape:
            raise DimensionError("mask and reference image differ in shape")

    def value(self, x):
        r = self.mask * (x - self.b)
        return 0.5 * float(r @ r)

    def grad(self, x, out=None):
        r = np.subtract(x, self.b, out)
        return np.multiply(self.mask, r, r)

    def lipschitz(self):
        return 1.0


class Logistic(SmoothOracle):
    """sum_i log(1 + exp(-b_i a_i^T x)) over rows a_i of A and labels b_i.

    Values use the numerically stable log-sum-exp form; no overflow occurs
    for arbitrarily large margins. The gradient is -A^T (b .* s) with
    s_i = 1 / (1 + exp(b_i a_i^T x)), and the smoothness bound is
    ||A||^2 / 4.
    """

    def __init__(self, A, labels):
        self.A = _as_operator(A)
        labels = np.asarray(labels, dtype=np.float64)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise DataError("logistic labels must be -1 or +1")
        if labels.shape != (self.A.shape.codomain_dim,):
            raise DimensionError("label count does not match the design matrix")
        self.labels = labels

    def value(self, x):
        margins = self.labels * self.A.matvec(x)
        return float(np.logaddexp(0.0, -margins).sum())

    def grad(self, x, out=None):
        from scipy.special import expit

        margins = self.labels * self.A.matvec(x)
        s = expit(-margins)
        return np.negative(self.A.rmatvec(self.labels * s), out)

    def lipschitz(self):
        return 0.25 * operator_norm(self.A) ** 2


class QuadraticRidge(SmoothOracle):
    """1/2 * ||A x - b||^2 + ridge/2 * ||x||^2; strongly convex with modulus >= ridge."""

    def __init__(self, A, b, ridge):
        if ridge <= 0:
            raise ParameterError("ridge must be positive")
        self.A = _as_operator(A)
        self.b = np.asarray(b, dtype=np.float64)
        self.ridge = ridge

    def value(self, x):
        r = self.A.matvec(x) - self.b
        return 0.5 * float(r @ r) + 0.5 * self.ridge * float(x @ x)

    def grad(self, x, out=None):
        g = self.A.rmatvec(self.A.matvec(x) - self.b)
        if out is None:
            return g + self.ridge * x
        # x is read before out is written, so out may be x
        np.multiply(self.ridge, x, out)
        return np.add(g, out, out)

    def lipschitz(self):
        return operator_norm(self.A) ** 2 + self.ridge


class SumSmooth(SmoothOracle):
    """Sum of smooth oracles."""

    def __init__(self, parts):
        self.parts = list(parts)

    def value(self, x):
        return sum(p.value(x) for p in self.parts)

    def grad(self, x, out=None):
        g = np.zeros_like(x)
        for p in self.parts:
            g = g + p.grad(x)
        return into(out, g)

    def lipschitz(self):
        return sum(p.lipschitz() for p in self.parts)
