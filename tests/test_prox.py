import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldsplit.errors import DataError, DimensionError, ParameterError
from goldsplit.linops import DenseOperator, estimate_operator_norm
from goldsplit.prox import (
    GroupL21Prox,
    L1Prox,
    LeastSquares,
    Logistic,
    MaskedLeastSquares,
    QuadraticRidge,
    SquaredL2Prox,
    SumSmooth,
    ZeroProx,
    ZeroSmooth,
    _pixel_norms,
    _SQRT_NORM_MIN,
    moreau_conjugate_prox,
    prox_group_l21,
    prox_l1,
    prox_sq_l2,
)

from oracles import central_difference_grad, gradient_descent_prox


# ---------------------------------------------------------------------------
# proximal maps


def test_prox_l1_examples():
    assert np.all(prox_l1(np.zeros(4), 1.3, 0.7) == 0.0)
    assert np.allclose(prox_l1(np.array([3.0, -0.5]), 1.0, 1.0), [2.0, 0.0])
    v = np.array([1.0, -2.0, 0.3])
    assert np.array_equal(prox_l1(v, 0.0, 5.0), v)


def test_prox_l1_rejects_negative_parameters():
    with pytest.raises(ParameterError):
        prox_l1(np.zeros(2), -0.1, 1.0)
    with pytest.raises(ParameterError):
        prox_l1(np.zeros(2), 1.0, -1.0)
    for t, lam in ((np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ParameterError):
            prox_l1(np.zeros(2), t, lam)


def test_prox_group_l21_examples():
    # single pixel (3, 4): norm 5
    v = np.array([3.0, 4.0])
    assert np.allclose(prox_group_l21(v, 1.0, 5.0, 1), [0.0, 0.0])
    assert np.allclose(prox_group_l21(v, 1.0, 2.5, 1), [1.5, 2.0])
    assert np.array_equal(prox_group_l21(v, 1.0, 0.0, 1), v)


def test_prox_group_l21_zero_pixel_stays_zero():
    v = np.array([0.0, 1.0, 0.0, 1.0])  # pixel 0 is (0, 0)
    out = prox_group_l21(v, 1.0, 0.5, 2)
    assert out[0] == 0.0 and out[2] == 0.0


def _group_l21_hypot(v, t, lam, n_pixels):
    # reference: pixel norms from np.hypot, which never overflows
    vh, vv = v[:n_pixels], v[n_pixels:]
    norms = np.hypot(vh, vv)
    threshold = t * lam
    scale = np.zeros_like(norms)
    keep = norms > threshold
    scale[keep] = 1.0 - threshold / norms[keep]
    return np.concatenate([vh * scale, vv * scale])


def test_prox_group_l21_agrees_with_hypot_formula():
    rng = np.random.default_rng(5)
    n = 5000
    for exponent in (-120, -3, 0, 4, 120):
        v = rng.standard_normal(2 * n) * 10.0**exponent
        norms = np.hypot(v[:n], v[n:])
        value = GroupL21Prox(1.0, n).value(v)
        assert abs(value - norms.sum()) <= 2 * np.spacing(norms.sum())
        for quantile in (0.1, 0.5, 0.9):
            t = float(np.quantile(norms, quantile))
            out = prox_group_l21(v, t, 1.0, n)
            ref = _group_l21_hypot(v, t, 1.0, n)
            # norms within 2 ulp put the kept fraction 1 - t/norm within
            # about 2 eps, so each entry is within 4 ulp of its input
            assert np.all(np.abs(out - ref) <= 4 * np.spacing(np.abs(v)))


def test_prox_group_l21_zero_step_is_identity_for_subnormal_pixels():
    v = np.array([5e-324, 0.0, -3.0, 1e-310, 0.0, -5e-324, 4.0, 1e-310])
    assert np.array_equal(prox_group_l21(v, 0.0, 2.0, 4), v)
    assert np.array_equal(prox_group_l21(v, 1.0, 0.0, 4), v)
    assert GroupL21Prox(1.0, 4).value(v) == np.hypot(v[:4], v[4:]).sum()
    assert GroupL21Prox(1.0, 4).value(np.full(8, 5e-324)) > 0.0


def test_prox_group_l21_huge_entries_stay_finite():
    v = np.array([1e200, -3e200, 1.0, 4e200, 2e200, 0.0])
    for t in (0.0, 1.0, 1e199):
        out = prox_group_l21(v, t, 1.0, 3)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, _group_l21_hypot(v, t, 1.0, 3))
    value = GroupL21Prox(1.0, 3).value(v)
    assert math.isfinite(value)
    assert value == np.hypot(v[:3], v[3:]).sum()


def test_prox_group_l21_on_float32_input_warns_nothing():
    # the pixel-norm bound is compared as a float, not cast to float32 inf
    v = np.ones(6, np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = prox_group_l21(v, 0.5, 0.3, 3)
    assert out.dtype == np.float32
    assert np.allclose(out, 1.0 - 0.15 / math.sqrt(2.0), rtol=1e-6)


def test_prox_group_l21_propagates_nan():
    v = np.array([np.nan, 1.0, 2.0, 0.5])
    out = prox_group_l21(v, 1.0, 0.1, 2)
    assert np.isnan(out[0])
    np.testing.assert_array_equal(out, _group_l21_hypot(v, 1.0, 0.1, 2))
    assert np.isnan(GroupL21Prox(1.0, 2).value(v))


def _group_l21_masked(v, t, lam, n_pixels):
    """prox_group_l21 with the scale computed only where the norm exceeds the threshold."""
    u = v.reshape(2, n_pixels)
    threshold = t * lam
    norms = _pixel_norms(u, fast=threshold > _SQRT_NORM_MIN)
    keep = norms > threshold
    scale = np.divide(threshold, norms, out=np.zeros_like(norms), where=keep)
    np.subtract(1.0, scale, out=scale, where=keep)
    return (u * scale).ravel()


_SPECIAL_ENTRIES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310])


def _fuzz_field(rng, n_pixels):
    size = 2 * n_pixels
    v = rng.standard_normal(size) * 10.0 ** rng.choice([0.0, 160.0, -160.0, 150.0], size)
    special = rng.random(size) < 0.3
    v[special] = rng.choice(_SPECIAL_ENTRIES, special.sum())
    return v


def test_prox_group_l21_bytes_match_masked_reference():
    rng = np.random.default_rng(17)
    thresholds = (0.0, 1e-200, 1e-160, 0.5, 1e10, np.inf)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        v = _fuzz_field(rng, n)
        for threshold in thresholds:
            for t, lam in ((threshold, 1.0), (1.0, threshold), (0.0, 2.0)):
                with np.errstate(over="ignore", invalid="ignore"):
                    out = prox_group_l21(v, t, lam, n)
                    ref = _group_l21_masked(v, t, lam, n)
                assert out.tobytes() == ref.tobytes(), (v, t, lam)


def _group_l21_fields(rng, n_pixels):
    """(name, field) pairs covering each branch of the pixel norms and the scale."""
    v = rng.standard_normal(2 * n_pixels)
    zero = v.copy()
    zero[::3] = 0.0
    zero[n_pixels:][::3] = 0.0  # pixels with both entries zero
    huge = v * 1e152  # norms beyond _SQRT_NORM_MAX: the hypot fallback
    nan = v.copy()
    nan[::7] = np.nan
    return [("random", v), ("zero-norm", zero), ("huge", huge), ("nan", nan)]


def test_prox_group_l21_with_out_allocates_nothing_and_matches_a_fresh_call():
    # out holds the pixel norms, the scale and a square; a call with a
    # separate float64 out allocates no array, and an out on the input's
    # memory runs the same steps in a scratch array: each returns the bytes
    # of the call without out
    n = 4096
    rng = np.random.default_rng(23)
    thresholds = ((1.0, 0.3), (5e-324, 1.0), (0.0, 0.3), (np.inf, 0.3), (1.0, np.inf))
    for name, v in _group_l21_fields(rng, n):
        for t, lam in thresholds:
            with np.errstate(invalid="ignore"):
                expect = prox_group_l21(v, t, lam, n)
                out = np.full(2 * n, np.nan)
                tracemalloc.start()
                try:
                    level = tracemalloc.get_traced_memory()[0]
                    result = prox_group_l21(v, t, lam, n, out)
                    peak = tracemalloc.get_traced_memory()[1] - level
                finally:
                    tracemalloc.stop()
                same = v.copy()
                assert prox_group_l21(same, t, lam, n, same) is same
                alias = v.copy()  # another view of the input's memory
                prox_group_l21(alias, t, lam, n, alias[:])
            assert result is out
            assert peak < 8 * n, (name, t, lam, peak)
            assert out.tobytes() == expect.tobytes(), (name, t, lam)
            assert same.tobytes() == expect.tobytes(), (name, t, lam)
            assert alias.tobytes() == expect.tobytes(), (name, t, lam)


def test_prox_group_l21_shape_mismatch():
    with pytest.raises(DimensionError):
        prox_group_l21(np.zeros(5), 1.0, 1.0, 2)


def test_prox_sq_l2_examples(rng):
    b = rng.standard_normal(6)
    assert np.allclose(SquaredL2Prox(1.0, b).prox(b, 3.7), b)
    assert np.allclose(prox_sq_l2(np.array([4.0]), 1.0, 1.0, None), [2.0])


def test_prox_sq_l2_matches_gradient_descent_oracle(rng):
    b = rng.standard_normal(5)
    v = rng.standard_normal(5)
    t, w = 0.8, 1.7
    got = prox_sq_l2(v, t, w, b)
    expect = gradient_descent_prox(
        lambda u: 0.5 * w * np.sum((u - b) ** 2),
        lambda u: w * (u - b),
        v,
        t,
        iters=20000,
    )
    assert np.max(np.abs(got - expect)) < 1e-8


def test_prox_zero_identity(rng):
    v = rng.standard_normal(7)
    assert ZeroProx().prox(v, 1e7) is v
    assert np.array_equal(L1Prox(0.0).prox(v, 2.0), v)


def test_moreau_l1_projection():
    # conjugate of the l1 norm is the indicator of the unit box
    got = moreau_conjugate_prox(L1Prox(1.0), np.array([2.0]), 1.0)
    assert np.allclose(got, [1.0])
    got = moreau_conjugate_prox(L1Prox(1.0), np.array([-0.4, 3.0]), 2.0)
    assert np.allclose(got, [-0.4, 1.0])


def test_moreau_zero_function(rng):
    v = rng.standard_normal(4)
    assert np.allclose(moreau_conjugate_prox(ZeroProx(), v, 2.5), 0.0)


def test_moreau_identity_all_kinds(rng):
    oracles = [
        ZeroProx(),
        L1Prox(0.3),
        SquaredL2Prox(2.0, rng.standard_normal(6)),
        SquaredL2Prox(0.5),
        GroupL21Prox(0.9, 3),
    ]
    for g in oracles:
        for _ in range(30):
            v = rng.standard_normal(6)
            sigma = float(rng.uniform(0.01, 10.0))
            recon = moreau_conjugate_prox(g, v, sigma) + sigma * g.prox(
                v / sigma, 1.0 / sigma
            )
            assert np.max(np.abs(recon - v)) <= 1e-12


def test_moreau_rejects_bad_sigma():
    with pytest.raises(ParameterError):
        moreau_conjugate_prox(L1Prox(1.0), np.zeros(2), 0.0)
    with pytest.raises(ParameterError):
        moreau_conjugate_prox(L1Prox(1.0), np.zeros(2), np.nan)


def test_prox_oracles_reject_nan_parameters():
    v = np.array([1.0, -2.0])
    for build in (lambda: L1Prox(np.nan), lambda: GroupL21Prox(np.nan, 1),
                  lambda: SquaredL2Prox(np.nan), lambda: SquaredL2Prox(-1.0)):
        with pytest.raises(ParameterError):
            build()
    for call in (lambda: prox_sq_l2(v, np.nan), lambda: prox_sq_l2(v, 1.0, np.nan),
                 lambda: prox_group_l21(v, np.nan, 1.0, 1),
                 lambda: prox_group_l21(v, 1.0, np.nan, 1),
                 lambda: GroupL21Prox(1.0, 1).prox(v, np.nan),
                 lambda: ZeroProx().prox(v, np.nan)):
        with pytest.raises(ParameterError):
            call()
    # an infinite step stays allowed
    assert np.array_equal(L1Prox(1.0).prox(v, np.inf), [0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    other=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    t=st.floats(0.0, 10.0),
)
def test_firm_nonexpansiveness(data, other, t):
    u = np.asarray(data)
    v = np.asarray(other)
    for g in (L1Prox(0.8), SquaredL2Prox(1.5, np.ones(4)), GroupL21Prox(0.6, 2), ZeroProx()):
        du = g.prox(u, t) - g.prox(v, t)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12


def test_prox_optimality_against_perturbations(rng):
    # prox objective at the output beats 100 nearby points
    kinds = [
        (L1Prox(0.7), 6),
        (SquaredL2Prox(1.3, rng.standard_normal(6)), 6),
        (GroupL21Prox(0.5, 3), 6),
        (ZeroProx(), 6),
    ]
    for g, dim in kinds:
        v = rng.standard_normal(dim)
        t = 0.9
        u = g.prox(v, t)
        base = g.value(u) + np.sum((u - v) ** 2) / (2 * t)
        for _ in range(100):
            pert = u + rng.normal(0, 1e-3, dim)
            alt = g.value(pert) + np.sum((pert - v) ** 2) / (2 * t)
            assert base <= alt + 1e-12


# ---------------------------------------------------------------------------
# smooth oracles


def test_least_squares_zero_residual(rng):
    A = rng.standard_normal((5, 3))
    x = rng.standard_normal(3)
    h = LeastSquares(A, A @ x)
    assert np.max(np.abs(h.grad(x))) < 1e-12
    assert h.value(x) < 1e-24


def test_least_squares_gradient_vs_finite_differences(rng):
    A = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    h = LeastSquares(A, b, scale=0.3)
    for _ in range(20):
        x = rng.standard_normal(5)
        num = central_difference_grad(h.value, x)
        exact = h.grad(x)
        assert np.linalg.norm(num - exact) <= 1e-5 * (1.0 + np.linalg.norm(exact))


def test_least_squares_lipschitz_vs_eigensolve(rng):
    A = rng.standard_normal((20, 12))
    h = LeastSquares(A, rng.standard_normal(20), scale=0.25)
    exact = 0.25 * np.linalg.eigvalsh(A.T @ A).max()
    assert abs(h.lipschitz() - exact) / exact < 1e-4


def test_masked_least_squares(rng):
    mask = (rng.uniform(size=10) > 0.4).astype(float)
    b = rng.standard_normal(10)
    h = MaskedLeastSquares(mask, b)
    assert np.max(np.abs(h.grad(b))) == 0.0
    zero = MaskedLeastSquares(np.zeros(10), b)
    assert zero.value(rng.standard_normal(10)) == 0.0
    x = rng.standard_normal(10)
    num = central_difference_grad(h.value, x)
    assert np.linalg.norm(num - h.grad(x)) <= 1e-6 * (1 + np.linalg.norm(h.grad(x)))
    assert h.lipschitz() == 1.0


def test_masked_least_squares_rejects_bad_mask():
    with pytest.raises(DataError):
        MaskedLeastSquares(np.array([0.0, 0.5]), np.zeros(2))


def test_logistic_at_origin(rng):
    A = rng.standard_normal((9, 4))
    labels = np.where(rng.uniform(size=9) > 0.5, 1.0, -1.0)
    h = Logistic(A, labels)
    x0 = np.zeros(4)
    assert math.isclose(h.value(x0), 9 * math.log(2.0), rel_tol=1e-14)
    assert np.allclose(h.grad(x0), -0.5 * A.T @ labels)


def test_logistic_large_margin_no_overflow():
    # one feature per sample, margin 50 everywhere
    A = np.eye(3) * 50.0
    labels = np.ones(3)
    h = Logistic(A, labels)
    val = h.value(np.ones(3))
    assert 0.0 < val <= 3 * math.exp(-20.0)
    big = h.value(-np.ones(3) * 20.0)  # margin -1000, still finite
    assert math.isfinite(big)


def test_logistic_gradient_vs_finite_differences(rng):
    A = rng.standard_normal((7, 4))
    labels = np.where(rng.uniform(size=7) > 0.5, 1.0, -1.0)
    h = Logistic(A, labels)
    for _ in range(10):
        x = rng.normal(0, 0.5, 4)
        num = central_difference_grad(h.value, x)
        exact = h.grad(x)
        assert np.linalg.norm(num - exact) <= 1e-5 * (1.0 + np.linalg.norm(exact))


def test_logistic_rejects_bad_labels(rng):
    with pytest.raises(DataError):
        Logistic(rng.standard_normal((3, 2)), np.array([1.0, 0.0, -1.0]))


def test_logistic_smoothness_bound(rng):
    A = rng.standard_normal((10, 6))
    labels = np.where(rng.uniform(size=10) > 0.5, 1.0, -1.0)
    h = Logistic(A, labels)
    exact = 0.25 * np.linalg.eigvalsh(A.T @ A).max()
    assert abs(h.lipschitz() - exact) / exact < 1e-4
    # empirical local Lipschitz sampling stays below the bound
    for _ in range(50):
        x = rng.normal(0, 2, 6)
        y = rng.normal(0, 2, 6)
        if np.linalg.norm(x - y) == 0:
            continue
        ratio = np.linalg.norm(h.grad(x) - h.grad(y)) / np.linalg.norm(x - y)
        assert ratio <= exact + 1e-9


def test_convexity_of_gradients(rng):
    A = rng.standard_normal((8, 5))
    oracles = [
        LeastSquares(A, rng.standard_normal(8)),
        Logistic(A, np.where(rng.uniform(size=8) > 0.5, 1.0, -1.0)),
        QuadraticRidge(A, rng.standard_normal(8), 0.7),
    ]
    for h in oracles:
        for _ in range(30):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            assert (h.grad(x) - h.grad(y)) @ (x - y) >= -1e-10


def test_quadratic_ridge_pure_ridge_strong_convexity(rng):
    # with a zero design the modulus is exactly the ridge weight
    h = QuadraticRidge(np.zeros((3, 3)), np.zeros(3), 1.0)
    for _ in range(10):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        gap = (h.grad(x) - h.grad(y)) @ (x - y)
        assert math.isclose(gap, np.linalg.norm(x - y) ** 2, rel_tol=1e-12)


def test_sum_smooth(rng):
    A = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    parts = [LeastSquares(A, b), QuadraticRidge(np.zeros((1, 4)), np.zeros(1), 0.5)]
    h = SumSmooth(parts)
    x = rng.standard_normal(4)
    assert math.isclose(h.value(x), parts[0].value(x) + parts[1].value(x), rel_tol=1e-14)
    assert np.allclose(h.grad(x), parts[0].grad(x) + parts[1].grad(x))
    assert h.lipschitz() == parts[0].lipschitz() + parts[1].lipschitz()


def test_smooth_oracle_accepts_operator(rng):
    A = rng.standard_normal((5, 4))
    h_mat = LeastSquares(A, np.zeros(5))
    h_op = LeastSquares(DenseOperator(A), np.zeros(5))
    x = rng.standard_normal(4)
    assert np.array_equal(h_mat.grad(x), h_op.grad(x))
    est = estimate_operator_norm(DenseOperator(A))
    assert math.isclose(h_op.lipschitz(), est**2, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the closed-form proxes as public functions


def test_closed_form_proxes_take_scalars_broadcast_offsets_and_float32():
    assert prox_l1(3.0, 1.0, 0.5) == 2.5
    assert prox_l1(np.float64(-3.0), 1.0, 0.5) == -2.5
    assert prox_sq_l2(2.0, 1.0, 1.0, 4.0) == 3.0
    v = np.array([1.0, 2.0, 3.0])
    for b in (2.0, np.array([2.0])):
        assert np.array_equal(SquaredL2Prox(1.0, b).prox(v, 1.0), (v + 2.0) / 2.0)
    v32, b32 = v.astype(np.float32), np.ones(3, dtype=np.float32)
    assert prox_l1(v32, 1.0, 0.5).dtype == np.float32
    assert prox_sq_l2(v32, 1.0, 2.0, b32).dtype == np.float32
    assert prox_sq_l2(v32, 1.0, 2.0).dtype == np.float32


# the parent's one-line proxes, kept verbatim: without out the public functions
# must return their values and dtypes for every input they took
def _prox_l1_before(v, t, lam):
    return np.sign(v) * np.maximum(np.abs(v) - t * lam, 0.0)


def _prox_sq_l2_before(v, t, weight=1.0, b=None):
    if b is None:
        return v / (1.0 + t * weight)
    return (v + t * weight * b) / (1.0 + t * weight)


def _prox_group_l21_before(v, t, lam, n_pixels):
    u = v.reshape(2, n_pixels)
    threshold = t * lam
    norms = _pixel_norms(u, fast=threshold > _SQRT_NORM_MIN)
    if not 0.0 < threshold < np.inf:
        return (u * (norms > threshold)).ravel()
    scale = np.fmax(norms, threshold)
    np.divide(threshold, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return (u * scale).ravel()


def _same(a, b):
    return type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype and (
        np.asarray(a).tobytes() == np.asarray(b).tobytes())


def test_public_proxes_without_out_are_unchanged():
    v = np.array([1.5, -0.25, 0.0, -0.0, 3.0, -7.0])
    steps = (1.0, 0.5, np.float64(0.5), np.float32(0.5), 0.0)
    for vv in (3.0, -3.0, np.float64(-3.0), np.float32(2.0), v, v.astype(np.float32),
               v.reshape(2, 3)):
        for t in steps:
            assert _same(prox_l1(vv, t, 0.5), _prox_l1_before(vv, t, 0.5))
            for b in (None, 4.0, np.array([2.0]), np.float32(1.0), np.ones(3, np.float32)):
                try:
                    expect = _prox_sq_l2_before(vv, t, 2.0, b)
                except ValueError:  # shapes that never broadcast
                    continue
                assert _same(prox_sq_l2(vv, t, 2.0, b), expect)
    for field in (v, v.astype(np.float32)):
        for t in steps + (np.inf,):
            for lam in (0.3, np.float32(0.3)):
                # a float32 field casts the 1e300 guard of _pixel_norms to inf,
                # before as now, which numpy reports as an overflow
                with np.errstate(over="ignore"):
                    assert _same(prox_group_l21(field, t, lam, 3),
                                 _prox_group_l21_before(field, t, lam, 3))


def test_prox_and_grad_out_receive_the_bytes_of_a_fresh_call(rng):
    A = rng.standard_normal((7, 6))
    v = rng.standard_normal(6)
    b = rng.standard_normal(6)
    proxes = [ZeroProx(), L1Prox(0.3), SquaredL2Prox(2.0), SquaredL2Prox(2.0, b),
              GroupL21Prox(0.4, 3)]
    for oracle in proxes:
        for t in (0.0, 0.7, np.inf):
            if t == np.inf and isinstance(oracle, SquaredL2Prox):
                continue
            expect = oracle.prox(v, t).tobytes()
            out = np.full(6, np.nan)
            assert oracle.prox(v, t, out) is out
            assert out.tobytes() == expect, (oracle, t)
            same = v.copy()  # out may be the input itself
            assert oracle.prox(same, t, same).tobytes() == expect, (oracle, t)
    labels = np.where(rng.standard_normal(7) > 0, 1.0, -1.0)
    smooth = [ZeroSmooth(), LeastSquares(A, rng.standard_normal(7), scale=0.5),
              MaskedLeastSquares((rng.random(6) > 0.5).astype(float), b), Logistic(A, labels),
              QuadraticRidge(A, rng.standard_normal(7), 0.3),
              SumSmooth([LeastSquares(A, np.zeros(7)), QuadraticRidge(A, np.ones(7), 0.1)])]
    for oracle in smooth:
        expect = oracle.grad(v).tobytes()
        out = np.full(6, np.nan)
        assert oracle.grad(v, out) is out
        assert out.tobytes() == expect, oracle
        same = v.copy()
        assert oracle.grad(same, same).tobytes() == expect, oracle
