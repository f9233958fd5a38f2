import copy
import math

import numpy as np
import pytest
import scipy.sparse as sp

from goldsplit.errors import ConstructionError, DimensionError, ParameterError
from goldsplit.linops import (
    CsrOperator,
    DenseOperator,
    DiscreteGradient2D,
    FirstDifference,
    GramOperator,
    GridIncidence,
    IdentityOperator,
    csr_from_triplets,
    estimate_operator_norm,
    graph_laplacian,
    operator_norm,
    vector_norm,
)

from oracles import materialize


def all_kinds(rng):
    triplets = [
        (int(r), int(c), float(v))
        for r, c, v in zip(
            rng.integers(0, 12, 40), rng.integers(0, 18, 40), rng.normal(0, 1, 40)
        )
    ]
    return [
        DenseOperator(rng.standard_normal((9, 7))),
        csr_from_triplets(12, 18, triplets),
        FirstDifference(11),
        GridIncidence(3, 4),
        DiscreteGradient2D(6, 5),
        IdentityOperator(8),
        graph_laplacian(GridIncidence(4, 3)),
    ]


def test_adjoint_identity_all_kinds(rng):
    for op in all_kinds(rng):
        for _ in range(100):
            x = rng.standard_normal(op.shape.domain_dim)
            y = rng.standard_normal(op.shape.codomain_dim)
            kx = op.matvec(x)
            lhs = kx @ y
            rhs = x @ op.rmatvec(y)
            assert abs(lhs - rhs) <= 1e-10 * (
                1.0 + np.linalg.norm(kx) * np.linalg.norm(y)
            )


def test_first_difference_rows():
    D = FirstDifference(3)
    assert D.shape == (3, 2)
    assert np.array_equal(D.matvec(np.array([1.0, 2.0, 4.0])), [1.0, 2.0])
    assert np.array_equal(D.matvec(np.full(3, 7.0)), [0.0, 0.0])


def test_first_difference_constant_kernel():
    D = FirstDifference(5)
    assert np.all(D.matvec(np.full(5, -3.2)) == 0.0)


def test_first_difference_inverts_cumsum(rng):
    # D applied to cumulative sums of v returns v[1:] exactly; integer
    # values keep the running sums exact in float64
    v = rng.integers(-8, 9, size=9).astype(float)
    D = FirstDifference(9)
    assert np.array_equal(D.matvec(np.cumsum(v)), v[1:])


def test_first_difference_rejects_small_n():
    with pytest.raises(DimensionError):
        FirstDifference(1)


def test_first_difference_norm_matches_eigensolve():
    # oracle: largest eigenvalue of D D^T from the dense materialization
    D = FirstDifference(5)
    mat = materialize(D)
    exact = math.sqrt(np.linalg.eigvalsh(mat @ mat.T).max())
    assert abs(exact - 2.0 * math.sin(2.0 * math.pi / 5.0)) < 1e-12
    est = estimate_operator_norm(D, seed=1)
    assert abs(est - exact) < 1e-4


def test_grid_incidence_2x2():
    D = GridIncidence(2, 2)
    assert D.shape == (4, 4)
    assert np.all(D.matvec(np.full(4, 1.5)) == 0.0)


def test_grid_incidence_edge_counts_exhaustive():
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            D = GridIncidence(n1, n2)
            assert D.shape.codomain_dim == n1 * (n2 - 1) + (n1 - 1) * n2


def test_grid_incidence_edge_order_and_signs():
    # 2x3 grid: horizontal edges row-major first, then vertical; -1 at the
    # smaller node index
    D = materialize(GridIncidence(2, 3))
    expected = np.array(
        [
            [-1, 1, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0],
            [0, 0, 0, -1, 1, 0],
            [0, 0, 0, 0, -1, 1],
            [-1, 0, 0, 1, 0, 0],
            [0, -1, 0, 0, 1, 0],
            [0, 0, -1, 0, 0, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(D, expected)


def _grid_incidence_loop(n1, n2):
    # reference: the edge-by-edge construction the vectorised one replaced
    rows, cols, vals = [], [], []
    edge = 0
    for i in range(n1):
        for j in range(n2 - 1):
            a = i * n2 + j
            rows += [edge, edge]
            cols += [a, a + 1]
            vals += [-1.0, 1.0]
            edge += 1
    for i in range(n1 - 1):
        for j in range(n2):
            a = i * n2 + j
            rows += [edge, edge]
            cols += [a, a + n2]
            vals += [-1.0, 1.0]
            edge += 1
    mat = sp.coo_matrix((np.asarray(vals), (rows, cols)), shape=(edge, n1 * n2))
    return CsrOperator(mat.tocsr())


@pytest.mark.parametrize("grid", [(1, 1), (1, 6), (6, 1), (2, 2), (3, 4), (7, 5), (9, 9)])
def test_grid_incidence_matches_loop_construction(grid):
    D, ref = GridIncidence(*grid), _grid_incidence_loop(*grid)
    assert D.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(D, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_grid_incidence_rejects_zero():
    with pytest.raises(DimensionError):
        GridIncidence(0, 3)


def test_graph_laplacian_small_grid(rng):
    D = GridIncidence(3, 3)
    W = materialize(graph_laplacian(D))
    # row sums vanish and the diagonal equals the node degree
    assert np.allclose(W.sum(axis=1), 0.0, atol=1e-14)
    degrees = np.array([2, 3, 2, 3, 4, 3, 2, 3, 2], dtype=float)
    assert np.array_equal(np.diag(W), degrees)
    assert np.array_equal(W, W.T)


def test_graph_laplacian_path_graph():
    # path graph on 3 nodes via the first-difference incidence matrix
    W = materialize(graph_laplacian(FirstDifference(3)))
    assert np.array_equal(W, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], float))


def test_graph_laplacian_quadratic_form(rng):
    D = GridIncidence(4, 5)
    W = graph_laplacian(D)
    for _ in range(20):
        x = rng.standard_normal(20)
        assert math.isclose(
            x @ W.matvec(x), np.linalg.norm(D.matvec(x)) ** 2, rel_tol=1e-12
        )
    assert np.allclose(W.matvec(np.full(20, 2.0)), 0.0, atol=1e-12)


def test_discrete_gradient_constant_image():
    G = DiscreteGradient2D(6, 7)
    assert np.all(G.matvec(np.full(42, 0.4)) == 0.0)


def test_discrete_gradient_boundary_rows_zero(rng):
    rows, cols = 5, 4
    G = DiscreteGradient2D(rows, cols)
    out = G.matvec(rng.standard_normal(rows * cols))
    gh = out[: rows * cols].reshape(rows, cols)
    gv = out[rows * cols :].reshape(rows, cols)
    assert np.all(gh[:, -1] == 0.0)
    assert np.all(gv[-1, :] == 0.0)


def _gradient_zero_filled(rows, cols, x):
    """DiscreteGradient2D.matvec written with zero-filled channels."""
    u = x.reshape(rows, cols)
    gh = np.zeros_like(u)
    gv = np.zeros_like(u)
    gh[:, :-1] = u[:, 1:] - u[:, :-1]
    gv[:-1, :] = u[1:, :] - u[:-1, :]
    return np.concatenate([gh.ravel(), gv.ravel()])


def _divergence_zero_filled(rows, cols, y):
    """DiscreteGradient2D.rmatvec accumulated into a zero-filled image."""
    p = rows * cols
    yh = y[:p].reshape(rows, cols)
    yv = y[p:].reshape(rows, cols)
    out = np.zeros((rows, cols))
    out[:, :-1] -= yh[:, :-1]
    out[:, 1:] += yh[:, :-1]
    out[:-1, :] -= yv[:-1, :]
    out[1:, :] += yv[:-1, :]
    return out.ravel()


def _with_signed_zeros(rng, size):
    v = rng.standard_normal(size)
    v[rng.random(size) < 0.2] = 0.0
    v[rng.random(size) < 0.2] = -0.0
    return v


def test_discrete_gradient_bytes_match_zero_filled_reference():
    # signed zeros make 0 - a and -a (or b - a) distinguishable
    rng = np.random.default_rng(11)
    for rows in range(1, 13):
        for cols in range(1, 13):
            G = DiscreteGradient2D(rows, cols)
            p = rows * cols
            for _ in range(3):
                x = _with_signed_zeros(rng, p)
                y = _with_signed_zeros(rng, 2 * p)
                assert G.matvec(x).tobytes() == _gradient_zero_filled(rows, cols, x).tobytes()
                assert G.rmatvec(y).tobytes() == _divergence_zero_filled(rows, cols, y).tobytes()
            neg = np.full(2 * p, -0.0)
            assert G.rmatvec(neg).tobytes() == _divergence_zero_filled(rows, cols, neg).tobytes()
            assert G.matvec(-neg[:p]).tobytes() == _gradient_zero_filled(rows, cols, -neg[:p]).tobytes()


def test_discrete_gradient_norm_bound():
    for rows, cols in [(8, 8), (16, 16), (64, 64), (3, 9)]:
        est = estimate_operator_norm(DiscreteGradient2D(rows, cols), seed=0)
        assert est <= math.sqrt(8.0) + 1e-6


def test_csr_from_triplets_empty_and_identity(rng):
    zero = csr_from_triplets(4, 6, [])
    assert np.all(zero.matvec(rng.standard_normal(6)) == 0.0)
    eye = csr_from_triplets(5, 5, [(i, i, 1.0) for i in range(5)])
    x = rng.standard_normal(5)
    assert np.array_equal(eye.matvec(x), x)


def test_csr_duplicates_summed():
    op = csr_from_triplets(2, 2, [(0, 1, 2.0), (0, 1, 3.0)])
    assert np.array_equal(materialize(op), np.array([[0.0, 5.0], [0.0, 0.0]]))


def test_csr_matches_dense_materialization(rng):
    triplets = [
        (int(r), int(c), float(v))
        for r, c, v in zip(
            rng.integers(0, 20, 90), rng.integers(0, 30, 90), rng.normal(0, 1, 90)
        )
    ]
    op = csr_from_triplets(20, 30, triplets)
    dense = materialize(op)
    for _ in range(50):
        x = rng.standard_normal(30)
        assert np.max(np.abs(op.matvec(x) - dense @ x)) <= 1e-12


def test_csr_canonical_structure(rng):
    op = csr_from_triplets(
        10,
        10,
        [(int(r), int(c), 1.0) for r, c in zip(rng.integers(0, 10, 60), rng.integers(0, 10, 60))],
    )
    indptr, indices = op.indptr, op.indices
    assert np.all(np.diff(indptr) >= 0)
    assert indptr[-1] == op.nnz
    for i in range(10):
        row_cols = indices[indptr[i] : indptr[i + 1]]
        assert np.all(np.diff(row_cols) > 0)


def test_csr_out_of_range_raises():
    with pytest.raises(ConstructionError):
        csr_from_triplets(3, 3, [(3, 0, 1.0)])
    with pytest.raises(ConstructionError):
        csr_from_triplets(3, 3, [(0, -1, 1.0)])


_GRIDS = [(1, 1), (1, 6), (6, 1), (2, 2), (3, 4), (7, 5), (8, 8)]
_CLOSED_FORMS = (
    [(f"gradient-{r}x{c}", DiscreteGradient2D(r, c)) for r, c in _GRIDS]
    + [(f"incidence-{r}x{c}", GridIncidence(r, c)) for r, c in _GRIDS]
    + [(f"difference-{n}", FirstDifference(n)) for n in range(2, 13)]
    + [
        ("identity-0", IdentityOperator(0)),
        ("identity-7", IdentityOperator(7)),
        ("gram-difference-9", GramOperator(FirstDifference(9))),
    ]
)


@pytest.mark.parametrize("op", [op for _, op in _CLOSED_FORMS],
                         ids=[name for name, _ in _CLOSED_FORMS])
def test_exact_norm_matches_dense_svd(op):
    dense = materialize(op)
    exact = np.linalg.norm(dense, 2) if dense.size else 0.0
    assert abs(op.exact_norm() - exact) <= 1e-13 * exact


def test_operator_norm_falls_back_to_power_iteration(rng):
    A = rng.standard_normal((9, 7))
    dense = DenseOperator(A)
    assert dense.exact_norm() is None
    assert operator_norm(dense, seed=4) == estimate_operator_norm(dense, seed=4)
    # a Gram operator of an operator without a closed form has none either
    gram = GramOperator(dense)
    assert gram.exact_norm() is None
    assert operator_norm(gram, seed=2) == estimate_operator_norm(gram, seed=2)


class _CountingDense(DenseOperator):
    """A dense operator that counts its forward products."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.products = 0

    def matvec(self, x, out=None):
        self.products += 1
        return super().matvec(x, out)


class _CountingDuck:
    """A duck-typed operator that counts its forward products."""

    def __init__(self, matrix):
        self.inner = DenseOperator(matrix)
        self.shape = self.inner.shape
        self.products = 0

    def matvec(self, x):
        self.products += 1
        return self.inner.matvec(x)

    def rmatvec(self, y):
        return self.inner.rmatvec(y)


def test_operator_norm_is_kept_per_seed(rng):
    A = rng.standard_normal((9, 7))
    op = _CountingDense(A)
    first = operator_norm(op, seed=4)
    assert first == estimate_operator_norm(DenseOperator(A), seed=4)
    products = op.products
    assert products > 0
    # the same seed again makes no product
    assert operator_norm(op, seed=4) == first
    assert op.products == products
    # another seed makes a new power iteration
    assert operator_norm(op, seed=5) == estimate_operator_norm(DenseOperator(A), seed=5)
    assert op.products > products


def test_a_shallow_copy_shares_the_kept_norm(rng):
    op = _CountingDense(rng.standard_normal((9, 7)))
    first = operator_norm(op, seed=2)
    direct = estimate_operator_norm(op, tol=1e-9, seed=3)
    twin = copy.copy(op)
    assert operator_norm(twin, seed=2) == first
    assert estimate_operator_norm(twin, tol=1e-9, seed=3) == direct
    assert twin.products == op.products


def test_a_duck_typed_operator_is_normed_on_every_call(rng):
    A = rng.standard_normal((9, 7))
    op = _CountingDuck(A)
    first = operator_norm(op, seed=3)
    products = op.products
    assert operator_norm(op, seed=3) == first == estimate_operator_norm(DenseOperator(A), seed=3)
    assert op.products == 2 * products
    assert estimate_operator_norm(op, seed=3).hex() == first.hex()
    assert op.products == 3 * products


def test_a_repeat_estimate_makes_no_product(rng):
    op = _CountingDense(rng.standard_normal((9, 7)))
    first = estimate_operator_norm(op, tol=1e-10, max_iter=300, seed=6)
    products = op.products
    assert products > 0
    again = estimate_operator_norm(op, tol=1e-10, max_iter=300, seed=6)
    assert again.hex() == first.hex()
    assert op.products == products


def test_operator_norm_reads_a_direct_estimate(rng):
    op = _CountingDense(rng.standard_normal((9, 7)))
    first = estimate_operator_norm(op, seed=8)
    products = op.products
    assert operator_norm(op, seed=8) == first
    assert op.products == products


@pytest.mark.parametrize(
    "other", [{"seed": 2}, {"tol": 1e-12}, {"max_iter": 7}], ids=["seed", "tol", "max_iter"]
)
def test_another_seed_tol_or_budget_runs_a_new_iteration(rng, other):
    A = rng.standard_normal((9, 7))
    op = _CountingDense(A)
    estimate_operator_norm(op, seed=1)
    products = op.products
    value = estimate_operator_norm(op, **{"seed": 1, **other})
    assert op.products > products
    assert value.hex() == estimate_operator_norm(DenseOperator(A), **{"seed": 1, **other}).hex()


@pytest.mark.parametrize("seed", [None, [1, 2]], ids=["fresh-entropy", "unhashable"])
def test_a_seed_that_is_not_an_integer_is_not_kept(rng, seed):
    op = _CountingDense(rng.standard_normal((9, 7)))
    estimate_operator_norm(op, seed=seed)
    products = op.products
    estimate_operator_norm(op, seed=seed)
    assert op.products > products
    assert op._norms == {}


def test_bad_budgets_raise_after_a_kept_estimate():
    op = DenseOperator(np.diag([3.0, 1.0]))
    estimate_operator_norm(op, seed=0)
    for bad in ({"tol": 0.0}, {"tol": math.nan}, {"max_iter": 0}):
        args = {"seed": 0, "tol": 1e-8, "max_iter": 5000, **bad}
        # an entry under the bad key itself: the checks come before the lookup
        op._norms[tuple(args.values())] = 3.0
        with pytest.raises(ParameterError):
            estimate_operator_norm(op, **args)


def test_norm_identity():
    assert abs(estimate_operator_norm(IdentityOperator(7), seed=0) - 1.0) < 1e-8


def test_norm_zero_operator():
    assert estimate_operator_norm(csr_from_triplets(5, 5, []), seed=0) == 0.0


def test_norm_against_svd_oracle():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((50, 60))
    est = estimate_operator_norm(DenseOperator(A), seed=3)
    exact = np.linalg.svd(A, compute_uv=False)[0]
    assert abs(est - exact) / exact < 1e-4


def test_norm_monotone_in_budget():
    rng = np.random.default_rng(4)
    op = DenseOperator(rng.standard_normal((40, 40)))
    vals = [
        estimate_operator_norm(op, tol=1e-15, max_iter=k, seed=7)
        for k in (1, 2, 5, 10, 50, 200)
    ]
    assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))


def test_norm_rejects_bad_tol():
    with pytest.raises(ParameterError):
        estimate_operator_norm(IdentityOperator(3), tol=0.0)
    for bad in ({"tol": -1e-8}, {"tol": math.nan}, {"max_iter": 0}, {"max_iter": -3}):
        with pytest.raises(ParameterError):
            estimate_operator_norm(DenseOperator(np.eye(3)), **bad)


def test_matvec_shape_checks(rng):
    op = DenseOperator(rng.standard_normal((4, 6)))
    with pytest.raises(DimensionError):
        op.matvec(np.zeros(5))
    with pytest.raises(DimensionError):
        op.rmatvec(np.zeros(6))


# ---------------------------------------------------------------------------
# the small-vector paths: the bytes of the calls they replace


@pytest.mark.parametrize("size", [0, 1, 50, 30976])
def test_vector_norm_matches_linalg_norm(size):
    rng = np.random.default_rng(size)
    for scale in (1.0, 1e-160, 1e150):
        v = scale * rng.standard_normal(size)
        assert vector_norm(v) == np.linalg.norm(v)
        # the solvers' former v @ v
        assert vector_norm(v) == math.sqrt(v @ v)
        assert type(vector_norm(v)) is float


@pytest.mark.parametrize("step", [2, 3, -1, -2])
def test_vector_norm_of_strided_views(step):
    base = np.random.default_rng(7).standard_normal(30976 * 3)
    for size in (1, 50, 30976):
        v = base[::step][:size]
        # np.linalg.norm sums a contiguous copy; BLAS may sum the view in
        # another order
        assert vector_norm(np.ravel(v)) == np.linalg.norm(v)
        assert math.isclose(vector_norm(v), np.linalg.norm(v), rel_tol=1e-13)
        if step > 0:
            assert vector_norm(v) == math.sqrt(v @ v)


def test_vector_norm_overflow_and_non_finite():
    with np.errstate(over="ignore"):
        assert vector_norm(np.array([1e200, 1.0])) == math.inf
    assert vector_norm(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(vector_norm(np.array([1.0, math.nan])))


def test_dense_products_match_plain_matmul():
    rng = np.random.default_rng(11)
    for m, n in ((1, 1), (50, 100), (100, 50), (0, 3), (3, 0)):
        A = rng.standard_normal((m, n))
        op = DenseOperator(A)
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        assert op.matvec(x).tobytes() == (A @ x).tobytes()
        assert op.rmatvec(y).tobytes() == (A.T @ y).tobytes()
        # strided inputs are products of the same view
        xs, ys = rng.standard_normal(2 * n)[::2], rng.standard_normal(2 * m)[::2]
        assert op.matvec(xs).tobytes() == (A @ xs).tobytes()
        assert op.rmatvec(ys).tobytes() == (A.T @ ys).tobytes()


def test_dense_shape_errors_keep_their_messages():
    op = DenseOperator(np.ones((4, 6)))
    for bad in (np.zeros(5), np.zeros((6, 1)), np.zeros(())):
        with pytest.raises(DimensionError) as exc:
            op.matvec(bad)
        assert str(exc.value) == f"dense: expected input of length 6, got shape {bad.shape}"
    for bad in (np.zeros(6), np.zeros((1, 4))):
        with pytest.raises(DimensionError) as exc:
            op.rmatvec(bad)
        assert str(exc.value) == (
            f"dense: expected dual input of length 4, got shape {bad.shape}"
        )


def _linalg_norm_power_iteration(op, tol=1e-8, max_iter=5000, seed=0):
    """estimate_operator_norm as written with np.linalg.norm."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.shape.domain_dim)
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0
    v /= nv
    rayleigh = 0.0
    prev = -np.inf
    for _ in range(max_iter):
        w = op.rmatvec(op.matvec(v))
        rayleigh = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        if abs(rayleigh - prev) <= tol * max(abs(rayleigh), 1e-30):
            break
        prev = rayleigh
    return float(np.sqrt(max(rayleigh, 0.0)))


class _DuckOperator:
    """Only shape, matvec and rmatvec; rmatvec returns a strided view."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.shape = DenseOperator(matrix).shape

    def matvec(self, x):
        return self.matrix @ x

    def rmatvec(self, y):
        out = np.empty(2 * self.shape.domain_dim)
        out[::2] = self.matrix.T @ y
        return out[::2]


@pytest.mark.parametrize("seed", range(4))
def test_power_iteration_returns_the_linalg_norm_result(seed):
    rng = np.random.default_rng(20 + seed)
    A = rng.standard_normal((50, 100))
    sparse = sp.random(60, 40, density=0.2, random_state=seed, format="csr")
    for op in (DenseOperator(A), CsrOperator(sparse), _DuckOperator(A),
               DenseOperator(np.zeros((3, 4))), FirstDifference(30),
               DiscreteGradient2D(9, 7), GridIncidence(4, 5), IdentityOperator(8),
               graph_laplacian(GridIncidence(4, 3))):
        for tol in (1e-8, 1e-13):
            assert estimate_operator_norm(op, tol=tol, seed=seed) == (
                _linalg_norm_power_iteration(op, tol=tol, seed=seed)
            )


class _OutRecordingDense(DenseOperator):
    """A dense operator that keeps the ``out`` of each application."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.outs = {"matvec": [], "rmatvec": []}

    def matvec(self, x, out=None):
        self.outs["matvec"].append(out)
        return super().matvec(x, out)

    def rmatvec(self, y, out=None):
        self.outs["rmatvec"].append(out)
        return super().rmatvec(y, out)


def test_power_iteration_applies_a_linear_operator_into_two_buffers(rng):
    A = rng.standard_normal((50, 100))
    op = _OutRecordingDense(A)
    assert estimate_operator_norm(op, seed=3) == (
        _linalg_norm_power_iteration(DenseOperator(A), seed=3)
    )
    for method, outs in op.outs.items():
        assert len(outs) > 2, method
        assert all(out is not None for out in outs), method
        # the list keeps every buffer alive, so distinct ids are distinct buffers
        assert len({id(out) for out in outs}) <= 2, method


# ---------------------------------------------------------------------------
# the optional out argument


def test_out_receives_the_bytes_of_a_fresh_application(rng):
    for op in all_kinds(rng):
        x = rng.standard_normal(op.shape.domain_dim)
        y = rng.standard_normal(op.shape.codomain_dim)
        for apply, v, length in ((op.matvec, x, op.shape.codomain_dim),
                                 (op.rmatvec, y, op.shape.domain_dim)):
            out = np.full(length, np.nan)
            assert apply(v, out) is out, op
            assert out.tobytes() == apply(v).tobytes(), op


def test_identity_out_is_a_copy_and_without_out_the_input():
    op = IdentityOperator(3)
    x = np.array([1.0, -2.0, 3.0])
    assert op.matvec(x) is x and op.rmatvec(x) is x
    out = np.zeros(3)
    assert op.matvec(x, out) is out and np.array_equal(out, x)


def test_out_may_be_strided(rng):
    for op in all_kinds(rng):
        x = rng.standard_normal(op.shape.domain_dim)
        out = np.full(2 * op.shape.codomain_dim, np.nan)
        assert op.matvec(x, out[::2]).tobytes() == op.matvec(x).tobytes(), op


def test_dense_out_products_keep_the_bytes_of_fresh_ones():
    rng = np.random.default_rng(12)
    for m, n in ((0, 3), (3, 0), (1, 1), (50, 100), (100, 50)):
        op = DenseOperator(rng.standard_normal((m, n)))
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        for apply, v, length in ((op.matvec, x, m), (op.rmatvec, y, n)):
            out = np.full(length, np.nan)
            assert apply(v, out) is out
            assert out.tobytes() == apply(v).tobytes(), (m, n)
            # a float32 out receives the float64 product cast, as np.matmul writes it
            out32 = np.full(length, np.nan, dtype=np.float32)
            assert apply(v, out32) is out32
            assert out32.tobytes() == apply(v).astype(np.float32).tobytes(), (m, n)
