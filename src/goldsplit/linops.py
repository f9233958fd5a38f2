"""Linear operators, their spectral norms and spectral-norm estimation.

All operators act on flat float64 vectors. Images are flattened row-major,
and 2-D gradient fields are stored as two stacked channels of equal length:
horizontal differences first, then vertical differences.

``estimate_operator_norm`` applies a ``LinearOperator`` through ``out``
into two vectors it allocates once per call, so its power iteration
allocates nothing per step, and keeps each estimate on the operator per
seed, tolerance and budget, where ``operator_norm`` and repeat calls read it.

scipy.sparse is imported only by the operators that store a sparse
matrix (``CsrOperator``, ``csr_from_triplets``, ``GridIncidence``), when
they are built, so dense and matrix-free use never loads scipy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, DimensionError, ParameterError


def vector_norm(v):
    """Euclidean norm of a real 1-D float array: sqrt(v . v).

    For a contiguous vector these are the bytes of np.linalg.norm, which
    computes sqrt(x.dot(x)) for 1-D real input, at a fraction of its call
    overhead. np.linalg.norm first copies a strided view into a contiguous
    array, and BLAS may sum a strided view in another order, so there the
    last bits can differ.
    """
    return math.sqrt(v.dot(v))


def into(out, value):
    """``value`` when ``out`` is None, else ``value`` copied into ``out``."""
    if out is None:
        return value
    np.copyto(out, value)
    return out


class Shape(NamedTuple):
    """Operator dimensions: x lives in R^domain_dim, Kx in R^codomain_dim."""

    domain_dim: int
    codomain_dim: int


class LinearOperator:
    """Matrix-free linear map with a forward and an adjoint application.

    Subclasses implement ``matvec`` (K x) and ``rmatvec`` (K* y) and must
    satisfy the adjoint identity <Kx, y> == <x, K*y>. Operators are immutable
    after construction; both applications are read-only and reentrant.
    The one thing an operator keeps is its power-iteration estimate per
    seed, tolerance and budget, which ``estimate_operator_norm`` writes.
    Both take an optional ``out``, a float64 vector of the result's length
    that must not overlap the input: as with numpy ufuncs, the result is
    written there and ``out`` is returned. A subclass that overrides either
    application keeps the positional ``out``: a run passes it.
    """

    kind = "abstract"

    def __init__(self, shape: Shape):
        # Degenerate zero-row/zero-column operators are tolerated so that
        # edge cases (1x1 grids, empty LIBSVM files) stay representable.
        if shape.domain_dim < 0 or shape.codomain_dim < 0:
            raise DimensionError(f"invalid operator shape {shape}")
        self.shape = shape
        self._domain_shape = (shape.domain_dim,)
        self._codomain_shape = (shape.codomain_dim,)
        self._norms = {}  # (seed, tol, max_iter) -> estimate_operator_norm's ||K||

    def matvec(self, x, out=None):
        raise NotImplementedError

    def rmatvec(self, y, out=None):
        raise NotImplementedError

    def exact_norm(self):
        """The spectral norm ||K|| in closed form, or None when there is none."""
        return None

    def _check_domain(self, x):
        if x.shape != self._domain_shape:
            raise DimensionError(
                f"{self.kind}: expected input of length {self.shape.domain_dim}, "
                f"got shape {x.shape}"
            )

    def _check_codomain(self, y):
        if y.shape != self._codomain_shape:
            raise DimensionError(
                f"{self.kind}: expected dual input of length {self.shape.codomain_dim}, "
                f"got shape {y.shape}"
            )

    def __repr__(self):
        return f"<{type(self).__name__} {self.shape.domain_dim}->{self.shape.codomain_dim}>"


class DenseOperator(LinearOperator):
    """Dense row-major matrix.

    The applications compare shapes inline and call the shared checks only
    to raise, since on small vectors the call would cost about as much as
    the product. With an ``out`` they call ``ndarray.dot``, which goes to
    BLAS with less overhead than np.matmul and gives the same bytes (it is
    np.dot without the Python dispatch frame); it refuses an ``out`` that
    is strided or of another dtype, and such an ``out`` goes through
    np.matmul, which casts and writes through strides.
    """

    kind = "dense"

    def __init__(self, matrix):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ConstructionError("dense payload must be a 2-D array")
        self.matrix = matrix
        self._matrix_t = matrix.T
        super().__init__(Shape(matrix.shape[1], matrix.shape[0]))

    def matvec(self, x, out=None):
        if x.shape != self._domain_shape:
            self._check_domain(x)
        if out is None:
            return self.matrix @ x
        try:
            return self.matrix.dot(x, out)
        except ValueError:
            return np.matmul(self.matrix, x, out)

    def rmatvec(self, y, out=None):
        if y.shape != self._codomain_shape:
            self._check_codomain(y)
        if out is None:
            return self._matrix_t @ y
        try:
            return self._matrix_t.dot(y, out)
        except ValueError:
            return np.matmul(self._matrix_t, y, out)


class CsrOperator(LinearOperator):
    """Sparse matrix in canonical CSR form (sorted, deduplicated)."""

    kind = "sparse_csr"

    def __init__(self, csr):
        import scipy.sparse as sp

        if not sp.issparse(csr):
            raise ConstructionError("CsrOperator expects a scipy sparse matrix")
        csr = csr.tocsr().astype(np.float64)
        csr.sum_duplicates()
        csr.sort_indices()
        self._mat = csr
        self._mat_t = csr.T.tocsr()
        super().__init__(Shape(csr.shape[1], csr.shape[0]))

    @property
    def indptr(self):
        return self._mat.indptr

    @property
    def indices(self):
        return self._mat.indices

    @property
    def data(self):
        return self._mat.data

    @property
    def nnz(self):
        return self._mat.nnz

    def matvec(self, x, out=None):
        self._check_domain(x)
        return into(out, self._mat @ x)

    def rmatvec(self, y, out=None):
        self._check_codomain(y)
        return into(out, self._mat_t @ y)


def csr_from_triplets(n_rows, n_cols, triplets):
    """Build a CSR operator from (row, col, value) triplets.

    Duplicate entries are summed and the result is stored in canonical
    order. Out-of-range indices raise ConstructionError.
    """
    import scipy.sparse as sp

    rows, cols, vals = [], [], []
    for r, c, v in triplets:
        if not (0 <= r < n_rows) or not (0 <= c < n_cols):
            raise ConstructionError(
                f"triplet index ({r}, {c}) outside {n_rows}x{n_cols}"
            )
        rows.append(r)
        cols.append(c)
        vals.append(v)
    mat = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n_rows, n_cols)
    )
    return CsrOperator(mat.tocsr())


class IdentityOperator(LinearOperator):
    kind = "identity"

    def __init__(self, n):
        super().__init__(Shape(n, n))

    def matvec(self, x, out=None):
        self._check_domain(x)
        return into(out, x)

    def rmatvec(self, y, out=None):
        self._check_codomain(y)
        return into(out, y)

    def exact_norm(self):
        return 1.0 if self.shape.domain_dim > 0 else 0.0


class FirstDifference(LinearOperator):
    """Forward difference operator with rows (-1, 1): (Dx)_k = x_{k+1} - x_k."""

    kind = "first_difference"

    def __init__(self, n):
        if n < 2:
            raise DimensionError("first_difference needs n >= 2")
        self.n = n
        super().__init__(Shape(n, n - 1))

    def matvec(self, x, out=None):
        self._check_domain(x)
        return np.subtract(x[1:], x[:-1], out)

    def rmatvec(self, y, out=None):
        self._check_codomain(y)
        if out is None:
            out = np.zeros(self.n)
        else:
            out.fill(0.0)
        out[:-1] -= y
        out[1:] += y
        return out

    def exact_norm(self):
        return _path_norm(self.n)


def _path_norm(n):
    """||D|| of the n-point first difference; D^T D's top eigenvalue is 4 sin^2(pi (n-1) / 2n)."""
    return 2.0 * math.sin(math.pi * (n - 1) / (2 * n))


def _grid_norm(rows, cols):
    """||D|| for the gradient or incidence operator of a rows x cols grid.

    D^T D is the Laplacian of the grid graph, the Kronecker sum of two path
    Laplacians, so its largest eigenvalue is the sum of theirs.
    """
    return math.hypot(_path_norm(rows), _path_norm(cols))


class GridIncidence(CsrOperator):
    """Signed edge-node incidence matrix of an n1 x n2 grid graph.

    Nodes are numbered row-major. Edge rows enumerate all horizontal
    neighbour pairs in row-major order, then all vertical pairs in
    row-major order. Each row carries -1 at the lexicographically smaller
    node and +1 at the other, so (Dx)_e = x_j - x_i for the edge (i, j)
    with i < j.
    """

    kind = "grid_incidence"

    def __init__(self, n1, n2):
        if n1 < 1 or n2 < 1:
            raise DimensionError("grid_incidence needs n1, n2 >= 1")
        import scipy.sparse as sp

        self.grid = (n1, n2)
        nodes = np.arange(n1 * n2).reshape(n1, n2)
        # edge e joins tails[e] (entry -1) to the larger node heads[e] (+1)
        tails = np.concatenate([nodes[:, :-1].ravel(), nodes[:-1, :].ravel()])
        heads = np.concatenate([nodes[:, 1:].ravel(), nodes[1:, :].ravel()])
        n_edges = len(tails)
        mat = sp.csr_matrix(
            (
                np.tile([-1.0, 1.0], n_edges),
                np.stack([tails, heads], axis=1).ravel(),
                np.arange(0, 2 * n_edges + 1, 2),
            ),
            shape=(n_edges, n1 * n2),
        )
        super().__init__(mat)

    def exact_norm(self):
        return _grid_norm(*self.grid)


class GramOperator(LinearOperator):
    """Symmetric positive-semidefinite D^T D applied as D^T (D x).

    With D a graph incidence matrix this is the graph Laplacian: row sums
    vanish and the diagonal equals the node degree.
    """

    kind = "gram"

    def __init__(self, inner):
        self.inner = inner
        n = inner.shape.domain_dim
        super().__init__(Shape(n, n))

    def matvec(self, x, out=None):
        self._check_domain(x)
        return into(out, self.inner.rmatvec(self.inner.matvec(x)))

    def rmatvec(self, y, out=None):
        return self.matvec(y, out)

    def exact_norm(self):
        # ||D^T D|| = ||D||^2
        inner = getattr(self.inner, "exact_norm", lambda: None)()
        return None if inner is None else inner * inner


def graph_laplacian(incidence):
    """Return the graph Laplacian D^T D of an incidence (or CSR) operator."""
    return GramOperator(incidence)


class DiscreteGradient2D(LinearOperator):
    """Forward-difference image gradient with zero rows at the far boundary.

    The codomain stacks the horizontal channel before the vertical one; the
    last column of the horizontal channel and the last row of the vertical
    channel are identically zero. The adjoint is the negative divergence.
    The operator norm is that of the grid's incidence matrix,
    sqrt(4 sin^2(pi (rows-1) / 2 rows) + 4 sin^2(pi (cols-1) / 2 cols)),
    which stays below sqrt(8).
    """

    kind = "discrete_gradient_2d"

    def __init__(self, rows, cols):
        if rows < 1 or cols < 1:
            raise DimensionError("discrete_gradient_2d needs rows, cols >= 1")
        self.rows = rows
        self.cols = cols
        super().__init__(Shape(rows * cols, 2 * rows * cols))

    def matvec(self, x, out=None):
        self._check_domain(x)
        p, cols = x.size, self.cols
        if out is None:
            out = np.empty(2 * p, dtype=x.dtype)
        # flat differences: the pairs that cross a row end fall on the last
        # column, which is then zeroed (in an overflowing run they can add
        # a numpy warning of their own)
        np.subtract(x[1:], x[:-1], out=out[: p - 1])
        out[cols - 1 : p : cols] = 0.0
        np.subtract(x[cols:], x[:-cols], out=out[p : 2 * p - cols])
        out[2 * p - cols :] = 0.0
        return out

    def rmatvec(self, y, out=None):
        self._check_codomain(y)
        p, cols = self.rows * self.cols, self.cols
        yh, yv = y[:p], y[p:]
        if out is None:
            out = np.empty(p)
        # 0 - a, not -a: the sign of a zero entry must match a zero-filled start
        np.subtract(0.0, yh, out=out)
        out[cols - 1 :: cols] = 0.0
        if cols > 1:
            # flat as in matvec: the sums that cross a row end land on
            # column 0 of the next row, which is then computed again
            np.add(out[1:], yh[:-1], out=out[1:])
            np.subtract(0.0, yh[cols::cols], out=out[cols::cols])
        out[: p - cols] -= yv[: p - cols]
        out[cols:] += yv[: p - cols]
        return out

    def exact_norm(self):
        return _grid_norm(self.rows, self.cols)


def operator_norm(op, seed=0):
    """||K|| for the solvers: exact where a closed form exists.

    Operators without one (dense, CSR and duck-typed operators) fall back
    to ``estimate_operator_norm`` with the given seed and its default
    budget, which a ``LinearOperator`` keeps for its runs, smooth oracles
    and ``NUMBER/K`` stepsizes.
    """
    norm = getattr(op, "exact_norm", lambda: None)()
    return estimate_operator_norm(op, seed=seed) if norm is None else norm


def estimate_operator_norm(op, tol=1e-8, max_iter=5000, seed=0):
    """Estimate ||K|| = sqrt(lambda_max(K* K)) by power iteration.

    Starts from a seeded random unit vector and iterates v <- K*K v,
    stopping when the Rayleigh quotient changes by less than ``tol``
    relative or after ``max_iter`` steps. The result is a lower bound on
    the true norm up to the tolerance, and is nondecreasing in the
    iteration budget for a fixed seed. Use ``operator_norm`` for a
    stepsize bound: it returns the exact norm where a closed form exists.
    The one norm cache: a ``LinearOperator`` keeps each estimate per
    integer seed (None draws fresh entropy), ``tol`` and ``max_iter`` and
    returns it on a repeat call without a product; other objects are
    estimated on every call.

    A ``LinearOperator`` is applied through ``out`` into two vectors
    allocated once per call, one of each length, and each step normalises
    K*K v in place, so the loop allocates nothing. Any other object is
    called without ``out``, and its result, which may be a strided view it
    owns, is normalised into a new array. Either way each step makes the
    same floating-point operations in the same order.
    """
    if not max_iter >= 1:
        raise ParameterError(f"max_iter must be >= 1 (got {max_iter})")
    if not tol > 0:
        raise ParameterError(f"tol must be positive (got {tol})")
    key = (seed, tol, max_iter) if isinstance(seed, (int, np.integer)) else None
    norms = getattr(op, "_norms", {}) if key else {}
    if key in norms:
        return norms[key]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.shape.domain_dim)
    nv = vector_norm(v)
    if nv == 0:
        return norms.setdefault(key, 0.0)
    v /= nv
    gram = _gram_step(op)
    rayleigh = 0.0
    prev = -np.inf
    for _ in range(max_iter):
        w, out = gram(v)
        # ndarray.dot: the BLAS dot of v @ w with less call overhead
        rayleigh = float(v.dot(w))
        # a contiguous copy of a strided w, as np.linalg.norm sums it
        nw = vector_norm(w.ravel())
        if nw == 0:
            return norms.setdefault(key, 0.0)
        v = np.divide(w, nw, out)
        if abs(rayleigh - prev) <= tol * max(abs(rayleigh), 1e-30):
            break
        prev = rayleigh
    return norms.setdefault(key, float(np.sqrt(max(rayleigh, 0.0))))


def _gram_step(op):
    """The power iteration's application: v -> (K*K v, where to normalise it).

    For a ``LinearOperator``, K v goes into a vector of the codomain's
    length and K*K v into a spare of the domain's length, which is then
    normalised in place; v's buffer becomes the next spare. For any other
    object the place is None: a new array.
    """
    if not isinstance(op, LinearOperator):
        return lambda v: (op.rmatvec(op.matvec(v)), None)
    kv = np.empty(op.shape.codomain_dim)
    spare = np.empty(op.shape.domain_dim)

    def gram(v):
        nonlocal spare
        w = op.rmatvec(op.matvec(v, kv), spare)
        spare = v
        return w, w

    return gram
