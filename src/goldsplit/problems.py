"""Benchmark instance generators, LIBSVM ingestion and instance manifests.

Generators are deterministic in their seed: the same parameters and seed
reproduce the instance bit-for-bit within one build. Randomness comes from
numpy's default PCG64 generator seeded with the 64-bit ``seed`` argument.

Manifest layout: ``manifest.json`` records the generation spec, seed,
dimensions, regularization weights and the provenance of any stored
reference optimum; array payloads live in flat little-endian binary
sidecars (row-major). Each family's record states every payload's shape, in
terms of its dimensions, and its dtype (float64 for every family today);
the loader checks both against the manifest before it reads a payload.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ContractError,
    DataError,
    DimensionError,
    ParameterError,
    ParseError,
)
from .linops import (
    DenseOperator,
    DiscreteGradient2D,
    FirstDifference,
    GridIncidence,
    IdentityOperator,
    LinearOperator,
    Shape,
    csr_from_triplets,
    graph_laplacian,
    into,
)
from .prox import (
    GroupL21Prox,
    L1Prox,
    LeastSquares,
    Logistic,
    MaskedLeastSquares,
    QuadraticRidge,
    SquaredL2Prox,
    ZeroProx,
    ZeroSmooth,
)

@dataclass
class ProblemInstance:
    """The quadruple (f, g, K, h) plus optional ground truth and metadata."""

    f: object
    g: object
    K: LinearOperator
    h: object
    x_true: np.ndarray | None = None
    F_star: float | None = None
    F_star_provenance: str | None = None
    name: str = ""
    dims: dict = field(default_factory=dict)
    seed: int | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Payload:
    """An array that a manifest records: its shape and its one allowed dtype.

    ``shape`` names one dimension per axis; ``"rows*cols"`` multiplies two.
    """

    shape: tuple
    dtype: str

    def shape_in(self, dims):
        """The shape that the dimensions ``dims`` give, as a list."""
        return [math.prod(dims[name] for name in axis.split("*")) for axis in self.shape]


@dataclass(frozen=True)
class Family:
    """One generable benchmark family, as the library and the CLI see it.

    ``generate(seed=..., **params)`` draws an instance. ``params`` maps each
    generator parameter to its flag type (``int``, ``float`` or a tuple of
    choices), and ``required`` names the ones without a default. ``dims``
    names the dimensions that a manifest records, and ``payloads`` maps the
    name of each array it records to its ``Payload``.
    ``build(meta, dims)`` returns the oracles ``(f, g, K, h)`` from the
    scalars and arrays in ``meta``; the generator and the manifest loader
    both finish through it.
    """

    generate: Callable
    params: dict
    required: tuple
    dims: tuple
    payloads: dict
    build: Callable


def _instance(family, meta, dims, **fields):
    """A ProblemInstance whose oracles FAMILIES[family].build makes from meta."""
    f, g, K, h = FAMILIES[family].build(meta, dims)
    return ProblemInstance(f=f, g=g, K=K, h=h, meta=meta, dims=dims, **fields)


@dataclass
class GenSpec:
    """Family selector plus family-specific generation parameters."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0


_LASSO_SCHEMES = ("gaussian", "correlated")


def gen_lasso(m, n, s, scheme="gaussian", q=0.5, lam=0.1, noise_sd=0.1, seed=0):
    """l1-regularized least squares with a planted s-sparse signal.

    ``scheme`` selects the design matrix: ``gaussian`` draws iid standard
    normal entries; ``correlated`` builds columns K_1 = B_1 / sqrt(1 - q^2),
    K_j = q K_{j-1} + B_j from iid normal B, giving neighbouring columns
    correlation q. Nonzero signal entries are uniform on [-10, 10]; the
    response is K x_true plus N(0, noise_sd^2) noise.
    """
    if s > n or s < 0:
        raise ParameterError(f"sparsity s={s} must lie in [0, n={n}]")
    if scheme not in _LASSO_SCHEMES:
        raise ParameterError(f"unknown lasso scheme {scheme!r}")
    if scheme == "correlated" and not (0.0 < q < 1.0):
        raise ParameterError(f"correlated scheme needs q in (0, 1), got {q}")
    rng = np.random.default_rng(seed)
    if scheme == "correlated":
        B = rng.standard_normal((m, n))
        K = np.empty((m, n))
        K[:, 0] = B[:, 0] / np.sqrt(1.0 - q * q)
        for j in range(1, n):
            K[:, j] = q * K[:, j - 1] + B[:, j]
    else:
        K = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    if s > 0:
        support = rng.choice(n, size=s, replace=False)
        x_true[support] = rng.uniform(-10.0, 10.0, size=s)
    noise = rng.normal(0.0, noise_sd, size=m)
    b = K @ x_true + noise
    return _instance(
        "lasso",
        {"scheme": scheme, "q": q, "lam": lam, "noise_sd": noise_sd, "b": b, "K": K},
        {"m": m, "n": n, "s": s},
        x_true=x_true, name=f"lasso-{scheme}-m{m}-n{n}-s{s}-seed{seed}", seed=seed,
    )


def gen_fused_lasso(m, n, lam1=0.001, lam2=0.03, noise_sd=0.01, seed=0):
    """l1 + total-variation regularized regression on a dense Gaussian signal.

    Design-matrix entries and the response noise share the N(0, 0.01^2)
    scale; the signal is dense standard normal (no planted sparsity).
    """
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, noise_sd, size=(m, n))
    x_true = rng.standard_normal(n)
    noise = rng.normal(0.0, noise_sd, size=m)
    b = A @ x_true + noise
    return _instance(
        "fused_lasso",
        {"lam1": lam1, "lam2": lam2, "noise_sd": noise_sd, "A": A, "b": b},
        {"m": m, "n": n},
        x_true=x_true, name=f"fused_lasso-m{m}-n{n}-seed{seed}", seed=seed,
    )


def build_logistic(A, labels, setting=1, lam1=1.0, lam2=150.0):
    """Regularized logistic regression from a design matrix and +-1 labels.

    Setting 1 pairs the plain l1 penalty lam ||x||_1 with K = I, where
    lam = 0.005 ||A^T labels||_inf. Setting 2 uses lam1 ||x||_1 +
    lam2 ||D x||_1 with the first-difference operator as K.
    """
    op = A if isinstance(A, LinearOperator) else DenseOperator(np.asarray(A, float))
    labels = np.asarray(labels, dtype=np.float64)
    h = Logistic(op, labels)
    n = op.shape.domain_dim
    if setting == 1:
        lam = 0.005 * float(np.max(np.abs(op.rmatvec(labels))))
        f = ZeroProx()
        g = L1Prox(lam)
        K = IdentityOperator(n)
        meta = {"setting": 1, "lam": lam}
    elif setting == 2:
        f = L1Prox(lam1)
        g = L1Prox(lam2)
        K = FirstDifference(n)
        meta = {"setting": 2, "lam1": lam1, "lam2": lam2}
    else:
        raise ParameterError(f"setting must be 1 or 2, got {setting}")
    return ProblemInstance(
        f=f,
        g=g,
        K=K,
        h=h,
        name=f"logistic{setting}-m{op.shape.codomain_dim}-n{n}",
        dims={"m": op.shape.codomain_dim, "n": n},
        meta=meta,
    )


def parse_libsvm(path, n_features=None):
    """Read a sparse design matrix and labels from LIBSVM text.

    Each line is ``label idx:val idx:val ...`` with 1-based, strictly
    positive feature indices. The column count is the largest index seen
    unless ``n_features`` overrides it. Labels are remapped to {-1, +1}:
    values already in that set pass through, otherwise the smaller of two
    distinct values maps to -1. Malformed or non-UTF-8 lines, and labels or
    feature values that are NaN or infinite, raise ParseError with their line
    number.
    """
    rows, cols, vals, raw_labels = [], [], [], []
    max_col = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                tokens = raw.decode("utf-8").split()
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start + 1}",
                                 lineno) from None
            if not tokens:
                continue
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(f"bad label {tokens[0]!r}", lineno) from None
            if not math.isfinite(label):
                raise ParseError(f"non-finite label {tokens[0]!r}", lineno)
            row = len(raw_labels)
            raw_labels.append(label)
            for tok in tokens[1:]:
                idx, sep, val = tok.partition(":")
                if not sep:
                    raise ParseError(f"missing ':' in {tok!r}", lineno)
                try:
                    col = int(idx)
                    value = float(val)
                except ValueError:
                    raise ParseError(f"bad feature entry {tok!r}", lineno) from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite feature value {tok!r}", lineno)
                if col < 1:
                    raise ParseError(f"indices are 1-based, got {col}", lineno)
                max_col = max(max_col, col)
                rows.append(row)
                cols.append(col - 1)
                vals.append(value)
    m = len(raw_labels)
    n = max_col if n_features is None else n_features
    if n_features is not None and max_col > n_features:
        raise ParseError(f"index {max_col} exceeds n_features={n_features}")
    labels = _remap_labels(np.asarray(raw_labels))
    return csr_from_triplets(m, n, zip(rows, cols, vals)), labels


def _remap_labels(raw):
    if raw.size == 0:
        return raw
    uniq = np.unique(raw)
    if np.all(np.isin(uniq, (-1.0, 1.0))):
        return raw.astype(np.float64)
    if uniq.size == 2:
        out = np.where(raw == uniq[0], -1.0, 1.0)
        return out
    raise DataError(f"cannot map labels {uniq.tolist()} onto -1/+1")


def write_libsvm(path, op, labels):
    """Write a CSR design matrix and labels in LIBSVM text (1-based indices)."""
    labels = np.asarray(labels)
    if labels.shape != (op.shape.codomain_dim,):
        raise DimensionError("label count does not match the matrix")
    with open(path, "w") as fh:
        indptr, indices, data = op.indptr, op.indices, op.data
        for i, lab in enumerate(labels):
            parts = [repr(float(lab))]
            for k in range(indptr[i], indptr[i + 1]):
                parts.append(f"{indices[k] + 1}:{repr(float(data[k]))}")
            fh.write(" ".join(parts) + "\n")


def conjugate_gradient_solve(op, rhs, tol=1e-8, max_iter=1000):
    """Conjugate gradients for a symmetric positive semidefinite system.

    Returns x with ||op(x) - rhs|| <= tol ||rhs|| or after ``max_iter``
    sweeps. The symmetry contract is always probed, on one pair drawn from
    its own seeded generator, and a violation raises ContractError.
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    rhs = np.asarray(rhs, dtype=np.float64)
    probe = np.random.default_rng(0)
    u = probe.standard_normal(rhs.shape[0])
    v = probe.standard_normal(rhs.shape[0])
    lhs = float(op.matvec(u) @ v)
    rht = float(u @ op.matvec(v))
    if abs(lhs - rht) > 1e-8 * (1.0 + abs(lhs)):
        raise ContractError("operator is not symmetric; CG needs op = op^T")
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return x
    p = r.copy()
    rs = float(r @ r)
    for _ in range(max_iter):
        Ap = op.matvec(p)
        denom = float(p @ Ap)
        if denom <= 0.0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * rhs_norm:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


class _TikhonovSystem(LinearOperator):
    """The shifted Laplacian system x -> x + alpha * W x used for smoothing."""

    kind = "tikhonov_system"

    def __init__(self, alpha, laplacian):
        self.alpha = alpha
        self.W = laplacian
        n = laplacian.shape.domain_dim
        super().__init__(Shape(n, n))

    def matvec(self, x, out=None):
        return into(out, x + self.alpha * self.W.matvec(x))

    def rmatvec(self, y, out=None):
        return self.matvec(y, out)


def gen_graphnet(
    n1,
    n2,
    m,
    alpha=2.0,
    sparsity_fraction=0.05,
    lam1=6.64e-6,
    lam2=1e-6,
    noise_sd=0.01,
    seed=0,
):
    """Smooth-plus-sparse recovery on an n1 x n2 grid graph.

    A standard normal node signal is low-pass filtered by solving
    (I + alpha W) x_smth = x_0 with conjugate gradients (W the grid
    Laplacian, tol 1e-8, at most 1000 sweeps); the ground truth keeps the
    entries whose magnitude reaches the k-th largest, k = floor(fraction
    * n). Ties keep every entry at the threshold, which can exceed k.
    Measurements are Gaussian with variance 1/m per entry.
    """
    if not (0.0 < sparsity_fraction <= 1.0):
        raise ParameterError("sparsity_fraction must lie in (0, 1]")
    n = n1 * n2
    k = int(np.floor(sparsity_fraction * n))
    if k == 0:
        smallest = 1.0 / n
        while np.floor(smallest * n) < 1.0:  # 1/n can round to just below it
            smallest = np.nextafter(smallest, 1.0)
        raise ParameterError(
            f"sparsity_fraction {sparsity_fraction} keeps no entry of the {n1}x{n2} "
            f"grid's {n} nodes; the smallest fraction that keeps one is 1/{n}: "
            f"{float(smallest)!r}"
        )
    rng = np.random.default_rng(seed)
    W = graph_laplacian(GridIncidence(n1, n2))
    x0 = rng.standard_normal(n)
    x_smth = conjugate_gradient_solve(_TikhonovSystem(alpha, W), x0, tol=1e-8, max_iter=1000)
    magnitudes = np.abs(x_smth)
    threshold = np.partition(magnitudes, n - k)[n - k]
    x_true = np.where(magnitudes >= threshold, x_smth, 0.0)
    A = rng.normal(0.0, np.sqrt(1.0 / m), size=(m, n))
    noise = rng.normal(0.0, noise_sd, size=m)
    b = A @ x_true + noise
    return _instance(
        "graphnet",
        {"alpha": alpha, "sparsity_fraction": sparsity_fraction, "lam1": lam1,
         "lam2": lam2, "noise_sd": noise_sd, "A": A, "b": b, "x_smth": x_smth},
        {"n1": n1, "n2": n2, "m": m, "n": n},
        x_true=x_true, name=f"graphnet-{n1}x{n2}-m{m}-seed{seed}", seed=seed,
    )


def gen_inpainting(image, missing_fraction=0.3, lam=1e-2, seed=0):
    """Isotropic-TV inpainting of an image with pixels in [0, 1].

    Exactly floor(fraction * pixels) mask entries are zeroed at positions
    sampled uniformly without replacement; the observation is the masked
    image and the data term only sees known pixels.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DimensionError("inpainting expects a 2-D image")
    if image.min() < 0.0 or image.max() > 1.0:
        raise DataError("pixel values must lie in [0, 1]")
    if not (0.0 <= missing_fraction < 1.0):
        raise ParameterError("missing_fraction must lie in [0, 1)")
    rows, cols = image.shape
    p = rows * cols
    n_missing = int(np.floor(missing_fraction * p))
    rng = np.random.default_rng(seed)
    mask = np.ones(p)
    if n_missing > 0:
        holes = rng.choice(p, size=n_missing, replace=False)
        mask[holes] = 0.0
    x_true = image.ravel().copy()
    b = mask * x_true
    return _instance(
        "inpainting",
        {"rows": rows, "cols": cols, "missing_fraction": missing_fraction, "lam": lam,
         "mask": mask, "damaged": b},
        {"rows": rows, "cols": cols},
        x_true=x_true, name=f"inpainting-{rows}x{cols}-seed{seed}", seed=seed,
    )


def gen_strongly_convex(m, n, ridge=1.0, lam=0.1, noise_sd=0.1, seed=0):
    """Instance whose smooth part and dual-side quadratic are strongly convex.

    h gains an explicit ridge (modulus >= ridge) and g is a unit-weight
    translated quadratic, whose conjugate is 1-strongly convex. K is a
    dense square Gaussian. The minimizer is unique; no ground truth is
    stored (compute one with a long reference run).
    """
    if m < n:
        warnings.warn("m < n: the design may be rank deficient", stacklevel=2)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x_sig = rng.standard_normal(n)
    b = A @ x_sig + rng.normal(0.0, noise_sd, size=m)
    K = rng.standard_normal((n, n))
    b_dual = K @ x_sig + rng.normal(0.0, noise_sd, size=n)
    return _instance(
        "strongly_convex",
        {"ridge": ridge, "lam": lam, "noise_sd": noise_sd, "A": A, "b": b,
         "b_dual": b_dual, "K": K},
        {"m": m, "n": n},
        name=f"strongly_convex-m{m}-n{n}-seed{seed}", seed=seed,
    )


def synthetic_blocks_image(rows=32, cols=32):
    """Deterministic piecewise-constant test image with values in [0, 1]."""
    img = np.full((rows, cols), 0.2)
    img[rows // 8 : rows // 2, cols // 8 : cols // 2] = 0.8
    img[rows // 2 : 7 * rows // 8, cols // 2 : 7 * cols // 8] = 0.5
    img[rows // 8 : 3 * rows // 8, 5 * cols // 8 : 7 * cols // 8] = 1.0
    return img


def _gen_inpainting(image=None, seed=0, **params):
    """gen_inpainting on IMAGE, or on the synthetic blocks image of rows x cols."""
    size = {key: params.pop(key) for key in ("rows", "cols") if key in params}
    if image is None:
        image = synthetic_blocks_image(**size)
    elif size:
        raise ParameterError("give either an image or rows/cols, not both")
    return gen_inpainting(image, seed=seed, **params)


FAMILIES = {
    "lasso": Family(
        generate=gen_lasso,
        params={"m": int, "n": int, "s": int, "scheme": _LASSO_SCHEMES, "q": float,
                "lam": float, "noise_sd": float},
        required=("m", "n", "s"), dims=("m", "n", "s"),
        payloads={"K": Payload(("m", "n"), "float64"), "b": Payload(("m",), "float64"),
                  "x_true": Payload(("n",), "float64")},
        build=lambda p, d: (L1Prox(p["lam"]), SquaredL2Prox(1.0, p["b"]),
                            DenseOperator(p["K"]), ZeroSmooth()),
    ),
    "fused_lasso": Family(
        generate=gen_fused_lasso,
        params={"m": int, "n": int, "lam1": float, "lam2": float, "noise_sd": float},
        required=("m", "n"), dims=("m", "n"),
        payloads={"A": Payload(("m", "n"), "float64"), "b": Payload(("m",), "float64"),
                  "x_true": Payload(("n",), "float64")},
        build=lambda p, d: (L1Prox(p["lam1"]), L1Prox(p["lam2"]),
                            FirstDifference(d["n"]), LeastSquares(p["A"], p["b"])),
    ),
    "graphnet": Family(
        generate=gen_graphnet,
        params={"n1": int, "n2": int, "m": int, "alpha": float, "sparsity_fraction": float,
                "lam1": float, "lam2": float, "noise_sd": float},
        required=("n1", "n2", "m"), dims=("n1", "n2", "m", "n"),
        payloads={"A": Payload(("m", "n"), "float64"), "b": Payload(("m",), "float64"),
                  "x_true": Payload(("n",), "float64")},
        build=lambda p, d: (L1Prox(p["lam1"]), SquaredL2Prox(weight=p["lam2"]),
                            GridIncidence(d["n1"], d["n2"]),
                            LeastSquares(p["A"], p["b"], scale=1.0 / d["m"])),
    ),
    "inpainting": Family(
        generate=_gen_inpainting,
        params={"rows": int, "cols": int, "missing_fraction": float, "lam": float},
        required=(), dims=("rows", "cols"),
        payloads={key: Payload(("rows*cols",), "float64")
                  for key in ("x_true", "mask", "damaged")},
        build=lambda p, d: (ZeroProx(), GroupL21Prox(p["lam"], d["rows"] * d["cols"]),
                            DiscreteGradient2D(d["rows"], d["cols"]),
                            MaskedLeastSquares(p["mask"], p["damaged"])),
    ),
    "strongly_convex": Family(
        generate=gen_strongly_convex,
        params={"m": int, "n": int, "ridge": float, "lam": float, "noise_sd": float},
        required=("m", "n"), dims=("m", "n"),
        payloads={"A": Payload(("m", "n"), "float64"), "b": Payload(("m",), "float64"),
                  "b_dual": Payload(("n",), "float64"), "K": Payload(("n", "n"), "float64")},
        build=lambda p, d: (L1Prox(p["lam"]), SquaredL2Prox(1.0, p["b_dual"]),
                            DenseOperator(p["K"]),
                            QuadraticRidge(p["A"], p["b"], p["ridge"])),
    ),
}


def _family(name):
    try:
        return FAMILIES[name]
    except KeyError:
        raise ParameterError(f"unknown or non-generable family {name!r}") from None


def generate_instance(spec: GenSpec):
    """Draw the instance a GenSpec describes with its family's generator."""
    if not (spec.seed >= 0):
        raise ParameterError(f"seed must be >= 0 (got {spec.seed})")
    family = _family(spec.family)
    for key, value in spec.params.items():
        if family.params.get(key) is float and not math.isfinite(value):
            raise ParameterError(f"{key} must be finite (got {value})")
    return family.generate(seed=spec.seed, **spec.params)


# ---------------------------------------------------------------------------
# manifest and payload serialization

_JSON_KINDS = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number"}


def _field(mapping, key, kind, where):
    """mapping[key], checked against KIND: one of _JSON_KINDS or a tuple of
    admissible values. A missing, ill-typed or non-finite key is a DataError naming it."""
    if key not in mapping:
        raise DataError(f"{where} lacks {key!r}")
    value = mapping[key]
    if isinstance(kind, tuple):
        if value not in kind:
            raise DataError(f"{where}: {key!r} must be one of {list(kind)}, got {value!r}")
        return value
    types = (int, float) if kind is float else kind
    if not isinstance(value, types) or isinstance(value, bool):
        raise DataError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}, "
                        f"got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise DataError(f"{where}: {key!r} must be finite, got {value}")
    return value


def write_json(path, obj):
    """Write OBJ to PATH as indented, key-sorted JSON ending in a newline.

    The text goes to a temporary file beside PATH that then replaces it, so
    a failed write leaves the previous file intact and no temporary behind.
    """
    path = Path(path)
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# payload dtype name -> its little-endian on-disk layout, for each dtype a
# family's Payload states
_PAYLOAD_DTYPES = {"float64": "<f8"}


def _write_payload(directory, stem, array, dtype):
    array = np.asarray(array)
    array.astype(_PAYLOAD_DTYPES[dtype]).tofile(directory / f"{stem}.bin")
    return {"file": f"{stem}.bin", "dtype": dtype, "shape": list(array.shape)}


def _read_payload(directory, entry, where, payload, dims):
    """The array of a manifest's payload ``entry``, checked against its family's ``payload``."""
    fname = _field(entry, "file", str, where)
    dtype = _field(entry, "dtype", (payload.dtype,), where)
    shape = _field(entry, "shape", list, where)
    if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape):
        raise DataError(f"{where}: 'shape' must list non-negative integers, got {shape}")
    expected = payload.shape_in(dims)
    if shape != expected:
        raise DataError(f"{where}: shape {shape} is not the {expected} that its dims "
                        f"({', '.join(payload.shape)}) give")
    arr = np.fromfile(directory / fname, dtype=_PAYLOAD_DTYPES[dtype])
    if arr.size != math.prod(shape):
        raise DataError(
            f"payload {fname} holds {arr.size} values; "
            f"its recorded shape {shape} needs {math.prod(shape)}"
        )
    return arr.reshape(shape).astype(dtype)


def save_instance(directory, problem, spec):
    """Write manifest.json plus binary payloads; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sources = {"x_true": problem.x_true, **problem.meta}
    payloads = {
        key: _write_payload(directory, key, sources[key], payload.dtype)
        for key, payload in _family(spec.family).payloads.items()
    }
    # record every effective scalar (weights, noise scales, ...) even when
    # the caller relied on generator defaults; explicit spec values win
    params = {k: v for k, v in {**problem.meta, **spec.params}.items()
              if not isinstance(v, np.ndarray)}
    manifest = {
        "format": "goldsplit-instance-v1",
        "family": spec.family,
        "params": params,
        "seed": spec.seed,
        "name": problem.name,
        "dims": problem.dims,
        "F_star": None
        if problem.F_star is None
        else {"value": problem.F_star, "provenance": problem.F_star_provenance},
        "payloads": payloads,
    }
    path = directory / "manifest.json"
    write_json(path, manifest)
    return path


def load_instance(manifest_path):
    """Rebuild a ProblemInstance from a manifest and its payload sidecars.

    The manifest must carry every parameter, dimension and payload that its
    family's record names; a missing or ill-typed one, or a payload whose
    dtype or shape is not the one its family states for the manifest's
    dims, is a DataError.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {manifest_path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "goldsplit-instance-v1":
        raise DataError(f"unrecognized manifest format in {manifest_path}")
    where = f"manifest {manifest_path}"
    name = _field(manifest, "family", tuple(FAMILIES), where)
    family = FAMILIES[name]
    params = _field(manifest, "params", dict, where)
    dims = _field(manifest, "dims", dict, where)
    entries = _field(manifest, "payloads", dict, where)
    for key, kind in family.params.items():
        _field(params, key, kind, f"{where} params")
    for key in family.dims:
        _field(dims, key, int, f"{where} dims")
    arrays = {
        key: _read_payload(manifest_path.parent,
                           _field(entries, key, dict, f"{where} payloads"),
                           f"{where} payload {key!r}", payload, dims)
        for key, payload in family.payloads.items()
    }
    F_star = provenance = None
    if manifest.get("F_star") is not None:
        fs = _field(manifest, "F_star", dict, where)
        F_star = _field(fs, "value", float, f"{where} F_star")
        provenance = fs.get("provenance")
    x_true = arrays.pop("x_true", None)
    # payload arrays stay reachable in meta under their generator-time names,
    # so consumers (e.g. the -b warm start) behave the same on loaded instances
    return _instance(
        name,
        {**params, **arrays},
        dims,
        x_true=x_true,
        F_star=F_star,
        F_star_provenance=provenance,
        name=manifest.get("name", name),
        seed=manifest.get("seed"),
    )


def update_manifest_f_star(manifest_path, value, provenance):
    """Record a reference optimum and its provenance in an existing manifest."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    manifest["F_star"] = {"value": value, "provenance": provenance}
    write_json(manifest_path, manifest)


# ---------------------------------------------------------------------------
# PGM image I/O (binary P5, 8-bit)


def read_pgm(path):
    """Load a binary 8-bit PGM image as floats in [0, 1]."""
    data = Path(path).read_bytes()
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise ParseError("truncated PGM header")
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            i += 1
            continue
        if data[i : i + 1].isspace():
            i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    if tokens[0] != b"P5":
        raise ParseError(f"unsupported PGM magic {tokens[0]!r}")
    cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval <= 0 or maxval > 255:
        raise ParseError(f"only 8-bit PGM supported (maxval {maxval})")
    i += 1  # single whitespace byte after the header
    pixels = np.frombuffer(data, dtype=np.uint8, count=rows * cols, offset=i)
    if pixels.size != rows * cols:
        raise ParseError("truncated PGM pixel data")
    return pixels.reshape(rows, cols).astype(np.float64) / maxval


def write_pgm(path, image):
    """Write floats in [0, 1] as a binary 8-bit PGM image."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DimensionError("PGM writer expects a 2-D image")
    rows, cols = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
