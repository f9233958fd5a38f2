import math

import numpy as np
import pytest

from goldsplit.errors import ContractError, DataError, ParameterError, ParseError
from goldsplit.linops import (
    DenseOperator,
    FirstDifference,
    GridIncidence,
    IdentityOperator,
    csr_from_triplets,
    graph_laplacian,
)
from goldsplit.metrics import objective
from goldsplit.problems import (
    GenSpec,
    build_logistic,
    conjugate_gradient_solve,
    gen_fused_lasso,
    gen_graphnet,
    gen_inpainting,
    gen_lasso,
    gen_strongly_convex,
    generate_instance,
    load_instance,
    parse_libsvm,
    read_pgm,
    save_instance,
    synthetic_blocks_image,
    write_libsvm,
    write_pgm,
)
from goldsplit.solvers import SolverConfig, run_solver

from oracles import materialize


# ---------------------------------------------------------------------------
# sparse regression


def test_gen_lasso_structure():
    p = gen_lasso(30, 50, 4, scheme="gaussian", seed=1)
    assert p.K.shape == (50, 30)
    assert p.f.lam == 0.1  # benchmark default weight
    assert np.count_nonzero(p.x_true) == 4
    assert np.all(np.abs(p.x_true[p.x_true != 0]) <= 10.0)
    assert np.array_equal(p.g.offset, p.meta["b"])
    assert p.h.value(np.zeros(50)) == 0.0


def test_gen_lasso_zero_sparsity_gives_pure_noise():
    p = gen_lasso(25, 40, 0, scheme="gaussian", seed=3)
    assert np.all(p.x_true == 0.0)
    # b is then exactly the noise vector, scaled like its 0.1 deviation
    assert np.std(p.meta["b"]) < 0.5


def test_gen_lasso_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        gen_lasso(10, 5, 7)
    with pytest.raises(ParameterError):
        gen_lasso(10, 5, 2, scheme="correlated", q=1.5)
    with pytest.raises(ParameterError):
        gen_lasso(10, 5, 2, scheme="unknown")


def test_gen_lasso_correlated_columns():
    # empirical neighbour-column correlation approaches q for tall matrices
    q = 0.7
    p = gen_lasso(2000, 30, 3, scheme="correlated", q=q, seed=11)
    K = p.K.matrix
    corrs = [
        np.corrcoef(K[:, j], K[:, j - 1])[0, 1] for j in range(1, K.shape[1])
    ]
    assert abs(np.mean(corrs) - q) < 0.1


def test_gen_lasso_gaussian_column_norms():
    p = gen_lasso(500, 50, 3, scheme="gaussian", seed=4)
    norms = np.linalg.norm(p.K.matrix, axis=0)
    assert abs(np.mean(norms) - math.sqrt(500)) / math.sqrt(500) < 0.05


def test_gen_lasso_deterministic():
    a = gen_lasso(20, 30, 3, scheme="correlated", q=0.5, seed=7)
    b = gen_lasso(20, 30, 3, scheme="correlated", q=0.5, seed=7)
    assert np.array_equal(a.K.matrix, b.K.matrix)
    assert np.array_equal(a.meta["b"], b.meta["b"])
    assert np.array_equal(a.x_true, b.x_true)


def test_gen_fused_lasso_structure():
    p = gen_fused_lasso(40, 60, seed=2)
    assert isinstance(p.K, FirstDifference)
    assert p.f.lam == 0.001 and p.g.lam == 0.03
    assert p.x_true.shape == (60,)
    # lam2 = 0 removes the difference penalty entirely
    p0 = gen_fused_lasso(40, 60, lam2=0.0, seed=2)
    assert p0.g.value(p0.K.matvec(p0.x_true)) == 0.0


def test_gen_fused_lasso_lipschitz_vs_eigensolve():
    p = gen_fused_lasso(40, 25, seed=2)
    A = p.meta["A"]
    exact = np.linalg.eigvalsh(A.T @ A).max()
    assert abs(p.h.lipschitz() - exact) / exact < 1e-4


# ---------------------------------------------------------------------------
# logistic regression


def test_build_logistic_setting1_lambda(rng):
    A = rng.standard_normal((12, 6))
    labels = np.where(rng.uniform(size=12) > 0.5, 1.0, -1.0)
    p = build_logistic(A, labels, setting=1)
    assert isinstance(p.K, IdentityOperator)
    assert math.isclose(p.g.lam, 0.005 * np.max(np.abs(A.T @ labels)), rel_tol=1e-12)
    assert p.f.value(rng.standard_normal(6)) == 0.0


def test_build_logistic_setting2_structure(rng):
    A = rng.standard_normal((10, 5))
    labels = np.ones(10)
    p = build_logistic(A, labels, setting=2, lam1=1.0, lam2=150.0)
    assert isinstance(p.K, FirstDifference)
    assert p.f.lam == 1.0 and p.g.lam == 150.0
    assert np.allclose(p.h.grad(np.zeros(5)), -0.5 * A.T @ labels)


def test_build_logistic_objective_at_zero(rng):
    A = rng.standard_normal((4, 3))
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    p = build_logistic(A, labels, setting=1)
    assert math.isclose(objective(p, np.zeros(3)), 4 * math.log(2.0), rel_tol=1e-14)


def test_build_logistic_rejects_bad_labels(rng):
    with pytest.raises(DataError):
        build_logistic(rng.standard_normal((4, 3)), np.array([1.0, 2.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# LIBSVM parsing


def test_parse_libsvm_basic(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("+1 3:0.5 7:1\n-1 1:2.0\n")
    op, labels = parse_libsvm(path)
    assert op.shape == (7, 2)
    assert np.array_equal(labels, [1.0, -1.0])
    dense = materialize(op)
    assert dense[0, 2] == 0.5 and dense[0, 6] == 1.0 and dense[1, 0] == 2.0
    assert op.nnz == 3


def test_parse_libsvm_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    op, labels = parse_libsvm(path)
    assert op.shape == (0, 0)
    assert labels.size == 0


def test_parse_libsvm_label_remap(tmp_path):
    path = tmp_path / "zr.txt"
    path.write_text("0 1:1\n1 2:1\n0 1:3\n")
    _, labels = parse_libsvm(path)
    assert np.array_equal(labels, [-1.0, 1.0, -1.0])
    path2 = tmp_path / "three.txt"
    path2.write_text("0 1:1\n1 1:1\n2 1:1\n")
    with pytest.raises(DataError):
        parse_libsvm(path2)


def test_parse_libsvm_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("+1 1:1\nnotanumber 1:1\n")
    with pytest.raises(ParseError) as exc:
        parse_libsvm(path)
    assert exc.value.line_number == 2
    path.write_text("+1 0:1\n")
    with pytest.raises(ParseError):
        parse_libsvm(path)
    path.write_text("+1 1:abc\n")
    with pytest.raises(ParseError):
        parse_libsvm(path)


@pytest.mark.parametrize("line", [
    "+1 1:1 2:nan", "+1 2:inf", "-1 1:-inf", "nan 1:1", "inf 1:1",
])
def test_parse_libsvm_rejects_non_finite_values(tmp_path, line):
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"+1 1:0.5\n-1 2:1\n{line}\n")
    with pytest.raises(ParseError, match="non-finite") as exc:
        parse_libsvm(path)
    assert exc.value.line_number == 3
    assert str(exc.value).startswith("line 3: ")


def test_libsvm_round_trip(tmp_path, rng):
    triplets = [
        (int(r), int(c), float(np.round(v, 6)))
        for r, c, v in zip(
            rng.integers(0, 15, 60), rng.integers(0, 25, 60), rng.normal(0, 2, 60)
        )
    ]
    op = csr_from_triplets(15, 25, triplets)
    labels = np.where(rng.uniform(size=15) > 0.5, 1.0, -1.0)
    path = tmp_path / "rt.txt"
    write_libsvm(path, op, labels)
    op2, labels2 = parse_libsvm(path, n_features=25)
    assert np.array_equal(labels, labels2)
    assert np.array_equal(materialize(op), materialize(op2))


# ---------------------------------------------------------------------------
# conjugate gradients


def test_cg_identity_system(rng):
    rhs = rng.standard_normal(6)
    assert np.array_equal(
        conjugate_gradient_solve(IdentityOperator(6), rhs), rhs
    )


def test_cg_scaled_identity(rng):
    class Scaled(IdentityOperator):
        def matvec(self, x):
            return 3.5 * x

        def rmatvec(self, y):
            return 3.5 * y

    rhs = rng.standard_normal(5)
    got = conjugate_gradient_solve(Scaled(5), rhs)
    assert np.allclose(got, rhs / 3.5, atol=1e-12)


def test_cg_laplacian_system_vs_dense_solve(rng):
    D = GridIncidence(10, 10)
    W = graph_laplacian(D)

    class System(IdentityOperator):
        def matvec(self, x):
            return x + 2.0 * W.matvec(x)

        def rmatvec(self, y):
            return self.matvec(y)

    rhs = rng.standard_normal(100)
    got = conjugate_gradient_solve(System(100), rhs, tol=1e-10)
    dense = np.eye(100) + 2.0 * materialize(W)
    expect = np.linalg.solve(dense, rhs)
    assert np.linalg.norm(got - expect) / np.linalg.norm(expect) < 1e-6


def test_cg_rejects_nonsymmetric(rng):
    op = DenseOperator(rng.standard_normal((6, 6)))
    with pytest.raises(ContractError):
        conjugate_gradient_solve(op, rng.standard_normal(6))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8])
def test_cg_rejects_a_tol_that_is_not_positive(tol):
    # a NaN tol used to run until the residual vanished, then divide by zero
    op = DenseOperator(np.diag(np.linspace(1, 100, 30)))
    with pytest.raises(ParameterError):
        conjugate_gradient_solve(op, np.ones(30), tol=tol)


# ---------------------------------------------------------------------------
# graphnet


def test_gen_graphnet_defaults_and_sparsity():
    p = gen_graphnet(10, 10, 60, seed=11)
    assert p.f.lam == 6.64e-6
    assert p.g.weight == 1e-6
    assert isinstance(p.K, GridIncidence)
    assert np.count_nonzero(p.x_true) == 5  # floor(0.05 * 100), no ties here
    assert math.isclose(p.h.value(np.zeros(100)), np.sum(p.meta["b"] ** 2) / (2 * 60))


def test_gen_graphnet_threshold_is_order_statistic():
    p = gen_graphnet(8, 8, 40, sparsity_fraction=0.2, seed=5)
    k = int(0.2 * 64)
    mags = np.abs(p.meta["x_smth"])
    cutoff = np.sort(mags)[-k]
    expect = np.where(mags >= cutoff, p.meta["x_smth"], 0.0)
    assert np.array_equal(p.x_true, expect)


def test_gen_graphnet_alpha_zero_skips_smoothing():
    p = gen_graphnet(6, 6, 20, alpha=0.0, sparsity_fraction=1.0, seed=9)
    x0 = np.random.default_rng(9).standard_normal(36)
    assert np.array_equal(p.x_true, x0)


def test_gen_graphnet_smoothing_removes_high_frequencies():
    quotients = []
    for alpha in (0.0, 1.0, 2.0, 4.0):
        p = gen_graphnet(8, 8, 30, alpha=alpha, seed=13)
        x = p.meta["x_smth"]
        W = graph_laplacian(p.K)
        quotients.append((x @ W.matvec(x)) / (x @ x))
    assert all(b <= a + 1e-12 for a, b in zip(quotients, quotients[1:]))


def test_gen_graphnet_rejects_empty_support():
    with pytest.raises(ParameterError):
        gen_graphnet(3, 3, 10, sparsity_fraction=0.01)


# ---------------------------------------------------------------------------
# inpainting


def test_gen_inpainting_mask_counts():
    img = synthetic_blocks_image(32, 32)
    p = gen_inpainting(img, missing_fraction=0.3, seed=1)
    assert int((p.meta["mask"] == 0).sum()) == 307  # floor(0.3 * 1024)
    assert np.array_equal(p.meta["damaged"], p.meta["mask"] * img.ravel())
    assert p.g.lam == 1e-2


def test_gen_inpainting_zero_fraction():
    img = synthetic_blocks_image(8, 8)
    p = gen_inpainting(img, missing_fraction=0.0, seed=1)
    assert np.all(p.meta["mask"] == 1.0)
    assert np.array_equal(p.meta["damaged"], img.ravel())


def test_gen_inpainting_validation():
    img = synthetic_blocks_image(8, 8)
    with pytest.raises(ParameterError):
        gen_inpainting(img, missing_fraction=1.0)
    with pytest.raises(DataError):
        gen_inpainting(img + 10.0)


# ---------------------------------------------------------------------------
# strongly convex family


def test_gen_strongly_convex_modulus():
    p = gen_strongly_convex(50, 10, ridge=1.0, seed=3)
    A = p.meta["A"]
    min_eig = np.linalg.eigvalsh(A.T @ A + np.eye(10)).min()
    assert min_eig >= 1.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.standard_normal((2, 10))
        gap = (p.h.grad(x) - p.h.grad(y)) @ (x - y)
        assert gap >= np.linalg.norm(x - y) ** 2 - 1e-9


def test_gen_strongly_convex_warns_when_underdetermined():
    with pytest.warns(UserWarning):
        gen_strongly_convex(5, 10, seed=0)


def test_gen_strongly_convex_unique_solution_cross_runs():
    p = gen_strongly_convex(40, 12, ridge=1.0, seed=5)
    cfg = SolverConfig(
        "pgrpda", tau0=1.0, psi=1.5, mu=0.7, mu_prime=0.3, beta=20.0,
        max_iters=20_000, trace_stride=20_000,
    )
    s1, _, _ = run_solver(p, cfg, x0=np.zeros(12))
    s2, _, _ = run_solver(p, cfg, x0=np.ones(12) * 3.0)
    assert np.linalg.norm(s1.x - s2.x) <= 1e-6


# ---------------------------------------------------------------------------
# instance-level invariants


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_lasso(20, 30, 3, scheme="gaussian", seed=1),
        lambda: gen_fused_lasso(15, 20, seed=1),
        lambda: gen_graphnet(5, 5, 12, seed=1),
        lambda: gen_inpainting(synthetic_blocks_image(8, 8), seed=1),
        lambda: gen_strongly_convex(20, 8, seed=1),
    ],
    ids=["lasso", "fused_lasso", "graphnet", "inpainting", "strongly_convex"],
)
def test_generated_instances_are_consistent(make, rng):
    p = make()
    n = p.K.shape.domain_dim
    m = p.K.shape.codomain_dim
    for _ in range(20):
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        kx = p.K.matvec(x)
        assert abs(kx @ y - x @ p.K.rmatvec(y)) <= 1e-10 * (
            1 + np.linalg.norm(kx) * np.linalg.norm(y)
        )
    x = rng.standard_normal(n) * 0.1
    num = np.zeros(n)
    h = 1e-6
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        num[i] = (p.h.value(x + e) - p.h.value(x - e)) / (2 * h)
    exact = p.h.grad(x)
    assert np.linalg.norm(num - exact) <= 1e-4 * (1.0 + np.linalg.norm(exact))
    assert math.isfinite(objective(p, np.zeros(n)))
    if p.x_true is not None:
        assert math.isfinite(objective(p, p.x_true))


@pytest.mark.parametrize("spec", [
    GenSpec("lasso", {"m": 20, "n": 40, "s": 3}, -1),
    GenSpec("inpainting", {"rows": 8, "cols": 8}, -3),
], ids=lambda s: s.family)
def test_negative_seed_is_parameter_error(spec):
    with pytest.raises(ParameterError, match=rf"seed must be >= 0 \(got {spec.seed}\)"):
        generate_instance(spec)


# ---------------------------------------------------------------------------
# manifests and image I/O


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec("lasso", {"m": 15, "n": 25, "s": 3, "scheme": "correlated", "q": 0.6}, 2),
        GenSpec("fused_lasso", {"m": 12, "n": 18}, 3),
        GenSpec("graphnet", {"n1": 4, "n2": 5, "m": 10}, 4),
        GenSpec("inpainting", {"rows": 8, "cols": 8, "missing_fraction": 0.25}, 5),
        GenSpec("strongly_convex", {"m": 14, "n": 6}, 6),
    ],
    ids=lambda s: s.family,
)
def test_manifest_round_trip(spec, tmp_path, rng):
    problem = generate_instance(spec)
    path = save_instance(tmp_path, problem, spec)
    loaded = load_instance(path)
    n = problem.K.shape.domain_dim
    x = rng.standard_normal(n)
    assert np.array_equal(problem.K.matvec(x), loaded.K.matvec(x))
    assert math.isclose(objective(problem, x), objective(loaded, x), rel_tol=1e-12)
    if problem.x_true is not None:
        assert np.array_equal(problem.x_true, loaded.x_true)
    assert loaded.dims == problem.dims
    # payload arrays stay reachable under their generator-time names
    for key, val in problem.meta.items():
        if isinstance(val, np.ndarray) and key != "x_smth":
            assert np.array_equal(loaded.meta[key], val), key


def test_manifest_f_star_update(tmp_path):
    spec = GenSpec("lasso", {"m": 10, "n": 15, "s": 2}, 1)
    problem = generate_instance(spec)
    path = save_instance(tmp_path, problem, spec)
    from goldsplit.problems import update_manifest_f_star

    update_manifest_f_star(path, 1.25, "reference run, 100 iterations")
    loaded = load_instance(path)
    assert loaded.F_star == 1.25
    assert "reference" in loaded.F_star_provenance


def _half_write(self, text):
    with open(self, "w") as fh:
        fh.write(text[: len(text) // 2])
    raise OSError("disk full")


def _refuse(*args, **kwargs):
    raise OSError("disk full")


@pytest.mark.parametrize("target, replacement", [
    ("goldsplit.problems.json.dumps", _refuse),
    ("pathlib.Path.write_text", _half_write),
    ("goldsplit.problems.os.replace", _refuse),
], ids=["serialise", "write", "replace"])
def test_failed_manifest_write_keeps_previous_file(tmp_path, monkeypatch, target, replacement):
    spec = GenSpec("lasso", {"m": 6, "n": 8, "s": 2}, 1)
    path = save_instance(tmp_path, generate_instance(spec), spec)
    before = path.read_bytes()
    listing = sorted(p.name for p in tmp_path.iterdir())
    from goldsplit.problems import update_manifest_f_star

    monkeypatch.setattr(target, replacement)
    with pytest.raises(OSError, match="disk full"):
        update_manifest_f_star(path, 1.25, "reference run, 100 iterations")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


def test_family_records_share_one_type_per_parameter():
    from goldsplit.problems import FAMILIES

    kinds = {}
    for family in FAMILIES.values():
        assert set(family.required) <= set(family.params)
        for key, kind in family.params.items():
            assert kinds.setdefault(key, kind) == kind, key


def test_inpainting_takes_an_image_or_a_size():
    spec = GenSpec("inpainting", {"image": synthetic_blocks_image(8, 8), "rows": 8}, 0)
    with pytest.raises(ParameterError, match="either an image or rows/cols"):
        generate_instance(spec)


def test_pgm_round_trip(tmp_path):
    img = synthetic_blocks_image(16, 12)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (16, 12)
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_pgm_reader_handles_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([0, 128, 255, 64])
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert img[0, 0] == 0.0 and math.isclose(img[0, 1], 128 / 255)


def test_pgm_reader_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ParseError):
        read_pgm(path)
