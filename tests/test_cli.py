import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import goldsplit
from goldsplit.cli import _build_parser, main
from goldsplit.errors import DataError
from goldsplit.linops import operator_norm
from goldsplit.metrics import IterationTrace
from goldsplit.problems import load_instance, synthetic_blocks_image, write_pgm
from goldsplit.solvers import SolverConfig


def _generate_lasso(tmp_path, seed=5):
    out = tmp_path / "inst"
    code = main([
        "generate", "--family", "lasso", "--m", "20", "--n", "40", "--s", "3",
        "--scheme", "gaussian", "--seed", str(seed), "--out", str(out),
    ])
    assert code == 0
    return out / "manifest.json"


def test_generate_writes_manifest(tmp_path, capsys):
    manifest = _generate_lasso(tmp_path)
    assert manifest.exists()
    printed = capsys.readouterr().out.strip()
    assert printed == str(manifest)
    payload = json.loads(manifest.read_text())
    assert payload["family"] == "lasso"
    assert payload["seed"] == 5
    assert payload["params"]["m"] == 20


def test_generate_missing_flags_is_usage_error(tmp_path, capsys):
    code = main(["generate", "--family", "lasso", "--m", "20",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "requires" in capsys.readouterr().err


def test_generate_deterministic_payloads(tmp_path):
    m1 = _generate_lasso(tmp_path / "a")
    m2 = _generate_lasso(tmp_path / "b")
    for name in ("K.bin", "b.bin", "x_true.bin"):
        assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()


def test_run_produces_trace_and_summary(tmp_path):
    manifest = _generate_lasso(tmp_path)
    out = tmp_path / "runs"
    code = main([
        "run", "--manifest", str(manifest), "--solvers", "pgrpda,pdhg",
        "--tau0", "5", "--beta", "0.2", "--mu", "0.7", "--mu-prime", "0.3",
        "--tau", "25/K", "--sigma", "0.04/K",
        "--max-iters", "200", "--trace-stride", "20", "--y0", "neg-b",
        "--out", str(out),
    ])
    assert code == 0
    for solver in ("pgrpda", "pdhg"):
        trace = IterationTrace.from_csv(out / f"{solver}.csv")
        assert len(trace) == 10
        summary = json.loads((out / f"{solver}_summary.json").read_text())
        assert summary["iterations"] == 200
        assert summary["solver"] == solver
        assert np.isfinite(summary["final"]["F"])
    # the fixed stepsizes were resolved through the operator norm
    pdhg_cfg = json.loads((out / "pdhg_summary.json").read_text())["config"]
    assert pdhg_cfg["tau"] * pdhg_cfg["sigma"] == pytest.approx(
        1.0 / pdhg_cfg["K_norm"] ** 2
    )


def test_run_published_parameter_set(tmp_path):
    manifest = _generate_lasso(tmp_path)
    out = tmp_path / "pub"
    code = main([
        "run", "--manifest", str(manifest), "--solvers", "pgrpda",
        "--tau0", "10", "--psi", "1.76", "--mu", "0.77236", "--mu-prime", "0.25",
        "--beta", "0.2", "--extended", "--max-iters", "500", "--trace-stride", "50",
        "--y0", "neg-b", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "pgrpda_summary.json").read_text())
    assert summary["iterations"] == 500
    assert summary["config"]["extended"] is True
    assert summary["warnings"] == []


def test_run_zero_budget_empty_trace(tmp_path):
    manifest = _generate_lasso(tmp_path)
    out = tmp_path / "zero"
    code = main([
        "run", "--manifest", str(manifest), "--solvers", "pgrpda",
        "--max-iters", "0", "--out", str(out),
    ])
    assert code == 0
    assert (out / "pgrpda.csv").read_text().strip().count("\n") == 0


def test_run_refuses_to_clobber(tmp_path, capsys):
    manifest = _generate_lasso(tmp_path)
    out = tmp_path / "runs"
    args = ["run", "--manifest", str(manifest), "--solvers", "pgrpda",
            "--max-iters", "10", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 2
    assert "overwrite" in capsys.readouterr().err
    assert main(args + ["--overwrite"]) == 0


def test_run_unknown_solver_is_usage_error(tmp_path, capsys):
    manifest = _generate_lasso(tmp_path)
    code = main(["run", "--manifest", str(manifest), "--solvers", "sgd",
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
def test_run_numeric_abort_exit_code(tmp_path, capsys):
    manifest = _generate_lasso(tmp_path)
    code = main([
        "run", "--manifest", str(manifest), "--solvers", "pdhg",
        "--tau", "1e8", "--sigma", "1e8", "--max-iters", "3000",
        "--out", str(tmp_path / "boom"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "pdhg" in err and "iteration" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
def test_run_continues_after_numeric_abort(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert main([
        "generate", "--family", "strongly_convex", "--m", "40", "--n", "80",
        "--seed", "4", "--out", str(inst),
    ]) == 0
    out = tmp_path / "runs"
    code = main([
        "run", "--manifest", str(inst / "manifest.json"),
        "--solvers", "egrpda,grpda,pdhg,agraal", "--tau", "0.9/K", "--sigma", "0.9/K",
        "--max-iters", "300", "--trace-stride", "30", "--out", str(out),
    ])
    assert code == 3
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 2
    assert "egrpda" in errors[0] and "pdhg" in errors[1]
    assert not (out / "egrpda.csv").exists() and not (out / "pdhg.csv").exists()
    for solver in ("grpda", "agraal"):
        assert len(IterationTrace.from_csv(out / f"{solver}.csv")) == 10
        assert (out / f"{solver}_summary.json").exists()


@pytest.mark.parametrize("k_norm, code, message", [
    ("inf", 2, "error: K_norm must be finite and >= 0 (got inf)"),
    ("1e300", 3, "error: aegrpda: stepsize reached 0 at iteration 2"),
], ids=["inf", "1e300"])
def test_run_huge_or_infinite_k_norm_is_one_line_error(tmp_path, capsys, k_norm, code, message):
    manifest = _generate_lasso(tmp_path)
    capsys.readouterr()
    assert main([
        "run", "--manifest", str(manifest), "--solvers", "aegrpda",
        "--k-norm", k_norm, "--out", str(tmp_path / "runs"),
    ]) == code
    assert capsys.readouterr().err.splitlines() == [message]


def _write_config(config):
    """A mutation that writes CONFIG as cfg.json beside the manifest."""
    return lambda manifest: (manifest.parent / "cfg.json").write_text(json.dumps(config))


def _per_k_run(tmp_path, config):
    """pdhg with tau = sigma = 1/K under --config CONFIG; its summary."""
    manifest = _generate_lasso(tmp_path)
    _write_config(config)(manifest)
    out = tmp_path / "runs"
    assert main([
        "run", "--manifest", str(manifest), "--solvers", "pdhg", "--tau", "1/K",
        "--sigma", "1/K", "--config", str(manifest.parent / "cfg.json"),
        "--max-iters", "5", "--out", str(out),
    ]) == 0
    return manifest, json.loads((out / "pdhg_summary.json").read_text())


def test_config_k_norm_sets_per_k_stepsizes(tmp_path):
    _, summary = _per_k_run(tmp_path, {"defaults": {"K_norm": 2.0}})
    assert summary["config"]["tau"] == summary["config"]["sigma"] == 0.5
    assert summary["config"]["K_norm"] == summary["k_norm"] == 2.0


def test_config_seed_seeds_the_per_k_norm(tmp_path):
    manifest, summary = _per_k_run(tmp_path, {"defaults": {"seed": 5}})
    K = load_instance(manifest).K
    assert summary["config"]["K_norm"] == operator_norm(K, seed=5) != operator_norm(K, seed=0)
    assert summary["config"]["tau"] == 1.0 / operator_norm(K, seed=5)


def _truncate_payload(manifest):
    payload = manifest.parent / "K.bin"
    payload.write_bytes(payload.read_bytes()[:-8])


def _zero_payload(manifest):
    payload = manifest.parent / "K.bin"
    payload.write_bytes(bytes(len(payload.read_bytes())))


_PER_K_STEPS = ["--tau", "1/K", "--sigma", "1/K"]


def _edit_manifest(edit):
    """A mutation that applies EDIT to the parsed manifest and writes it back."""
    def mutate(manifest):
        data = json.loads(manifest.read_text())
        edit(data)
        manifest.write_text(json.dumps(data))
    return mutate


# each case: run flags (after --manifest), a mutation of the instance, stderr text
_BAD_INPUTS = {
    "malformed-config": (["--config", "{dir}/cfg.json"],
                         lambda m: (m.parent / "cfg.json").write_text('{"defaults": {'),
                         "is not valid JSON"),
    "non-object-config": (["--config", "{dir}/cfg.json"],
                          lambda m: (m.parent / "cfg.json").write_text("[1, 2]"),
                          "must hold a JSON object"),
    "bad-stepsize": (["--tau", "abc", "--sigma", "0.1"], None, "bad stepsize 'abc'"),
    "bad-stepsize-per-k": (["--tau", "x/K", "--sigma", "0.1"], None, "bad stepsize 'x/K'"),
    "missing-manifest": ([], lambda m: m.unlink(), "No such file or directory"),
    "malformed-manifest": ([], lambda m: m.write_text("{"), "is not valid JSON"),
    "truncated-payload": ([], _truncate_payload, "payload K.bin holds 799 values"),
    "infinite-tau": (["--tau", "inf", "--sigma", "0.1"], None,
                     "pdhg needs a finite fixed tau > 0 (got inf)"),
    "non-object-config-section": (["--config", "{dir}/cfg.json"],
                                  lambda m: (m.parent / "cfg.json").write_text('{"defaults": [1]}'),
                                  "--config section 'defaults' must hold a JSON object"),
    **{f"manifest-without-{key}": ([], _edit_manifest(lambda d, key=key: d.pop(key)),
                                   f"lacks {key!r}")
       for key in ("family", "params", "dims", "payloads")},
    "manifest-without-K-payload": ([], _edit_manifest(lambda d: d["payloads"].pop("K")),
                                   "payloads lacks 'K'"),
    "payload-without-file": ([], _edit_manifest(lambda d: d["payloads"]["b"].pop("file")),
                             "payload 'b' lacks 'file'"),
    # the same bytes under the transposed shape, and the float64 bytes read as int64
    "transposed-K-shape": (
        [], _edit_manifest(lambda d: d["payloads"]["K"].update(shape=[40, 20])),
        "payload 'K': shape [40, 20] is not the [20, 40] that its dims (m, n) give"),
    "int64-K-dtype": ([], _edit_manifest(lambda d: d["payloads"]["K"].update(dtype="int64")),
                      "payload 'K': 'dtype' must be one of ['float64'], got 'int64'"),
    "params-not-an-object": ([], _edit_manifest(lambda d: d.update(params=[1])),
                             "'params' must be an object, got list"),
    "manifest-without-lam": ([], _edit_manifest(lambda d: d["params"].pop("lam")),
                             "params lacks 'lam'"),
    "zero-k-norm-per-k": (["--k-norm", "0", *_PER_K_STEPS], None, "got ||K|| = 0"),
    "zero-config-k-norm-per-k": (["--config", "{dir}/cfg.json", *_PER_K_STEPS],
                                 _write_config({"defaults": {"K_norm": 0}}), "got ||K|| = 0"),
    "zero-operator-per-k": (["--tau", "1/K", "--sigma", "1/K"], _zero_payload, "got ||K|| = 0"),
    "ill-typed-seed-per-k": (["--config", "{dir}/cfg.json", *_PER_K_STEPS],
                             _write_config({"defaults": {"seed": "abc"}}),
                             "config key 'seed' must be an integer, got \"abc\""),
    "ill-typed-k-norm-per-k": (["--config", "{dir}/cfg.json", *_PER_K_STEPS],
                               _write_config({"pdhg": {"K_norm": "2"}}),
                               "config key 'K_norm' must be a number or null, got \"2\""),
    "negative-seed-per-k": (["--seed", "-1", *_PER_K_STEPS], None, "seed must be >= 0 (got -1)"),
    "negative-config-seed-per-k": (["--config", "{dir}/cfg.json", *_PER_K_STEPS],
                                   _write_config({"defaults": {"seed": -1}}),
                                   "seed must be >= 0 (got -1)"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_is_one_line_usage_error(tmp_path, capsys, case):
    flags, mutate, message = _BAD_INPUTS[case]
    manifest = _generate_lasso(tmp_path)
    if mutate is not None:
        mutate(manifest)
    capsys.readouterr()
    code = main([
        "run", "--manifest", str(manifest), "--solvers", "pdhg",
        *[f.format(dir=manifest.parent) for f in flags],
        "--max-iters", "5", "--out", str(tmp_path / "runs"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err


# generate flags that the chosen family does not take, and the one line naming them
_FOREIGN_GENERATE_FLAGS = {
    "fused-lasso-with-lasso-flags": (
        ["--family", "fused_lasso", "--m", "5", "--n", "6", "--q", "0.3", "--s", "2"],
        "family fused_lasso does not take --s, --q"),
    "lasso-with-image": (
        ["--family", "lasso", "--m", "5", "--n", "6", "--s", "2", "--image", "/nonexistent.pgm"],
        "family lasso does not take --image"),
    "lasso-with-ridge": (
        ["--family", "lasso", "--m", "5", "--n", "6", "--s", "2", "--ridge", "0.5"],
        "family lasso does not take --ridge"),
    "inpainting-with-m": (
        ["--family", "inpainting", "--rows", "8", "--cols", "8", "--m", "4"],
        "family inpainting does not take --m"),
    "graphnet-with-missing-fraction": (
        ["--family", "graphnet", "--n1", "3", "--n2", "3", "--m", "9",
         "--missing-fraction", "0.5", "--scheme", "gaussian"],
        "family graphnet does not take --scheme, --missing-fraction"),
    "strongly-convex-without-m-with-lam1": (
        ["--family", "strongly_convex", "--n", "6", "--lam1", "0.1"],
        "family strongly_convex does not take --lam1"),
}


@pytest.mark.parametrize("case", sorted(_FOREIGN_GENERATE_FLAGS))
def test_generate_foreign_flag_is_one_line_usage_error(tmp_path, capsys, case):
    flags, message = _FOREIGN_GENERATE_FLAGS[case]
    out = tmp_path / "inst"
    code = main(["generate", *flags, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--family", "lasso", "--m", "20", "--n", "40", "--s", "3", "--seed", "-1"],
    ["--family", "inpainting", "--rows", "8", "--cols", "8", "--seed", "-3"],
], ids=["lasso", "inpainting"])
def test_generate_negative_seed_is_one_line_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "inst"
    assert main(["generate", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: seed must be >= 0 (got {flags[-1]})"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("lam", "nan"), ("noise-sd", "inf")])
def test_generate_non_finite_parameter_is_one_line_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "inst"
    code = main(["generate", "--family", "lasso", "--m", "20", "--n", "40", "--s", "3",
                 f"--{flag}", value, "--out", str(out)])
    assert code == 2
    message = f"error: {flag.replace('-', '_')} must be finite (got {value})"
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def test_run_negative_seed_is_usage_error_for_a_scheme_that_ignores_it(tmp_path, capsys):
    manifest = _generate_lasso(tmp_path)
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["run", "--manifest", str(manifest), "--solvers", "pgrpda", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0 (got -1)"]
    assert not out.exists()


def test_graphnet_default_fraction_on_a_small_grid_names_the_fraction_that_works(
        tmp_path, capsys):
    flags = ["generate", "--family", "graphnet", "--n1", "3", "--n2", "3", "--m", "4"]
    code = main([*flags, "--out", str(tmp_path / "small")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: sparsity_fraction 0.05 keeps no entry")
    assert "3x3 grid's 9 nodes" in err[0] and "is 1/9: 0.1111111111111111" in err[0]
    # the fraction the message names keeps one entry
    smallest = err[0].rsplit(" ", 1)[1]
    assert main([*flags, "--sparsity-fraction", smallest, "--out", str(tmp_path / "ok")]) == 0


def test_generate_inpainting_takes_image(tmp_path, capsys):
    img_path = tmp_path / "img.pgm"
    write_pgm(img_path, synthetic_blocks_image(6, 5))
    out = tmp_path / "inp"
    code = main(["generate", "--family", "inpainting", "--image", str(img_path),
                 "--lam", "0.2", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["dims"] == {"rows": 6, "cols": 5}


def test_non_utf8_libsvm_is_one_line_usage_error(tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    data.write_bytes(b"+1 1:0.4 3:1.2\n-1 2:0.5 \xff\n")
    code = main(["run", "--libsvm", str(data), "--solvers", "pdhg",
                 "--out", str(tmp_path / "runs")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: line 2: not UTF-8 text: invalid start byte at byte 10"]


def test_generate_inpainting_image_with_size_is_usage_error(tmp_path, capsys):
    img_path = tmp_path / "img.pgm"
    write_pgm(img_path, synthetic_blocks_image(8, 8))
    code = main(["generate", "--family", "inpainting", "--image", str(img_path),
                 "--rows", "8", "--out", str(tmp_path / "inp")])
    assert code == 2
    assert "either an image or rows/cols" in capsys.readouterr().err


def test_run_config_file_with_flag_override(tmp_path):
    manifest = _generate_lasso(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "defaults": {"max_iters": 50, "trace_stride": 10, "beta": 0.2},
        "pgrpda": {"tau0": 2.0, "mu": 0.7, "mu_prime": 0.3},
    }))
    out = tmp_path / "cfgrun"
    code = main([
        "run", "--manifest", str(manifest), "--solvers", "pgrpda",
        "--config", str(cfg_path), "--max-iters", "80", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "pgrpda_summary.json").read_text())
    assert summary["iterations"] == 80  # flag wins
    assert summary["config"]["tau0"] == 2.0  # file value survives


# --config contents whose values do not fit their SolverConfig fields, and the error
_ILL_TYPED_CONFIGS = {
    "string-max-iters": ({"defaults": {"max_iters": "abc"}},
                         "config key 'max_iters' must be an integer, got \"abc\""),
    "string-psi": ({"pgrpda": {"psi": "1.5"}},
                   "config key 'psi' must be a number, got \"1.5\""),
    "fractional-max-iters": ({"defaults": {"max_iters": 1.5}},
                             "config key 'max_iters' must be an integer, got 1.5"),
    "string-extended": ({"pgrpda": {"extended": "no"}},
                        "config key 'extended' must be true or false, got \"no\""),
    "algorithm-key": ({"defaults": {"algorithm": "pdhg"}},
                      "unknown config keys ['algorithm']"),
}


@pytest.mark.parametrize("case", sorted(_ILL_TYPED_CONFIGS))
def test_ill_typed_config_value_is_one_line_usage_error(tmp_path, capsys, case):
    config, message = _ILL_TYPED_CONFIGS[case]
    manifest = _generate_lasso(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    capsys.readouterr()
    out = tmp_path / "runs"
    code = main(["run", "--manifest", str(manifest), "--solvers", "pgrpda",
                 "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


# every SolverConfig field but the algorithm selector and its run flag
_RUN_FLAGS = {
    "--tau0": "tau0", "--beta": "beta", "--psi": "psi", "--mu": "mu",
    "--mu-prime": "mu_prime", "--extended": "extended", "--rho": "rho",
    "--theta0": "theta0", "--tau-max": "tau_max", "--tau": "tau", "--sigma": "sigma",
    "--k-norm": "K_norm", "--max-iters": "max_iters", "--trace-stride": "trace_stride",
    "--seed": "seed", "--stop-tol": "stop_tol",
}


def test_each_solver_config_field_has_one_run_flag():
    run = _build_parser()._subparsers._group_actions[0].choices["run"]
    flags = {}
    for action in run._actions:
        flags.setdefault(action.dest, []).append(action.option_strings)
    fields = {f.name for f in dataclasses.fields(SolverConfig)} - {"algorithm"}
    assert set(_RUN_FLAGS.values()) == fields
    for flag, name in _RUN_FLAGS.items():
        assert flags[name] == [[flag]]
    base = ["run", "--solvers", "pdhg", "--out", "o"]
    assert _build_parser().parse_args(base).extended is None
    args = _build_parser().parse_args([*base, "--extended", "--tau", "1/K", "--seed", "3"])
    assert (args.extended, args.tau, args.seed) == (True, "1/K", 3)


def test_run_on_libsvm_file(tmp_path):
    data = tmp_path / "toy.libsvm"
    data.write_text("+1 1:0.4 3:1.2\n-1 2:0.5\n+1 1:-0.3 2:0.2\n-1 3:0.9\n")
    out = tmp_path / "logruns"
    code = main([
        "run", "--libsvm", str(data), "--setting", "2",
        "--solvers", "aegrpda", "--tau0", "0.1", "--beta", "1.0",
        "--max-iters", "100", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "aegrpda_summary.json").read_text())
    assert summary["iterations"] == 100


def test_run_fstar_reference(tmp_path):
    manifest = _generate_lasso(tmp_path)
    out = tmp_path / "ref"
    code = main([
        "run", "--manifest", str(manifest), "--solvers", "aegrpda",
        "--tau0", "5", "--beta", "0.2", "--max-iters", "300",
        "--fstar-ref-iters", "2000", "--y0", "neg-b", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "aegrpda_summary.json").read_text())
    assert summary["f_star"] is not None
    assert "reference run" in summary["f_star_provenance"]
    trace = IterationTrace.from_csv(out / "aegrpda.csv")
    assert np.all(np.isfinite(trace.column("F_gap")))
    # the manifest now carries the reference value
    assert json.loads(manifest.read_text())["F_star"]["value"] == summary["f_star"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
def test_reference_run_abort_exits_3_before_anything_is_written(tmp_path, capsys):
    manifest = _generate_lasso(tmp_path)
    before = manifest.read_bytes()
    capsys.readouterr()
    out = tmp_path / "runs"
    code = main([
        "run", "--manifest", str(manifest), "--solvers", "pgrpda", "--fstar-solver", "pdhg",
        "--tau", "10", "--sigma", "10", "--fstar-ref-iters", "2000", "--out", str(out),
    ])
    assert code == 3
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: pdhg: non-finite iterate"), errors
    assert not out.exists() and manifest.read_bytes() == before


# diverging runs: a reference run's abort and a main run's abort
_DIVERGING_RUNS = {
    "reference-run": (
        ["--family", "lasso", "--m", "50", "--n", "100", "--s", "5", "--seed", "1"],
        ["--solvers", "pgrpda", "--fstar-solver", "pdhg", "--tau", "10", "--sigma", "10",
         "--fstar-ref-iters", "2000"],
        "error: pdhg: non-finite iterate at iteration"),
    "strongly-convex": (
        ["--family", "strongly_convex", "--m", "40", "--n", "60", "--seed", "4"],
        ["--solvers", "egrpda", "--tau", "5/K", "--sigma", "5/K"],
        "error: egrpda: non-finite iterate at iteration"),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", sorted(_DIVERGING_RUNS))
def test_diverging_run_prints_one_error_line_and_no_overflow_warning(tmp_path, capsys, case):
    # in a fresh interpreter, so that stderr shows what a user sees
    generate, run, error = _DIVERGING_RUNS[case]
    assert main(["generate", *generate, "--out", str(tmp_path / "inst")]) == 0
    src = str(Path(goldsplit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "goldsplit.cli", "run", "--manifest",
         str(tmp_path / "inst" / "manifest.json"), *run, "--out", str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 3, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(error), proc.stderr
    assert "RuntimeWarning" not in proc.stderr


# run flags rejected before the instance is read or --out is made, and the error line
_BAD_RUN_FLAGS = {
    "blank-solvers": (["--solvers", " "], "--solvers names no solver (got ' ')"),
    "comma-solvers": (["--solvers", ","], "--solvers names no solver (got ',')"),
    "nan-fstar": (["--solvers", "pgrpda", "--fstar", "nan"], "--fstar must be finite (got nan)"),
    "inf-fstar": (["--solvers", "pgrpda", "--fstar", "inf"], "--fstar must be finite (got inf)"),
    "zero-fstar-ref-iters": (["--solvers", "pgrpda", "--fstar-ref-iters", "0"],
                             "--fstar-ref-iters must be >= 1 (got 0)"),
    "negative-fstar-ref-iters": (["--solvers", "pgrpda", "--fstar-ref-iters", "-5"],
                                 "--fstar-ref-iters must be >= 1 (got -5)"),
}


@pytest.mark.parametrize("case", sorted(_BAD_RUN_FLAGS))
def test_bad_run_flag_is_one_line_usage_error_naming_it(tmp_path, capsys, case):
    flags, message = _BAD_RUN_FLAGS[case]
    manifest = _generate_lasso(tmp_path)
    before = manifest.read_bytes()
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["run", "--manifest", str(manifest), *flags, "--max-iters", "5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists() and manifest.read_bytes() == before


# each case: an edit of the parsed manifest and the DataError it causes
_NON_FINITE_MANIFEST = {
    **{f"F_star-{value}": (lambda d, value=value: d.update(F_star={"value": value}),
                           f"F_star: 'value' must be finite, got {value}")
       for value in (math.nan, math.inf, -math.inf)},
    "lam-nan": (lambda d: d["params"].update(lam=math.nan), "params: 'lam' must be finite, got nan"),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_MANIFEST))
def test_non_finite_manifest_number_is_a_data_error(tmp_path, capsys, case):
    edit, message = _NON_FINITE_MANIFEST[case]
    manifest = _generate_lasso(tmp_path)
    _edit_manifest(edit)(manifest)
    with pytest.raises(DataError, match=re.escape(message)):
        load_instance(manifest)
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["run", "--manifest", str(manifest), "--solvers", "pgrpda",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: manifest "), err
    assert not out.exists()


def test_run_with_a_stored_reference_leaves_the_manifest_alone(tmp_path):
    manifest = _generate_lasso(tmp_path)
    assert main(["run", "--manifest", str(manifest), "--solvers", "pgrpda", "--max-iters", "50",
                 "--fstar-ref-iters", "200", "--out", str(tmp_path / "ref")]) == 0
    stored = json.loads(manifest.read_text())["F_star"]
    assert stored["provenance"] == "aegrpda reference run, 200 iterations"
    before = (manifest.read_bytes(), manifest.stat().st_mtime_ns)
    out = tmp_path / "plain"
    assert main(["run", "--manifest", str(manifest), "--solvers", "pgrpda",
                 "--max-iters", "50", "--out", str(out)]) == 0
    assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before
    summary = json.loads((out / "pgrpda_summary.json").read_text())
    assert summary["f_star"] == stored["value"]
    assert summary["f_star_provenance"] == stored["provenance"]


def test_generate_inpainting_from_pgm(tmp_path):
    img_path = tmp_path / "img.pgm"
    write_pgm(img_path, synthetic_blocks_image(16, 16))
    out = tmp_path / "inp"
    code = main([
        "generate", "--family", "inpainting", "--image", str(img_path),
        "--missing-fraction", "0.25", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dims"] == {"rows": 16, "cols": 16}


def test_run_inpainting_writes_reconstruction(tmp_path):
    from goldsplit.problems import read_pgm

    out = tmp_path / "inp"
    assert main([
        "generate", "--family", "inpainting", "--rows", "12", "--cols", "12",
        "--missing-fraction", "0.3", "--seed", "2", "--out", str(out),
    ]) == 0
    runs = tmp_path / "runs"
    assert main([
        "run", "--manifest", str(out / "manifest.json"), "--solvers", "aegrpda",
        "--tau0", "1", "--beta", "0.1", "--max-iters", "300", "--x0", "damaged",
        "--out", str(runs),
    ]) == 0
    recon = read_pgm(runs / "aegrpda_recon.pgm")
    assert recon.shape == (12, 12)
    assert 0.0 <= recon.min() and recon.max() <= 1.0
    summary = json.loads((runs / "aegrpda_summary.json").read_text())
    assert summary["final"]["psnr"] > 10.0


def test_verify_cheap_suite(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--suite", "prox", "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    assert report["n_checks"] == 1


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_verify_failure_exit_code(tmp_path, monkeypatch, capsys):
    from goldsplit import acceptance
    from goldsplit.acceptance import CheckResult

    monkeypatch.setitem(
        acceptance.CRITERIA, "always_red", lambda: CheckResult("always red", False, "forced", 0.0)
    )
    monkeypatch.setitem(acceptance.SUITES, "red", ["always_red"])
    assert main(["verify", "--suite", "red"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_suites_hold_the_criteria_in_file_order():
    from goldsplit import acceptance

    keys = [f"criterion_{k}" for k in
            ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10a", "10b", "10c", "11")]
    assert list(acceptance.CRITERIA) == keys
    assert list(acceptance.SUITES.items()) == [
        ("prox", ["criterion_1"]),
        ("operators", ["criterion_2"]),
        ("stepsize", ["criterion_3", "criterion_4", "criterion_9"]),
        ("convergence", ["criterion_5", "criterion_8"]),
        ("rates", ["criterion_6", "criterion_7"]),
        ("experiments", ["criterion_10a", "criterion_10b", "criterion_10c"]),
        ("determinism", ["criterion_11"]),
        ("all", keys),
    ]
