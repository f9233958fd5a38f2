import json

import numpy as np
import pytest

from goldsplit.cli import main
from goldsplit.metrics import IterationTrace
from goldsplit.problems import synthetic_blocks_image, write_pgm


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
