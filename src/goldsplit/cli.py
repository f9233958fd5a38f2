"""Command-line harness: ``goldsplit generate|run|verify``.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
abort (``run`` still runs the solvers listed after the one that aborted).
All numeric parameters travel through flags; ``--config FILE``
supplies the same fields as JSON, with explicit flags winning on
conflict. Stepsizes accept either a plain number or ``<number>/K``,
which divides by the operator norm: exact where a closed form exists,
otherwise a seeded power-iteration estimate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .errors import GoldsplitError, InsufficientDataError, NumericAbort
from .linops import operator_norm
from .metrics import linear_rate_fit, loglog_slope
from .problems import (
    GenSpec,
    build_logistic,
    generate_instance,
    load_instance,
    parse_libsvm,
    read_pgm,
    save_instance,
    update_manifest_f_star,
    write_pgm,
)
from .solvers import ALGORITHM_NAMES, SolverConfig, run_solver, validate_config

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_GEN_PARAMS = {
    "lasso": ("m", "n", "s", "scheme", "q", "lam", "noise_sd"),
    "fused_lasso": ("m", "n", "lam1", "lam2", "noise_sd"),
    "graphnet": ("n1", "n2", "m", "alpha", "sparsity_fraction", "lam1", "lam2", "noise_sd"),
    "inpainting": ("rows", "cols", "missing_fraction", "lam"),
    "strongly_convex": ("m", "n", "ridge", "lam", "noise_sd"),
}

_GEN_REQUIRED = {
    "lasso": ("m", "n", "s"),
    "fused_lasso": ("m", "n"),
    "graphnet": ("n1", "n2", "m"),
    "inpainting": (),
    "strongly_convex": ("m", "n"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="goldsplit",
        description="Primal-dual splitting benchmarks with adaptive golden-ratio stepsizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a benchmark instance to disk")
    gen.add_argument("--family", required=True, choices=sorted(_GEN_PARAMS))
    gen.add_argument("--m", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--s", type=int)
    gen.add_argument("--n1", type=int)
    gen.add_argument("--n2", type=int)
    gen.add_argument("--rows", type=int)
    gen.add_argument("--cols", type=int)
    gen.add_argument("--scheme", choices=("gaussian", "correlated"))
    gen.add_argument("--q", type=float)
    gen.add_argument("--lam", type=float)
    gen.add_argument("--lam1", type=float)
    gen.add_argument("--lam2", type=float)
    gen.add_argument("--alpha", type=float)
    gen.add_argument("--sparsity-fraction", dest="sparsity_fraction", type=float)
    gen.add_argument("--missing-fraction", dest="missing_fraction", type=float)
    gen.add_argument("--noise-sd", dest="noise_sd", type=float)
    gen.add_argument("--ridge", type=float)
    gen.add_argument("--image", help="PGM image for inpainting (default: synthetic blocks)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory for the manifest")

    run = sub.add_parser("run", help="run one or more solvers on an instance")
    src = run.add_mutually_exclusive_group()
    src.add_argument("--manifest", help="instance manifest written by generate")
    src.add_argument("--libsvm", help="LIBSVM data file (logistic regression)")
    run.add_argument("--setting", type=int, default=1, choices=(1, 2),
                     help="logistic regularizer: 1 = l1 with K=I, 2 = l1 + differences")
    run.add_argument("--solvers", required=True,
                     help=f"comma separated subset of {','.join(ALGORITHM_NAMES)}")
    run.add_argument("--config", help="JSON file mirroring the flags (flags win)")
    run.add_argument("--max-iters", dest="max_iters", type=int)
    run.add_argument("--trace-stride", dest="trace_stride", type=int)
    run.add_argument("--stop-tol", dest="stop_tol", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--tau0", type=float)
    run.add_argument("--beta", type=float)
    run.add_argument("--psi", type=float)
    run.add_argument("--mu", type=float)
    run.add_argument("--mu-prime", dest="mu_prime", type=float)
    run.add_argument("--extended", action="store_true", default=None)
    run.add_argument("--rho", type=float)
    run.add_argument("--theta0", type=float)
    run.add_argument("--tau-max", dest="tau_max", type=float)
    run.add_argument("--tau", help="fixed primal stepsize; NUMBER or NUMBER/K")
    run.add_argument("--sigma", help="fixed dual stepsize; NUMBER or NUMBER/K")
    run.add_argument("--k-norm", dest="K_norm", type=float)
    run.add_argument("--x0", choices=("zero", "damaged"), default="zero",
                     help="initial x (damaged = observed image, inpainting only)")
    run.add_argument("--y0", choices=("zero", "neg-b"), default="zero",
                     help="initial y (neg-b = -b for regression instances)")
    run.add_argument("--fstar", type=float, help="known reference optimum")
    run.add_argument("--fstar-ref-iters", dest="fstar_ref_iters", type=int,
                     help="compute the reference optimum with this iteration budget")
    run.add_argument("--fstar-solver", dest="fstar_solver", default="aegrpda",
                     choices=ALGORITHM_NAMES)
    run.add_argument("--zero-time", action="store_true",
                     help="write zero timestamps so reruns are byte-identical")
    run.add_argument("--overwrite", action="store_true")
    run.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run the acceptance battery")
    ver.add_argument("--suite", default="all",
                     help="comma separated suites: " + ",".join(sorted(acceptance.SUITES)))
    ver.add_argument("--report", help="write the machine-readable JSON report here")
    return parser


def cmd_generate(args):
    missing = [k for k in _GEN_REQUIRED[args.family] if getattr(args, k, None) is None]
    if missing:
        flags = ", ".join(f"--{k}" for k in missing)
        print(f"error: family {args.family} requires {flags}", file=sys.stderr)
        return EXIT_USAGE
    params = {}
    for key in _GEN_PARAMS[args.family]:
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if args.family == "inpainting" and args.image:
        params["image"] = read_pgm(args.image)
    spec = GenSpec(family=args.family, params=params, seed=args.seed)
    problem = generate_instance(spec)
    if args.family == "inpainting":
        spec.params.pop("image", None)
        spec.params.setdefault("rows", problem.dims["rows"])
        spec.params.setdefault("cols", problem.dims["cols"])
    path = save_instance(args.out, problem, spec)
    print(path)
    return EXIT_OK


def _parse_step(text, k_norm_fn):
    """A stepsize flag: a float, or NUMBER/K meaning NUMBER / ||K||."""
    if text is None:
        return None
    text = str(text).strip()
    if text.endswith("/K"):
        return float(text[:-2]) / k_norm_fn()
    return float(text)


_CONFIG_FIELDS = (
    "tau0", "beta", "psi", "mu", "mu_prime", "extended", "rho", "theta0",
    "tau_max", "K_norm", "max_iters", "trace_stride", "seed", "stop_tol",
)


def _solver_config(name, args, file_cfg, k_norm_fn):
    merged = {}
    merged.update(file_cfg.get("defaults", {}))
    merged.update(file_cfg.get(name, {}))
    for key in _CONFIG_FIELDS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key in ("tau", "sigma"):
        val = getattr(args, key, None)
        if val is None:
            val = merged.get(key)
        merged[key] = _parse_step(val, k_norm_fn) if val is not None else None
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    unknown = set(merged) - known
    if unknown:
        raise GoldsplitError(f"unknown config keys {sorted(unknown)}")
    return SolverConfig(algorithm=name, **merged)


def _load_problem(args):
    if args.manifest:
        return load_instance(args.manifest)
    if args.libsvm:
        A, labels = parse_libsvm(args.libsvm)
        return build_logistic(A, labels, setting=args.setting)
    raise GoldsplitError("provide --manifest or --libsvm")


def _initial_points(problem, args):
    x0 = None
    y0 = None
    if args.x0 == "damaged" and "damaged" in problem.meta:
        x0 = problem.meta["damaged"].copy()
    if args.y0 == "neg-b" and "b" in problem.meta:
        y0 = -problem.meta["b"]
    return x0, y0


def cmd_run(args):
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.overwrite:
        print(f"error: output directory {out} is not empty (use --overwrite)",
              file=sys.stderr)
        return EXIT_USAGE
    problem = _load_problem(args)
    file_cfg = {}
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text())

    k_norm_cache = {}

    def k_norm_fn():
        if "value" not in k_norm_cache:
            if args.K_norm is not None:
                k_norm_cache["value"] = args.K_norm
            else:
                seed = args.seed if args.seed is not None else 0
                k_norm_cache["value"] = operator_norm(problem.K, seed=seed)
        return k_norm_cache["value"]

    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    configs = []
    for name in solvers:
        if name not in ALGORITHM_NAMES:
            print(f"error: unknown solver {name!r}", file=sys.stderr)
            return EXIT_USAGE
        cfg = _solver_config(name, args, file_cfg, k_norm_fn)
        if cfg.K_norm is None and "value" in k_norm_cache:
            cfg = dataclasses.replace(cfg, K_norm=k_norm_cache["value"])
        configs.append(validate_config(cfg))

    f_star = args.fstar
    provenance = "user-supplied" if f_star is not None else None
    if f_star is None and args.fstar_ref_iters:
        ref_cfg = dataclasses.replace(
            _solver_config(args.fstar_solver, args, file_cfg, k_norm_fn),
            max_iters=args.fstar_ref_iters,
            trace_stride=max(1, args.fstar_ref_iters // 100),
        )
        x0, y0 = _initial_points(problem, args)
        _, ref_trace, _ = run_solver(problem, ref_cfg, x0=x0, y0=y0,
                                     record_time=not args.zero_time)
        f_star = float(np.nanmin(ref_trace.column("F")))
        provenance = f"{args.fstar_solver} reference run, {args.fstar_ref_iters} iterations"
    if f_star is None and problem.F_star is not None:
        f_star = problem.F_star
        provenance = problem.F_star_provenance

    out.mkdir(parents=True, exist_ok=True)
    x0, y0 = _initial_points(problem, args)
    aborted = False
    for cfg in configs:
        try:
            state, trace, summary = run_solver(
                problem, cfg, x0=x0, y0=y0, f_star=f_star,
                f_star_provenance=provenance, record_time=not args.zero_time,
            )
        except NumericAbort as exc:
            # the remaining solvers still run; the exit code reports the abort
            print(f"error: {exc}", file=sys.stderr)
            aborted = True
            continue
        trace.to_csv(out / f"{cfg.algorithm}.csv")
        if "rows" in problem.dims and "cols" in problem.dims:
            recon = np.clip(
                state.x.reshape(problem.dims["rows"], problem.dims["cols"]), 0.0, 1.0
            )
            write_pgm(out / f"{cfg.algorithm}_recon.pgm", recon)
        fits = {}
        try:
            fits["cviol_loglog_slope"] = loglog_slope(
                trace, "cviol", (1, summary.iterations)
            )
        except InsufficientDataError:
            fits["cviol_loglog_slope"] = None
        try:
            rate, r2 = linear_rate_fit(
                trace, "F_gap", burn_in=summary.iterations // 10
            )
            fits["F_gap_linear_rate"] = {"rate": rate, "r_squared": r2}
        except InsufficientDataError:
            fits["F_gap_linear_rate"] = None
        payload = {
            "solver": summary.solver,
            "fits": fits,
            "problem": problem.name,
            "iterations": summary.iterations,
            "elapsed": summary.elapsed,
            "stop_reason": summary.stop_reason,
            "k_norm": summary.k_norm,
            "warnings": summary.warnings,
            "final": summary.final,
            "f_star": summary.f_star,
            "f_star_provenance": summary.f_star_provenance,
            "config": dataclasses.asdict(cfg),
        }
        with open(out / f"{cfg.algorithm}_summary.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{cfg.algorithm}: {summary.iterations} iterations, "
              f"final F={summary.final.get('F')}")
    if args.manifest and f_star is not None and provenance and "reference run" in provenance:
        update_manifest_f_star(args.manifest, f_star, provenance)
    return EXIT_NUMERIC if aborted else EXIT_OK


def cmd_verify(args):
    names = [s.strip() for s in args.suite.split(",") if s.strip()]
    try:
        report = acceptance.run_suites(names)
    except KeyError as exc:
        print(f"error: unknown suite {exc}", file=sys.stderr)
        return EXIT_USAGE
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: {check['detail']}")
    print(f"{report['n_passed']}/{report['n_checks']} checks passed "
          f"({report['elapsed']:.1f}s)")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY_FAILED


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
    except GoldsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser.error("no command")


if __name__ == "__main__":
    sys.exit(main())
