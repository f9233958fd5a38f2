"""Command-line harness: ``goldsplit generate|run|verify``.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad flags,
unreadable or malformed input files, rejected parameters), 3 numeric
abort (``run`` still runs the solvers listed after the one that aborted).
All numeric parameters travel through flags, one per SolverConfig field;
``--config FILE`` supplies the same fields as JSON, and flags win.
Stepsizes accept a plain number or ``<number>/K``, which divides by the
merged K_norm, else by the exact or seeded power-iteration norm.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .errors import GoldsplitError, InsufficientDataError, NumericAbort, ParameterError
from .linops import operator_norm
from .metrics import linear_rate_fit, loglog_slope
from .problems import (
    FAMILIES,
    GenSpec,
    build_logistic,
    generate_instance,
    load_instance,
    parse_libsvm,
    read_pgm,
    save_instance,
    update_manifest_f_star,
    write_json,
    write_pgm,
)
from .solvers import ALGORITHM_NAMES, SolverConfig, run_solver, validate_config

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# every per-family generate parameter and its flag type; families that
# share a name share its type
_FAMILY_PARAMS = {k: kind for family in FAMILIES.values() for k, kind in family.params.items()}

# every SolverConfig field after the algorithm selector, with its annotation;
# each is one run flag and one --config key
_PARAMS = {f.name: f.type for f in dataclasses.fields(SolverConfig)[1:]}

# the stepsize fields, which take NUMBER or NUMBER/K (NUMBER / ||K||), and their help
_PER_K = {"tau": "fixed primal stepsize; NUMBER or NUMBER/K",
          "sigma": "fixed dual stepsize; NUMBER or NUMBER/K"}

# SolverConfig annotation -> the run flag's argparse keywords, and what a
# --config value of the field must be with the test for it; JSON gives
# bools apart from numbers, so type() is exact
_KINDS = {
    "int": ({"type": int}, "an integer", lambda v: type(v) is int),
    "bool": ({"action": "store_true", "default": None}, "true or false",
             lambda v: type(v) is bool),
    "float": ({"type": float}, "a number", lambda v: type(v) in (int, float)),
    "float | None": ({"type": float}, "a number or null",
                     lambda v: v is None or type(v) in (int, float)),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="goldsplit",
        description="Primal-dual splitting benchmarks with adaptive golden-ratio stepsizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a benchmark instance to disk")
    gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    for key, kind in _FAMILY_PARAMS.items():
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        gen.add_argument("--" + key.replace("_", "-"), dest=key, **typed)
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
    for name, kind in _PARAMS.items():
        typed = {"help": _PER_K[name]} if name in _PER_K else _KINDS[kind][0]
        run.add_argument("--" + name.lower().replace("_", "-"), dest=name, **typed)
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
    family = FAMILIES[args.family]
    takes = set(family.params) | ({"image"} if args.family == "inpainting" else set())
    foreign = [k for k in (*_FAMILY_PARAMS, "image")
               if k not in takes and getattr(args, k) is not None]
    if foreign:
        flags = ", ".join("--" + k.replace("_", "-") for k in foreign)
        print(f"error: family {args.family} does not take {flags}", file=sys.stderr)
        return EXIT_USAGE
    missing = [k for k in family.required if getattr(args, k) is None]
    if missing:
        flags = ", ".join(f"--{k}" for k in missing)
        print(f"error: family {args.family} requires {flags}", file=sys.stderr)
        return EXIT_USAGE
    params = {k: getattr(args, k) for k in family.params if getattr(args, k) is not None}
    if args.image:
        params["image"] = read_pgm(args.image)
    spec = GenSpec(family=args.family, params=params, seed=args.seed)
    path = save_instance(args.out, generate_instance(spec), spec)
    print(path)
    return EXIT_OK


def _parse_step(text):
    """A stepsize: NUMBER or NUMBER/K, as (NUMBER, whether it ends in /K)."""
    text = str(text).strip()
    per_k = text.endswith("/K")
    try:
        return float(text[:-2] if per_k else text), per_k
    except ValueError:
        raise ParameterError(f"bad stepsize {text!r}: expected NUMBER or NUMBER/K") from None


def _solver_config(name, args, file_cfg, problem):
    """One solver's SolverConfig: --config defaults, then its section, then flags.

    NUMBER/K divides by the merged K_norm, else by ``operator_norm`` with
    the merged seed, recorded as K_norm."""
    merged = {}
    for section in ("defaults", name):
        values = file_cfg.get(section, {})
        if not isinstance(values, dict):
            raise GoldsplitError(f"--config section {section!r} must hold a JSON object")
        merged.update(values)
    for key in _PARAMS:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    unknown = set(merged) - set(_PARAMS)
    if unknown:
        raise GoldsplitError(f"unknown config keys {sorted(unknown)}")
    for key, val in merged.items():
        _, what, ok = _KINDS[_PARAMS[key]]
        if key not in _PER_K and not ok(val):
            raise GoldsplitError(f"config key {key!r} must be {what}, got {json.dumps(val)}")
    steps = {key: _parse_step(merged.pop(key)) for key in _PER_K if merged.get(key) is not None}
    config = SolverConfig(name, **merged)
    if any(per_k for _, per_k in steps.values()):
        if config.K_norm is None:
            # every check, NUMBER/K read as NUMBER, precedes the seeded norm
            validate_config(dataclasses.replace(
                config, **{key: value for key, (value, _) in steps.items()}))
            config.K_norm = operator_norm(problem.K, seed=config.seed)
        if config.K_norm == 0:
            raise ParameterError("NUMBER/K stepsizes need ||K|| > 0, got ||K|| = 0")
    for key, (value, per_k) in steps.items():
        setattr(config, key, value / config.K_norm if per_k else value)
    return config


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
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise GoldsplitError(f"--config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise GoldsplitError(f"--config {args.config} must hold a JSON object")

    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    configs = []
    for name in solvers:
        if name not in ALGORITHM_NAMES:
            print(f"error: unknown solver {name!r}", file=sys.stderr)
            return EXIT_USAGE
        configs.append(validate_config(_solver_config(name, args, file_cfg, problem)))

    f_star = args.fstar
    provenance = "user-supplied" if f_star is not None else None
    ran_reference = f_star is None and bool(args.fstar_ref_iters)
    if ran_reference:
        ref_cfg = dataclasses.replace(
            _solver_config(args.fstar_solver, args, file_cfg, problem),
            max_iters=args.fstar_ref_iters,
            trace_stride=max(1, args.fstar_ref_iters // 100),
        )
        x0, y0 = _initial_points(problem, args)
        _, ref_trace, _ = run_solver(problem, ref_cfg, x0=x0, y0=y0,
                                     record_time=not args.zero_time)
        f_star = float(np.nanmin(ref_trace.column("F")))
        provenance = f"{args.fstar_solver} reference run, {args.fstar_ref_iters} iterations"

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
        payload = {**dataclasses.asdict(summary), "fits": fits, "problem": problem.name,
                   "config": dataclasses.asdict(cfg)}
        write_json(out / f"{cfg.algorithm}_summary.json", payload)
        print(f"{cfg.algorithm}: {summary.iterations} iterations, "
              f"final F={summary.final.get('F')}")
    if args.manifest and ran_reference:
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
        write_json(args.report, report)
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
    except (GoldsplitError, OSError) as exc:
        # bad flags and unreadable or malformed inputs end in one line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser.error("no command")


if __name__ == "__main__":
    sys.exit(main())
