"""Command-line front end.

Subcommands mirror the library surface: ``validate-tuple`` checks the
calibration and convolution identities, ``estimate`` reports Monte
Carlo gradient moments, ``exact`` brute-forces the value and gradient,
``descend`` runs one descent loop from a JSON config, and
``experiment`` runs a benchmark spec and writes its CSV and SVG.  A
random problem instance draws from the key (seed, 1); noise draws from
the seed itself, so the two never share a stream.

Exit codes: 0 success, 1 a requested validation failed, 2 usage error,
3 runtime failure (bad config file, oracle trouble, an output that cannot
be written, and the like).

JSON output is strict: a NaN, such as a standard error from one sample
or the value of an estimator that has none, is written as ``null``, and
an infinity is a runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .descent import derive_rng, descend, run_repeated
from .errors import SqgradError
from .estimators import estimate_mean_and_variance
from .exact import finite_difference_gradient, multilinear_gradient, multilinear_value
from .harness import load_descent_config, load_experiment_spec, run_experiment, write_outputs
from .oracles import parse_problem
from .tuples import TUPLE_NAMES, convolution_check, get_tuple, validate_tuple

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _parse_point(text: str, d: int) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    try:
        vals = np.asarray([float(p) for p in parts], dtype=float)
    except ValueError as exc:
        raise SqgradError(f"cannot parse point {text!r}: {exc}") from exc
    if vals.shape[0] == 1:
        return np.full(d, vals[0])
    return vals


def _nan_to_null(value):
    """``value`` with every NaN float, in lists and dicts too, as None."""
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nan_to_null(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


def _dump_json(obj, fh) -> None:
    """Indented JSON with every NaN as null.  An infinity, which JSON
    cannot hold, is a runtime error, and nothing is written."""
    try:
        text = json.dumps(_nan_to_null(obj), indent=2, allow_nan=False)
    except ValueError as exc:
        raise SqgradError(f"cannot write the result as JSON: {exc}") from exc
    fh.write(text)


def _at_least(least: int):
    """An argparse type: an integer of at least ``least``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return integer


def _cmd_validate_tuple(args) -> int:
    names = list(TUPLE_NAMES) if args.name == "all" else [args.name]
    rng = np.random.default_rng(args.seed)
    failed = False
    for name in names:
        tup = get_tuple(name)
        tol = args.tol if args.tol is not None else (
            1e-6 if args.method == "quadrature" else 4.0 / np.sqrt(args.samples)
        )
        rep = validate_tuple(tup, method=args.method, n_samples=args.samples, rng=rng)
        ok = rep.max_residual <= tol
        failed |= not ok
        print(f"{name}: calibration[{args.method}] max residual "
              f"{rep.max_residual:.3e} (tol {tol:.1e}) {'ok' if ok else 'FAILED'}")
        try:
            conv = convolution_check(tup)
        except SqgradError as exc:
            print(f"{name}: convolution skipped ({exc})")
            continue
        ok = conv.max_residual <= (args.tol if args.tol is not None else 1e-6)
        failed |= not ok
        print(f"{name}: convolution max residual {conv.max_residual:.3e} "
              f"{'ok' if ok else 'FAILED'}")
    return EXIT_VALIDATION if failed else EXIT_OK


def _cmd_estimate(args) -> int:
    oracle = parse_problem(args.problem).make(derive_rng(args.seed, 1))
    x = _parse_point(args.x, oracle.d)
    summary = estimate_mean_and_variance(
        args.estimator, x, oracle, args.samples, np.random.default_rng(args.seed)
    )
    out = {
        "estimator": summary.spec,
        "n_samples": summary.n_samples,
        "queries": summary.queries,
        "mean_value": summary.mean_value,
        "value_std_err": summary.value_std_err,
        "mean_gradient": summary.mean_gradient.tolist(),
        "gradient_std_err": summary.gradient_std_err.tolist(),
    }
    _dump_json(out, sys.stdout)
    print()
    return EXIT_OK


def _cmd_exact(args) -> int:
    oracle = parse_problem(args.problem).make(derive_rng(args.seed, 1))
    x = _parse_point(args.x, oracle.d)
    out = {"value": multilinear_value(x, oracle)}
    if args.grad:
        out["gradient"] = multilinear_gradient(x, oracle).tolist()
    if args.fd is not None:
        out["fd_gradient"] = finite_difference_gradient(x, oracle, h=args.fd).tolist()
    out["oracle_calls"] = oracle.call_count
    _dump_json(out, sys.stdout)
    print()
    return EXIT_OK


def _cmd_descend(args) -> int:
    config, problem = load_descent_config(args.config)
    if args.trials > 1:
        trajs = run_repeated(config, problem, args.trials, base_seed=config.seed)
        finals = np.array([t.best[-1] for t in trajs])
        out = {
            "trials": args.trials,
            "median_best": float(np.median(finals)),
            "best_per_trial": finals.tolist(),
            "oracle_calls_per_trial": int(trajs[0].calls[-1]),
        }
    else:
        traj, x_final = descend(config, problem.make(derive_rng(config.seed, 1)))
        out = {
            "final_x": x_final.tolist(),
            "best": float(traj.best[-1]),
            "last_raw": float(traj.raw[-1]),
            "oracle_calls": int(traj.calls[-1]),
        }
        if args.out:
            payload = {
                "estimator": traj.estimator,
                "direction": traj.direction,
                "snapshot_steps": traj.snapshot_steps.tolist(),
                "snapshots": traj.snapshots.tolist(),
                "best": traj.best[:: max(1, len(traj.raw) // 1000)].tolist(),
                "final_x": traj.final_x.tolist(),
            }
            with open(args.out, "w", encoding="utf-8") as fh:
                _dump_json(payload, fh)
            out["trajectory_file"] = args.out
    _dump_json(out, sys.stdout)
    print()
    return EXIT_OK


def _cmd_experiment(args) -> int:
    spec = load_experiment_spec(args.spec)
    # Fail before the run, not after it, when the outputs have no home.
    os.makedirs(args.out_dir, exist_ok=True)
    result = run_experiment(spec)
    csv_path, svg_path = write_outputs(result, args.out_dir)
    print(csv_path)
    print(svg_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqgrad",
        description="single-query stochastic gradients for set functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-tuple", help="check calibration and convolution")
    p.add_argument("name", choices=list(TUPLE_NAMES) + ["all"])
    p.add_argument("--method", choices=["quadrature", "monte_carlo"],
                   default="quadrature")
    p.add_argument("--samples", type=_at_least(1), default=100_000,
                   help="sample count for monte_carlo")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=_cmd_validate_tuple)

    p = sub.add_parser("estimate", help="Monte Carlo moments of an estimator")
    p.add_argument("--estimator", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--x", required=True,
                   help="comma-separated probabilities; a single value broadcasts")
    p.add_argument("--samples", type=_at_least(1), default=100_000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("exact", help="brute-force value and gradient")
    p.add_argument("--problem", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--grad", action="store_true")
    p.add_argument("--fd", type=float, default=None,
                   help="also report central differences with this step")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("descend", help="run descent from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=_at_least(1), default=1)
    p.add_argument("--out", default=None, help="write trajectory JSON here")
    p.set_defaults(fn=_cmd_descend)

    p = sub.add_parser("experiment", help="run a benchmark spec, write CSV and SVG")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except SqgradError as exc:
        print(f"sqgrad: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        where = exc.filename if exc.filename is not None else "I/O error"
        print(f"sqgrad: {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
