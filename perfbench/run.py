"""sqgrad benchmark: oracle-call throughput, checked outputs, per-layer split.

    python3 perfbench/run.py --workload slice_d10 --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a sqgrad checkout; it imports the package
from ``src/`` of the checkout that holds this file, writes only under
``.bench_build/perfbench/`` there, and prints one JSON object as the
last line of its standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
oracle calls per second, peak memory, share of operations that passed),
measured untraced; the two timed ones are scaled by the time a fixed
reference work takes beside them, which cancels the host's drift in
speed.  With ``--trace 1`` they are the per-layer ones: an
untraced pass alternating 1 and 2 workers, then a traced pass in a
fresh serial interpreter.  The line before the result holds the
provenance and every sample behind each median.  ``--smoke`` runs tiny
sizes, so a broken benchmark fails in seconds.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("slice_d10", "knapsack_d24", "estimate_d10", "slice_d10_w2")
REQUIRED = ("src/sqgrad/__init__.py", "configs/slice_d10.json", "configs/knapsack_d24.json")
# The measured pass runs in this many fresh interpreters, one after
# another.  Each interpreter lays out its memory anew, and on
# estimate_d10 that alone moves a whole interpreter's speed by about 17%
# (it disappears with a fixed hash seed and no address randomisation),
# so a run averages over several of them.
MEASURED_PROCESSES = 8
MIN_UNITS = 2
TRACED_UNITS = 2
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 reproduces the configs' base_seed")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="how long the measured units run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one unit")
    # Internal modes, run in fresh interpreters by the modes above.
    ap.add_argument("--measured-child", metavar="OUT_DIR", help=argparse.SUPPRESS)
    ap.add_argument("--traced-child", metavar="OUT_DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


# ---------- workloads ----------


def sizes_for(args) -> dict:
    from workloads import SIZES, SMOKE_SIZES

    return (SMOKE_SIZES if args.smoke else SIZES)[args.workload]


def build(args, inst, out_dir: Path, workers: int | None = None):
    from workloads import EstimateWorkload, ExperimentWorkload

    sizes = sizes_for(args)
    if args.workload == "estimate_d10":
        return EstimateWorkload(sizes, args.seed, inst)
    return ExperimentWorkload(ROOT, sizes, args.seed, out_dir, inst, workers=workers)


def build_checked(args, inst, out_dir: Path, workers: int | None = None):
    """``build``, then the workload's correctness references."""
    wl = build(args, inst, out_dir, workers)
    wl.prepare_checks()
    return wl


def run_for(workloads, seconds: float, min_units: int) -> list[list]:
    """Run units of each workload in turn until ``seconds`` have passed
    and each has at least ``min_units``.  The reference work runs between
    units; each unit keeps the mean of the two timings beside it."""
    from workloads import monotonic, reference_seconds

    runs = [[] for _ in workloads]
    stop = monotonic() + seconds
    before = reference_seconds()
    while min(map(len, runs)) < min_units or monotonic() < stop:
        for wl, units in zip(workloads, runs):
            unit = wl.run_unit()
            after = reference_seconds()
            unit.reference_s = (before + after) / 2
            units.append(unit)
            before = after
    return runs


def budget(args, processes: int = 1) -> tuple[float, int]:
    """(seconds, minimum units) of one of ``processes`` that share the
    measured pass; smoke runs one unit."""
    return (0.0, 1) if args.smoke else (args.seconds / processes, MIN_UNITS)


def measured_processes(args) -> int:
    return 1 if args.smoke else MEASURED_PROCESSES


def recorded_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())["sha256"]


def digest_key(wl) -> str:
    s = wl.spec
    return f"{s.name} budget={s.budget} n_trials={s.n_trials} base_seed={s.base_seed}"


def gate_ops(args, wl, reference, inst, out_dir) -> list:
    """Output gates for an experiment workload, run after the measurement.

    At the default seed the bytes must match the digest recorded from the
    seed commit at these sizes.  On every seed the same spec is run at
    the other worker count and the bytes must match, so the process pool
    is checked on every seed.  The slice workloads also rerun the
    shortened headline spec, whose committed outputs must be reproduced
    byte for byte.
    """
    from workloads import SHORT_NAME, SHORT_SHA256, SHORT_SIZES, ExperimentWorkload, Op

    ops = []
    if args.seed == 0:
        want = recorded_digests().get(digest_key(wl))
        ops.append(Op("gate:recorded_digest", reference == want,
                      f"{digest_key(wl)}: {reference} != {want}"))
    other = build_checked(args, inst, out_dir, workers=3 - wl.workers)
    unit = other.run_unit()
    ops += unit.ops
    ops.append(Op("gate:worker_count", unit.digest == reference,
                  f"{other.workers} workers gave other bytes"))
    if args.workload.startswith("slice_d10") and not args.smoke:
        short = ExperimentWorkload(ROOT, SHORT_SIZES, 0, out_dir, inst, name=SHORT_NAME)
        unit = short.run_unit()
        ops += unit.ops
        ops.append(Op("gate:slice_d10_short", unit.digest == SHORT_SHA256,
                      f"{unit.digest} != committed demos/out {SHORT_SHA256}"))
    return ops


def repeat_ops(units, reference) -> list:
    from workloads import Op

    return [Op("gate:repeatable_output", u.digest == reference,
               f"unit {i} gave other bytes") for i, u in enumerate(units)]


# ---------- measured interpreters ----------


def run_child(args, *mode: str) -> dict:
    """Run this script in an internal mode in a fresh interpreter and
    return the JSON object on its last line."""
    cmd = [sys.executable, str(HERE / "run.py"), *mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{mode[0]} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def unit_record(unit) -> dict:
    return {**vars(unit), "ops": [vars(op) for op in unit.ops]}


def unit_from_record(record: dict):
    from workloads import Op, Unit

    return Unit(**{**record, "ops": [Op(**op) for op in record["ops"]]})


def measured_child(args) -> int:
    """One interpreter of the measured pass: set-up up to the first oracle
    call, a warm-up unit, then its share of the measured units."""
    from workloads import Instruments, reference_seconds

    inst = Instruments()
    out_dir = Path(args.measured_child)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = build(args, inst, out_dir)
    first_call = wl.run_to_first_call()
    reference_s = reference_seconds()
    wl.prepare_checks()
    warm = wl.run_unit()  # fills caches; its bytes are the reference
    (units,) = run_for([wl], *budget(args, measured_processes(args)))
    print(json.dumps({
        "first_oracle_call": first_call, "reference_s": reference_s,
        "peak_rss_mb": peak_rss_mb(), "warm": unit_record(warm),
        "units": [unit_record(u) for u in units],
    }))
    return 0


# ---------- traced pass ----------


def traced_child(args) -> int:
    """One serial traced invocation: set-up, then TRACED_UNITS units."""
    import tracing
    from workloads import Instruments

    tracer = tracing.Tracer()
    tracing.install(tracer)
    out_dir = Path(args.traced_child)
    with tracer.span("setup"):
        wl = build(args, Instruments(), out_dir, workers=1)
    with tracer.span("checks"):
        wl.prepare_checks()
    units = []
    for _ in range(TRACED_UNITS):
        with tracer.span("unit"):
            units.append(wl.run_unit())
    tracer.save(BUILD / f"trace-{args.workload}-seed{args.seed}.npz")
    print(json.dumps({
        "phases": tracer.by_root(),
        "units": [{"seconds": u.seconds, "digest": u.digest,
                   "ops": [vars(op) for op in u.ops]} for u in units],
    }))
    return 0


def layer_metrics(child: dict, wl, untraced_cps: float, speedup: float,
                  result_mb: float) -> tuple[dict, list]:
    """Per-layer figures for one invocation (set-up plus one unit, unit
    times averaged over the traced units), and the count checks."""
    from workloads import Op

    (setup,) = [p["layers"] for p in child["phases"] if p["phase"] == "setup"]
    units = [p["layers"] for p in child["phases"] if p["phase"] == "unit"]

    def count(name, key="calls"):
        return setup.get(name, {}).get(key, 0) + units[0].get(name, {}).get(key, 0)

    def self_s(name):
        return setup.get(name, {}).get("self_s", 0.0) + statistics.fmean(
            u.get(name, {}).get("self_s", 0.0) for u in units)

    unit_descent = statistics.fmean(u.get("descent.run_group", {}).get("self_s", 0.0)
                                    for u in units)
    traced_cps = statistics.median(wl.call_total / u["seconds"] for u in child["units"])
    calls, rows = count("oracles.query_batch"), count("oracles.query_batch", "rows")
    m = {
        "oracles.query_batch.calls": (calls, "count"),
        "oracles.query_batch.rows": (rows, "count"),
        "oracles.query_batch.self_s": (self_s("oracles.query_batch"), "s"),
        "oracles.rows_per_call": (rows / calls if calls else 0.0, "rows/call"),
        "estimators.draw_noise.calls": (count("estimators.draw_noise"), "count"),
        "distributions.sample.calls": (count("distributions.sample"), "count"),
        "distributions.sample.self_s": (self_s("distributions.sample"), "s"),
        "distributions.inv_cdf.calls": (count("distributions.inv_cdf"), "count"),
        "distributions.inv_cdf.self_s": (self_s("distributions.inv_cdf"), "s"),
        "distributions.cdf.calls": (count("distributions.cdf"), "count"),
        "distributions.density.self_s": (self_s("distributions.density"), "s"),
        "tuples.f.self_s": (self_s("tuples.f"), "s"),
        "tuples.f_prime.self_s": (self_s("tuples.f_prime"), "s"),
        "tuples.get_tuple.self_s": (self_s("tuples.get_tuple"), "s"),
        "estimators.evaluate.calls": (count("estimators.evaluate"), "count"),
        "estimators.evaluate.rows": (count("estimators.evaluate", "rows"), "count"),
        "estimators.evaluate.self_s": (self_s("estimators.evaluate"), "s"),
        "estimators.estimate_mean_and_variance.self_s":
            (self_s("estimators.estimate_mean_and_variance"), "s"),
        "descent.self_s": (self_s("descent.run_group"), "s"),
        "descent.trial_step_us":
            (1e6 * unit_descent / wl.trial_steps if wl.trial_steps else 0.0, "us"),
        "estimators.decode.calls": (count("estimators.decode"), "count"),
        "harness.aggregate.self_s": (self_s("harness.aggregate"), "s"),
        "harness.emit_csv.self_s": (self_s("harness.emit_csv"), "s"),
        "harness.emit_plot.self_s": (self_s("harness.emit_plot"), "s"),
        "harness.pool.speedup": (speedup, "x"),
        "harness.pool.result_mb": (result_mb, "MB_computed"),
        "trace.slowdown": (untraced_cps / traced_cps, "x"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    # Counts must repeat exactly between traced units and match formulas.
    counted = [(n, key) for u in units for n in u for key in ("calls", "rows")]
    ops = [Op("count:repeat", all(
        u.get(n, {}).get(key) == units[0].get(n, {}).get(key) for u in units for n, key in counted),
        "a call or row count differs between traced units")]
    draws = units[0].get("estimators.draw_noise", {}).get("calls", 0)
    ops.append(Op("count:draw_noise", draws == wl.trial_steps,
                  f"draw_noise calls {draws}, want n_trials x steps = {wl.trial_steps}"))
    unit_rows = units[0].get("oracles.query_batch", {}).get("rows", 0)
    ops.append(Op("count:query_rows", unit_rows == wl.call_total,
                  f"query_batch rows {unit_rows}, want the call total {wl.call_total}"))
    return metrics, ops


# ---------- provenance ----------


def git_rev(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def provenance(args, wl) -> dict:
    import hashlib

    import numpy
    import scipy

    import sqgrad

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sqgrad").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sqgrad": sqgrad.__version__,
        "git_rev": git_rev(ROOT),
        "src_sha256": src.hexdigest(),
        "SQGRAD_MAX_WORKERS": wl.workers,
        "machine": platform.machine(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "sizes": wl.describe(),
    }


def spread(values) -> dict:
    values = sorted(v for v in values if math.isfinite(v))  # a failed unit is inf
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "min": values[0], "max": values[-1]}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child
    (pool workers), from getrusage."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ---------- the two measuring modes ----------


def measure(args, out_dir: Path):
    """--trace 0: end-to-end metrics from untraced units, run in fresh
    interpreters one after another.  Set-up time is each interpreter's
    time to its first oracle call; calls per second is the mean over
    interpreters of their median unit."""
    from workloads import Instruments, at_reference_speed, monotonic, reference_seconds

    children, setups, raw_setups = [], [], []
    for k in range(measured_processes(args)):
        before = reference_seconds()
        start = monotonic()
        child = run_child(args, "--measured-child", str(out_dir / f"measured-{k}"))
        seconds = child["first_oracle_call"] - start
        raw_setups.append(seconds)
        setups.append(at_reference_speed(seconds, (before + child["reference_s"]) / 2))
        children.append(child)
    warms = [unit_from_record(c["warm"]) for c in children]
    runs = [[unit_from_record(u) for u in c["units"]] for c in children]
    units = [u for run in runs for u in run]
    reference = warms[0].digest
    ops = [op for u in warms + units for op in u.ops]
    ops += repeat_ops(warms[1:] + units, reference)
    inst = Instruments()
    wl = build(args, inst, out_dir)
    if args.workload != "estimate_d10":
        ops += gate_ops(args, wl, reference, inst, out_dir)
    failed = sum(not op.ok for op in ops)
    medians = [statistics.median(u.scaled_calls_per_s for u in run) for run in runs]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "oracle_calls_per_s": {"value": statistics.fmean(medians), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in children),
                        "unit": "MB"},
        "passed_share": {"value": (len(ops) - failed) / len(ops), "unit": "share"},
    }
    detail = {"setup_s": spread(setups), "measured_setup_s": spread(raw_setups),
              "interpreter_calls_per_s": medians,
              "oracle_calls_per_s": spread([u.scaled_calls_per_s for u in units]),
              "measured_calls_per_s": spread([u.calls_per_s for u in units]),
              "unit_seconds": [[u.seconds for u in run] for run in runs],
              "reference_s": [[u.reference_s for u in run] for run in runs],
              "peak_rss_mb": [c["peak_rss_mb"] for c in children],
              "max_abs_z": units[0].max_abs_z}
    return wl, ops, metrics, detail


def trace(args, out_dir: Path):
    """--trace 1: per-layer metrics from a traced serial interpreter, with
    pool speedup and tracing slowdown from untraced units beside it."""
    from workloads import Instruments, Op

    inst = Instruments()
    serial = build_checked(args, inst, out_dir, workers=1)
    pooled = build_checked(args, inst, out_dir, workers=2)
    warm = serial.run_unit()
    serial_units, pooled_units = run_for([serial, pooled], *budget(args))
    ops = warm.ops + [op for u in serial_units + pooled_units for op in u.ops]
    ops += repeat_ops(serial_units + pooled_units, warm.digest)
    child = run_child(args, "--traced-child", str(out_dir / "traced"))
    for u in child["units"]:
        ops += [Op(**op) for op in u["ops"]]
    ops.append(Op("gate:traced_output", all(u["digest"] == warm.digest for u in child["units"]),
                  "tracing changed the outputs"))
    untraced_cps = statistics.median(u.calls_per_s for u in serial_units)
    speedup = (statistics.median(u.seconds for u in serial_units)
               / statistics.median(u.seconds for u in pooled_units))
    result_mb = serial_units[0].result_bytes / 1e6
    metrics, count_ops = layer_metrics(child, serial, untraced_cps, speedup, result_mb)
    detail = {"untraced_calls_per_s": spread([u.calls_per_s for u in serial_units]),
              "pooled_seconds": spread([u.seconds for u in pooled_units]),
              "serial_seconds": spread([u.seconds for u in serial_units]),
              "traced_seconds": [u["seconds"] for u in child["units"]],
              "phases": child["phases"]}
    return serial if args.workload != "slice_d10_w2" else pooled, ops + count_ops, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a sqgrad checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    if args.measured_child:
        return measured_child(args)
    if args.traced_child:
        return traced_child(args)

    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        mode = trace if args.trace else measure
        wl, ops, metrics, detail = mode(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"FAILED {op.name}: {op.why}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, wl), "detail": detail}))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
