"""The benchmark's workloads: set-up, one measured unit, and its checks.

A workload is built once per process (the set-up that ``setup_s``
times) and then runs *units*: one full pass of the workload at fixed
sizes, from its first oracle call to its last output.  Every unit is
checked: each method group or estimator is one operation, and it fails
if it raises, if its oracle-call count differs from the formula, or if
its output is wrong.

Everything goes through sqgrad's public API.  Two thin hooks observe it
from outside: ``Instruments`` records the time of the first oracle call
and, per method group, the calls the oracles counted; neither changes
what sqgrad computes.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sqgrad import estimators, exact, harness, oracles, tuples

ENV_MAX_WORKERS = "SQGRAD_MAX_WORKERS"
CHUNK = 1 << 16

# One unit takes 0.4 to 0.9 s on a 2-CPU machine, so each of a run's
# interpreters holds 3 to 6 of them and their median is steady against
# the machine's noise.  ``smoke`` sizes run in well under a second and
# exist to catch a broken benchmark fast.
SIZES = {
    "slice_d10": {"config": "configs/slice_d10.json", "budget": 500, "n_trials": 20, "workers": 1},
    "slice_d10_w2": {"config": "configs/slice_d10.json", "budget": 500, "n_trials": 20, "workers": 2},
    "knapsack_d24": {"config": "configs/knapsack_d24.json", "budget": 100, "n_trials": 20, "workers": 1},
    "estimate_d10": {"d": 10, "n_samples": CHUNK, "workers": 1},
}
SMOKE_SIZES = {
    "slice_d10": {"config": "configs/slice_d10.json", "budget": 40, "n_trials": 4, "workers": 1},
    "slice_d10_w2": {"config": "configs/slice_d10.json", "budget": 40, "n_trials": 4, "workers": 2},
    "knapsack_d24": {"config": "configs/knapsack_d24.json", "budget": 20, "n_trials": 4, "workers": 1},
    "estimate_d10": {"d": 10, "n_samples": 4096, "workers": 1},
}

# The shortened headline run of demos/slice_benchmark.py and the sha256
# of its committed outputs, demos/out/slice_d10_short.csv then .svg.
SHORT_NAME = "slice_d10_short"
SHORT_SIZES = {"config": "configs/slice_d10.json", "budget": 10_000, "n_trials": 8, "workers": 2}
SHORT_SHA256 = "c2c5a4abd47701148baab964fe67698d162253b2799c6fbbab5fb246ee1ab309"

ESTIMATORS = (
    "esg:spike", "esg:arch", "esg:cosine", "esg:bigauss_cosine", "esg:longjump",
    "encoded_esg:arch", "naive", "reinforce", "arm", "disarm",
)
Z_LIMIT = 4.0


def monotonic() -> float:
    """Seconds on the system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# The machine speed reference.  On a shared host the speed one process
# sees drifts by up to 2x over seconds to minutes, and a fixed piece of
# pure-Python and numpy work drifts with it.  The benchmark times that
# work between units and scales each unit by it, so its figures read as
# if the reference work took exactly REFERENCE_S seconds.
REFERENCE_S = 0.05
_REF_NARROW = np.linspace(0.01, 0.99, 20 * 10).reshape(20, 10)
_REF_WIDE = np.linspace(0.01, 0.99, 4096 * 10).reshape(4096, 10)
_REF_CHUNK = np.linspace(0.01, 0.99, CHUNK * 10).reshape(CHUNK, 10)


def reference_seconds() -> float:
    """Time a fixed mix of interpreter work, small numpy calls like a
    descent step's, and wide ones in cache and at an estimator chunk's
    size, which is not; about 50 ms."""
    start = monotonic()
    acc, table = 0, {}
    for i in range(100_000):
        acc += i * i % 7
        table[i & 255] = acc
    x = _REF_NARROW
    for _ in range(1_000):
        x = np.clip(x + 0.001 * np.prod(1.0 - x, axis=1, keepdims=True), 0.0, 1.0)
    for _ in range(60):
        np.prod(1.0 - _REF_WIDE, axis=1).sum()
    for _ in range(4):
        np.prod(1.0 - _REF_CHUNK, axis=1).sum()
    return monotonic() - start


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` scaled to a machine on which the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s


class FirstOracleCall(Exception):
    """Raised at the first oracle call while set-up is timed; carries its time."""


@dataclass
class Op:
    name: str
    ok: bool
    why: str = ""
    z: float = math.nan  # estimate_d10: largest |z| of the estimator's means


@dataclass
class Unit:
    calls: int
    seconds: float
    digest: str
    ops: list[Op]
    result_bytes: int = 0
    max_abs_z: float | None = None  # estimate_d10: worst mean, in standard errors
    reference_s: float = math.nan  # the reference work's time around this unit

    @property
    def calls_per_s(self) -> float:
        return self.calls / self.seconds

    @property
    def scaled_calls_per_s(self) -> float:
        """Calls per second at the reference speed."""
        return self.calls / at_reference_speed(self.seconds, self.reference_s)


class Instruments:
    """Hooks on sqgrad's boundaries, installed once per process.

    * The first oracle call after ``arm`` stores its time in shared
      memory, so forked pool workers report it too, and then removes
      itself; with ``abort`` it raises ``FirstOracleCall`` instead.
    * Each method group's oracles are read before and after the group
      runs; the difference rides back on the trajectories (also from
      workers) and is checked when the parent aggregates them.
    """

    def __init__(self):
        self._first = multiprocessing.RawValue("d", math.inf)
        self.groups: list[dict] = []
        run_group, aggregate = harness._run_group, harness.aggregate

        def counted_run_group(configs, group_oracles):
            distinct = list({id(o): o for o in group_oracles}.values())
            before = sum(o.call_count for o in distinct)
            trajectories = run_group(configs, group_oracles)
            served = sum(o.call_count for o in distinct) - before
            for traj in trajectories:
                traj.oracle_calls_served = served
            return trajectories

        def checked_aggregate(trajectories, grid, label=None):
            self.groups.append({
                "label": label,
                "trials": len(trajectories),
                "calls": [int(t.calls.size) for t in trajectories],
                "last_call": [int(t.calls[-1]) for t in trajectories],
                "served": getattr(trajectories[0], "oracle_calls_served", None),
                "nbytes": sum(
                    a.nbytes for t in trajectories for a in vars(t).values()
                    if isinstance(a, np.ndarray)),
            })
            return aggregate(trajectories, grid, label)

        harness._run_group = counted_run_group
        harness.aggregate = checked_aggregate

    def arm(self, abort: bool = False) -> None:
        self._first.value = math.inf
        self.groups.clear()
        original = oracles.Oracle.query_batch
        first = self._first

        def first_query(oracle, ys):
            t = monotonic()
            if abort:
                raise FirstOracleCall(t)
            oracles.Oracle.query_batch = original
            if t < first.value:
                first.value = t
            return original(oracle, ys)

        self._original = original
        oracles.Oracle.query_batch = first_query

    def first_call(self) -> float:
        """Disarm (if no call happened here) and return the first call's time."""
        oracles.Oracle.query_batch = self._original
        return self._first.value

    def time_first_call(self, run) -> float:
        """Call ``run()`` up to its first oracle call; return that call's time."""
        self.arm(abort=True)
        try:
            run()
        except FirstOracleCall as call:
            return call.args[0]
        finally:
            self.first_call()
        raise RuntimeError("no oracle call was made")


def sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


@contextmanager
def max_workers(n: int):
    """Set SQGRAD_MAX_WORKERS for a block; the harness reads it per run."""
    saved = os.environ.get(ENV_MAX_WORKERS)
    os.environ[ENV_MAX_WORKERS] = str(n)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENV_MAX_WORKERS, None)
        else:
            os.environ[ENV_MAX_WORKERS] = saved


class ExperimentWorkload:
    """A config from configs/, resized, run through the same three calls
    ``sqgrad experiment`` makes: load, run, write."""

    def __init__(self, root: Path, sizes: dict, seed: int, out_dir: Path,
                 inst: Instruments, workers: int | None = None, **override):
        spec = harness.load_experiment_spec(root / sizes["config"])
        self.spec = replace(
            spec, budget=sizes["budget"], n_trials=sizes["n_trials"],
            base_seed=spec.base_seed + seed, **override)
        self.workers = sizes["workers"] if workers is None else workers
        self.out_dir = out_dir
        self.inst = inst
        qps = {m.display: estimators.make_estimator(m.estimator).queries_per_sample
               for m in self.spec.methods}
        steps = {label: self.spec.budget // q for label, q in qps.items()}
        # Oracle calls per trial of each method: steps x queries per sample.
        self.expected = {label: steps[label] * qps[label] for label in qps}
        self.call_total = self.spec.n_trials * sum(self.expected.values())
        self.trial_steps = self.spec.n_trials * sum(steps.values())

    def prepare_checks(self) -> None:
        """Nothing to precompute: outputs are checked against digests."""

    def describe(self) -> dict:
        s = self.spec
        return {"config": s.name, "problem": s.problem, "budget": s.budget,
                "n_trials": s.n_trials, "base_seed": s.base_seed,
                "methods": [m.display for m in s.methods], "workers": self.workers,
                "oracle_calls": self.call_total}

    def run_to_first_call(self) -> float:
        """Run up to the first oracle call; return the time it was made."""
        def run():
            with max_workers(self.workers):
                harness.run_experiment(self.spec)

        return self.inst.time_first_call(run)

    def run_unit(self) -> Unit:
        self.inst.arm()
        try:
            with max_workers(self.workers):
                result = harness.run_experiment(self.spec)
                csv_path, svg_path = harness.write_outputs(result, self.out_dir)
            end = monotonic()
        except Exception as exc:  # every method group of the unit failed
            self.inst.first_call()
            why = f"{type(exc).__name__}: {exc}"
            return Unit(self.call_total, math.inf, "",
                        [Op(f"method:{m.display}", False, why) for m in self.spec.methods])
        start = self.inst.first_call()
        ops = [self._check_group(g) for g in self.inst.groups]
        missing = set(self.expected) - {g["label"] for g in self.inst.groups}
        ops += [Op(f"method:{label}", False, "never aggregated") for label in sorted(missing)]
        return Unit(
            calls=self.call_total, seconds=end - start,
            digest=sha256_files(csv_path, svg_path), ops=ops,
            result_bytes=sum(g["nbytes"] for g in self.inst.groups))

    def _check_group(self, g: dict) -> Op:
        name = f"method:{g['label']}"
        per_trial = self.expected.get(g["label"])
        want = self.spec.n_trials * (per_trial or 0)
        if per_trial is None:
            return Op(name, False, "unknown method label")
        if g["trials"] != self.spec.n_trials:
            return Op(name, False, f"{g['trials']} trials, want {self.spec.n_trials}")
        if sum(g["calls"]) != want or set(g["last_call"]) != {per_trial}:
            return Op(name, False, f"Trajectory.calls total {sum(g['calls'])}, want {want}")
        if g["served"] != want:
            return Op(name, False, f"oracle counters {g['served']}, want {want}")
        return Op(name, True)


class EstimateWorkload:
    """``estimate_mean_and_variance`` for every estimator spec, on a
    TableOracle of 2^d values at an x, both drawn from the seed."""

    def __init__(self, sizes: dict, seed: int, inst: Instruments):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.seed = seed
        self.d = sizes["d"]
        self.n = sizes["n_samples"]
        self.workers = sizes["workers"]
        self.table = rng.uniform(-5.0, 5.0, size=1 << self.d)
        self.x = rng.uniform(0.1, 0.9, size=self.d)
        self.oracle = oracles.TableOracle(self.table)
        self.estimators = [estimators.make_estimator(s) for s in ESTIMATORS]
        self.inst = inst
        self.call_total = self.n * sum(e.queries_per_sample for e in self.estimators)
        self.trial_steps = 0
        self._targets = []  # exact means, set by prepare_checks

    def describe(self) -> dict:
        return {"table": f"TableOracle(2^{self.d}) ~ U(-5, 5)", "x": self.x.tolist(),
                "estimators": list(ESTIMATORS), "n_samples": self.n,
                "chunk_size": CHUNK, "oracle_calls": self.call_total}

    def _rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, 2, i]))

    def run_to_first_call(self) -> float:
        return self.inst.time_first_call(lambda: estimators.estimate_mean_and_variance(
            self.estimators[0], self.x, self.oracle, self.n, self._rng(0)))

    def run_unit(self) -> Unit:
        self.inst.arm()
        summaries, served = [], []
        for i, est in enumerate(self.estimators):
            before = self.oracle.call_count
            try:
                s = estimators.estimate_mean_and_variance(
                    est, self.x, self.oracle, self.n, self._rng(i))
            except Exception as exc:
                s = exc
            summaries.append(s)
            served.append(self.oracle.call_count - before)
        end = monotonic()
        start = self.inst.first_call()
        ops = [self._check(*args) for args in
               zip(self.estimators, summaries, served, self._targets)]
        h = hashlib.sha256()
        for s in summaries:
            if not isinstance(s, Exception):
                for a in (s.mean_gradient, s.gradient_variance, s.mean_value, s.value_variance):
                    h.update(np.asarray(a, dtype=float).tobytes())
        z = [op.z for op in ops if not math.isnan(op.z)]
        return Unit(calls=self.call_total, seconds=end - start, digest=h.hexdigest(),
                    ops=ops, max_abs_z=max(z) if z else None)

    def prepare_checks(self) -> None:
        """Exact means of every estimator, computed outside set-up and the
        units, on an oracle of its own so the workload's counter stays exact."""
        ref = oracles.TableOracle(self.table)
        value = exact.multilinear_value(self.x, ref)
        grad = exact.multilinear_gradient(self.x, ref)
        self._targets = []
        for est in self.estimators:
            target = grad
            if est.encoded:  # its mean is diag(sigma_hat'(e)) grad v(x)
                sigma_hat = tuples.get_tuple(est.spec.partition(":")[2]).sigma_hat
                target = grad * np.asarray(sigma_hat.density(est.encode(self.x)))
            if est.spec == "naive":  # its pathwise gradient is zero by design
                target = None
            self._targets.append((value if est.provides_value else None, target))

    def _check(self, est, s, served: int, targets) -> Op:
        name = f"estimator:{est.spec}"
        if isinstance(s, Exception):
            return Op(name, False, f"{type(s).__name__}: {s}")
        want = self.n * est.queries_per_sample
        if s.queries != want or served != want or s.n_samples != self.n:
            return Op(name, False, f"queries {s.queries}, counted {served}, want {want}")
        value, grad = targets
        z = []
        if value is not None:
            z.append((s.mean_value - value) / s.value_std_err)
        if grad is not None:
            z.extend((s.mean_gradient - grad) / s.gradient_std_err)
        worst = float(np.max(np.abs(z)))
        if not worst <= Z_LIMIT:
            return Op(name, False, f"mean {worst:.2f} standard errors from exact", worst)
        return Op(name, True, z=worst)
