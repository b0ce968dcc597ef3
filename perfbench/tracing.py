"""Span tracing of sqgrad from outside the package.

``install`` replaces sqgrad's functions and methods at each module
boundary with wrappers that record a span per call: the layer name, the
start and end (``perf_counter_ns``), the span that was open when it
began, and a row count where the layer has one.  Spans live in compact
arrays in memory and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children, so every nanosecond of a traced phase is charged to exactly
one layer.  Nothing here changes what sqgrad computes; the wrappers
only add their own cost, which the benchmark reports as the tracing
slowdown.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Methods wrapped on every class of a family that defines them itself.
# draw_noise_batch has no metric of its own; its span keeps the noise
# draws of estimate_mean_and_variance out of that function's self time.
DISTRIBUTION_METHODS = ("sample", "inv_cdf", "cdf", "density")
ESTIMATOR_METHODS = ("draw_noise", "draw_noise_batch", "evaluate", "decode")


class Tracer:
    """Records spans in parallel arrays; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.rows = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, rows=None):
        """Return ``fn`` wrapped in a span; ``rows(*args)`` counts its rows."""
        nid = self._name_id(name)
        names, parents, starts, ends, row_counts = (
            self.name, self.parent, self.start, self.end, self.rows)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            row_counts.append(rows(*args) if rows is not None else 0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block, used for the benchmark's own phases."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.rows.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, with the name table, to an ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def by_root(self) -> list[dict]:
        """Per root span (a benchmark phase): calls, rows and self time
        of every layer that ran under it."""
        a = self.arrays()
        n = a["start_ns"].size
        if n == 0:
            return []
        idx = np.arange(n)
        parent = a["parent"]
        has_parent = parent >= 0
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(n, dtype=np.int64)
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        root = np.where(has_parent, parent, idx)
        while True:  # pointer jumping: parents always precede children
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        out = []
        for r in np.flatnonzero(~has_parent):
            sel = root == r
            layers = {}
            for nid in np.unique(a["name"][sel]):
                pick = sel & (a["name"] == nid)
                layers[self.names[nid]] = {
                    "calls": int(pick.sum()),
                    "rows": int(a["rows"][pick].sum()),
                    "self_s": float(own[pick].sum()) / 1e9,
                }
            out.append({"phase": self.names[a["name"][r]],
                        "seconds": float(dur[r]) / 1e9, "layers": layers})
        return out


def _family(base) -> list[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _wrap_methods(tracer: Tracer, base, layer: str, methods, rows=None) -> None:
    for cls in _family(base):
        for meth in methods:
            if meth in cls.__dict__:
                setattr(cls, meth, tracer.wrap(
                    f"{layer}.{meth}", cls.__dict__[meth], (rows or {}).get(meth)))


def _traced_tuples(tracer: Tracer, get_tuple, register_tuple):
    """``get_tuple`` that swaps each tuple for one whose f and f_prime
    are traced, through ``dataclasses.replace`` and ``register_tuple``."""
    traced_ids: set[int] = set()

    def lookup(name):
        tup = get_tuple(name)
        if id(tup) in traced_ids:
            return tup
        tup = dataclasses.replace(
            tup,
            f=tracer.wrap("tuples.f", tup.f),
            f_prime=tracer.wrap("tuples.f_prime", tup.f_prime),
        )
        register_tuple(tup, overwrite=True)
        traced_ids.add(id(tup))
        return tup

    return lookup


def install(tracer: Tracer) -> None:
    """Wrap sqgrad's layer boundaries.  Call once, before any set-up."""
    from sqgrad import distributions, estimators, harness, oracles, tuples

    oracles.Oracle.query_batch = tracer.wrap(
        "oracles.query_batch", oracles.Oracle.query_batch,
        rows=lambda _self, ys: len(ys))
    _wrap_methods(tracer, distributions.SymmetricDistribution, "distributions",
                  DISTRIBUTION_METHODS)
    _wrap_methods(tracer, estimators.Estimator, "estimators", ESTIMATOR_METHODS,
                  rows={"evaluate": lambda _self, states, *_: len(states)})
    estimators.estimate_mean_and_variance = tracer.wrap(
        "estimators.estimate_mean_and_variance",
        estimators.estimate_mean_and_variance)
    # make_estimator looks tuples up through the name it imported.
    estimators.get_tuple = tracer.wrap(
        "tuples.get_tuple",
        _traced_tuples(tracer, tuples.get_tuple, tuples.register_tuple))
    # The harness reaches the descent layer through one function.
    harness._run_group = tracer.wrap("descent.run_group", harness._run_group)
    for fn in ("load_experiment_spec", "run_experiment", "aggregate",
               "write_outputs", "emit_csv", "emit_plot"):
        setattr(harness, fn, tracer.wrap(f"harness.{fn}", getattr(harness, fn)))
