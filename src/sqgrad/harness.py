"""Benchmark harness: repeated descent runs summarised per oracle call.

An experiment pits several estimator configurations against one problem
family under a shared oracle-call budget.  Every trial records the raw
oracle response per call; the harness aligns the running best onto a
common call grid (carrying the last value forward between calls) and
reports the median with the interquartile band across trials.  The
spec dataclasses declare every default and range once, and check a spec
however it is built; the JSON reader checks only names.

Outputs are written deterministically: the CSV is sorted, floats are
printed with repr-faithful precision, and the SVG plot is assembled
from the same aggregated numbers with no timestamps or random ids, so
a rerun of the same spec reproduces both files byte for byte.

Method groups can run in parallel worker processes; the cap comes from
the ``SQGRAD_MAX_WORKERS`` environment variable and defaults to the
number of CPUs this process may run on.  Seeds are derived per
(method, trial), so the schedule of workers cannot change any result.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from xml.etree import ElementTree as ET

import numpy as np

from .descent import DescentConfig, Schedule, Trajectory, _run_group, _trial_oracles, derive_seed
from .errors import ConfigError, EmptyInputError, SqgradError, _check_kinds, _checked, _count
from .estimators import _worker_cap, make_estimator
from .oracles import ProblemSpec, parse_problem

__all__ = [
    "MethodSpec",
    "ExperimentSpec",
    "AggregateSeries",
    "ExperimentResult",
    "load_experiment_spec",
    "load_descent_config",
    "run_experiment",
    "aggregate",
    "call_grid",
    "emit_csv",
    "emit_plot",
    "write_outputs",
]

CSV_HEADER = ("method", "oracle_calls", "median", "p25", "p75")

# The longest file name most file systems take, in bytes.
_NAME_MAX = 255


@dataclass(frozen=True)
class MethodSpec:
    """One estimator entry in an experiment; label defaults to the
    estimator name and is what the CSV and legend show."""

    estimator: str
    eta: float
    schedule: str = "constant"
    label: str | None = None

    def __post_init__(self):
        _check_kinds(self, _METHOD_FIELDS)

    @property
    def display(self) -> str:
        return self.label if self.label else self.estimator

    def descent_config(self, **run) -> DescentConfig:
        """This method's descent run, with the run's other settings."""
        return DescentConfig(self.estimator, schedule=Schedule(self.schedule, self.eta), **run)


@dataclass(frozen=True)
class ExperimentSpec:
    """An experiment.  Checking it parses the problem and builds each
    method's ``DescentConfig``, the budget spent in whole steps; the spec
    keeps them for its runs, as ``_problem`` and ``_configs``, not fields."""

    name: str
    problem: str
    budget: int
    n_trials: int
    methods: tuple[MethodSpec, ...]
    base_seed: int = 0
    direction: str = "maximize"
    x0: float = DescentConfig.x0
    clamp: float = DescentConfig.clamp
    grid_points: int = 512

    def __post_init__(self):
        _check_kinds(self, {k: v for k, v in _EXPERIMENT_FIELDS.items() if k != "methods"})
        if not isinstance(self.methods, (tuple, list)) or not all(
            isinstance(m, MethodSpec) for m in self.methods
        ):
            raise ConfigError(f"methods must be a tuple of MethodSpec, got {self.methods!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        # The name becomes <out_dir>/<name>.csv and .svg.
        if not self.name or os.path.basename(self.name) != self.name or "\0" in self.name:
            raise ConfigError(f"name {self.name!r} must be a plain file name")
        size = len((self.name + ".csv").encode("utf-8", "surrogatepass"))
        if size > _NAME_MAX:
            raise ConfigError(
                f"name is too long: <name>.csv and <name>.svg take {size} bytes, "
                f"more than the {_NAME_MAX} a file name may have"
            )
        if not self.methods:
            raise ConfigError("an experiment needs at least one method")
        labels = [m.display for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ConfigError("method labels must be unique within an experiment")
        configs = []
        for m in self.methods:
            steps = self.budget // make_estimator(m.estimator).queries_per_sample
            if steps < 1:
                raise ConfigError(f"budget {self.budget} cannot fund one step of {m.estimator}")
            configs.append(m.descent_config(
                steps=steps, direction=self.direction, x0=self.x0, clamp=self.clamp))
        object.__setattr__(self, "_configs", tuple(configs))
        object.__setattr__(self, "_problem", parse_problem(self.problem))


@dataclass
class AggregateSeries:
    """Percentile summary of one method's running best on the grid."""

    label: str
    estimator: str
    oracle_calls: np.ndarray
    median: np.ndarray
    p25: np.ndarray
    p75: np.ndarray


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    grid: np.ndarray
    series: list[AggregateSeries] = field(default_factory=list)


# The kind of every field, as ``_checked`` takes it, that the spec
# dataclasses check; their defaults say which fields are optional and
# which take null.
_METHOD_FIELDS = {"estimator": str, "eta": float, "schedule": str, "label": str}
_EXPERIMENT_FIELDS = {
    "name": str, "problem": str, "budget": 1, "n_trials": 1, "methods": list,
    "base_seed": 0, "direction": str, "x0": float, "clamp": float, "grid_points": 2,
}
# A descent file is a method without its label, the problem, and the run.
_DESCENT_FIELDS = ("problem", "estimator", "eta", "schedule", "steps", "direction", "x0",
                   "clamp", "seed", "snapshot_every")


def _read_fields(raw: dict, names, what: str, *classes) -> dict:
    """``raw`` once it sets only fields in ``names`` and every one of them
    with no default in ``classes``; the dataclasses check the values."""
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ConfigError(f"unknown {what} fields: {unknown}")
    defaults = {f.name for cls in classes for f in fields(cls) if f.default is not MISSING}
    for name in names:
        if name not in raw and name not in defaults:
            raise ConfigError(f"missing required field {name!r}")
    return raw


def _read_json(path, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return raw


def load_experiment_spec(path) -> ExperimentSpec:
    """Read an experiment description from JSON.

    Required: name, problem, budget, n_trials, methods (each with
    estimator and eta); a field the file leaves out keeps its default.
    Unknown fields are rejected, and so is any spec that cannot run:
    each error is a ``ConfigError`` that names the file and the field.
    """
    raw = _read_json(path, "experiment spec")
    try:
        spec = _read_fields(raw, _EXPERIMENT_FIELDS, "experiment", ExperimentSpec)
        spec["methods"] = tuple(
            MethodSpec(**_read_fields(_checked(f"methods[{i}]", m, dict), _METHOD_FIELDS,
                                      "method", MethodSpec))
            for i, m in enumerate(_checked("methods", spec["methods"], list))
        )
        return ExperimentSpec(**spec)
    except SqgradError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_descent_config(path) -> tuple[DescentConfig, ProblemSpec]:
    """Read a single-run descent description from JSON: a method but its
    label, the problem, and the rest of a ``DescentConfig``.  Like
    ``load_experiment_spec``, it rejects at load what cannot run."""
    raw = _read_json(path, "descent config")
    try:
        run = _read_fields(raw, _DESCENT_FIELDS, "descent", MethodSpec, DescentConfig)
        problem = parse_problem(_checked("problem", run.pop("problem"), str))
        method = MethodSpec(**{name: run.pop(name) for name in _METHOD_FIELDS if name in run})
        config = method.descent_config(**run)
        if isinstance(config.x0, tuple) and len(config.x0) != problem.d:
            raise ConfigError(f"x0 has {len(config.x0)} entries but the problem has dimension "
                              f"{problem.d}")
    except SqgradError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config, problem


def call_grid(budget: int, grid_points: int = ExperimentSpec.grid_points) -> np.ndarray:
    """Distinct integer call counts from 1 to the budget, at most
    grid_points of them."""
    budget = _count("budget", budget, 1, ConfigError)
    grid_points = _count("grid_points", grid_points, 1, ConfigError)
    pts = np.linspace(1, budget, min(budget, grid_points))
    return np.unique(np.rint(pts).astype(np.int64))


def aggregate(
    trajectories: list[Trajectory], grid: np.ndarray, label: str | None = None
) -> AggregateSeries:
    """Median and quartiles of the running best across trials.

    Every call is recorded, so the running best at call c is entry
    c - 1; past the last call it is carried forward when the grid ends
    less than one sample after it (a two-query method cannot spend an
    odd budget).  Percentiles are the linearly interpolated kind.
    """
    if not trajectories:
        raise EmptyInputError("no trajectories to aggregate")
    grid = np.asarray(grid, dtype=np.int64)
    rows = np.empty((len(trajectories), grid.shape[0]))
    for i, traj in enumerate(trajectories):
        if traj.estimator != trajectories[0].estimator:
            raise ConfigError("cannot aggregate across different estimators")
        n = traj.raw.shape[0]
        if np.any(grid < 1) or np.any(grid >= n + traj.queries_per_sample):
            raise ConfigError("grid extends beyond the recorded calls")
        rows[i] = traj.best[np.minimum(grid, n) - 1]
    p25, med, p75 = np.percentile(rows, [25.0, 50.0, 75.0], axis=0, method="linear")
    return AggregateSeries(
        label=label if label else trajectories[0].estimator,
        estimator=trajectories[0].estimator,
        oracle_calls=grid.copy(),
        median=med,
        p25=p25,
        p75=p75,
    )


def _method_trajectories(spec: ExperimentSpec, mi: int) -> list[Trajectory]:
    """All trials of one method.  Oracle instances for randomized
    problems derive from (base_seed, 1, trial) only, so every method
    faces the same sequence of instances; noise streams derive from
    (base_seed, 2, method, trial)."""
    n = spec.n_trials
    seeds = [derive_seed(spec.base_seed, 2, mi, trial) for trial in range(n)]
    keys = [(spec.base_seed, 1, trial) for trial in range(n)]
    return _run_group((spec._configs[mi], seeds), _trial_oracles(spec._problem, keys))


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every method of the experiment and aggregate per method.

    It runs the problem and configs the spec built when it was checked,
    and builds or reads nothing itself.  The unit of parallelism is the
    method group; a pool task carries the spec, whose configs and
    problem pickle, tuples and table included, to a worker of any start
    method.  Groups are aggregated in spec order as they arrive, so the
    output does not depend on the worker count, and each group's
    trajectories are dropped once it is aggregated: a serial run builds
    the next group only then.
    """
    grid = call_grid(spec.budget, spec.grid_points)
    n = len(spec.methods)
    workers = min(_worker_cap(), n)
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1:
            run = stack.enter_context(ProcessPoolExecutor(workers)).map
        groups = run(_method_trajectories, [spec] * n, range(n))
        series = [aggregate(next(groups), grid, label=m.display) for m in spec.methods]
    return ExperimentResult(spec=spec, grid=grid, series=series)


# ---------- serialisation ----------


def emit_csv(series: list[AggregateSeries], path) -> None:
    """Write aggregated series as CSV, sorted by (method, calls)."""
    rows = []
    for s in series:
        for j in range(s.oracle_calls.shape[0]):
            rows.append(
                (
                    s.label,
                    int(s.oracle_calls[j]),
                    float(s.median[j]),
                    float(s.p25[j]),
                    float(s.p75[j]),
                )
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for label, calls, med, p25, p75 in rows:
            writer.writerow(
                (label, calls, f"{med:.17g}", f"{p25:.17g}", f"{p75:.17g}")
            )


# ---------- plotting ----------

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

_W, _H = 880.0, 560.0
_ML, _MR, _MT, _MB = 72.0, 232.0, 40.0, 58.0


def _is_esg(estimator: str) -> bool:
    head = estimator.partition(":")[0]
    return head in ("esg", "encoded_esg")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _path_data(xs: np.ndarray, ys: np.ndarray) -> str:
    parts = [f"{'M' if i == 0 else 'L'}{_fmt(x)},{_fmt(y)}" for i, (x, y) in enumerate(zip(xs, ys))]
    return " ".join(parts)


def emit_plot(series: list[AggregateSeries], path, title: str | None = None) -> None:
    """Write a deterministic SVG of medians with interquartile bands.

    The ESG methods (``esg``, ``encoded_esg``) draw solid, the
    baselines dashed.
    Legend text is the series label verbatim.
    """
    if not series:
        raise EmptyInputError("nothing to plot")
    x_max = max(float(s.oracle_calls[-1]) for s in series)
    x_min = 0.0
    y_lo = min(float(np.min(s.p25)) for s in series)
    y_hi = max(float(np.max(s.p75)) for s in series)
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return _ML + (v - x_min) / (x_max - x_min) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": f"{_W:.0f}",
            "height": f"{_H:.0f}",
            "viewBox": f"0 0 {_W:.0f} {_H:.0f}",
        },
    )
    ET.SubElement(root, "rect", {"x": "0", "y": "0", "width": f"{_W:.0f}",
                                 "height": f"{_H:.0f}", "fill": "white"})
    axes = ET.SubElement(root, "g", {"stroke": "#333333", "stroke-width": "1"})
    ET.SubElement(axes, "line", {"x1": _fmt(sx(x_min)), "y1": _fmt(sy(y_lo)),
                                 "x2": _fmt(sx(x_max)), "y2": _fmt(sy(y_lo))})
    ET.SubElement(axes, "line", {"x1": _fmt(sx(x_min)), "y1": _fmt(sy(y_lo)),
                                 "x2": _fmt(sx(x_min)), "y2": _fmt(sy(y_hi))})

    ticks = ET.SubElement(root, "g", {
        "font-family": "sans-serif", "font-size": "12", "fill": "#333333"})
    for tv in np.linspace(x_min, x_max, 6):
        px = sx(tv)
        ET.SubElement(axes, "line", {"x1": _fmt(px), "y1": _fmt(sy(y_lo)),
                                     "x2": _fmt(px), "y2": _fmt(sy(y_lo) + 5)})
        t = ET.SubElement(ticks, "text", {"x": _fmt(px), "y": _fmt(sy(y_lo) + 20),
                                          "text-anchor": "middle"})
        t.text = f"{tv:g}"
    for tv in np.linspace(y_lo, y_hi, 6):
        py = sy(tv)
        ET.SubElement(axes, "line", {"x1": _fmt(sx(x_min) - 5), "y1": _fmt(py),
                                     "x2": _fmt(sx(x_min)), "y2": _fmt(py)})
        t = ET.SubElement(ticks, "text", {"x": _fmt(sx(x_min) - 9), "y": _fmt(py + 4),
                                          "text-anchor": "end"})
        t.text = f"{tv:.4g}"

    xl = ET.SubElement(ticks, "text", {
        "x": _fmt((sx(x_min) + sx(x_max)) / 2), "y": _fmt(_H - 14),
        "text-anchor": "middle"})
    xl.text = "oracle calls"
    yl = ET.SubElement(ticks, "text", {
        "x": "18", "y": _fmt((sy(y_lo) + sy(y_hi)) / 2),
        "text-anchor": "middle",
        "transform": f"rotate(-90 18 {_fmt((sy(y_lo) + sy(y_hi)) / 2)})"})
    yl.text = "best oracle value"
    if title:
        tt = ET.SubElement(ticks, "text", {
            "x": _fmt((sx(x_min) + sx(x_max)) / 2), "y": "24",
            "text-anchor": "middle", "font-size": "15"})
        tt.text = title

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        solid = _is_esg(s.estimator)
        px = sx(s.oracle_calls.astype(float))
        band_x = np.concatenate([px, px[::-1]])
        band_y = np.concatenate([sy(s.p75), sy(s.p25)[::-1]])
        ET.SubElement(root, "path", {
            "class": "band", "d": _path_data(band_x, band_y) + " Z",
            "fill": color, "fill-opacity": "0.16", "stroke": "none"})
        line = {
            "class": "median", "d": _path_data(px, sy(s.median)),
            "fill": "none", "stroke": color,
            "stroke-width": "2.2" if solid else "1.6"}
        if not solid:
            line["stroke-dasharray"] = "7 4"
        ET.SubElement(root, "path", line)

    legend = ET.SubElement(root, "g", {
        "font-family": "sans-serif", "font-size": "13", "fill": "#222222"})
    lx = _W - _MR + 18
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        solid = _is_esg(s.estimator)
        ly = _MT + 16 + 24 * i
        seg = {"x1": _fmt(lx), "y1": _fmt(ly), "x2": _fmt(lx + 34), "y2": _fmt(ly),
               "stroke": color, "stroke-width": "2.2" if solid else "1.6"}
        if not solid:
            seg["stroke-dasharray"] = "7 4"
        ET.SubElement(legend, "line", seg)
        t = ET.SubElement(legend, "text", {"x": _fmt(lx + 42), "y": _fmt(ly + 4)})
        t.text = s.label

    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")


def write_outputs(result: ExperimentResult, out_dir) -> tuple[str, str]:
    """Write <name>.csv and <name>.svg under out_dir; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(str(out_dir), result.spec.name)
    csv_path, svg_path = base + ".csv", base + ".svg"
    emit_csv(result.series, csv_path)
    emit_plot(result.series, svg_path, title=result.spec.name)
    return csv_path, svg_path
