import concurrent.futures
import copy
import csv
import functools
import json
import math
import multiprocessing
import os
import re
import tempfile
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqgrad import descent, estimators, harness, tuples
from sqgrad.cli import EXIT_RUNTIME, main
from sqgrad.descent import DescentConfig, Schedule, Trajectory, descend, run_repeated
from sqgrad.errors import ConfigError, EmptyInputError
from sqgrad.estimators import ENV_MAX_WORKERS
from sqgrad.harness import (
    AggregateSeries,
    ExperimentSpec,
    MethodSpec,
    aggregate,
    call_grid,
    emit_csv,
    emit_plot,
    load_descent_config,
    load_experiment_spec,
    run_experiment,
    write_outputs,
)
from sqgrad.oracles import TableOracle, parse_problem
from sqgrad.tuples import get_tuple, register_tuple

REPO_ROOT = Path(__file__).resolve().parent.parent


def _traj(raw, estimator="esg:arch", direction="maximize", queries_per_sample=1):
    """A trajectory with one response per oracle call, as descent records."""
    return Trajectory(
        estimator=estimator,
        direction=direction,
        raw=np.asarray(raw, dtype=float),
        snapshot_steps=np.array([0]),
        snapshots=np.zeros((1, 2)),
        final_x=np.full(2, 0.5),
        queries_per_sample=queries_per_sample,
    )


def test_call_grid_values():
    np.testing.assert_array_equal(call_grid(10, 4), [1, 4, 7, 10])
    np.testing.assert_array_equal(call_grid(3, 512), [1, 2, 3])
    grid = call_grid(1000, 512)
    assert grid[0] == 1 and grid[-1] == 1000
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ConfigError):
        call_grid(0)


def test_aggregate_quartiles():
    trajs = [_traj([0.0, 0.0, 0.0]), _traj([10.0, 10.0, 10.0]),
             _traj([20.0, 20.0, 20.0])]
    s = aggregate(trajs, np.array([1, 2, 3]))
    assert s.label == "esg:arch" and s.estimator == "esg:arch"
    np.testing.assert_allclose(s.median, [10.0, 10.0, 10.0])
    np.testing.assert_allclose(s.p25, [5.0, 5.0, 5.0])
    np.testing.assert_allclose(s.p75, [15.0, 15.0, 15.0])
    s = aggregate(trajs, np.array([1, 3]), label="mine")
    assert s.label == "mine"


def test_aggregate_carries_best_forward():
    # The running best holds through worse responses, in either direction;
    # a two-query method records both calls of each sample.
    traj = _traj([1.0, 0.0, 5.0, 2.0, 9.0, 3.0], estimator="arm", queries_per_sample=2)
    s = aggregate([traj], np.array([1, 2, 3, 4, 5, 6]))
    np.testing.assert_array_equal(s.median, [1.0, 1.0, 5.0, 5.0, 9.0, 9.0])
    traj = _traj([3.0, 4.0, 1.0, 2.0], direction="minimize")
    s = aggregate([traj], np.array([2, 3, 4]))
    np.testing.assert_array_equal(s.median, [3.0, 1.0, 1.0])


def test_aggregate_rejects_bad_grids():
    traj = _traj([1.0, 0.0, 5.0, 2.0])
    with pytest.raises(ConfigError):
        aggregate([traj], np.array([0, 2]))  # before the first call
    with pytest.raises(ConfigError):
        aggregate([traj], np.array([2, 5]))  # beyond the last call
    with pytest.raises(EmptyInputError):
        aggregate([], np.array([1]))
    with pytest.raises(ConfigError):
        aggregate([_traj([1.0]), _traj([1.0], estimator="arm")], np.array([1]))


def _csv_rows(path):
    """The rows of an ``emit_csv`` file below its header."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_csv_round_trip(tmp_path):
    sa = AggregateSeries("b_method", "arm", np.array([1, 2]),
                         np.array([0.5, 1.5]), np.array([0.25, 1.0]),
                         np.array([0.75, 2.0]))
    sb = AggregateSeries("a_method", "esg:arch", np.array([1, 2]),
                         np.array([-1.0, 0.125]), np.array([-2.0, 0.0]),
                         np.array([0.0, 0.25]))
    path = tmp_path / "out.csv"
    emit_csv([sa, sb], path)
    text = path.read_text()
    assert text.splitlines()[0] == "method,oracle_calls,median,p25,p75"
    # rows are sorted by (label, calls), so a_method comes first
    assert text.splitlines()[1].startswith("a_method,1,")
    rows = _csv_rows(path)
    assert [r[0] for r in rows] == ["a_method", "a_method", "b_method", "b_method"]
    np.testing.assert_allclose([float(r[2]) for r in rows[2:]], sa.median)
    np.testing.assert_allclose([float(r[3]) for r in rows[:2]], sb.p25)
    assert [int(r[1]) for r in rows[:2]] == [1, 2]


def test_csv_is_repr_faithful(tmp_path):
    third = np.array([1.0 / 3.0])
    s = AggregateSeries("m", "esg:arch", np.array([1]), third, third, third)
    path = tmp_path / "x.csv"
    emit_csv([s], path)
    assert float(_csv_rows(path)[0][2]) == third[0]


def test_plot_structure(tmp_path):
    import xml.etree.ElementTree as ET

    grid = np.array([1, 5, 10])
    solid = AggregateSeries("single", "esg:spike", grid,
                            np.array([1.0, 2.0, 3.0]),
                            np.array([0.5, 1.5, 2.5]),
                            np.array([1.5, 2.5, 3.5]))
    dashed = AggregateSeries("baseline", "reinforce", grid,
                             np.array([0.0, 0.5, 1.0]),
                             np.array([-0.5, 0.0, 0.5]),
                             np.array([0.5, 1.0, 1.5]))
    path = tmp_path / "plot.svg"
    emit_plot([solid, dashed], path, title="demo")
    text = path.read_text()
    assert text.startswith("<?xml") and text.endswith("\n")

    ns = {"svg": "http://www.w3.org/2000/svg"}
    root = ET.parse(path).getroot()
    bands = root.findall(".//svg:path[@class='band']", ns)
    medians = root.findall(".//svg:path[@class='median']", ns)
    assert len(bands) == 2 and len(medians) == 2
    assert "stroke-dasharray" not in medians[0].attrib
    assert medians[1].attrib["stroke-dasharray"] == "7 4"
    labels = [el.text for el in root.findall(".//svg:text", ns)]
    assert "single" in labels and "baseline" in labels and "demo" in labels
    with pytest.raises(EmptyInputError):
        emit_plot([], tmp_path / "empty.svg")


def test_plot_bytes_are_stable(tmp_path):
    grid = np.array([1, 2, 3])
    s = AggregateSeries("m", "esg:arch", grid, np.array([1.0, 2.0, 3.0]),
                        np.array([0.5, 1.5, 2.5]), np.array([1.5, 2.5, 3.5]))
    emit_plot([s], tmp_path / "a.svg")
    emit_plot([s], tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def _spec_dict(**kw):
    base = {
        "name": "micro",
        "problem": "slice:4",
        "budget": 40,
        "n_trials": 3,
        "base_seed": 9,
        "direction": "maximize",
        "x0": 0.5,
        "methods": [
            {"estimator": "esg:arch", "eta": 0.1},
            {"estimator": "reinforce", "eta": 0.1},
        ],
    }
    base.update(kw)
    return base


def _write_spec(tmp_path, **kw):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_dict(**kw)))
    return path


def test_load_experiment_spec(tmp_path):
    spec = load_experiment_spec(_write_spec(tmp_path))
    assert spec.name == "micro" and spec.budget == 40
    assert [m.estimator for m in spec.methods] == ["esg:arch", "reinforce"]
    assert spec.methods[0].display == "esg:arch"


def test_load_experiment_spec_rejects_unknowns(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment_spec(_write_spec(tmp_path, typo_field=1))
    with pytest.raises(ConfigError):
        load_experiment_spec(
            _write_spec(tmp_path, methods=[{"estimator": "esg:arch", "eta": 0.1,
                                            "oops": 2}])
        )
    bad = _spec_dict()
    del bad["budget"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError):
        load_experiment_spec(path)
    path.write_text("not json")
    with pytest.raises(ConfigError):
        load_experiment_spec(path)
    with pytest.raises(ConfigError):
        load_experiment_spec(tmp_path / "absent.json")


def test_spec_rejects_duplicate_labels(tmp_path):
    methods = [{"estimator": "esg:arch", "eta": 0.1},
               {"estimator": "esg:arch", "eta": 0.2}]
    with pytest.raises(ConfigError):
        load_experiment_spec(_write_spec(tmp_path, methods=methods))
    # distinct labels fix it
    methods = [{"estimator": "esg:arch", "eta": 0.1, "label": "slow"},
               {"estimator": "esg:arch", "eta": 0.2, "label": "fast"}]
    spec = load_experiment_spec(_write_spec(tmp_path, methods=methods))
    assert [m.display for m in spec.methods] == ["slow", "fast"]


def test_load_descent_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "estimator": "esg:longjump", "problem": "slice:4", "steps": 10,
        "eta": 0.05, "schedule": "inverse_sqrt", "direction": "maximize",
        "x0": [0.2, 0.4, 0.6, 0.8], "seed": 3,
    }))
    cfg, problem = load_descent_config(path)
    assert cfg.estimator == "esg:longjump" and cfg.steps == 10
    assert cfg.schedule.kind == "inverse_sqrt"
    assert cfg.x0 == (0.2, 0.4, 0.6, 0.8)
    assert problem.make(None).d == 4
    path.write_text(json.dumps({"estimator": "esg:arch", "problem": "slice:4",
                                "steps": 5, "eta": 0.1, "bogus": True}))
    with pytest.raises(ConfigError):
        load_descent_config(path)


def test_run_experiment_is_deterministic(tmp_path):
    spec = load_experiment_spec(_write_spec(tmp_path))
    r1 = run_experiment(spec)
    r2 = run_experiment(spec)
    assert [s.label for s in r1.series] == ["esg:arch", "reinforce"]
    for a, b in zip(r1.series, r2.series):
        np.testing.assert_array_equal(a.median, b.median)
        np.testing.assert_array_equal(a.p25, b.p25)
        np.testing.assert_array_equal(a.p75, b.p75)
    c1, s1 = write_outputs(r1, tmp_path / "one")
    c2, s2 = write_outputs(r2, tmp_path / "two")
    assert open(c1, "rb").read() == open(c2, "rb").read()
    assert open(s1, "rb").read() == open(s2, "rb").read()


def test_worker_count_does_not_change_results(tmp_path, monkeypatch):
    spec = load_experiment_spec(_write_spec(tmp_path))
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    serial = run_experiment(spec)
    monkeypatch.setenv(ENV_MAX_WORKERS, "2")
    parallel = run_experiment(spec)
    for a, b in zip(serial.series, parallel.series):
        assert a.label == b.label
        np.testing.assert_array_equal(a.median, b.median)
        np.testing.assert_array_equal(a.p25, b.p25)
        np.testing.assert_array_equal(a.p75, b.p75)


def _spy_on_groups(monkeypatch):
    """Log each method group's build and aggregation, and how many
    trajectories of earlier groups are still alive at each build."""
    log, refs = [], []
    run_group, aggregate_group = harness._run_group, harness.aggregate

    def run_group_spy(group, group_oracles):
        log.append(("build", sum(ref() is not None for ref in refs)))
        trajectories = run_group(group, group_oracles)
        refs.extend(weakref.ref(t) for t in trajectories)
        return trajectories

    def aggregate_spy(trajectories, grid, label=None):
        log.append(("aggregate", label))
        return aggregate_group(trajectories, grid, label)

    monkeypatch.setattr(harness, "_run_group", run_group_spy)
    monkeypatch.setattr(harness, "aggregate", aggregate_spy)
    return log


def test_a_serial_experiment_holds_one_method_group_at_a_time(monkeypatch):
    # Each group is aggregated and dropped before the next one is built.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    log = _spy_on_groups(monkeypatch)
    spec = load_experiment_spec(REPO_ROOT / "configs" / "slice_d10.json")
    spec = replace(spec, budget=60, n_trials=3)
    run_experiment(spec)
    want = []
    for m in spec.methods:
        want += [("build", 0), ("aggregate", m.display)]
    assert log == want


def test_a_serial_experiment_peaks_below_two_method_groups(monkeypatch):
    # The run holds one group's records at a time: its peak stays below
    # two groups' arrays, and so below two groups' responses and snapshots.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    spec = ExperimentSpec("peak", "slice:2", budget=1000, n_trials=100, methods=(
        MethodSpec("esg:arch", 0.1), MethodSpec("disarm", 0.1), MethodSpec("naive", 0.1)))
    run_experiment(replace(spec, budget=40, n_trials=2))  # first-use allocations
    sizes = []
    run_group = harness._run_group

    def sized_run_group(group, group_oracles):
        trajectories = run_group(group, group_oracles)
        sizes.append(sum(t.raw.nbytes + t.snapshots.nbytes for t in trajectories))
        return trajectories

    monkeypatch.setattr(harness, "_run_group", sized_run_group)
    tracemalloc.start()
    try:
        run_experiment(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(sizes) <= peak < 2 * max(sizes)


def test_a_method_group_builds_one_config(monkeypatch):
    # Its trials differ only in their seeds, so the group runs from one
    # checked config, however many trials it has; the spec builds it, and
    # the run builds none.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    built = []
    post_init = DescentConfig.__post_init__

    def counted(self):
        built.append(self.estimator)
        post_init(self)

    monkeypatch.setattr(DescentConfig, "__post_init__", counted)
    spec = ExperimentSpec("one_config", "knapsack:6", budget=2, n_trials=20, methods=(
        MethodSpec("encoded_esg:bigauss_cosine", 0.1), MethodSpec("esg:arch", 0.1)))
    assert built == ["encoded_esg:bigauss_cosine", "esg:arch"]
    run_experiment(spec)
    assert built == ["encoded_esg:bigauss_cosine", "esg:arch"]


def test_pool_groups_are_aggregated_in_spec_order(monkeypatch):
    # Three workers on five methods of unequal cost may finish out of
    # order; the groups are still aggregated in spec order, to the bits
    # of a serial run.
    spec = ExperimentSpec("order", "slice:4", budget=40, n_trials=2, methods=tuple(
        MethodSpec(e, 0.1) for e in ("disarm", "esg:arch", "arm", "naive", "reinforce")))
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    serial = run_experiment(spec)
    monkeypatch.setenv(ENV_MAX_WORKERS, "3")
    log = _spy_on_groups(monkeypatch)
    pooled = run_experiment(spec)
    labels = [m.display for m in spec.methods]
    assert log == [("aggregate", label) for label in labels]
    for a, b in zip(serial.series, pooled.series, strict=True):
        assert a.label == b.label
        for name in ("median", "p25", "p75"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def _write_table(tmp_path, d=6):
    """A ``table:`` problem of 2^d seeded values, written as CSV."""
    path = tmp_path / "table.csv"
    values = np.random.default_rng(d).normal(size=1 << d)
    path.write_text("bits,value\n" + "".join(
        f"{k:0{d}b},{v:.17g}\n" for k, v in enumerate(values)))
    return path


_TABLE_METHODS = [{"estimator": e, "eta": 0.1} for e in
                  ("esg:bigauss_cosine", "encoded_esg:cosine", "disarm", "arm")]


def test_kept_run_objects_are_not_fields_and_replace_builds_its_own():
    spec = ExperimentSpec("kept", "knapsack:6", budget=40, n_trials=2, methods=(
        MethodSpec("arm", 0.1), MethodSpec("esg:arch", 0.1)))
    assert [f.name for f in fields(ExperimentSpec)] == list(harness._EXPERIMENT_FIELDS)
    assert [f.name for f in fields(DescentConfig)] == [
        "estimator", "steps", "schedule", "direction", "x0", "clamp", "seed", "snapshot_every"]
    assert "_configs" not in repr(spec) and "_estimator" not in repr(spec._configs[0])
    same = ExperimentSpec(**{f.name: getattr(spec, f.name) for f in fields(spec)})
    assert same == spec and hash(same) == hash(spec)
    assert same._configs == spec._configs and same._configs[0] is not spec._configs[0]
    half = replace(spec, budget=20)
    assert [c.steps for c in half._configs] == [10, 20]
    assert [c.steps for c in spec._configs] == [20, 40]
    assert half._problem is not spec._problem


def test_a_table_run_reads_its_file_once_and_builds_nothing(tmp_path, monkeypatch):
    # Loading the spec reads the table and builds every method's config;
    # the run uses them and builds, parses and reads nothing again.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(harness, "parse_problem")
    counted(harness, "make_estimator")
    counted(descent, "make_estimator")
    counted(estimators.Estimator, "state_bounds")
    read = TableOracle.from_csv.__func__
    monkeypatch.setattr(TableOracle, "from_csv", classmethod(
        lambda cls, path: calls.append("from_csv") or read(cls, path)))
    problem = f"table:{_write_table(tmp_path)}"
    spec = load_experiment_spec(_write_spec(tmp_path, problem=problem, methods=_TABLE_METHODS))
    assert calls.count("from_csv") == calls.count("parse_problem") == 1
    assert calls.count("state_bounds") == len(_TABLE_METHODS)
    calls.clear()
    run_experiment(spec)
    assert calls == []


def test_a_table_spec_runs_without_its_file(tmp_path, monkeypatch):
    # The table is read when the spec loads; deleting the file after
    # that changes nothing the run writes.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    table = _write_table(tmp_path)
    spec = load_experiment_spec(_write_spec(
        tmp_path, problem=f"table:{table}", methods=_TABLE_METHODS))
    with_file = write_outputs(run_experiment(spec), tmp_path / "with_file")
    table.unlink()
    without_file = write_outputs(run_experiment(spec), tmp_path / "without_file")
    assert [Path(p).read_bytes() for p in with_file] == [
        Path(p).read_bytes() for p in without_file]


def test_a_built_spec_keeps_the_tuples_it_was_built_with(tmp_path, monkeypatch):
    # Registering another tuple under a method's name changes the specs
    # built after it, not one built before.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    monkeypatch.setattr(tuples, "_BUILDERS", dict(tuples._BUILDERS))
    monkeypatch.setattr(tuples, "_CACHE", dict(tuples._CACHE))
    register_tuple(replace(get_tuple("arch"), name="mine"))
    path = _write_spec(tmp_path, problem=f"table:{_write_table(tmp_path)}",
                       methods=[{"estimator": "esg:mine", "eta": 0.1}])
    spec = load_experiment_spec(path)
    before = run_experiment(spec).series[0].median
    register_tuple(replace(get_tuple("cosine"), name="mine"), overwrite=True)
    assert run_experiment(spec).series[0].median.tobytes() == before.tobytes()
    assert run_experiment(load_experiment_spec(path)).series[0].median.tobytes() != before.tobytes()


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_registered_tuples_reach_workers_of_every_start_method(tmp_path, monkeypatch, method):
    # A worker started by spawn or forkserver imports sqgrad afresh, so
    # it knows a tuple registered here, or a table read here, only if
    # the pool hands it over; the table's file is gone before the run.
    monkeypatch.setattr(tuples, "_BUILDERS", dict(tuples._BUILDERS))
    monkeypatch.setattr(tuples, "_CACHE", dict(tuples._CACHE))
    register_tuple(replace(get_tuple("arch"), name="myarch"))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor,
        mp_context=multiprocessing.get_context(method)))
    table = _write_table(tmp_path)
    spec = load_experiment_spec(_write_spec(tmp_path, problem=f"table:{table}", methods=[
        {"estimator": "esg:myarch", "eta": 0.1}, {"estimator": "reinforce", "eta": 0.1}]))
    table.unlink()
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv(ENV_MAX_WORKERS, workers)
        paths = write_outputs(run_experiment(spec), tmp_path / workers)
        outputs.append([Path(p).read_bytes() for p in paths])
    assert outputs[0] == outputs[1]


def test_worker_cap_env_validation(tmp_path, monkeypatch):
    spec = load_experiment_spec(_write_spec(tmp_path))
    monkeypatch.setenv(ENV_MAX_WORKERS, "zero")
    with pytest.raises(ConfigError):
        run_experiment(spec)
    monkeypatch.setenv(ENV_MAX_WORKERS, "0")
    with pytest.raises(ConfigError):
        run_experiment(spec)


class _NoPool:
    """Stands in for a pool class and records the worker counts asked of it."""

    def __init__(self, asked):
        self.asked = asked

    def __call__(self, max_workers=None, **kwargs):
        self.asked.append(max_workers)
        raise AssertionError("no pool should start")


def test_default_worker_count_honours_cpu_affinity(tmp_path, monkeypatch):
    # A process pinned to one CPU runs the experiment and the estimate
    # serially, whatever the host's CPU count.
    monkeypatch.delenv(ENV_MAX_WORKERS, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    asked = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _NoPool(asked))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _NoPool(asked))
    run_experiment(load_experiment_spec(_write_spec(tmp_path)))
    table = TableOracle(np.arange(1 << 10, dtype=float))
    n = 5 * (estimators._BLOCK_ENTRIES // 10)  # five blocks
    s = estimators.estimate_mean_and_variance(
        "esg:arch", np.full(10, 0.4), table, n, np.random.default_rng(0))
    assert s.queries == n and asked == []
    # Pinned to two CPUs, the same calls ask for two workers each.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    with pytest.raises(AssertionError, match="no pool"):
        estimators.estimate_mean_and_variance(
            "esg:arch", np.full(10, 0.4), table, n, np.random.default_rng(0))
    with pytest.raises(AssertionError, match="no pool"):
        run_experiment(load_experiment_spec(_write_spec(tmp_path)))
    assert asked == [2, 2]


def test_budget_must_fund_one_step(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    with pytest.raises(ConfigError):
        spec = load_experiment_spec(_write_spec(
            tmp_path, budget=1, methods=[{"estimator": "arm", "eta": 0.1}]))
        run_experiment(spec)


def test_odd_budget_carries_two_query_methods_to_the_budget(monkeypatch):
    # arm and disarm spend 40 of 41 calls; the 41st cannot buy a sample,
    # so their last running best is carried forward to the budget.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    spec = load_experiment_spec(REPO_ROOT / "configs" / "slice_d10.json")
    spec = replace(spec, budget=41, n_trials=2)
    result = run_experiment(spec)
    assert result.grid[-1] == 41
    for s in result.series:
        assert s.oracle_calls[-1] == 41
        if s.estimator in ("arm", "disarm"):
            assert s.median[-1] == s.median[-2]


def test_aggregate_rejects_a_grid_past_the_last_sample():
    # Two samples of a two-query method spend 4 calls of an odd budget of 5.
    traj = _traj([1.0, 0.0, 5.0, 2.0], estimator="arm", queries_per_sample=2)
    s = aggregate([traj], np.array([2, 4, 5]))  # 5 is short of one more sample
    np.testing.assert_allclose(s.median, [1.0, 5.0, 5.0])
    with pytest.raises(ConfigError):
        aggregate([traj], np.array([2, 6]))  # a whole sample beyond


def test_experiment_spec_validation():
    m = (MethodSpec("esg:arch", 0.1),)
    with pytest.raises(ConfigError):
        ExperimentSpec("x", "slice:4", 0, 3, m)
    with pytest.raises(ConfigError):
        ExperimentSpec("x", "slice:4", 10, 0, m)
    with pytest.raises(ConfigError):
        ExperimentSpec("x", "slice:4", 10, 3, ())
    with pytest.raises(ConfigError):
        ExperimentSpec("x", "slice:4", 10, 3, m, grid_points=1)
    # The problem is parsed when the spec is built, as a loaded spec's
    # is, and not first when it runs.
    with pytest.raises(ConfigError, match="cube"):
        ExperimentSpec("x", "cube:3", 10, 3, m)


# (changed fields, the field the error must name)
_MISTYPED_METHODS = {
    "label_int": ({"label": 5}, "label"),
    "eta_string": ({"eta": "0.1"}, "eta"),
    "eta_bool": ({"eta": True}, "eta"),
    "eta_none": ({"eta": None}, "eta"),
    "estimator_int": ({"estimator": 5}, "estimator"),
    "schedule_none": ({"schedule": None}, "schedule"),
}


@pytest.mark.parametrize("case", sorted(_MISTYPED_METHODS))
def test_a_mistyped_method_fails_at_construction(tmp_path, monkeypatch, case):
    # A spec built in Python is type-checked as a loaded one is: the
    # error names the field before any trial runs or any file is written.
    changed, field_name = _MISTYPED_METHODS[case]
    ran = []
    monkeypatch.setattr(harness, "_run_group", lambda *a: ran.append(a))
    with pytest.raises(ConfigError, match=field_name):
        method = MethodSpec(**{"estimator": "esg:arch", "eta": 0.1, **changed})
        spec = ExperimentSpec("x", "slice:3", 8, 2, (method,))
        write_outputs(run_experiment(spec), tmp_path)
    assert ran == [] and list(tmp_path.iterdir()) == []


def test_method_fields_take_numpy_numbers_and_a_missing_label():
    for eta in (np.float32(0.25), np.int64(1), 2):
        assert MethodSpec("esg:arch", eta).display == "esg:arch"


_MISTYPED_EXPERIMENTS = {
    "name_int": {"name": 5},
    "problem_none": {"problem": None},
    "budget_bool": {"budget": True},
    "n_trials_string": {"n_trials": "2"},
    "base_seed_fraction": {"base_seed": 0.5},
    "grid_points_bool": {"grid_points": True},
    "direction_int": {"direction": 1},
    "x0_string": {"x0": "0.5"},
    "x0_tuple": {"x0": (0.5, 0.5, 0.5)},
    "clamp_bool": {"clamp": True},
    "methods_dicts": {"methods": ({"estimator": "esg:arch", "eta": 0.1},)},
    "methods_one_spec": {"methods": MethodSpec("esg:arch", 0.1)},
}


@pytest.mark.parametrize("case", sorted(_MISTYPED_EXPERIMENTS))
def test_a_mistyped_experiment_fails_at_construction(case):
    (field_name, value), = _MISTYPED_EXPERIMENTS[case].items()
    with pytest.raises(ConfigError, match=field_name):
        _experiment_spec(**{field_name: value})


def _descent_config(**kw):
    return DescentConfig(**{"estimator": "esg:arch", "steps": 4,
                            "schedule": Schedule("constant", 0.1), **kw})


def _experiment_spec(**kw):
    return ExperimentSpec(**{"name": "x", "problem": "slice:4", "budget": 10, "n_trials": 2,
                             "methods": (MethodSpec("esg:arch", 0.1),), **kw})


# (field, least value, a build that takes the value)
_COUNTS = [
    ("steps", 1, lambda v: _descent_config(steps=v)),
    ("seed", 0, lambda v: _descent_config(seed=v)),
    ("snapshot_every", 1, lambda v: _descent_config(snapshot_every=v)),
    ("n_trials", 1, lambda v: run_repeated(_descent_config(), parse_problem("slice:4"), v, 0)),
    ("base_seed", 0, lambda v: run_repeated(_descent_config(), parse_problem("slice:4"), 2, v)),
    ("budget", 1, lambda v: _experiment_spec(budget=v)),
    ("n_trials", 1, lambda v: _experiment_spec(n_trials=v)),
    ("base_seed", 0, lambda v: _experiment_spec(base_seed=v)),
    ("grid_points", 2, lambda v: _experiment_spec(grid_points=v)),
]


@pytest.mark.parametrize("name, least, build", _COUNTS,
                         ids=[f"{i}-{c[0]}" for i, c in enumerate(_COUNTS)])
def test_counts_must_be_integers(name, least, build):
    # A fractional count is refused, not truncated, and a bool is not read
    # as 1; an integral float passes.
    for bad in (2.5, least + 0.5, least - 1, "3", True):
        with pytest.raises(ConfigError, match=name):
            build(bad)
    build(3.0)
    build(least)


def _descent_dict(**kw):
    base = {"estimator": "esg:arch", "problem": "slice:4", "steps": 8,
            "eta": 0.1, "direction": "maximize", "seed": 5}
    base.update(kw)
    return base


def _arch(**kw):
    return [{"estimator": "esg:arch", "eta": 0.1, **kw}]


# (loader, changed fields, the field the error must name)
_MALFORMED = {
    "budget_string": ("experiment", {"budget": "many"}, "budget"),
    "budget_null": ("experiment", {"budget": None}, "budget"),
    "budget_fraction": ("experiment", {"budget": 3.7}, "budget.*integer"),
    "method_not_object": ("experiment", {"methods": [1]}, "methods"),
    "x0_list": ("experiment", {"x0": [0.5, 0.5, 0.5, 0.5]}, "x0"),
    "eta_string": ("experiment", {"methods": _arch(eta="x")}, "eta"),
    "direction": ("experiment", {"direction": "up"}, "direction"),
    "x0_out_of_range": ("experiment", {"x0": 1.5}, "x0"),
    "x0_nan": ("experiment", {"x0": math.nan}, "x0"),
    "clamp": ("experiment", {"clamp": 0.7}, "clamp"),
    "budget_below_one_arm_step": (
        "experiment", {"budget": 1, "methods": [{"estimator": "arm", "eta": 0.1}]},
        "budget"),
    "label_not_string": ("experiment", {"methods": _arch(label=5)}, "label"),
    "name_not_a_file_name": ("experiment", {"name": "a/b"}, "name"),
    "steps_string": ("descend", {"steps": "x"}, "steps"),
    "snapshot_every_string": ("descend", {"snapshot_every": "abc"}, "snapshot_every"),
    "snapshot_every_fraction": (
        "descend", {"snapshot_every": 0.5}, "snapshot_every.*integer"),
    "estimator_unknown": ("descend", {"estimator": "bogus"}, "estimator"),
    "descent_x0_out_of_range": ("descend", {"x0": [0.5, 0.5, 1.2, 0.5]}, "x0"),
    "descent_x0_wrong_length": ("descend", {"x0": [0.5, 0.5]}, "x0"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_spec_is_rejected_at_load(tmp_path, capsys, monkeypatch, case):
    # Each of these used to load and then fail in the run, or escape the
    # loader as a bare ValueError or TypeError.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    kind, change, field = _MALFORMED[case]
    base = _spec_dict() if kind == "experiment" else _descent_dict()
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**base, **change}))
    pattern = rf"case\.json: .*{field}"
    load = load_experiment_spec if kind == "experiment" else load_descent_config
    with pytest.raises(ConfigError, match=pattern):
        load(path)
    if kind == "experiment":
        argv = ["experiment", "--spec", str(path), "--out-dir", str(tmp_path)]
    else:
        argv = ["descend", "--config", str(path)]
    capsys.readouterr()
    assert main(argv) == EXIT_RUNTIME
    assert re.search(pattern, capsys.readouterr().err)


def test_integral_numbers_load_as_integers(tmp_path):
    spec = load_experiment_spec(_write_spec(tmp_path, budget=40.0, n_trials=3))
    assert spec.budget == 40 and type(spec.budget) is int
    assert spec == load_experiment_spec(_write_spec(tmp_path))


# Each object kind's required fields, and README's default of every
# optional one.
_REQUIRED = {
    "experiment": {"name": "x", "problem": "slice:4", "budget": 10, "n_trials": 2,
                   "methods": [{"estimator": "esg:arch", "eta": 0.1}]},
    "method": {"estimator": "esg:arch", "eta": 0.1},
    "descend": {"problem": "slice:4", "estimator": "esg:arch", "steps": 4, "eta": 0.1},
}
_README_DEFAULTS = {
    "experiment": {"base_seed": 0, "direction": "maximize", "x0": 0.5, "clamp": 1e-4,
                   "grid_points": 512},
    "method": {"schedule": "constant", "label": None},
    "descend": {"schedule": "constant", "direction": "minimize", "x0": 0.5, "clamp": 1e-4,
                "seed": 0, "snapshot_every": None},
}
_FIELDS = {"experiment": harness._EXPERIMENT_FIELDS, "method": harness._METHOD_FIELDS,
           "descend": harness._DESCENT_FIELDS}


@pytest.mark.parametrize("kind", sorted(_README_DEFAULTS))
def test_optional_fields_written_at_their_documented_defaults_change_nothing(tmp_path, kind):
    assert set(_REQUIRED[kind]) | set(_README_DEFAULTS[kind]) == set(_FIELDS[kind])
    if kind == "method":
        required = {**_REQUIRED["experiment"], "methods": [_REQUIRED["method"]]}
        explicit = {**required, "methods": [{**_REQUIRED["method"], **_README_DEFAULTS["method"]}]}
    else:
        required = _REQUIRED[kind]
        explicit = {**required, **_README_DEFAULTS[kind]}
    loaded = []
    for name, data in (("required", required), ("explicit", explicit)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        if kind == "descend":
            config, problem = load_descent_config(path)
            loaded.append((config, problem.name))
        else:
            loaded.append(load_experiment_spec(path))
    assert loaded[0] == loaded[1]


def test_a_descent_config_built_in_python_equals_the_loaded_one(tmp_path):
    data = _TINY["descend"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    loaded, _ = load_descent_config(path)
    for x0 in (list(data["x0"]), np.array(data["x0"])):
        built = DescentConfig(data["estimator"], data["steps"],
                              Schedule(data["schedule"], data["eta"]), data["direction"],
                              x0, data["clamp"], data["seed"], data["snapshot_every"])
        assert built == loaded


def test_a_descent_file_takes_no_label(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**_REQUIRED["descend"], "label": "mine"}))
    with pytest.raises(ConfigError, match=r"run\.json: unknown descent fields: \['label'\]"):
        load_descent_config(path)


_SHIPPED_METHODS = [f"{head}:{name}" for head in ("esg", "encoded_esg")
                    for name in tuples.TUPLE_NAMES] + ["naive", "reinforce", "arm", "disarm"]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problem=st.tuples(st.sampled_from(["slice", "knapsack"]), st.integers(1, 5)),
       budget=st.integers(2, 16), n_trials=st.integers(1, 3),
       base_seed=st.integers(0, 2**32 - 1), x0=st.sampled_from([0.1, 0.5, 0.9]),
       methods=st.lists(st.sampled_from(_SHIPPED_METHODS), min_size=1, max_size=3,
                        unique=True))
def test_the_worker_count_never_changes_the_outputs(
        monkeypatch, problem, budget, n_trials, base_seed, x0, methods):
    data = {"name": "drawn", "problem": "%s:%d" % problem, "budget": budget,
            "n_trials": n_trials, "base_seed": base_seed, "x0": x0,
            "methods": [{"estimator": m, "eta": 0.1} for m in methods]}
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        spec = load_experiment_spec(path)
        for workers in ("1", "2"):
            monkeypatch.setenv(ENV_MAX_WORKERS, workers)
            paths = write_outputs(run_experiment(spec), os.path.join(tmp, workers))
            outputs.append([Path(p).read_bytes() for p in paths])
    assert outputs[0] == outputs[1]


# A tiny valid spec of each kind: at most 8 calls and 2 trials a method.
_TINY = {
    "experiment": {
        "name": "tiny", "problem": "slice:3", "budget": 8, "n_trials": 2,
        "base_seed": 1, "direction": "maximize", "x0": 0.5, "clamp": 1e-4,
        "grid_points": 4,
        "methods": [
            {"estimator": "esg:arch", "eta": 0.1, "schedule": "constant", "label": "a"},
            {"estimator": "disarm", "eta": 0.1},
        ],
    },
    "descend": {
        "problem": "slice:3", "estimator": "esg:arch", "steps": 8, "eta": 0.1,
        "schedule": "inverse_sqrt", "direction": "minimize", "x0": [0.3, 0.5, 0.7],
        "clamp": 1e-4, "seed": 2, "snapshot_every": 3,
    },
}
_WRONG_TYPES = ["x", None, True, [0.5], {"a": 1}, 2.5, 1]
_OUT_OF_RANGE = {
    "name": ["", "a/b", "a\0b"],
    "problem": ["slice:0", "cube:3", "table:/absent.csv"],
    "budget": [0, -4, 1],
    "n_trials": [0, -1],
    "base_seed": [-1],
    "direction": ["up", ""],
    "x0": [0.0, 1.0, 1.5, -0.2, math.nan, math.inf, [0.5, 1.0, 0.5], [0.5, 0.5]],
    "clamp": [0.0, 0.5, 0.7, -1.0, math.nan, 1e-17],
    "grid_points": [1, 0],
    "estimator": ["bogus", "esg:nope", "esg:"],
    "eta": [0.0, -0.1, math.nan],
    "schedule": ["linear"],
    "label": ["", "disarm"],
    "steps": [0, -2],
    "seed": [-1],
    "snapshot_every": [0, -3],
}


def _mutate(spec: dict, data) -> dict:
    """One mutation of a valid spec, as a user's typo might make it."""
    target = spec
    if "methods" in spec and data.draw(st.booleans()):
        target = spec["methods"][data.draw(st.integers(0, 1))]
    key = data.draw(st.sampled_from(sorted(target)))
    op = data.draw(st.sampled_from(["drop", "type", "range", "unknown", "method", "name"]))
    if op == "drop":
        del target[key]
    elif op == "type":
        target[key] = data.draw(st.sampled_from(_WRONG_TYPES))
    elif op == "range" and key in _OUT_OF_RANGE:
        target[key] = data.draw(st.sampled_from(_OUT_OF_RANGE[key]))
    elif op == "unknown":
        target["extra"] = 1
    elif op == "method" and "methods" in spec:
        spec["methods"][data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from([1, "esg:arch", None, [], True]))
    elif op == "name" and "methods" in spec:
        field = data.draw(st.sampled_from(["name", "label"]))
        bad = data.draw(st.sampled_from(["a/b", "", 5, ["a"], True, "../up", "x\0y"]))
        (spec if field == "name" else spec["methods"][0])[field] = bad
    return spec


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_TINY)), data=st.data())
def test_a_spec_that_loads_runs(monkeypatch, kind, data):
    # The loader contract: a spec either fails at load with a
    # ConfigError, or it runs; no other exception, no late failure.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    spec = _mutate(copy.deepcopy(_TINY[kind]), data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        try:
            loaded = (load_experiment_spec if kind == "experiment"
                      else load_descent_config)(path)
        except ConfigError:
            return
        if kind == "experiment":
            write_outputs(run_experiment(loaded), os.path.join(tmp, "out"))
        else:
            config, problem = loaded
            descend(config, problem.make(np.random.default_rng(config.seed)))
