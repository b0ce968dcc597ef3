from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgrad.descent import (
    DescentConfig,
    Schedule,
    _run_group,
    derive_rng,
    derive_seed,
    descend,
    run_repeated,
)
from sqgrad import descent, tuples
from sqgrad.distributions import HalfCosine, RaisedCosine, TabulatedSymmetric
from sqgrad.errors import (ConfigError, DimensionMismatchError, DomainError, ScheduleError,
                           TupleError)
from sqgrad.estimators import Estimator, make_estimator
from sqgrad.oracles import Oracle, SymmetricSliceOracle, TableOracle, parse_problem

CONST = Schedule("constant", 0.1)


def _config(**kw):
    base = dict(estimator="esg:arch", steps=50, schedule=CONST,
                direction="maximize", x0=0.5, seed=3)
    base.update(kw)
    return DescentConfig(**base)


def test_schedule_rates():
    assert Schedule("constant", 0.2).rate(7) == 0.2
    assert Schedule("inverse_sqrt", 0.2).rate(4) == pytest.approx(0.1)
    assert Schedule("inverse_t", 0.2).rate(4) == pytest.approx(0.05)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        Schedule("linear", 0.1)
    with pytest.raises(ScheduleError):
        Schedule("constant", 0.0)
    with pytest.raises(ScheduleError):
        Schedule("constant", -1.0)
    with pytest.raises(ScheduleError):
        CONST.rate(0)


def test_config_validation():
    with pytest.raises(ConfigError):
        _config(steps=0)
    with pytest.raises(ConfigError):
        _config(direction="ascend")
    with pytest.raises(ConfigError):
        _config(clamp=0.0)
    with pytest.raises(ConfigError):
        _config(clamp=0.5)
    with pytest.raises(ConfigError):
        _config(seed=-1)
    with pytest.raises(ConfigError):
        _config(snapshot_every=0)


@pytest.mark.parametrize("field, value", [
    ("schedule", 0.1), ("x0", "abc"), ("estimator", 5), ("steps", True),
])
def test_a_mistyped_config_fails_at_construction(field, value):
    # Not at step 1, not as a bare ValueError, and not as one step.
    with pytest.raises(ConfigError, match=field):
        _config(**{field: value})


def test_a_config_that_cannot_run_fails_at_construction():
    # The estimator, and the clamp bounds it takes, are checked when the
    # config is built, not when it first runs.
    with pytest.raises(ConfigError, match="bogus"):
        DescentConfig("bogus", steps=5, schedule=CONST)
    with pytest.raises(DomainError, match="1 - width"):
        DescentConfig("encoded_esg:longjump", steps=5, schedule=CONST, clamp=1e-300)


def test_a_mistyped_schedule_fails_at_construction():
    with pytest.raises(ScheduleError, match="eta"):
        Schedule("constant", "0.1")


def test_dispatch_guards():
    with pytest.raises(ConfigError):
        run_repeated(_config(), parse_problem("slice:4"), 0, 1)


def test_a_group_needs_one_oracle_per_seed():
    oracle = SymmetricSliceOracle(4)
    with pytest.raises(ConfigError, match="one oracle per trial"):
        _run_group((_config(), [1, 2, 3]), [oracle, oracle])
    with pytest.raises(ConfigError, match="one oracle per trial"):
        _run_group((_config(), [1]), [oracle, oracle])


@pytest.mark.parametrize("estimator", ["esg:arch", "encoded_esg:bigauss_cosine"])
def test_descent_builds_no_config_beyond_the_callers(monkeypatch, estimator):
    # A group is one config and its trials' seeds: no per-trial copies.
    cfg = _config(estimator=estimator, steps=2)
    built = []
    post_init = DescentConfig.__post_init__

    def counted(self):
        built.append(self.estimator)
        post_init(self)

    monkeypatch.setattr(DescentConfig, "__post_init__", counted)
    run_repeated(cfg, parse_problem("knapsack:6"), 20, base_seed=3)
    descend(cfg, SymmetricSliceOracle(6))
    assert built == []


def test_x0_validation():
    oracle = SymmetricSliceOracle(4)
    with pytest.raises(DomainError):
        descend(_config(x0=1.0), oracle)
    with pytest.raises(DomainError):
        descend(_config(x0=(0.5, 0.5, 0.0, 0.5)), oracle)
    with pytest.raises(DimensionMismatchError, match="x0 has shape"):
        descend(_config(x0=(0.5, 0.5)), oracle)


def test_seed_derivation_is_deterministic_and_keyed():
    assert derive_seed(5, 1) == derive_seed(5, 1)
    assert derive_seed(5, 1) != derive_seed(1, 5)
    a = derive_rng(9, 0).integers(1 << 30, size=4)
    b = derive_rng(9, 0).integers(1 << 30, size=4)
    np.testing.assert_array_equal(a, b)
    c = derive_rng(9, 1).integers(1 << 30, size=4)
    assert not np.array_equal(a, c)


def test_sqd_is_deterministic():
    oracle = SymmetricSliceOracle(6)
    t1, x1 = descend(_config(), oracle)
    t2, x2 = descend(_config(), oracle)
    np.testing.assert_array_equal(t1.raw, t2.raw)
    np.testing.assert_array_equal(t1.best, t2.best)
    np.testing.assert_array_equal(t1.snapshots, t2.snapshots)
    np.testing.assert_array_equal(x1, x2)


def test_trajectory_alignment_single_query():
    oracle = SymmetricSliceOracle(6)
    traj, final_x = descend(_config(steps=40), oracle)
    assert traj.estimator == "esg:arch"
    assert traj.direction == "maximize"
    np.testing.assert_array_equal(traj.calls, np.arange(1, 41))
    assert traj.raw.shape == (40,)
    np.testing.assert_array_equal(traj.best, np.maximum.accumulate(traj.raw))
    np.testing.assert_array_equal(final_x, traj.final_x)
    assert final_x.shape == (6,)


def test_trajectory_alignment_two_query():
    oracle = SymmetricSliceOracle(6)
    traj, _ = descend(_config(estimator="arm", steps=40, direction="minimize"), oracle)
    np.testing.assert_array_equal(traj.calls, np.arange(1, 81))
    assert traj.raw.shape == (80,)
    np.testing.assert_array_equal(traj.best, np.minimum.accumulate(traj.raw))


@pytest.mark.parametrize("estimator, direction", [
    ("esg:arch", "maximize"), ("esg:arch", "minimize"), ("disarm", "maximize"),
    ("disarm", "minimize"),
])
def test_a_trajectory_stores_each_response_once(estimator, direction):
    # raw is the one per-call array; calls and best are derived from it,
    # with the bits of an arange and of the group's running extreme.
    config = _config(estimator=estimator, direction=direction, steps=40)
    group = run_repeated(config, parse_problem("knapsack:6"), 3, base_seed=4)
    n = group[0].raw.shape[0]
    running = np.maximum if direction == "maximize" else np.minimum
    best = running.accumulate(np.stack([traj.raw for traj in group]), axis=1)
    for i, traj in enumerate(group):
        per_call = [name for name, value in vars(traj).items()
                    if isinstance(value, np.ndarray) and value.shape[0] == n]
        assert per_call == ["raw"]
        assert traj.calls.dtype == np.int64
        assert traj.calls.tobytes() == np.arange(1, n + 1, dtype=np.int64).tobytes()
        assert traj.best.tobytes() == best[i].tobytes()


def test_snapshot_cadence_default_stride():
    oracle = SymmetricSliceOracle(4)
    traj, _ = descend(_config(steps=2500), oracle)
    # stride = max(1, 2500 // 1000) = 2
    np.testing.assert_array_equal(traj.snapshot_steps, np.arange(0, 2501, 2))
    assert traj.snapshots.shape == (1251, 4)


def test_snapshot_cadence_explicit():
    oracle = SymmetricSliceOracle(4)
    traj, _ = descend(_config(steps=2500, snapshot_every=500), oracle)
    np.testing.assert_array_equal(traj.snapshot_steps, np.arange(0, 2501, 500))
    traj, _ = descend(_config(steps=5, snapshot_every=2), oracle)
    np.testing.assert_array_equal(traj.snapshot_steps, [0, 2, 4])
    np.testing.assert_array_equal(traj.snapshots[0], np.full(4, 0.5))


def test_clamp_keeps_states_inside_box():
    oracle = SymmetricSliceOracle(4)
    cfg = _config(steps=120, schedule=Schedule("constant", 50.0), clamp=0.01)
    traj, final_x = descend(cfg, oracle)
    assert np.all(traj.snapshots >= 0.01 - 1e-12)
    assert np.all(traj.snapshots <= 0.99 + 1e-12)
    assert np.all(final_x >= 0.01 - 1e-12) and np.all(final_x <= 0.99 + 1e-12)


def test_run_repeated_matches_solo_runs():
    # Grouped trials must reproduce the one-at-a-time runs bit for bit.
    problem = parse_problem("slice:6")
    cfg = _config(steps=60)
    group = run_repeated(cfg, problem, 3, base_seed=11)
    for i, traj in enumerate(group):
        solo_cfg = replace(cfg, seed=derive_seed(11, i))
        solo, solo_x = descend(solo_cfg, problem.make(derive_rng(11, 0, 1)))
        assert traj.seed == solo_cfg.seed
        np.testing.assert_array_equal(traj.raw, solo.raw)
        np.testing.assert_array_equal(traj.best, solo.best)
        np.testing.assert_array_equal(traj.snapshot_steps, solo.snapshot_steps)
        np.testing.assert_array_equal(traj.snapshots, solo.snapshots)
        np.testing.assert_array_equal(traj.final_x, solo_x)


def test_run_repeated_matches_solo_runs_encoded():
    problem = parse_problem("slice:6")
    cfg = _config(estimator="encoded_esg:spike", steps=60)
    group = run_repeated(cfg, problem, 2, base_seed=4)
    for i, traj in enumerate(group):
        solo_cfg = replace(cfg, seed=derive_seed(4, i))
        solo, _ = descend(solo_cfg, problem.make(derive_rng(4, 0, 1)))
        np.testing.assert_array_equal(traj.raw, solo.raw)
        np.testing.assert_array_equal(traj.snapshots, solo.snapshots)


def test_run_repeated_matches_solo_runs_randomized_problem():
    # Randomized families draw one instance per trial, keyed only by
    # (base_seed, trial), never by the estimator.
    problem = parse_problem("knapsack:6")
    cfg = _config(steps=40, x0=0.3)
    group = run_repeated(cfg, problem, 3, base_seed=11)
    for i, traj in enumerate(group):
        solo_cfg = replace(cfg, seed=derive_seed(11, i))
        solo, _ = descend(solo_cfg, problem.make(derive_rng(11, i, 1)))
        np.testing.assert_array_equal(traj.raw, solo.raw)
        np.testing.assert_array_equal(traj.final_x, solo.final_x)


def test_knapsack_instances_are_method_independent():
    problem = parse_problem("knapsack:8")
    w1 = problem.make(derive_rng(11, 2, 1)).weights
    w2 = problem.make(derive_rng(11, 2, 1)).weights
    w3 = problem.make(derive_rng(11, 3, 1)).weights
    np.testing.assert_array_equal(w1, w2)
    assert not np.array_equal(w1, w3)


def test_run_repeated_is_reproducible():
    problem = parse_problem("knapsack:6")
    cfg = _config(steps=40, x0=0.3)
    a = run_repeated(cfg, problem, 2, base_seed=5)
    b = run_repeated(cfg, problem, 2, base_seed=5)
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta.raw, tb.raw)
        np.testing.assert_array_equal(ta.final_x, tb.final_x)


def test_x0_tuple_sets_coordinates():
    oracle = SymmetricSliceOracle(3)
    traj, _ = descend(_config(x0=(0.2, 0.5, 0.8), steps=1), oracle)
    np.testing.assert_allclose(traj.snapshots[0], [0.2, 0.5, 0.8], atol=1e-12)


class _NanOracle(Oracle):
    """Answers NaN at every key with an odd first coordinate."""

    def _values(self, ys):
        return np.where(ys[:, 0], np.nan, 1.0)


@pytest.mark.parametrize(
    "estimator", ["esg:arch", "encoded_esg:spike", "naive", "reinforce", "arm", "disarm"]
)
def test_non_finite_state_stops_the_run(estimator):
    match = rf"{estimator}: non-finite state at step \d+"
    with pytest.raises(DomainError, match=match):
        descend(_config(estimator=estimator, x0=0.9, steps=200), _NanOracle(3))


class _InfOracle(Oracle):
    """Answers +inf at every key of weight ``heavy`` or more, else 1."""

    def __init__(self, d, heavy=2):
        super().__init__(d)
        self.heavy = heavy

    def _values(self, ys):
        return np.where(ys.sum(axis=1) >= self.heavy, np.inf, 1.0)


@pytest.mark.parametrize(
    "estimator",
    ["esg:arch", "esg:longjump", "encoded_esg:spike", "naive", "reinforce", "arm", "disarm"],
)
def test_non_finite_oracle_value_stops_the_run(estimator):
    # Whether or not the state goes non-finite first, the error names
    # the oracle's value as the cause.
    match = (rf"{estimator}: non-finite (state at step \d+; the oracle answered a non-finite "
             rf"value|oracle value at step \d+ of trial 0)")
    with pytest.raises(DomainError, match=match):
        descend(_config(estimator=estimator, steps=50), _InfOracle(3))


def test_non_finite_oracle_value_is_named_by_step_and_trial():
    # reinforce's step is +-inf here, pinned by the clamp, so only the
    # responses show the bad value: trial 1's first call.
    finite, infinite = _InfOracle(3, heavy=4), _InfOracle(3, heavy=0)
    with pytest.raises(DomainError, match="reinforce: non-finite oracle value at step 1 of "
                                          "trial 1; oracle values must be finite"):
        _run_group((_config(estimator="reinforce", steps=5), [0, 1]), [finite, infinite])


class _UncountedOracle(Oracle):
    """Answers 1.0 everywhere without touching the call counter."""

    def query_batch(self, ys):
        return np.ones(len(ys))


@pytest.mark.parametrize("estimator", ["esg:arch", "naive", "reinforce", "arm"])
def test_oracle_that_does_not_count_stops_the_run(estimator):
    m, steps = 3, 4
    qps = 2 if estimator == "arm" else 1
    cfg = _config(estimator=estimator, steps=steps)
    match = rf"{estimator}: the oracles counted 0 calls, .* is {m * steps * qps}"
    with pytest.raises(DomainError, match=match):
        _run_group((cfg, list(range(m))), [_UncountedOracle(3)] * m)


@pytest.mark.parametrize("problem", ["slice:6", "knapsack:6"])
@pytest.mark.parametrize("estimator", ["esg:arch", "disarm"])
def test_call_count_check_passes_shared_and_per_trial_oracles(estimator, problem):
    # slice shares one oracle across the group, knapsack builds one per trial.
    spec = parse_problem(problem)
    cfg = _config(estimator=estimator, steps=7)
    group = run_repeated(cfg, spec, 3, 5)
    assert [traj.calls[-1] for traj in group] == [7 * group[0].queries_per_sample] * 3


@pytest.mark.parametrize(
    "estimator", ["reinforce", "arm", "disarm", "esg:arch", "encoded_esg:arch"]
)
def test_overflowing_step_is_pinned_at_the_clamp(estimator):
    # Finite values near the float maximum overflow the gradient step;
    # numpy warns, the clamp pins the state and the run ends finite.
    oracle = TableOracle(np.where(np.arange(8) % 2, 1e308, -1e308))
    cfg = _config(estimator=estimator, steps=50)
    with pytest.warns(RuntimeWarning, match="overflow"):
        traj, _ = descend(cfg, oracle)
    assert np.all(np.isfinite(traj.raw)) and np.all(np.isfinite(traj.snapshots))
    pinned = np.minimum(np.abs(traj.final_x - cfg.clamp),
                        np.abs(traj.final_x - (1.0 - cfg.clamp)))
    assert np.all(pinned <= 1e-12)


def test_tiny_clamp_is_rejected_before_the_run():
    # 1 - 1e-17 rounds to 1.0, where the score estimators divide by zero;
    # the clamp bounds are checked once, when the config is built.
    with pytest.raises(DomainError):
        _config(estimator="reinforce", clamp=1e-17, steps=1)


_KINDS = [
    "esg:arch", "esg:longjump", "esg:bigauss_cosine", "encoded_esg:bigauss_cosine",
    "naive", "reinforce", "arm", "disarm",
]


@settings(max_examples=30, deadline=None)
@given(
    estimator=st.sampled_from(_KINDS),
    problem=st.sampled_from(["slice:5", "knapsack:5"]),
    m=st.integers(1, 4),
    steps=st.integers(1, 25),
    stride=st.integers(1, 6),
    base_seed=st.integers(0, 2**16),
    kind=st.sampled_from(["constant", "inverse_sqrt", "inverse_t"]),
)
def test_lockstep_group_matches_single_trial_runs(
    estimator, problem, m, steps, stride, base_seed, kind
):
    # The group reuses one noise buffer and decodes all rows at once; a
    # trial must still see exactly what it sees when it runs alone.
    cfg = _config(estimator=estimator, steps=steps, snapshot_every=stride,
                  schedule=Schedule(kind, 0.3), x0=0.4)
    spec = parse_problem(problem)
    group = run_repeated(cfg, spec, m, base_seed)
    for i, traj in enumerate(group):
        key = (base_seed, i, 1) if spec.randomized else (base_seed, 0, 1)
        oracle = spec.make(derive_rng(*key))
        solo, _ = descend(replace(cfg, seed=traj.seed), oracle)
        for name in ("calls", "raw", "best", "snapshot_steps", "snapshots", "final_x"):
            assert getattr(traj, name).tobytes() == getattr(solo, name).tobytes(), name


@pytest.mark.parametrize(
    "estimator", ["esg:arch", "esg:bigauss_cosine", "reinforce", "disarm"]
)
def test_lockstep_group_over_distinct_tables_matches_solo_runs(estimator):
    # A table family is not randomized, so run_repeated shares one
    # instance; a group handed distinct tables queries them as a stack.
    m, steps, d = 3, 20, 4
    rng = np.random.default_rng(8)
    tables = [rng.normal(size=1 << d) for _ in range(m)]
    cfg = _config(estimator=estimator, steps=steps)
    members = [TableOracle(t) for t in tables]
    group = _run_group((cfg, list(range(m))), members)
    qps = group[0].queries_per_sample
    assert [o.call_count for o in members] == [steps * qps] * m
    for seed, table, traj in zip(range(m), tables, group):
        solo, _ = descend(replace(cfg, seed=seed), TableOracle(table))
        for name in ("calls", "raw", "best", "snapshot_steps", "snapshots", "final_x"):
            assert getattr(traj, name).tobytes() == getattr(solo, name).tobytes(), name


@pytest.mark.parametrize("problem", ["slice:6", "knapsack:6"])
def test_lockstep_group_matches_solo_runs_over_an_uneven_encoding(problem, monkeypatch):
    # Cells from 0.01 to 2 wide: the group inverts brackets of every
    # width in one call, and each must end where it ends alone.
    table = TabulatedSymmetric([-3.0, -1.0, -0.01, 0.0, 0.01, 1.0, 3.0],
                               [0.0, 0.1, 0.495, 0.5, 0.505, 0.9, 1.0])
    monkeypatch.setattr(tuples, "_BUILDERS", dict(tuples._BUILDERS))
    monkeypatch.setattr(tuples, "_CACHE", dict(tuples._CACHE))
    tuples.register_tuple(replace(tuples.get_tuple("arch"), name="uneven", sigma_hat=table))
    cfg = _config(estimator="esg:uneven", steps=40, x0=0.4)
    spec = parse_problem(problem)
    for base_seed in range(4):
        group = run_repeated(cfg, spec, 4, base_seed)
        for i, traj in enumerate(group):
            key = (base_seed, i, 1) if spec.randomized else (base_seed, 0, 1)
            solo, _ = descend(replace(cfg, seed=traj.seed), spec.make(derive_rng(*key)))
            for name in ("raw", "snapshots", "final_x"):
                assert getattr(traj, name).tobytes() == getattr(solo, name).tobytes(), name


@pytest.mark.parametrize("prefix", ["esg", "encoded_esg"])
@pytest.mark.parametrize("problem", ["slice:1", "slice:3"])
def test_lockstep_group_matches_solo_runs_over_a_straddling_raised_cosine(
    prefix, problem, monkeypatch
):
    # At c = 1e-13 2**43 the bisection's brackets reach INV_TOL in the
    # same round but round to either side of it, so an entry's round
    # count must come from its own bracket, not from the call's others.
    # encoded_esg inverts only its start and its clamp bounds.
    monkeypatch.setattr(tuples, "_BUILDERS", dict(tuples._BUILDERS))
    monkeypatch.setattr(tuples, "_CACHE", dict(tuples._CACHE))
    straddle = RaisedCosine(1e-13 * 2**43)
    tuples.register_tuple(replace(tuples.get_tuple("cosine"), name="straddle", sigma_hat=straddle))
    cfg = _config(estimator=f"{prefix}:straddle", steps=40, schedule=Schedule("constant", 1e-3))
    spec = parse_problem(problem)
    for base_seed in range(4):
        group = run_repeated(cfg, spec, 8, base_seed)
        for traj in group:
            solo, _ = descend(replace(cfg, seed=traj.seed), spec.make(derive_rng(base_seed, 0, 1)))
            for name in ("calls", "raw", "best", "snapshot_steps", "snapshots", "final_x"):
                assert getattr(traj, name).tobytes() == getattr(solo, name).tobytes(), name


_SHIPPED = [
    "esg:spike", "esg:arch", "esg:cosine", "esg:bigauss_cosine", "esg:longjump",
    "encoded_esg:arch", "naive", "reinforce", "arm", "disarm",
]


def _parts(at) -> list:
    return [at] if isinstance(at, np.ndarray) else list(at)


def _watch_descent(monkeypatch) -> list:
    """Check every map descent hands ``evaluate`` against a fresh one, bit
    for bit, and return the number of entries of each later ``_at_state``
    call of the run's estimator."""
    sizes = []
    evaluate = Estimator.evaluate

    def checked(self, states, noise, oracle, *, at=None):
        fresh = type(self)._at_state(self, states.copy())
        assert at is not None
        assert [a.tobytes() for a in _parts(at)] == [f.tobytes() for f in _parts(fresh)]
        return evaluate(self, states, noise, oracle, at=at)

    def make(spec):
        est = make_estimator(spec)
        at_state = est._at_state

        def counted(states):
            sizes.append(states.size)
            return at_state(states)

        est._at_state = counted
        return est

    monkeypatch.setattr(Estimator, "evaluate", checked)
    monkeypatch.setattr(descent, "make_estimator", make)
    return sizes


@pytest.mark.parametrize("problem", ["slice:5", "knapsack:5"])
@pytest.mark.parametrize("estimator", _SHIPPED)
def test_descent_keeps_the_map_of_the_current_states(monkeypatch, estimator, problem):
    # Knapsack keys with Q = 0 leave their rows still and the clamp holds
    # coordinates at its bounds, so each step re-maps a different subset.
    sizes = _watch_descent(monkeypatch)
    m, d, steps = 3, 5, 60
    cfg = _config(estimator=estimator, steps=steps, x0=0.3, schedule=Schedule("constant", 0.3))
    group = run_repeated(cfg, parse_problem(problem), m, 11)
    assert sum(len(traj.raw) for traj in group) == m * steps * group[0].queries_per_sample
    assert sizes[0] == m * d and all(0 < n <= m * d for n in sizes)


@pytest.mark.parametrize("estimator", _SHIPPED)
def test_a_run_where_nothing_moves_maps_its_states_once(monkeypatch, estimator):
    sizes = _watch_descent(monkeypatch)
    m, d, steps = 3, 4, 30
    cfg = _config(estimator=estimator, steps=steps, x0=0.3)
    group = _run_group((cfg, list(range(m))), [TableOracle(np.zeros(1 << d))] * m)
    assert sizes == [m * d]
    for traj in group:
        assert traj.final_x == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize(
    "estimator", ["esg:spike", "esg:arch", "esg:cosine", "esg:bigauss_cosine", "esg:longjump"]
)
def test_a_run_where_every_entry_moves_maps_them_all_each_step(monkeypatch, estimator):
    # With Q = 1 every gradient entry is nonzero, and steps this short
    # never reach the clamp.
    sizes = _watch_descent(monkeypatch)
    m, d, steps = 3, 4, 12
    cfg = _config(estimator=estimator, steps=steps, schedule=Schedule("constant", 1e-4))
    _run_group((cfg, list(range(m))), [TableOracle(np.ones(1 << d))] * m)
    assert sizes == [m * d] * steps


class _Cliff(HalfCosine):
    """arch's encoding with its density cut to zero above e = 0.1."""

    def _density(self, z):
        return np.where(z > 0.1, 0.0, super()._density(z))


def test_a_density_that_vanishes_after_a_move_stops_that_step(monkeypatch):
    # The kept map checks each moved entry when it is mapped again, so
    # the run stops at the first step whose state crosses the cliff,
    # before that step queries the oracle, as a fresh map would.
    monkeypatch.setattr(tuples, "_BUILDERS", dict(tuples._BUILDERS))
    monkeypatch.setattr(tuples, "_CACHE", dict(tuples._CACHE))
    tuples.register_tuple(replace(tuples.get_tuple("arch"), name="cliff", sigma_hat=_Cliff(0.5)))
    d, steps = 4, 200
    cfg = _config(estimator="esg:arch", steps=steps, x0=0.5, snapshot_every=1,
                  schedule=Schedule("constant", 1e-3))
    traj, _ = descend(cfg, TableOracle(np.arange(1.0, 1 + (1 << d))))
    crossed = np.flatnonzero((HalfCosine(0.5).inv_cdf(traj.snapshots) > 0.1).any(axis=1))
    assert 1 < crossed[0] < steps
    oracle = TableOracle(np.arange(1.0, 1 + (1 << d)))
    with pytest.raises(TupleError, match="cliff: encoding density vanishes"):
        descend(replace(cfg, estimator="esg:cliff"), oracle)
    assert oracle.call_count == crossed[0]
