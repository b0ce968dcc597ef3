"""Stochastic quantized descent driven by single-sample gradient estimates.

Each step draws one estimator realisation at the current state, moves
against (or along) the estimated gradient with a scheduled step size,
and clamps the state away from the boundary:

    state <- clamp(state -+ eta_t * G_t)

For probability-space estimators the state is x itself and the clamp
keeps x in [delta, 1 - delta]^d.  For the encoded estimator the same
update runs on e with the clamp mapped through the encoding, and states
are decoded back to probabilities for reporting.  With the long-jump
tuple the encoding is linear, so the two loops coincide step for step.

Overflow is intended behaviour, not an error.  A finite oracle value
near the float maximum (|Q| ~ 1e308) can make the gradient step
overflow to an infinite one: numpy emits a ``RuntimeWarning``, the
clamp pins those coordinates at their bounds, and the run goes on with
finite states.  A NaN state or a non-finite oracle value stops the run.

Trajectories record the raw oracle response at every query, once; the
call count and the running best, which the benchmark harness
aggregates, are derived from it.
Randomness is derived from integer seeds through ``SeedSequence`` so
that every trial is replayable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionMismatchError, DomainError, ScheduleError,
                     _check_kinds, _count)
from .estimators import make_estimator
from .oracles import Oracle, ProblemSpec, _TrialOracles

__all__ = [
    "Schedule",
    "DescentConfig",
    "Trajectory",
    "descend",
    "run_repeated",
    "derive_rng",
    "derive_seed",
]

_SCHEDULE_KINDS = ("constant", "inverse_sqrt", "inverse_t")


def derive_rng(*key: int) -> np.random.Generator:
    """Deterministic generator for a tuple of nonnegative integers."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def derive_seed(*key: int) -> int:
    """Deterministic child seed for a tuple of nonnegative integers."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


@dataclass(frozen=True)
class Schedule:
    """Step-size schedule eta_t for t = 1, 2, ...

    ``constant``: eta; ``inverse_sqrt``: eta / sqrt(t); ``inverse_t``:
    eta / t.
    """

    kind: str
    eta: float

    def __post_init__(self):
        _check_kinds(self, {"kind": str, "eta": float}, ScheduleError)
        if self.kind not in _SCHEDULE_KINDS:
            raise ScheduleError(
                f"unknown schedule {self.kind!r}; known: {', '.join(_SCHEDULE_KINDS)}"
            )
        if not self.eta > 0.0:
            raise ScheduleError("step size must be positive")

    def rate(self, t: int) -> float:
        if t < 1:
            raise ScheduleError("steps are counted from 1")
        if self.kind == "constant":
            return self.eta
        if self.kind == "inverse_sqrt":
            return self.eta / np.sqrt(t)
        return self.eta / t


@dataclass(frozen=True)
class DescentConfig:
    """Everything one descent run needs besides the oracle.  Checking it
    builds the estimator and its clamp bounds; the config keeps both for
    its runs, as ``_estimator`` and ``_bounds``, which are not fields."""

    estimator: str
    steps: int
    schedule: Schedule
    direction: str = "minimize"
    x0: float | tuple = 0.5  # scalar broadcasts over coordinates
    clamp: float = 1e-4
    seed: int = 0
    snapshot_every: int | None = None  # default: max(1, steps // 1000)

    def __post_init__(self):
        _check_kinds(self, {"estimator": str, "steps": 1, "schedule": Schedule, "direction": str,
                            "x0": tuple, "clamp": float, "seed": 0, "snapshot_every": 1})
        if self.direction not in ("minimize", "maximize"):
            raise ConfigError(f"unknown direction {self.direction!r}")
        if not 0.0 < self.clamp < 0.5:
            raise ConfigError("clamp must lie in (0, 1/2)")
        x0 = np.asarray(self.x0, dtype=float)
        if not np.all((x0 > 0.0) & (x0 < 1.0)):
            raise DomainError("x0 must lie strictly inside (0, 1)^d")
        object.__setattr__(self, "_estimator", make_estimator(self.estimator))
        object.__setattr__(self, "_bounds", self._estimator.state_bounds(self.clamp))


@dataclass
class Trajectory:
    """Per-query record of one descent run.

    ``raw`` holds the oracle response of every call, in call order, two
    per step for two-call estimators; ``calls`` (1, 2, ...) and ``best``
    (the running max or min in the run's direction) are derived from it.
    The trials of one lockstep group hold rows of the group's arrays.
    Snapshots hold decoded probability vectors at step 0 and every
    snapshot stride.  ``queries_per_sample`` is the estimator's; a run
    whose budget is not a multiple of it ends short of the budget by
    less than one sample.
    """

    estimator: str
    direction: str
    raw: np.ndarray
    snapshot_steps: np.ndarray
    snapshots: np.ndarray
    final_x: np.ndarray
    seed: int = 0
    queries_per_sample: int = 1

    @property
    def calls(self) -> np.ndarray:
        return np.arange(1, self.raw.shape[0] + 1, dtype=np.int64)

    @property
    def best(self) -> np.ndarray:
        running = np.maximum if self.direction == "maximize" else np.minimum
        return running.accumulate(self.raw)


def _run_group(group: tuple[DescentConfig, list[int]], oracles: list[Oracle]) -> list[Trajectory]:
    """Run one trial per seed of ``group = (config, seeds)`` in lockstep.

    Every setting, the estimator and its clamp bounds included, comes
    from the one config, built when it was checked; trial i draws its
    noise from ``derive_rng(seeds[i])`` and queries ``oracles[i]``.  Each
    trial consumes only its own stream, so the trajectories are
    identical to running the trials one at a time.

    The initial state is encoded, clamped and checked against the
    oracles' dimension once, and tiled to every trial.  The clamp bounds
    keep every later state in the estimator's domain, so the step loop
    trusts them, apart from one finiteness check of the states after
    each update.

    Noise lives in one (noise_law.draws, m, d) buffer.  Each step fills
    trial i's row ``buffer[:, i]`` from that trial's generator, one
    ``draw_noise`` call per trial, and then maps the whole buffer to
    noise with one ``noise_law.from_draws`` call; row by row this is
    the noise a lone ``draw_noise(rng, d)`` returns.

    Each step evaluates every trial with one oracle query: the shared
    oracle when all trials have it, else the trials' own instances
    stacked into one ``_TrialOracles``, built here once, which answers
    row block i with trial i's instance and counts it there.  A stack
    of shipped oracles is one lookup in their value tables, joined end
    to end once per group; an oracle class with its own ``_values`` is
    asked block by block.

    The map of the states through the estimator's ``_at_state`` is
    kept between steps and handed to ``evaluate``.  It is built once,
    from the initial states; before each later step only the entries
    whose float64 bits changed, compared as int64 so that a sign flip of
    zero counts, are mapped again and written back, and a step where
    none changed maps nothing.  Each map entry depends on its own state
    entry alone, so the kept map has the bits of mapping every state
    afresh, and a mapping error, such as a vanishing encoding density,
    is raised at the same step.  A method whose map is the states
    themselves keeps no map.

    Every sample costs ``queries_per_sample`` oracle calls.  The counters
    of the distinct oracles are read before and after the loop, and a
    group whose oracles moved by anything else raises ``DomainError``;
    a group must have its oracles to itself while it runs.  So does a
    non-finite oracle value, found in the responses after the loop.
    """
    config, seeds = group
    if len(oracles) != len(seeds):
        raise ConfigError(f"need one oracle per trial: {len(seeds)} seeds, {len(oracles)} oracles")

    est, (lo, hi) = config._estimator, config._bounds
    d = oracles[0].d
    if any(o.d != d for o in oracles):
        raise ConfigError("grouped oracles must share one dimension")
    if all(o is oracles[0] for o in oracles):
        oracle = oracles[0]
    else:
        oracle = _TrialOracles(oracles)

    m = len(seeds)
    steps = config.steps
    qps = est.queries_per_sample
    stride = config.snapshot_every or max(1, steps // 1000)
    sign = 1.0 if config.direction == "maximize" else -1.0

    x0 = np.asarray(config.x0, dtype=float)
    if x0.ndim and x0.shape != (d,):
        raise DimensionMismatchError(f"x0 has shape {x0.shape} but the oracle has dimension {d}")
    x0 = np.broadcast_to(x0, (d,)).astype(float)
    states = np.tile(np.clip(est.encode(x0), lo, hi), (m, 1))
    mapped, at = states, est._at_state(states)
    rngs = [derive_rng(seed) for seed in seeds]

    raw = np.empty((m, steps * qps))
    draws = np.empty((est.noise_law.draws, m, d))
    rows = [draws[:, i] for i in range(m)]
    snap_steps = np.arange(0, steps + 1, stride, dtype=np.int64)
    snaps = np.empty((m, snap_steps.shape[0], d))  # (trial, snapshot, coordinate)
    snaps[:, 0] = est.decode(states)
    distinct = list({id(o): o for o in oracles}.values())
    calls_before = sum(o.call_count for o in distinct)

    for t in range(1, steps + 1):
        eta = config.schedule.rate(t)
        for rng, row in zip(rngs, rows):
            est.draw_noise(rng, d, draws=row)
        noise = est.noise_law.from_draws(draws)
        if at is mapped:  # an identity map follows the states
            at = states
        else:
            moved = states.view(np.int64) != mapped.view(np.int64)
            if moved.any():
                for kept, fresh in zip(at, est._at_state(states[moved])):
                    kept[moved] = fresh
        mapped = states
        batch = est.evaluate(states, noise, oracle, at=at)
        states = np.minimum(np.maximum(states + sign * eta * batch.grads, lo), hi)
        if not np.isfinite(states).all():
            why = ("the oracle answered a non-finite value" if not np.isfinite(batch.raw).all()
                   else "check the oracle values and the step size")
            raise DomainError(f"{est.spec}: non-finite state at step {t}; {why}")
        raw[:, (t - 1) * qps : t * qps] = batch.raw
        if t % stride == 0:
            snaps[:, t // stride] = est.decode(states)

    made = sum(o.call_count for o in distinct) - calls_before
    if made != m * steps * qps:
        raise DomainError(
            f"{est.spec}: the oracles counted {made} calls, but {m} trials x "
            f"{steps} steps x {qps} queries per sample is {m * steps * qps}"
        )
    bad = np.argwhere(~np.isfinite(raw.T))  # (call, trial) pairs, first call first
    if bad.size:
        raise DomainError(f"{est.spec}: non-finite oracle value at step {bad[0, 0] // qps + 1} "
                          f"of trial {bad[0, 1]}; oracle values must be finite")

    final = np.array(est.decode(states))
    return [
        Trajectory(
            estimator=est.spec,
            direction=config.direction,
            raw=raw[i],
            snapshot_steps=snap_steps,
            snapshots=snaps[i],
            final_x=final[i],
            seed=seed,
            queries_per_sample=qps,
        )
        for i, seed in enumerate(seeds)
    ]


def descend(config: DescentConfig, oracle: Oracle) -> tuple[Trajectory, np.ndarray]:
    """One descent run; returns (trajectory, final x).

    The update runs in the estimator's state space, the encoding domain
    for ``encoded_esg``; snapshots and the final x are decoded.
    """
    traj = _run_group((config, [config.seed]), [oracle])[0]
    return traj, traj.final_x


def run_repeated(
    config: DescentConfig,
    problem: ProblemSpec,
    n_trials: int,
    base_seed: int,
) -> list[Trajectory]:
    """Independent trials with derived seeds; trial i uses
    seed = derive_seed(base_seed, i), and randomized problem families
    get a fresh instance per trial from the matching derivation."""
    n = _count("n_trials", n_trials, 1, ConfigError)
    _count("base_seed", base_seed, 0, ConfigError)
    seeds = [derive_seed(base_seed, i) for i in range(n)]
    keys = [(base_seed, i, 1) for i in range(n)]
    return _run_group((config, seeds), _trial_oracles(problem, keys))


def _trial_oracles(problem: ProblemSpec, keys: list[tuple]) -> list[Oracle]:
    """One oracle per trial: a fresh instance from ``derive_rng(*key)``
    for a randomized family, else one instance, from the first key,
    shared by every trial."""
    if problem.randomized:
        return [problem.make(derive_rng(*key)) for key in keys]
    return [problem.make(derive_rng(*keys[0]))] * len(keys)
