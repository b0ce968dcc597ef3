"""Stochastic gradient estimators for multilinear extensions.

All estimators target the same object: for an oracle Q on {0,1}^d and
x in (0,1)^d, the value v(x) = E[Q(Y)] under independent Bernoulli(x_i)
coordinates, and its gradient.  They differ in how many oracle calls a
sample costs and in what they are unbiased for.

``esg`` spends exactly one oracle call.  With a calibrated tuple
(f, sigma, sigma_hat) it perturbs the encoded point e = sigma_hat^{-1}(x)
by per-coordinate noise eps ~ sigma, thresholds z = e + eps at zero to
get the key k, and weights the single oracle response:

    V   = Q(k) prod_i f(|z_i|),
    G_i = Q(k) * s_i f'(|z_i|) / sigma_hat'(e_i) * prod_{j != i} f(|z_j|),

where s_i is the sign of z_i.  Calibration makes E[V] = v(x) and
E[G] = grad v(x).  The encoded variant differentiates with respect to e
instead (drop the 1/sigma_hat' factor), so its mean is
diag(sigma_hat'(e)) grad v(x).

``naive`` thresholds the same way but reports Q(k) with a zero
gradient; ``reinforce`` is the one-call score-function estimator; and
``arm`` / ``disarm`` are the antithetic two-call score estimators in
logit space, mapped back to x by the chain rule.  The score estimators
carry no value estimate; the sample's value field is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import SymmetricDistribution, UniformInterval
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EncodingError,
    TupleError,
)
from .oracles import Oracle
from .tuples import GoodTuple, get_tuple

__all__ = [
    "EstimatorSample",
    "SampleBatch",
    "MomentSummary",
    "Estimator",
    "esg",
    "esg_given_noise",
    "encoded_esg",
    "encoded_esg_given_noise",
    "naive_value",
    "reinforce",
    "arm",
    "disarm",
    "make_estimator",
    "estimate_mean_and_variance",
]


@dataclass(frozen=True)
class EstimatorSample:
    """One realisation of an estimator.

    ``key`` is the queried vertex, a bool array of shape (d,), or the
    pair of vertices, shape (2, d), for the two-call estimators.
    ``value`` is an unbiased estimate of v(x) when the estimator
    provides one and NaN otherwise.  ``raw`` holds the oracle outputs
    at the queried keys in query order, which is what descent loops
    track as the objective.
    """

    key: np.ndarray
    value: float
    gradient: np.ndarray
    queries: int
    raw: np.ndarray


@dataclass(frozen=True)
class SampleBatch:
    """A vectorised block of independent realisations."""

    keys: np.ndarray  # bool, (n, d) or (n, 2, d)
    values: np.ndarray  # (n,), NaN where no value estimate exists
    grads: np.ndarray  # (n, d)
    raw: np.ndarray  # (n, queries_per_sample)
    queries: int


def _leave_one_out(factors: np.ndarray) -> np.ndarray:
    """Row-wise products of all entries but one, via exclusive scans."""
    pre = np.ones_like(factors)
    suf = np.ones_like(factors)
    np.cumprod(factors[:, :-1], axis=1, out=pre[:, 1:])
    np.cumprod(factors[:, :0:-1], axis=1, out=suf[:, -2::-1])
    return pre * suf


def _query_rows(keys: np.ndarray, oracles) -> np.ndarray:
    """Oracle responses for (m, d) or (m, q, d) keys.

    ``oracles`` is either one shared oracle (queried in a single batch)
    or a sequence with one oracle per row.
    """
    flat = keys.reshape(-1, keys.shape[-1])
    per_row = flat.shape[0] // keys.shape[0]
    if isinstance(oracles, Oracle):
        out = oracles.query_batch(flat)
    else:
        if len(oracles) != keys.shape[0]:
            raise DimensionMismatchError("need one oracle per state row")
        out = np.concatenate(
            [
                oracle.query_batch(flat[i * per_row : (i + 1) * per_row])
                for i, oracle in enumerate(oracles)
            ]
        )
    return out.reshape(keys.shape[0], per_row)


class Estimator:
    """Shared skeleton: noise drawing, state handling, sampling API.

    States are probability vectors for every estimator except the
    encoded one, whose states live in the encoding domain.  ``encode``
    and ``decode`` translate between the two; descent loops use them to
    run the same update rule in either space.

    States are checked where they enter: ``_checked_point`` for the
    sampling entries, ``state_bounds`` for descent, whose clamp keeps
    every state inside those bounds.  ``evaluate`` is the trusted kernel
    behind both and checks nothing but what guards its own arithmetic.
    """

    spec: str
    queries_per_sample: int
    provides_value: bool
    encoded: bool = False

    # ---------- state space ----------

    def encode(self, x):
        return np.asarray(x, dtype=float)

    def decode(self, state):
        return np.asarray(state, dtype=float)

    def state_bounds(self, delta: float) -> tuple[float, float]:
        """Clamp bounds of the state; both lie inside the state domain."""
        if not 0.0 < delta < 0.5 or not 1.0 - delta < 1.0:
            raise DomainError(
                "clamp width must lie in (0, 1/2), with 1 - width below 1"
            )
        return (delta, 1.0 - delta)

    def _check_domain(self, states: np.ndarray) -> None:
        if not np.all((states > 0.0) & (states < 1.0)):
            raise DomainError("probabilities must lie strictly inside (0, 1)")

    # ---------- noise ----------

    #: Law of the perturbation noise eps (the threshold estimators).
    noise_law: SymmetricDistribution

    @property
    def noise_draws(self) -> int:
        """Generator planes per noise entry; see ``draw_noise``."""
        return self.noise_law.draws

    def draw_noise(
        self, rng: np.random.Generator, d: int, *, draws: np.ndarray | None = None
    ) -> np.ndarray | None:
        """One realisation's noise, shape (d,).

        Given ``draws``, a (noise_draws, d) buffer, write the generator
        output there instead and return nothing; ``noise_from`` maps a
        buffer of such rows to noise in one pass, with the same bits.
        """
        if draws is None:
            return self.noise_law.sample(rng, d)
        self.noise_law.draw(rng, draws)
        return None

    def noise_from(self, draws: np.ndarray) -> np.ndarray:
        """Noise from a (noise_draws, ...) buffer filled by ``draw_noise``."""
        return self.noise_law.from_draws(draws)

    def draw_noise_batch(self, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
        return self.noise_law.sample(rng, (n, d))

    def evaluate(self, states: np.ndarray, noise: np.ndarray, oracles) -> SampleBatch:
        """Evaluate one realisation per state row at the given noise.

        ``states`` and ``noise`` are (m, d) float arrays and every state
        lies in the estimator's domain; callers have checked that.
        """
        raise NotImplementedError

    # ---------- sampling ----------

    def _checked_point(self, x, oracle: Oracle) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise DomainError("expected a 1-D state vector")
        if x.shape[0] != oracle.d:
            raise DimensionMismatchError(
                f"state has length {x.shape[0]} but the oracle has dimension {oracle.d}"
            )
        self._check_domain(x)
        return x

    def sample(self, x, oracle: Oracle, rng: np.random.Generator) -> EstimatorSample:
        x = self._checked_point(x, oracle)
        noise = self.draw_noise(rng, x.shape[0])
        batch = self.evaluate(x[None, :], noise[None, :], [oracle])
        return EstimatorSample(
            key=batch.keys[0],
            value=float(batch.values[0]),
            gradient=batch.grads[0],
            queries=batch.queries,
            raw=batch.raw[0],
        )

    def sample_batch(
        self, x, oracle: Oracle, rng: np.random.Generator, n: int
    ) -> SampleBatch:
        """n independent realisations at a fixed state, vectorised."""
        x = self._checked_point(x, oracle)
        if int(n) < 1:
            raise DomainError("n must be at least 1")
        states = np.broadcast_to(x, (int(n), x.shape[0]))
        noise = self.draw_noise_batch(rng, int(n), x.shape[0])
        return self.evaluate(states, noise, oracle)


class _EsgEstimator(Estimator):
    provides_value = True
    queries_per_sample = 1

    def __init__(self, tup: GoodTuple):
        self.tup = tup
        self.noise_law = tup.sigma
        self.spec = f"esg:{tup.name}"

    def _encoded_states(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if states.base is not None and states.strides[0] == 0:
            # Broadcast rows share one x: invert once, not once per row.
            e_row = np.atleast_1d(self.tup.sigma_hat.inv_cdf(states[0]))
            dens_row = np.atleast_1d(self.tup.sigma_hat.density(e_row))
            shape = states.shape
            return np.broadcast_to(e_row, shape), np.broadcast_to(dens_row, shape)
        e = np.atleast_2d(self.tup.sigma_hat.inv_cdf(states))
        return e, np.atleast_2d(self.tup.sigma_hat.density(e))

    def evaluate(self, states, noise, oracles):
        e, dens = self._encoded_states(states)
        # The gradient weight divides by the density; a tabulated or
        # flat encoding can make it vanish even at a valid state.
        if np.any(dens <= 0.0):
            raise TupleError(
                f"{self.tup.name}: encoding density vanishes at the requested point"
            )
        return _esg_from_encoded(self.tup, e, noise, oracles, dens=dens)


class _EncodedEsgEstimator(Estimator):
    provides_value = True
    queries_per_sample = 1
    encoded = True

    def __init__(self, tup: GoodTuple):
        self.tup = tup
        self.noise_law = tup.sigma
        self.spec = f"encoded_esg:{tup.name}"

    def encode(self, x):
        x = np.asarray(x, dtype=float)
        return np.asarray(self.tup.sigma_hat.inv_cdf(x), dtype=float)

    def decode(self, state):
        state = np.asarray(state, dtype=float)
        return np.asarray(self.tup.sigma_hat.cdf(state), dtype=float)

    def state_bounds(self, delta):
        lo, hi = super().state_bounds(delta)
        bounds = (
            float(self.tup.sigma_hat.inv_cdf(lo)),
            float(self.tup.sigma_hat.inv_cdf(hi)),
        )
        self._check_domain(np.array(bounds))
        return bounds

    def _check_domain(self, states: np.ndarray) -> None:
        lo, hi = self.tup.sigma_hat.support
        if not np.all((states > lo) & (states < hi)):
            raise EncodingError(
                "encoded states must lie in the interior of the encoding support"
            )

    def evaluate(self, states, noise, oracles):
        return _esg_from_encoded(self.tup, states, noise, oracles, dens=None)


def _esg_from_encoded(
    tup: GoodTuple, e: np.ndarray, eps: np.ndarray, oracles, dens
) -> SampleBatch:
    z = e + eps
    keys = z >= 0.0
    az = np.abs(z)
    fv = np.asarray(tup.f(az))
    fp = np.asarray(tup.f_prime(az))
    loo = _leave_one_out(fv)
    raw = _query_rows(keys, oracles)
    q = raw[:, 0]
    values = q * fv[:, 0] * loo[:, 0]
    gweight = np.sign(z) * fp * loo
    if dens is not None:
        gweight = gweight / dens
    grads = q[:, None] * gweight
    return SampleBatch(
        keys=keys, values=values, grads=grads, raw=raw, queries=keys.shape[0]
    )


class _NaiveEstimator(Estimator):
    provides_value = True
    queries_per_sample = 1

    def __init__(self, dist: SymmetricDistribution):
        # The key thresholds inv_cdf(x) + eps with eps from the same law.
        self.noise_law = dist
        self.spec = "naive"

    def evaluate(self, states, noise, oracles):
        if states.base is not None and states.strides[0] == 0:
            e = np.broadcast_to(
                np.atleast_1d(self.noise_law.inv_cdf(states[0])), states.shape
            )
        else:
            e = np.atleast_2d(self.noise_law.inv_cdf(states))
        keys = e + noise >= 0.0
        raw = _query_rows(keys, oracles)
        return SampleBatch(
            keys=keys,
            values=raw[:, 0],
            grads=np.zeros(keys.shape),
            raw=raw,
            queries=keys.shape[0],
        )


class _ScoreEstimator(Estimator):
    """Common ground for the uniform-noise score-function estimators."""

    provides_value = False
    noise_draws = 1

    def draw_noise(self, rng, d, *, draws=None):
        if draws is None:
            return rng.random(d)
        rng.random(out=draws[0])
        return None

    def noise_from(self, draws):
        return draws[0]

    def draw_noise_batch(self, rng, n, d):
        return rng.random((n, d))

    @staticmethod
    def _nan_values(n: int) -> np.ndarray:
        return np.full(n, math.nan)


class _ReinforceEstimator(_ScoreEstimator):
    queries_per_sample = 1
    spec = "reinforce"

    def evaluate(self, x, noise, oracles):
        keys = noise < x
        raw = _query_rows(keys, oracles)
        q = raw[:, 0]
        score = keys / x - (1.0 - keys) / (1.0 - x)
        return SampleBatch(
            keys=keys,
            values=self._nan_values(keys.shape[0]),
            grads=q[:, None] * score,
            raw=raw,
            queries=keys.shape[0],
        )


class _PairedScoreEstimator(_ScoreEstimator):
    """Antithetic pair construction shared by arm and disarm."""

    queries_per_sample = 2

    @staticmethod
    def _pair(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.stack([u > 1.0 - x, u < x], axis=1)  # (m, 2, d), bool


class _ArmEstimator(_PairedScoreEstimator):
    spec = "arm"

    def evaluate(self, x, noise, oracles):
        keys = self._pair(x, noise)
        raw = _query_rows(keys, oracles)
        # Logit-space gradient, then the chain rule d logit / dx = 1/(x(1-x)).
        g_logit = (raw[:, 0] - raw[:, 1])[:, None] * (noise - 0.5)
        grads = g_logit / (x * (1.0 - x))
        return SampleBatch(
            keys=keys,
            values=self._nan_values(x.shape[0]),
            grads=grads,
            raw=raw,
            queries=2 * x.shape[0],
        )


class _DisarmEstimator(_PairedScoreEstimator):
    spec = "disarm"

    def evaluate(self, x, noise, oracles):
        keys = self._pair(x, noise)
        raw = _query_rows(keys, oracles)
        y1, y2 = keys[:, 0, :], keys[:, 1, :]
        # sigmoid(|logit(x)|) simplifies to max(x, 1-x).
        g_logit = (
            0.5
            * (raw[:, 0] - raw[:, 1])[:, None]
            * np.where(y2, -1.0, 1.0)
            * (y1 != y2)
            * np.maximum(x, 1.0 - x)
        )
        grads = g_logit / (x * (1.0 - x))
        return SampleBatch(
            keys=keys,
            values=self._nan_values(x.shape[0]),
            grads=grads,
            raw=raw,
            queries=2 * x.shape[0],
        )


# ---------- functional surface ----------


def _resolve_tuple(tup: GoodTuple | str) -> GoodTuple:
    return get_tuple(tup) if isinstance(tup, str) else tup


def esg(
    x, tup: GoodTuple | str, oracle: Oracle, rng: np.random.Generator
) -> EstimatorSample:
    """One single-query estimate of (v(x), grad v(x))."""
    return _EsgEstimator(_resolve_tuple(tup)).sample(x, oracle, rng)


def esg_given_noise(x, tup: GoodTuple | str, oracle: Oracle, eps) -> EstimatorSample:
    """The estimator at a fixed noise realisation (it is pathwise
    differentiable in x, which finite-difference checks rely on)."""
    est = _EsgEstimator(_resolve_tuple(tup))
    x = est._checked_point(x, oracle)
    eps = np.asarray(eps, dtype=float)
    if eps.shape != x.shape:
        raise DimensionMismatchError("noise must have the same shape as x")
    batch = est.evaluate(x[None, :], eps[None, :], [oracle])
    return EstimatorSample(
        key=batch.keys[0],
        value=float(batch.values[0]),
        gradient=batch.grads[0],
        queries=batch.queries,
        raw=batch.raw[0],
    )


def encoded_esg(
    e, tup: GoodTuple | str, oracle: Oracle, rng: np.random.Generator
) -> EstimatorSample:
    """Single-query estimate of the encoded-space gradient at e."""
    return _EncodedEsgEstimator(_resolve_tuple(tup)).sample(e, oracle, rng)


def encoded_esg_given_noise(
    e, tup: GoodTuple | str, oracle: Oracle, eps
) -> EstimatorSample:
    est = _EncodedEsgEstimator(_resolve_tuple(tup))
    e = est._checked_point(e, oracle)
    eps = np.asarray(eps, dtype=float)
    if eps.shape != e.shape:
        raise DimensionMismatchError("noise must have the same shape as e")
    batch = est.evaluate(e[None, :], eps[None, :], [oracle])
    return EstimatorSample(
        key=batch.keys[0],
        value=float(batch.values[0]),
        gradient=batch.grads[0],
        queries=batch.queries,
        raw=batch.raw[0],
    )


def naive_value(
    x, dist: SymmetricDistribution, oracle: Oracle, rng: np.random.Generator
) -> EstimatorSample:
    """Threshold a calibrated key and report Q(key); gradient is zero."""
    return _NaiveEstimator(dist).sample(x, oracle, rng)


def reinforce(x, oracle: Oracle, rng: np.random.Generator) -> EstimatorSample:
    """One-call score-function gradient estimate (no value estimate)."""
    return _ReinforceEstimator().sample(x, oracle, rng)


def arm(x, oracle: Oracle, rng: np.random.Generator) -> EstimatorSample:
    """Antithetic two-call logit-space score estimate, mapped to x."""
    return _ArmEstimator().sample(x, oracle, rng)


def disarm(x, oracle: Oracle, rng: np.random.Generator) -> EstimatorSample:
    """Rao-Blackwellised variant of arm; also two calls per sample."""
    return _DisarmEstimator().sample(x, oracle, rng)


def make_estimator(spec: str) -> Estimator:
    """Build an estimator from its config name.

    Known names: ``esg:<tuple>``, ``encoded_esg:<tuple>``, ``naive``
    (thresholded uniform noise on [-1/2, 1/2]), ``reinforce``, ``arm``,
    ``disarm``.
    """
    text = str(spec).strip().lower()
    head, _, tail = text.partition(":")
    if head == "esg" and tail:
        return _EsgEstimator(get_tuple(tail))
    if head == "encoded_esg" and tail:
        return _EncodedEsgEstimator(get_tuple(tail))
    if text == "naive":
        return _NaiveEstimator(UniformInterval(0.5))
    if text == "reinforce":
        return _ReinforceEstimator()
    if text == "arm":
        return _ArmEstimator()
    if text == "disarm":
        return _DisarmEstimator()
    raise ConfigError(f"unknown estimator {spec!r}")


# ---------- moment estimation ----------


@dataclass(frozen=True)
class MomentSummary:
    """Streaming mean/variance summary of repeated estimator draws."""

    spec: str
    n_samples: int
    mean_gradient: np.ndarray
    gradient_variance: np.ndarray  # per coordinate, ddof = 1
    gradient_std_err: np.ndarray
    mean_value: float  # NaN when the estimator has no value estimate
    value_variance: float
    value_std_err: float
    queries: int


class _RunningMoments:
    """Single-pass mean and M2 with the parallel (chunk-merge) update."""

    def __init__(self, shape):
        self.n = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def update(self, block: np.ndarray) -> None:
        m = block.shape[0]
        b_mean = block.mean(axis=0)
        b_m2 = ((block - b_mean) ** 2).sum(axis=0)
        if self.n == 0:
            self.n, self.mean, self.m2 = m, b_mean, b_m2
            return
        total = self.n + m
        delta = b_mean - self.mean
        self.mean = self.mean + delta * (m / total)
        self.m2 = self.m2 + b_m2 + delta**2 * (self.n * m / total)
        self.n = total

    def variance(self):
        if self.n < 2:
            return np.full_like(np.asarray(self.mean, dtype=float), math.nan)
        return self.m2 / (self.n - 1)


def estimate_mean_and_variance(
    estimator: Estimator | str,
    x,
    oracle: Oracle,
    n_samples: int,
    rng: np.random.Generator,
    *,
    chunk_size: int = 1 << 16,
) -> MomentSummary:
    """Mean, variance and standard error of an estimator at x.

    ``x`` is always a probability vector; the encoded estimator is
    evaluated at e = encode(x) and its summary describes the
    encoded-space gradient.  Accumulation is a numerically stable
    single pass over vectorised chunks.
    """
    if isinstance(estimator, str):
        estimator = make_estimator(estimator)
    if int(n_samples) < 1:
        raise DomainError("n_samples must be at least 1")
    x = np.asarray(x, dtype=float)
    state = estimator.encode(x)

    d = x.shape[0] if x.ndim == 1 else 0
    grad_stats = _RunningMoments(d)
    value_stats = _RunningMoments(())
    queries = 0
    remaining = int(n_samples)
    while remaining > 0:
        m = min(remaining, int(chunk_size))
        batch = estimator.sample_batch(state, oracle, rng, m)
        grad_stats.update(batch.grads)
        if estimator.provides_value:
            value_stats.update(batch.values)
        queries += batch.queries
        remaining -= m

    n = grad_stats.n
    g_var = grad_stats.variance()
    if estimator.provides_value:
        v_mean = float(value_stats.mean)
        v_var = float(value_stats.variance())
    else:
        v_mean = math.nan
        v_var = math.nan
    return MomentSummary(
        spec=estimator.spec,
        n_samples=n,
        mean_gradient=np.asarray(grad_stats.mean, dtype=float),
        gradient_variance=np.asarray(g_var, dtype=float),
        gradient_std_err=np.sqrt(np.maximum(np.asarray(g_var, dtype=float), 0.0) / n),
        mean_value=v_mean,
        value_variance=v_var,
        value_std_err=math.sqrt(max(v_var, 0.0) / n) if not math.isnan(v_var) else math.nan,
        queries=queries,
    )
