"""Stochastic gradient estimators for multilinear extensions.

All estimators target the same object: for an oracle Q on {0,1}^d and
x in (0,1)^d, the value v(x) = E[Q(Y)] under independent Bernoulli(x_i)
coordinates, and its gradient.  They differ in how many oracle calls a
sample costs and in what they are unbiased for.

The single-query estimators share one shape.  Each coordinate j gets a
key bit k_j, a weight w_j and a gradient weight w'_j from its state and
its noise, and one oracle call at the key gives

    V   = Q(k) prod_j w_j,
    G_i = Q(k) w'_i prod_{j != i} w_j.

They differ only in that per-coordinate map:

* ``esg:<tuple>``, the paper's estimator.  With a calibrated tuple
  (f, sigma, sigma_hat) it perturbs the encoded point
  e = sigma_hat^{-1}(x) by noise eps ~ sigma and thresholds
  z = e + eps at zero: k = [z >= 0], w = f(|z|) and
  w' = s f'(|z|) / sigma_hat'(e), where s is the sign of z.
  Calibration makes E[V] = v(x) and E[G] = grad v(x).
* ``encoded_esg:<tuple>``: the same map without the 1/sigma_hat'
  factor.  It differentiates with respect to e, so its mean is
  diag(sigma_hat'(e)) grad v(x).
* ``naive``: the same threshold with eps uniform on [-1/2, 1/2], w = 1
  and w' = 0.  It reports Q(k) and a zero gradient.
* ``reinforce``, the one-call score-function estimator (Williams 1992):
  k = [u < x] for u uniform on [0, 1), w = 1 and
  w' = k/x - (1 - k)/(1 - x).

``reinforce`` reports NaN as its value.  Its Q(k) would be an unbiased
value estimate, the naive one with Bernoulli keys, but the baseline is
kept as published, a gradient estimator, so ``estimate`` reports no
value for it; ``naive`` is the value baseline.

``arm`` / ``disarm`` are the antithetic two-call score estimators in
logit space, mapped back to x by the chain rule.  The score estimators
carry no value estimate; the sample's value field is NaN.

Each method is one class, and ``make_estimator(spec)`` builds any of
them.  ``sample`` draws one realisation, ``sample_batch`` n of them at
one state, and ``at_noise`` evaluates one at given noise: at fixed
noise the threshold estimators are pathwise differentiable in the
state, which finite-difference checks rely on.  All of them, and
descent, run one row kernel: through ``Estimator.evaluate``, or in
``sample_batch``'s row blocks, each of which draws its own noise in
stream order.  An estimator keeps no per-call state, so one instance
serves any number of threads.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .distributions import SymmetricDistribution, UniformInterval
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EncodingError,
    TupleError,
    _count,
)
from .oracles import Oracle
from .tuples import GoodTuple, get_tuple

__all__ = [
    "EstimatorSample",
    "SampleBatch",
    "MomentSummary",
    "Estimator",
    "make_estimator",
    "estimate_mean_and_variance",
]

ENV_MAX_WORKERS = "SQGRAD_MAX_WORKERS"

#: Entries (rows x d) per row block of a ``sample_batch`` call.  Each
#: block draws its rows of noise, maps them and runs the kernel on them,
#: so blocks bound everything beyond the outputs (and a law's leading
#: planes); they are also what the threads share out.
_BLOCK_ENTRIES = 1 << 16


def _worker_cap() -> int:
    """Workers for experiment processes and estimate threads: the
    ``SQGRAD_MAX_WORKERS`` environment variable, else the CPUs this
    process may run on."""
    raw = os.environ.get(ENV_MAX_WORKERS, "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{ENV_MAX_WORKERS} must be an integer") from exc
        if cap < 1:
            raise ConfigError(f"{ENV_MAX_WORKERS} must be at least 1")
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    pre = np.empty_like(factors)
    suf = np.empty_like(factors)
    pre[:, 0] = suf[:, -1] = 1.0
    np.multiply.accumulate(factors[:, :-1], axis=1, out=pre[:, 1:])
    np.multiply.accumulate(factors[:, :0:-1], axis=1, out=suf[:, -2::-1])
    pre *= suf
    return pre


def _query_rows(keys: np.ndarray, oracle: Oracle) -> np.ndarray:
    """Oracle responses for (m, d) or (m, q, d) keys, one batch call;
    row i's q keys are the i-th block of the trial-major batch.  They
    enter the kernel as float64, whatever dtype ``_values`` returns."""
    flat = keys.reshape(-1, keys.shape[-1])
    return np.asarray(oracle.query_batch(flat), dtype=float).reshape(keys.shape[0], -1)


class _UnitUniform:
    """Uniform noise on [0, 1), the score estimators' u; it has the
    sampling half of ``SymmetricDistribution``'s interface."""

    draws = 1

    def draw(self, rng: np.random.Generator, out: np.ndarray, first: int = 0) -> None:
        rng.random(out=out[0])

    def from_draws(self, raw) -> np.ndarray:
        return raw[0]

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.random(size)


class Estimator:
    """Shared skeleton: noise drawing, state handling, sampling API.

    States are probability vectors for every estimator except the
    encoded one, whose states live in the domain of its ``encoding``.
    ``encode`` and ``decode`` translate between the two; descent loops
    use them to run the same update rule in either space.

    States are checked where they enter: ``_checked_point`` for the
    sampling entries, ``state_bounds`` for descent, whose clamp keeps
    every state inside those bounds.  ``evaluate`` is the trusted kernel
    behind both and checks nothing but what guards its own arithmetic.
    """

    spec: str
    queries_per_sample: int
    provides_value: bool
    #: The tuple (f, sigma, sigma_hat) of a tuple method, else None.
    tup: GoodTuple | None = None
    #: The encoding sigma_hat when states live in its domain, else None.
    encoding: SymmetricDistribution | None = None

    # ---------- state space ----------

    @property
    def encoded(self) -> bool:
        return self.encoding is not None

    def encode(self, x):
        x = np.asarray(x, dtype=float)
        if self.encoding is None:
            return x
        return np.asarray(self.encoding.inv_cdf(x), dtype=float)

    def decode(self, state):
        state = np.asarray(state, dtype=float)
        if self.encoding is None:
            return state
        return np.asarray(self.encoding.cdf(state), dtype=float)

    def state_bounds(self, delta: float) -> tuple[float, float]:
        """Clamp bounds of the state; both lie inside the state domain."""
        if not 0.0 < delta < 0.5 or not 1.0 - delta < 1.0:
            raise DomainError(
                "clamp width must lie in (0, 1/2), with 1 - width below 1"
            )
        if self.encoding is None:
            return (delta, 1.0 - delta)
        bounds = (
            float(self.encoding.inv_cdf(delta)),
            float(self.encoding.inv_cdf(1.0 - delta)),
        )
        self._check_domain(np.array(bounds))
        return bounds

    def _check_domain(self, states: np.ndarray) -> None:
        if self.encoding is None:
            if not np.all((states > 0.0) & (states < 1.0)):
                raise DomainError("probabilities must lie strictly inside (0, 1)")
            return
        lo, hi = self.encoding.support
        if not np.all((states > lo) & (states < hi)):
            raise EncodingError(
                "encoded states must lie in the interior of the encoding support"
            )

    # ---------- noise ----------

    #: Law of the noise: eps for the threshold estimators, u for the
    #: score estimators.
    noise_law: SymmetricDistribution | _UnitUniform

    def draw_noise(
        self, rng: np.random.Generator, d: int, *, draws: np.ndarray | None = None
    ) -> np.ndarray | None:
        """One realisation's noise, shape (d,).

        Given ``draws``, a (noise_law.draws, d) buffer, write the
        generator output there instead and return nothing;
        ``noise_law.from_draws`` maps a buffer of such rows to noise in
        one pass, with the same bits.
        """
        if draws is None:
            return self.noise_law.sample(rng, d)
        self.noise_law.draw(rng, draws)
        return None

    # ---------- kernel ----------

    def _at_state(self, states: np.ndarray):
        """What a method needs of the states alone: the states themselves,
        or a tuple of new arrays of their shape.  Each entry of each array
        depends on the same state entry alone, with the bits it gets when
        mapped by itself, so descent can keep the map and re-map only the
        entries that moved."""
        return states

    def _rows(self, at, noise: np.ndarray, oracle: Oracle) -> SampleBatch:
        """One realisation per noise row from ``_at_state``'s map."""
        raise NotImplementedError

    def evaluate(
        self, states: np.ndarray, noise: np.ndarray, oracle: Oracle, *, at=None
    ) -> SampleBatch:
        """Evaluate one realisation per state row at the given noise.

        ``states`` and ``noise`` are (m, d) float arrays and every state
        lies in the estimator's domain; callers have checked that.
        ``_at_state`` maps the states once.  A caller that keeps the map
        of the states passes it as ``at``, which must equal
        ``_at_state(states)`` bit for bit; descent does, and re-maps
        between steps only the entries that moved.  The rows run as one
        pass of ``_rows`` in this thread, one ``oracle`` batch; a
        lockstep group with per-trial instances passes them stacked,
        one block per row.  ``sample_batch`` runs its many rows in
        blocks of its own.
        """
        if at is None:
            at = self._at_state(states)
        return self._rows(at, noise, oracle)

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

    def at_noise(self, x, oracle: Oracle, noise) -> EstimatorSample:
        """The realisation at state ``x`` and the given noise, shape (d,)."""
        x = self._checked_point(x, oracle)
        noise = np.asarray(noise, dtype=float)
        if noise.shape != x.shape:
            raise DimensionMismatchError("noise must have the same shape as the state")
        batch = self.evaluate(x[None, :], noise[None, :], oracle)
        return EstimatorSample(
            key=batch.keys[0],
            value=float(batch.values[0]),
            gradient=batch.grads[0],
            queries=batch.queries,
            raw=batch.raw[0],
        )

    def sample(self, x, oracle: Oracle, rng: np.random.Generator) -> EstimatorSample:
        """One realisation at state ``x``: ``at_noise`` at drawn noise."""
        return self.at_noise(x, oracle, self.draw_noise(rng, oracle.d))

    def sample_batch(
        self, x, oracle: Oracle, rng: np.random.Generator, n: int
    ) -> SampleBatch:
        """n independent realisations at a fixed state, vectorised.

        In this thread, ``noise_law.draw`` draws the leading generator
        planes of all n rows, when the law has more than one (its
        stream holds them first), ``_at_state`` maps the state once, and
        the batch's arrays are allocated.  The rows then run in blocks
        of about ``_BLOCK_ENTRIES`` entries, on up to
        ``SQGRAD_MAX_WORKERS`` threads that end with this call.  The
        blocks take turns at ``rng`` in row order: each draws its rows
        of the last plane into a buffer of its own, then, while later
        blocks draw, maps its noise with ``noise_law.from_draws``, runs
        ``_rows`` and writes its rows into the batch.  The oracle
        answers one block at a time, under its own lock.  The stream is
        that of one ``draw`` of all n rows, and every step is
        elementwise or row-wise, so the bits are those of ``evaluate``
        on n rows at ``noise_law.sample(rng, (n, d))``'s noise, whatever
        the worker count.
        """
        x = self._checked_point(x, oracle)
        n = _count("n", n)
        d = x.shape[0]
        law = self.noise_law
        last = law.draws - 1
        lead = np.empty((last, n, d))
        if last:
            law.draw(rng, lead)
        at = self._at_state(x[None, :])
        q = self.queries_per_sample
        keys = np.empty((n, d) if q == 1 else (n, q, d), dtype=bool)
        out = SampleBatch(keys, np.empty(n), np.empty((n, d)), np.empty((n, q)), queries=n * q)
        n_blocks = -(-n * d // _BLOCK_ENTRIES)
        size = -(-n // n_blocks)
        blocks = [slice(i, min(i + size, n)) for i in range(0, n, size)]
        unclaimed = iter(blocks)
        turn = threading.Lock()

        def run(_) -> None:
            # Each call claims the next block and draws its rows in one
            # turn, so the blocks draw in row order on any thread.
            with turn:
                block = next(unclaimed)
                own = np.empty((1, block.stop - block.start, d))
                law.draw(rng, own, first=last)
            part = self._rows(at, law.from_draws([*lead[:, block], *own]), oracle)
            out.keys[block] = part.keys
            out.values[block] = part.values
            out.grads[block] = part.grads
            out.raw[block] = part.raw

        workers = min(_worker_cap(), len(blocks))
        # Imported here, so that processes which never start the pool,
        # such as experiment runs, do not load its module.
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers) if workers > 1 else None
        try:
            # Reading every result raises the first exception here.
            list(pool.map(run, blocks) if pool else map(run, blocks))
        finally:
            if pool:
                pool.shutdown(cancel_futures=True)
        return out


class _ProductEstimator(Estimator):
    """A single-query estimator in product form; see the module docstring.

    A subclass's ``_at_noise(at, noise)`` is the method's per-coordinate
    map.  It returns the (m, d) keys, the weights w, and the gradient
    weights w' as a numerator and a denominator, each (m, d) or
    broadcastable to it.  The denominator divides after the
    leave-one-out product, G_i = Q(k) (numerator_i prod_{j != i} w_j) /
    denominator_i: that is esg's order of operations, and the recorded
    outputs hold its bits.  ``None`` stands for w = 1, which skips the
    products (a product of ones is exactly 1), and for a denominator
    of 1.
    """

    queries_per_sample = 1
    provides_value = True

    def _rows(self, at, noise, oracle):
        keys, w, numer, denom = self._at_noise(at, noise)
        raw = _query_rows(keys, oracle)
        q = raw[:, 0]
        if w is None:
            values, gweight = q, numer
        else:
            loo = _leave_one_out(w)
            values, gweight = q * w[:, 0] * loo[:, 0], numer * loo
        if denom is not None:
            gweight = gweight / denom
        if not self.provides_value:
            values = np.full(keys.shape[0], math.nan)
        return SampleBatch(
            keys=keys,
            values=values,
            grads=q[:, None] * gweight,
            raw=raw,
            queries=keys.shape[0],
        )


class _Esg(_ProductEstimator):
    prefix = "esg"

    def __init__(self, tup: GoodTuple):
        self.spec = f"{self.prefix}:{tup.name}"
        self.tup = tup
        self.noise_law = tup.sigma

    def _at_state(self, x):
        sigma_hat = self.tup.sigma_hat
        e = np.asarray(sigma_hat.inv_cdf(x))
        dens = np.asarray(sigma_hat.density(e))
        # The gradient weight divides by the density; a tabulated or
        # flat encoding can make it vanish even at a valid state.
        if np.any(dens <= 0.0):
            raise TupleError(f"{self.tup.name}: encoding density vanishes at the requested point")
        return e, dens

    def _at_noise(self, at, eps):
        e, dens = at
        z = e + eps
        az = np.abs(z)
        w = np.asarray(self.tup.f(az))
        return z >= 0.0, w, np.sign(z) * np.asarray(self.tup.f_prime(az)), dens


class _EncodedEsg(_Esg):
    prefix = "encoded_esg"
    _at_state = Estimator._at_state

    @property
    def encoding(self) -> SymmetricDistribution:
        return self.tup.sigma_hat

    def _at_noise(self, e, eps):
        return super()._at_noise((e, None), eps)


class _Naive(_ProductEstimator):
    spec = "naive"
    noise_law = UniformInterval(0.5)

    def _at_state(self, x):
        return (np.asarray(self.noise_law.inv_cdf(x)),)

    def _at_noise(self, at, eps):
        (e,) = at
        keys = e + eps >= 0.0
        # One row of zeros; the kernel's Q * 0 broadcasts it over the rows.
        return keys, None, np.zeros((1, keys.shape[1])), None


class _Reinforce(_ProductEstimator):
    spec = "reinforce"
    noise_law = _UnitUniform()
    provides_value = False

    def _at_noise(self, x, u):
        keys = u < x
        return keys, None, keys / x - (1.0 - keys) / (1.0 - x), None


class _PairedScoreEstimator(Estimator):
    """Antithetic pair construction shared by arm and disarm.

    A subclass's ``_logit_grad(x, u, keys, diff)`` is the method's
    gradient in logit space, from the states, the uniforms, the
    (m, 2, d) key pair and the (m, 1) difference of the pair's oracle
    values; the chain rule d logit / dx = 1/(x(1-x)) maps it back to x.
    """

    provides_value = False
    queries_per_sample = 2
    noise_law = _UnitUniform()

    def _rows(self, x, noise, oracle):
        keys = np.stack([noise > 1.0 - x, noise < x], axis=1)  # (m, 2, d), bool
        raw = _query_rows(keys, oracle)
        diff = (raw[:, 0] - raw[:, 1])[:, None]
        return SampleBatch(
            keys=keys,
            values=np.full(keys.shape[0], math.nan),
            grads=self._logit_grad(x, noise, keys, diff) / (x * (1.0 - x)),
            raw=raw,
            queries=2 * keys.shape[0],
        )


class _Arm(_PairedScoreEstimator):
    spec = "arm"

    def _logit_grad(self, x, u, keys, diff):
        return diff * (u - 0.5)


class _Disarm(_PairedScoreEstimator):
    spec = "disarm"

    def _logit_grad(self, x, u, keys, diff):
        y1, y2 = keys[:, 0, :], keys[:, 1, :]
        # sigmoid(|logit(x)|) simplifies to max(x, 1-x).
        return 0.5 * diff * np.where(y2, -1.0, 1.0) * (y1 != y2) * np.maximum(x, 1.0 - x)


# ---------- construction ----------

#: The methods of a tuple, ``<prefix>:<tuple>``, and the methods without one.
_TUPLE_METHODS = {cls.prefix: cls for cls in (_Esg, _EncodedEsg)}
_METHODS = {cls.spec: cls for cls in (_Naive, _Reinforce, _Arm, _Disarm)}


def make_estimator(spec: str) -> Estimator:
    """Build an estimator from its config name.

    Known names: ``esg:<tuple>``, ``encoded_esg:<tuple>``, ``naive``
    (thresholded uniform noise on [-1/2, 1/2]), ``reinforce``, ``arm``,
    ``disarm``.
    """
    text = str(spec).strip().lower()
    head, _, tail = text.partition(":")
    if head in _TUPLE_METHODS and tail:
        return _TUPLE_METHODS[head](get_tuple(tail))
    if text in _METHODS:
        return _METHODS[text]()
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


def _column_sums(block: np.ndarray) -> np.ndarray:
    """``np.add.reduce(block, axis=0)``, bit for bit.

    On a C-contiguous (m, d) block with d >= 2 numpy's reduce adds the
    rows in row order, one d-entry inner loop per row; einsum makes the
    same row-order pass with far less overhead per row.  The two may
    keep different NaNs where NaNs meet, so a NaN sum is taken again
    by the reduce.  A 1-D block, a single column (both summed pairwise)
    and any other layout keep the reduce itself.
    """
    if block.ndim == 2 and block.shape[1] > 1 and block.flags.c_contiguous:
        sums = np.einsum("ij->j", block)
        if not np.isnan(sums).any():
            return sums
    return np.add.reduce(block, axis=0)


class _RunningMoments:
    """Single-pass mean and M2 with the parallel (chunk-merge) update."""

    def __init__(self, shape):
        self.n = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def update(self, block: np.ndarray) -> None:
        """Merge a chunk of samples along axis 0.  Its deviations are
        squared in place, over ``block``, so the pass allocates nothing
        of the chunk's size: a caller passes arrays it no longer needs.
        Both column sums, the mean's (divided by m, as ``mean`` does)
        and the squared deviations', are ``_column_sums``: row order
        for a (m, d) chunk with d >= 2, numpy's pairwise reduce for 1-D
        chunks and d = 1.  So the bits are those of ``block.mean`` and
        ``sum`` along axis 0."""
        m = block.shape[0]
        b_mean = _column_sums(block) / m
        dev = np.subtract(block, b_mean, out=block)
        np.square(dev, out=dev)
        b_m2 = _column_sums(dev)
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
    single pass over chunks of ``chunk_size`` samples, each one
    ``sample_batch`` call: its row blocks draw their noise in stream
    order and may run on threads, the moments square the chunk's
    deviations in its own arrays, and the chunks merge in order, so
    every bit of the summary is the same at any ``SQGRAD_MAX_WORKERS``.
    The moments sum each gradient column in row order when d >= 2;
    the values, and the gradient at d = 1, keep numpy's pairwise
    reduce.
    """
    if isinstance(estimator, str):
        estimator = make_estimator(estimator)
    n_samples = _count("n_samples", n_samples)
    chunk_size = _count("chunk_size", chunk_size)
    x = np.asarray(x, dtype=float)
    state = estimator.encode(x)

    d = x.shape[0] if x.ndim == 1 else 0
    grad_stats = _RunningMoments(d)
    value_stats = _RunningMoments(())
    queries = 0
    remaining = n_samples
    while remaining > 0:
        m = min(remaining, chunk_size)
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
