import math
import os
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sqgrad import estimators
from sqgrad.distributions import Triangular, UniformInterval
from sqgrad.errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EncodingError,
    TupleError,
)
from sqgrad.estimators import (
    _BLOCK_ENTRIES,
    ENV_MAX_WORKERS,
    _leave_one_out,
    _RunningMoments,
    estimate_mean_and_variance,
    make_estimator,
)
from sqgrad.exact import multilinear_gradient, multilinear_value
from sqgrad.oracles import Oracle, TableOracle, make_knapsack
from sqgrad.tuples import GoodTuple, get_tuple, register_tuple

ALL_SPECS = [
    "esg:spike",
    "esg:arch",
    "esg:cosine",
    "esg:bigauss_cosine",
    "esg:longjump",
    "encoded_esg:spike",
    "encoded_esg:arch",
    "encoded_esg:cosine",
    "encoded_esg:bigauss_cosine",
    "encoded_esg:longjump",
    "naive",
    "reinforce",
    "arm",
    "disarm",
]


def test_longjump_hand_example():
    # x = 0.3 encodes to e = -0.2.  Noise +1 gives z = 0.8 >= 0, so the
    # key is 1, the weight is f(0.8) = 0.6 and the gradient weight is
    # sign * f' / encoding slope = 2.  Noise -1 gives z = -1.2, key 0,
    # weight f(1.2) = 1.4, gradient weight -2.
    oracle = TableOracle([2.0, 5.0])
    est = make_estimator("esg:longjump")
    up = est.at_noise(np.array([0.3]), oracle, np.array([1.0]))
    assert up.key[0] == 1.0
    assert up.value == pytest.approx(5.0 * 0.6, abs=1e-12)
    assert up.gradient[0] == pytest.approx(5.0 * 2.0, abs=1e-12)

    down = est.at_noise(np.array([0.3]), oracle, np.array([-1.0]))
    assert down.key[0] == 0.0
    assert down.value == pytest.approx(2.0 * 1.4, abs=1e-12)
    assert down.gradient[0] == pytest.approx(-2.0 * 2.0, abs=1e-12)

    # The two equally likely noises average to the exact value and
    # gradient: v(0.3) = 2.9, v'(x) = 3.
    assert 0.5 * (up.value + down.value) == pytest.approx(2.9, abs=1e-12)
    assert 0.5 * (up.gradient[0] + down.gradient[0]) == pytest.approx(3.0, abs=1e-12)


def test_spike_hand_example():
    # x = 1/2 encodes to e = 0 under the triangular law; its density
    # there is 2.  Noise 0.3 gives z = 0.3: f = 1.2, f' = 4, so the
    # value weight is 1.2 and the gradient weight is 4 / 2 = 2.
    oracle = TableOracle([1.0, 3.0])
    s = make_estimator("esg:spike").at_noise(np.array([0.5]), oracle, np.array([0.3]))
    assert s.key[0] == 1.0
    assert s.value == pytest.approx(3.0 * 1.2, abs=1e-12)
    assert s.gradient[0] == pytest.approx(3.0 * 2.0, abs=1e-12)


def test_encoded_longjump_drops_density_factor():
    oracle = TableOracle([2.0, 5.0])
    # Same point expressed in the encoding domain: e = -0.2.
    est = make_estimator("encoded_esg:longjump")
    s = est.at_noise(np.array([-0.2]), oracle, np.array([1.0]))
    assert s.value == pytest.approx(3.0, abs=1e-12)
    # Encoding slope is 1, so the gradients coincide with the plain form.
    assert s.gradient[0] == pytest.approx(10.0, abs=1e-12)


@pytest.fixture(scope="module")
def quartic_setup():
    rng = np.random.default_rng(7)
    oracle = TableOracle(rng.normal(size=16))
    x = np.array([0.2, 0.5, 0.7, 0.35])
    return oracle, x, multilinear_value(x, oracle), multilinear_gradient(x, oracle)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_unbiasedness(spec, quartic_setup):
    oracle, x, v_true, g_true = quartic_setup
    summary = estimate_mean_and_variance(
        spec, x, oracle, 300_000, np.random.default_rng(100 + len(spec))
    )
    est = make_estimator(spec)
    target = g_true
    if est.encoded:
        e = est.encode(x)
        target = np.asarray(est.tup.sigma_hat.density(e)) * g_true
    if spec in ("naive",):
        assert np.all(summary.mean_gradient == 0.0)
    else:
        err = np.abs(summary.mean_gradient - target)
        assert np.all(err <= 4.5 * summary.gradient_std_err + 1e-9), spec
    if est.provides_value:
        v_err = abs(summary.mean_value - v_true)
        assert v_err <= 4.5 * summary.value_std_err + 1e-9, spec
    else:
        assert math.isnan(summary.mean_value)


def test_reinforce_variance_formula():
    # Single coordinate, Q(y) = y: Var = (1 - x) / x, mean 1.
    oracle = TableOracle([0.0, 1.0])
    for x, var_expected in [(0.5, 1.0), (0.1, 9.0), (0.05, 19.0)]:
        summary = estimate_mean_and_variance(
            "reinforce", np.array([x]), oracle, 400_000, np.random.default_rng(3)
        )
        assert summary.mean_gradient[0] == pytest.approx(1.0, abs=0.05)
        assert summary.gradient_variance[0] == pytest.approx(var_expected, rel=0.03)


def test_longjump_variance_is_one_everywhere():
    # The single-query estimator on the same problem has Var = 1 at
    # every x: G is 2 Q(k) sign(z) and the key flips with the noise.
    oracle = TableOracle([0.0, 1.0])
    for x in (0.5, 0.1, 0.05):
        summary = estimate_mean_and_variance(
            "esg:longjump", np.array([x]), oracle, 400_000, np.random.default_rng(4)
        )
        assert summary.mean_gradient[0] == pytest.approx(1.0, abs=0.02)
        assert summary.gradient_variance[0] == pytest.approx(1.0, rel=0.03)


def test_arm_region_integral_mean():
    # For d = 1 the estimator depends on u only through the regions
    # [0, min(x, 1-x)), [min, max), [max(x, 1-x), 1]; integrating u - 1/2
    # over them gives E[G] = Q(1) - Q(0) exactly.
    q0, q1 = -1.3, 2.1
    oracle = TableOracle([q0, q1])
    x = 0.3

    def region_mean():
        # y1 = [u > 1 - x], y2 = [u < x]
        lo, hi = min(x, 1 - x), max(x, 1 - x)
        int_low = (lo**2 / 2 - lo / 2) - 0.0  # integral of (u - 1/2) over [0, lo)
        int_high = (1 / 2 - 1 / 2) - (hi**2 / 2 - hi / 2)  # over [hi, 1]
        dq_low = q0 - q1 if x < 0.5 else q1 - q0
        dq_high = q1 - q0 if x < 0.5 else q0 - q1
        return (dq_low * int_low + dq_high * int_high) / (x * (1 - x))

    assert region_mean() == pytest.approx(q1 - q0, abs=1e-12)
    summary = estimate_mean_and_variance(
        "arm", np.array([x]), oracle, 400_000, np.random.default_rng(5)
    )
    assert summary.mean_gradient[0] == pytest.approx(q1 - q0, abs=0.06)


def test_disarm_exact_region_enumeration():
    # d = 1: G depends on u only through (y1, y2), so the exact mean is
    # a three-region sum; the middle region has y1 = y2 and contributes
    # nothing.
    q0, q1 = 0.5, 4.0
    oracle = TableOracle([q0, q1])
    for x in (0.2, 0.5, 0.85):
        m = max(x, 1 - x)
        # u < min(x, 1-x): y1 = 0, y2 = 1 -> 0.5 (q0 - q1)(-1) m / (x(1-x))
        # u > max(x, 1-x): y1 = 1, y2 = 0 -> 0.5 (q1 - q0)(+1) m / (x(1-x))
        p_tail = min(x, 1 - x)
        exact = (
            p_tail
            * (0.5 * (q0 - q1) * (-1.0) * m + 0.5 * (q1 - q0) * m)
            / (x * (1 - x))
        )
        assert exact == pytest.approx(q1 - q0, abs=1e-12)
        summary = estimate_mean_and_variance(
            "disarm", np.array([x]), oracle, 300_000, np.random.default_rng(6)
        )
        assert summary.mean_gradient[0] == pytest.approx(q1 - q0, abs=0.05)


def test_query_accounting_exact():
    rng = np.random.default_rng(12)
    for spec in ALL_SPECS:
        est = make_estimator(spec)
        oracle = TableOracle(np.arange(8.0))
        x = np.array([0.4, 0.6, 0.5])
        n = 357
        summary = estimate_mean_and_variance(spec, x, oracle, n, rng, chunk_size=100)
        assert summary.queries == n * est.queries_per_sample, spec
        assert oracle.call_count == n * est.queries_per_sample, spec


def test_single_sample_query_accounting():
    oracle = TableOracle(np.arange(4.0))
    x = np.array([0.5, 0.5])
    s = make_estimator("esg:arch").sample(x, oracle, np.random.default_rng(0))
    assert s.queries == 1 and oracle.call_count == 1
    s = make_estimator("arm").sample(x, oracle, np.random.default_rng(0))
    assert s.queries == 2 and oracle.call_count == 3
    assert s.key.shape == (2, 2)
    s = make_estimator("disarm").sample(x, oracle, np.random.default_rng(0))
    assert s.queries == 2 and oracle.call_count == 5
    s = make_estimator("naive").sample(x, oracle, np.random.default_rng(0))
    assert s.queries == 1 and oracle.call_count == 6
    assert np.all(s.gradient == 0.0)


def test_streaming_moments_match_two_pass():
    # Chunked accumulation must agree with a direct computation on the
    # same draws.
    oracle = TableOracle(np.arange(8.0))
    x = np.array([0.3, 0.5, 0.8])
    est = make_estimator("esg:arch")
    batch = est.sample_batch(x, oracle, np.random.default_rng(77), 5_000)
    summary = estimate_mean_and_variance(
        "esg:arch", x, oracle, 5_000, np.random.default_rng(77), chunk_size=640
    )
    np.testing.assert_allclose(summary.mean_gradient, batch.grads.mean(axis=0),
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(summary.gradient_variance,
                               batch.grads.var(axis=0, ddof=1), rtol=1e-9)
    np.testing.assert_allclose(summary.mean_value, batch.values.mean(),
                               rtol=0, atol=1e-10)


def test_make_estimator_parsing():
    assert make_estimator("esg:arch").spec == "esg:arch"
    assert make_estimator("ENCODED_ESG:spike").spec == "encoded_esg:spike"
    assert make_estimator("naive").spec == "naive"
    assert make_estimator("reinforce").queries_per_sample == 1
    assert make_estimator("arm").queries_per_sample == 2
    for bad in ("esg", "esg:", "esg:unknown", "magic", "encoded_esg"):
        with pytest.raises(ConfigError):
            make_estimator(bad)


def test_state_validation():
    oracle = TableOracle([0.0, 1.0])
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        make_estimator("esg:arch").sample(np.array([1.0]), oracle, rng)
    with pytest.raises(DomainError):
        make_estimator("reinforce").sample(np.array([0.0]), oracle, rng)
    with pytest.raises(DimensionMismatchError):
        make_estimator("esg:arch").sample(np.array([0.5, 0.5]), oracle, rng)
    with pytest.raises(EncodingError):  # arch encodes onto (-1/2, 1/2)
        make_estimator("encoded_esg:arch").sample(np.array([2.0]), oracle, rng)


def test_states_are_checked_at_every_public_entry():
    oracle = TableOracle([0.0, 1.0])
    rng = np.random.default_rng(0)
    for bad in (0.0, 1.0, math.nan):
        x = np.array([bad])
        with pytest.raises(DomainError):
            make_estimator("esg:arch").at_noise(x, oracle, np.array([0.1]))
        with pytest.raises(DomainError):
            make_estimator("disarm").sample_batch(x, oracle, rng, 4)
        with pytest.raises(DomainError):
            estimate_mean_and_variance("reinforce", x, oracle, 4, rng)
    for bad in (0.5, -0.5, math.nan, math.inf):  # arch encodes onto (-1/2, 1/2)
        e = np.array([bad])
        with pytest.raises(EncodingError):
            make_estimator("encoded_esg:arch").at_noise(e, oracle, np.array([0.1]))
        with pytest.raises(EncodingError):
            make_estimator("encoded_esg:arch").sample_batch(e, oracle, rng, 4)


def test_keys_are_bool():
    oracle = TableOracle(np.arange(4.0))
    x = np.array([0.3, 0.6])
    rng = np.random.default_rng(1)
    for spec in ("esg:arch", "encoded_esg:arch", "naive", "reinforce", "arm", "disarm"):
        est = make_estimator(spec)
        assert est.sample(est.encode(x), oracle, rng).key.dtype == np.bool_, spec
        assert est.sample_batch(est.encode(x), oracle, rng, 3).keys.dtype == np.bool_


class _FlatAtOrigin(UniformInterval):
    # Uniform encoding whose density is reported as zero at the origin,
    # mimicking a tabulated cdf with a flat stretch.
    def density(self, z):
        base = super().density(z)
        return np.where(np.asarray(z) == 0.0, 0.0, base)


def test_esg_rejects_flat_encoding_region():
    # An encoding with vanishing density cannot support the plain
    # estimator: the gradient weight divides by it.
    base = get_tuple("arch")
    tup = GoodTuple(name="flat", f=base.f, f_prime=base.f_prime,
                    sigma=base.sigma, sigma_hat=_FlatAtOrigin(0.5))
    register_tuple(tup, overwrite=True)
    oracle = TableOracle([0.0, 1.0])
    with pytest.raises(TupleError):
        make_estimator("esg:flat").at_noise(np.array([0.5]), oracle, np.array([0.1]))


def test_naive_value_is_unbiased():
    oracle = TableOracle([1.0, 2.0, 4.0, 8.0])
    x = np.array([0.25, 0.6])
    v = multilinear_value(x, oracle)
    s = estimate_mean_and_variance(
        "naive", x, oracle, 200_000, np.random.default_rng(9)
    )
    assert s.mean_value == pytest.approx(v, abs=4.5 * s.value_std_err)


def test_state_bounds():
    est = make_estimator("esg:arch")
    assert est.state_bounds(1e-3) == (1e-3, 1.0 - 1e-3)
    with pytest.raises(DomainError):
        est.state_bounds(0.5)
    enc = make_estimator("encoded_esg:arch")
    lo, hi = enc.state_bounds(1e-3)
    assert lo == pytest.approx(-hi, abs=1e-12)
    assert enc.decode(np.array([lo]))[0] == pytest.approx(1e-3, abs=1e-9)


def test_encode_decode_round_trip():
    for name in ("spike", "arch", "cosine", "bigauss_cosine", "longjump"):
        enc = make_estimator(f"encoded_esg:{name}")
        x = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(enc.decode(enc.encode(x)), x, atol=1e-9)
        # The clamp bounds decode back to the probability clamp.
        for delta in (1e-6, 1e-4, 1e-3, 0.1, 0.49):
            bounds = enc.decode(np.array(enc.state_bounds(delta)))
            np.testing.assert_allclose(
                bounds, [delta, 1.0 - delta], rtol=0, atol=1e-12, err_msg=name
            )


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_noise_buffer_matches_per_trial_draws(spec):
    # Rows filled from separate generators and mapped in one pass give
    # each trial the noise a lone draw_noise(rng, d) returns.
    est = make_estimator(spec)
    m, d = 5, 7
    draws = np.empty((est.noise_law.draws, m, d))
    for i in range(m):
        assert est.draw_noise(np.random.default_rng(i), d, draws=draws[:, i]) is None
    alone = np.stack([est.draw_noise(np.random.default_rng(i), d) for i in range(m)])
    assert alone.shape == (m, d)
    assert est.noise_law.from_draws(draws).tobytes() == alone.tobytes()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_at_noise_rejects_wrong_noise_shape(spec):
    est = make_estimator(spec)
    oracle = TableOracle(np.arange(8.0))
    x = est.encode(np.array([0.3, 0.5, 0.8]))
    for noise in (np.full(2, 0.1), np.full(4, 0.1), np.full((1, 3), 0.1), 0.1):
        with pytest.raises(DimensionMismatchError):
            est.at_noise(x, oracle, noise)
    assert oracle.call_count == 0


@pytest.mark.parametrize("spec", ALL_SPECS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_state_map_is_elementwise(spec, data):
    # Descent re-maps only the entries that moved, so each entry of the
    # map must have the bits it gets when mapped alone.  esg:cosine's
    # bisection stops on the widest bracket of the call and bigauss's
    # replays as many rounds as the narrowest one allows: every entry
    # must still end after the same rounds in any subset.
    est = make_estimator(spec)
    m, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    probs = st.one_of(st.floats(1e-4, 1.0 - 1e-4), st.sampled_from([1e-4, 0.5, 1.0 - 1e-4]))
    x = np.array(data.draw(st.lists(probs, min_size=m * d, max_size=m * d))).reshape(m, d)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=m * d, max_size=m * d)))
    states = est.encode(x)
    sub = states[mask.reshape(m, d)]
    whole, part = est._at_state(states), est._at_state(sub)
    if whole is states:  # the identity map
        assert part is sub
        return
    assert isinstance(whole, tuple) and len(whole) == len(part)
    for w, p in zip(whole, part):
        assert w.shape == states.shape
        assert w[mask.reshape(m, d)].tobytes() == p.tobytes()


def _reference_batch(est, states, noise, oracle):
    """(keys, values, grads, raw) by the per-method formulas as they were
    written before the product kernel, each with its own operation order."""
    states = np.array(states)  # broadcast rows become ordinary rows
    if est.spec == "reinforce":
        keys = noise < states
        q = oracle.query_batch(keys)
        score = keys / states - (1.0 - keys) / (1.0 - states)
        return keys, np.full(len(q), math.nan), q[:, None] * score, q[:, None]
    if est.spec == "naive":
        keys = UniformInterval(0.5).inv_cdf(states) + noise >= 0.0
        q = oracle.query_batch(keys)
        return keys, q, np.zeros(keys.shape), q[:, None]
    tup = est.tup
    e = states if est.encoded else tup.sigma_hat.inv_cdf(states)
    z = e + noise
    keys = z >= 0.0
    fv, fp = tup.f(np.abs(z)), tup.f_prime(np.abs(z))
    loo = _leave_one_out(fv)
    q = oracle.query_batch(keys)
    gweight = np.sign(z) * fp * loo
    if not est.encoded:
        gweight = gweight / tup.sigma_hat.density(e)
    return keys, q * fv[:, 0] * loo[:, 0], q[:, None] * gweight, q[:, None]


def _assert_same_batch(batch, want, spec):
    keys, values, grads, raw = want
    assert batch.keys.tobytes() == keys.tobytes(), spec
    assert batch.values.tobytes() == values.tobytes(), spec
    assert batch.raw.tobytes() == raw.tobytes(), spec
    if spec == "naive":  # Q * 0 is +0.0 or -0.0
        assert np.array_equal(batch.grads, grads), spec
    else:
        assert batch.grads.tobytes() == grads.tobytes(), spec


def _leave_one_out_by_ones(factors):
    """``_leave_one_out`` with its former scans into arrays of ones."""
    pre = np.ones_like(factors)
    suf = np.ones_like(factors)
    np.cumprod(factors[:, :-1], axis=1, out=pre[:, 1:])
    np.cumprod(factors[:, :0:-1], axis=1, out=suf[:, -2::-1])
    return pre * suf


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(0, 6),
    d=st.sampled_from([1, 2, 3, 7, 12]),
    data=st.data(),
)
def test_leave_one_out_keeps_the_bits_of_the_scans_into_ones(m, d, data):
    entries = st.one_of(
        st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-300, 1e300, math.inf]))
    factors = np.array(
        data.draw(st.lists(entries, min_size=m * d, max_size=m * d)), dtype=float
    ).reshape(m, d)
    with np.errstate(all="ignore"):
        got, want = _leave_one_out(factors), _leave_one_out_by_ones(factors)
    assert got.shape == want.shape == (m, d)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s not in ("arm", "disarm")])
def test_product_kernel_matches_the_per_method_formulas(spec):
    est = make_estimator(spec)
    d = 6
    oracle = TableOracle(np.random.default_rng(21).normal(size=2**d))
    for m in (1, 20):
        rng = np.random.default_rng(m)
        states = est.encode(rng.uniform(0.05, 0.95, size=(m, d)))
        noise = np.stack([est.draw_noise(rng, d) for _ in range(m)])
        batch = est.evaluate(states, noise, oracle)
        _assert_same_batch(batch, _reference_batch(est, states, noise, oracle), spec)
    x = est.encode(np.linspace(0.1, 0.9, d))
    batch = est.sample_batch(x, oracle, np.random.default_rng(5), 50)
    noise = est.noise_law.sample(np.random.default_rng(5), (50, d))
    states = np.broadcast_to(x, (50, d))
    _assert_same_batch(batch, _reference_batch(est, states, noise, oracle), spec)


@pytest.mark.parametrize("name, bad", [
    ("chunk_size", 0), ("chunk_size", -3), ("chunk_size", 2.5),
    ("n_samples", 0), ("n_samples", 2.5), ("n_samples", "7"), ("n_samples", True),
])
def test_estimate_rejects_counts_that_are_not_positive_integers(name, bad):
    oracle = TableOracle(np.arange(4.0))
    kwargs = {"n_samples": 10, "chunk_size": 4, name: bad}
    with pytest.raises(DomainError, match=name):
        estimate_mean_and_variance(
            "esg:arch", np.array([0.3, 0.6]), oracle, rng=np.random.default_rng(0), **kwargs
        )
    assert oracle.call_count == 0


def _old_update(moments, block):
    """``_RunningMoments.update`` with its former squared-deviation sum."""
    m = block.shape[0]
    b_mean = block.mean(axis=0)
    b_m2 = ((block - b_mean) ** 2).sum(axis=0)
    if moments.n == 0:
        moments.n, moments.mean, moments.m2 = m, b_mean, b_m2
        return
    total = moments.n + m
    delta = b_mean - moments.mean
    moments.mean = moments.mean + delta * (m / total)
    moments.m2 = moments.m2 + b_m2 + delta**2 * (moments.n * m / total)
    moments.n = total


@pytest.mark.parametrize("lengths", [(1000, 333), (1, 1 << 16), (1 << 16, 1)])
@pytest.mark.parametrize("shape", [(), (7,), (1,), (2,), (10,), (24,)])
def test_running_moments_keep_the_former_bits(shape, lengths):
    rng = np.random.default_rng(3)
    chunks = [rng.normal(2.0, 3.0, size=(m,) + shape) for m in lengths]
    new, old = _RunningMoments(shape), _RunningMoments(shape)
    for chunk in chunks:
        # ``update`` overwrites its chunk, so each side gets its own copy.
        new.update(chunk.copy())
        _old_update(old, chunk.copy())
        assert new.n == old.n
        assert np.asarray(new.mean).tobytes() == np.asarray(old.mean).tobytes()
        assert np.asarray(new.m2).tobytes() == np.asarray(old.m2).tobytes()


@st.composite
def _moment_chunks(draw):
    # A gradient chunk (m, d) in some memory layout, or a 1-D value chunk.
    layout = draw(st.sampled_from(["C", "F", "view", "values"]))
    d = 1 if layout == "values" else draw(st.integers(1, 40))
    n = draw(st.integers(1, 3000))
    specials = draw(st.sampled_from([0.0, 0.01, 0.3]))
    return layout, n, d, specials, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_moment_chunks())
@example(("C", 1 << 16, 10, 0.01, 0))
@example(("C", 1 << 16, 10, 0.0, 1))
def test_the_moment_sums_have_the_bits_of_numpys_reduce(chunk):
    # The column sums behind ``_RunningMoments.update`` take the bits of
    # ``np.add.reduce`` along axis 0, whatever order numpy sums in.
    layout, n, d, specials, seed = chunk
    rng = np.random.default_rng(seed)
    wide = 2 * d if layout == "view" else d
    block = rng.standard_normal((n, wide)) * np.exp2(rng.integers(-60, 61, size=(n, wide)))
    hit = rng.random((n, wide)) < specials
    block[hit] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], size=hit.sum())
    block[:, rng.random(wide) < specials] = -0.0  # whole columns of -0.0
    if layout == "F":
        block = np.asfortranarray(block)
    elif layout == "view":
        block = block[:, ::2]
    elif layout == "values":
        block = block[:, 0].copy()
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = estimators._column_sums(block), np.add.reduce(block, axis=0)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# The estimators of the estimate_d10 benchmark workload.
_ESTIMATE_SPECS = [
    "esg:spike", "esg:arch", "esg:cosine", "esg:bigauss_cosine", "esg:longjump",
    "encoded_esg:arch", "naive", "reinforce", "arm", "disarm",
]


@pytest.mark.parametrize("d", [1, 2, 10, 24])
@pytest.mark.parametrize("spec", _ESTIMATE_SPECS)
def test_estimates_keep_the_bits_of_the_former_moment_pass(spec, d):
    # Two chunks of sample_batch, folded by the former update, give
    # every bit of the summary.
    est = make_estimator(spec)
    rng = np.random.default_rng(d)
    oracle = (TableOracle(rng.uniform(-5.0, 5.0, size=1 << d)) if d <= 10
              else make_knapsack(d, rng))
    x = rng.uniform(0.1, 0.9, size=d)
    n, chunk = 70_000, 1 << 16
    got = estimate_mean_and_variance(est, x, oracle, n, np.random.default_rng(9))
    grads, values = _RunningMoments(d), _RunningMoments(())
    state, ref = est.encode(x), np.random.default_rng(9)
    for m in (chunk, n - chunk):
        batch = est.sample_batch(state, oracle, ref, m)
        _old_update(grads, batch.grads)
        if est.provides_value:
            _old_update(values, batch.values)
    assert got.n_samples == grads.n == n
    assert got.mean_gradient.tobytes() == grads.mean.tobytes()
    assert got.gradient_variance.tobytes() == grads.variance().tobytes()
    if est.provides_value:
        assert np.float64(got.mean_value).tobytes() == np.float64(values.mean).tobytes()
        assert np.float64(got.value_variance).tobytes() == np.float64(values.variance()).tobytes()
    else:
        assert math.isnan(got.mean_value) and math.isnan(got.value_variance)


@contextmanager
def _max_workers(n: int):
    saved = os.environ.get(ENV_MAX_WORKERS)
    os.environ[ENV_MAX_WORKERS] = str(n)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENV_MAX_WORKERS, None)
        else:
            os.environ[ENV_MAX_WORKERS] = saved


_MAKE = {spec: make_estimator(spec) for spec in ALL_SPECS}


@st.composite
def _wide_runs(draw):
    spec = draw(st.sampled_from(ALL_SPECS))
    d = draw(st.integers(1, 12))
    per_block = _BLOCK_ENTRIES // d
    # Below one block, exactly one full block, or an odd block count.
    blocks = draw(st.sampled_from([0, 1, 3, 5]))
    if blocks == 0:
        n = draw(st.integers(1, per_block - 1))
    elif blocks == 1:
        n = per_block
    else:
        n = draw(st.integers((blocks - 1) * _BLOCK_ENTRIES // d + 1, blocks * _BLOCK_ENTRIES // d))
    chunk = draw(st.sampled_from([n, -(-n // 2), -(-n // 3)]))
    workers = draw(st.sampled_from([2, 3]))
    return spec, d, n, chunk, workers, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_wide_runs())
def test_estimates_have_the_same_bits_at_every_worker_count(run):
    spec, d, n, chunk, workers, seed = run
    est = _MAKE[spec]
    table = np.random.default_rng(seed).uniform(-5.0, 5.0, size=1 << d)
    x = np.random.default_rng(seed + 1).uniform(0.1, 0.9, size=d)
    state = est.encode(x)

    def summary_and_calls():
        oracle = TableOracle(table)
        s = estimate_mean_and_variance(
            est, x, oracle, n, np.random.default_rng(seed), chunk_size=chunk)
        fields = [np.asarray(v).tobytes() for v in vars(s).values()]
        return fields, oracle.call_count

    with _max_workers(1):
        serial = summary_and_calls()
    with _max_workers(workers):
        assert summary_and_calls() == serial
        batch = est.sample_batch(state, TableOracle(table), np.random.default_rng(seed), n)
    # One unblocked pass of the row kernel over all rows.
    noise = est.noise_law.sample(np.random.default_rng(seed), (n, d))
    whole = est._rows(est._at_state(state[None, :]), noise, TableOracle(table))
    for got, want in ((batch.keys, whole.keys), (batch.values, whole.values),
                      (batch.grads, whole.grads), (batch.raw, whole.raw)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert batch.queries == whole.queries == n * est.queries_per_sample


# An esg whose noise law samples by inverse transform, through the
# default ``draw``; its weights are arch's, since only bits are compared.
_ARCH = get_tuple("arch")
_INVERSE_TRANSFORM_ESG = estimators._Esg(GoodTuple(
    "triangular_noise", _ARCH.f, _ARCH.f_prime, Triangular(0.5), _ARCH.sigma_hat))


@st.composite
def _batch_runs(draw):
    # ALL_SPECS holds the two-plane mixture (the bigauss tuples).
    est = draw(st.sampled_from([*_MAKE.values(), _INVERSE_TRANSFORM_ESG]))
    d = draw(st.integers(1, 6))
    blocks = draw(st.sampled_from([1, 2, 3]))
    if blocks == 1:
        n = 1
    else:
        n = draw(st.integers((blocks - 1) * _BLOCK_ENTRIES // d + 2, blocks * _BLOCK_ENTRIES // d))
        # Rows that split evenly into the blocks leave no short last block.
        n -= n % blocks == 0
    workers = draw(st.sampled_from([1, 2, 3]))
    return est, d, n, workers, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_batch_runs())
def test_a_sample_batch_has_the_bits_of_evaluate_at_sampled_noise(run):
    # The blocks draw their rows in turn, on any thread: the stream and
    # every output bit are those of one draw of all rows, evaluated whole.
    est, d, n, workers, seed = run
    table = np.random.default_rng(seed).uniform(-5.0, 5.0, size=1 << d)
    state = est.encode(np.random.default_rng(seed + 1).uniform(0.1, 0.9, size=d))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with _max_workers(workers):
        batch = est.sample_batch(state, TableOracle(table), rng, n)
    noise = est.noise_law.sample(ref, (n, d))
    want = est.evaluate(np.tile(state, (n, 1)), noise, TableOracle(table))
    for got, exp in ((batch.keys, want.keys), (batch.values, want.values),
                     (batch.grads, want.grads), (batch.raw, want.raw)):
        assert got.dtype == exp.dtype and got.shape == exp.shape
        assert got.tobytes() == exp.tobytes(), est.spec
    assert batch.queries == want.queries
    assert rng.bit_generator.state == ref.bit_generator.state


class _OneCallerOracle(Oracle):
    """Table values that fail if two threads are inside ``_values`` at once."""

    def __init__(self, table):
        self._inner = TableOracle(table)
        super().__init__(self._inner.d)
        self._inside = 0
        self._guard = threading.Lock()

    def _values(self, ys):
        with self._guard:
            self._inside += 1
            crowded = self._inside > 1
        try:
            if crowded:
                raise RuntimeError("two threads queried the oracle at once")
            time.sleep(0.002)
            return self._inner._values(ys)
        finally:
            with self._guard:
                self._inside -= 1


@contextmanager
def _fast_switching():
    # Hand the GIL over every microsecond, so threads interleave often.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("spec", ["esg:arch", "disarm"])
def test_blocks_query_a_user_oracle_one_at_a_time(spec, workers, monkeypatch):
    monkeypatch.setenv(ENV_MAX_WORKERS, str(workers))
    d = 8
    oracle = _OneCallerOracle(np.random.default_rng(4).normal(size=1 << d))
    n = 9 * (_BLOCK_ENTRIES // d) + 17
    with _fast_switching():
        s = estimate_mean_and_variance(
            spec, np.full(d, 0.4), oracle, n, np.random.default_rng(6))
    qps = make_estimator(spec).queries_per_sample
    assert s.queries == oracle.call_count == n * qps


def _run_threads(targets):
    """Run each target on its own thread; the exceptions they raised."""
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # returned to the test
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    with _fast_switching():
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_an_oracle_answers_plain_threads_one_at_a_time():
    d, rows, rounds, n_threads = 6, 40, 15, 4
    oracle = _OneCallerOracle(np.random.default_rng(4).normal(size=1 << d))
    keys = np.random.default_rng(5).random((rows, d)) < 0.5
    want = oracle._inner.query_batch(keys)
    got = []

    def run():
        for _ in range(rounds):
            got.append(oracle.query_batch(keys))

    assert _run_threads([run] * n_threads) == []
    assert oracle.call_count == n_threads * rounds * rows
    assert all(g.tobytes() == want.tobytes() for g in got)


@pytest.mark.parametrize("spec", ["esg:arch", "disarm"])
def test_two_estimates_share_one_user_oracle(spec):
    # Each estimate runs its chunks on one thread; the two estimates
    # meet only at the oracle, whose lock must keep them apart.
    d, n, chunk = 6, 1200, 40
    oracle = _OneCallerOracle(np.random.default_rng(4).normal(size=1 << d))
    x = np.full(d, 0.4)

    def estimate(seed):
        return estimate_mean_and_variance(
            spec, x, oracle, n, np.random.default_rng(seed), chunk_size=chunk)

    results = {}
    with _max_workers(1):
        errors = _run_threads([lambda s=s: results.update({s: estimate(s)}) for s in (1, 2)])
        assert errors == []
        alone = TableOracle(oracle._inner._table)
        for seed in (1, 2):
            want = estimate_mean_and_variance(
                spec, x, alone, n, np.random.default_rng(seed), chunk_size=chunk)
            assert results[seed].mean_gradient.tobytes() == want.mean_gradient.tobytes()
    qps = make_estimator(spec).queries_per_sample
    assert oracle.call_count == 2 * n * qps


@pytest.mark.parametrize("spec", ["esg:cosine", "esg:bigauss_cosine"])
def test_a_sample_batch_maps_its_state_once_at_any_worker_count(spec, monkeypatch):
    est = make_estimator(spec)
    law = type(est.tup.sigma_hat)
    calls = []
    inv_cdf = law.inv_cdf
    monkeypatch.setattr(law, "inv_cdf", lambda self, x: calls.append(1) or inv_cdf(self, x))
    oracle = TableOracle(np.arange(16.0))
    n = 5 * (_BLOCK_ENTRIES // 4)
    for workers in (1, 2, 3, 1):
        monkeypatch.setenv(ENV_MAX_WORKERS, str(workers))
        calls.clear()
        est.sample_batch(np.full(4, 0.3), oracle, np.random.default_rng(0), n)
        assert len(calls) == 1, workers


def test_a_sample_batch_holds_its_planes_its_outputs_and_one_block(monkeypatch):
    # Only a law's leading generator planes (here the mixture's sign
    # plane) and the outputs span the whole chunk; each block draws its
    # own rows of the last plane, and the kernel keeps fewer than ten
    # (rows, d) float arrays of a block alive at once.  Mapping the
    # chunk's noise whole, or copying each block's results into fresh
    # chunk arrays, takes more than that.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    est = make_estimator("esg:bigauss_cosine")
    n, d = 1 << 16, 10
    oracle = TableOracle(np.random.default_rng(0).uniform(-5.0, 5.0, size=1 << d))
    x = np.full(d, 0.3)
    est.sample_batch(x, oracle, np.random.default_rng(1), 10)  # loads what a first call loads
    tracemalloc.start()
    try:
        batch = est.sample_batch(x, oracle, np.random.default_rng(1), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    planes = (est.noise_law.draws - 1) * n * d * 8
    outputs = sum(a.nbytes for a in (batch.keys, batch.values, batch.grads, batch.raw))
    block_rows = -(-n // -(-n * d // _BLOCK_ENTRIES))
    assert peak < planes + outputs + 10 * block_rows * d * 8, peak


def test_a_sample_batch_holds_no_chunk_sized_noise(monkeypatch):
    # Each block draws its own rows of noise, so beyond the outputs the
    # peak leaves no room for one chunk-sized plane of noise.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    est = make_estimator("esg:arch")
    n, d = 1 << 16, 10
    oracle = TableOracle(np.random.default_rng(0).uniform(-5.0, 5.0, size=1 << d))
    x = np.full(d, 0.3)
    est.sample_batch(x, oracle, np.random.default_rng(1), 10)  # loads what a first call loads
    tracemalloc.start()
    try:
        batch = est.sample_batch(x, oracle, np.random.default_rng(1), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (batch.keys, batch.values, batch.grads, batch.raw))
    assert peak < outputs + 0.9 * n * d * 8, peak


def test_the_moment_pass_allocates_nothing_chunk_sized(monkeypatch):
    # Once the chunk's batch exists, the moments of its gradients and
    # values take no array of the chunk's length.
    monkeypatch.setenv(ENV_MAX_WORKERS, "1")
    est = make_estimator("esg:arch")
    n, d = 1 << 16, 10
    oracle = TableOracle(np.random.default_rng(0).uniform(-5.0, 5.0, size=1 << d))
    sample_batch, held = est.sample_batch, []

    def batch_then_reset_peak(*args):
        batch = sample_batch(*args)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return batch

    monkeypatch.setattr(est, "sample_batch", batch_then_reset_peak)
    tracemalloc.start()
    try:
        estimate_mean_and_variance(est, np.full(d, 0.3), oracle, n, np.random.default_rng(1),
                                   chunk_size=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == 1
    assert peak - held[0] < n * 8 // 2, peak - held[0]


class _CastOracle(Oracle):
    """Table values handed back in another dtype."""

    def __init__(self, table, dtype):
        self._inner = TableOracle(table)
        super().__init__(self._inner.d)
        self._dtype = dtype

    def _values(self, ys):
        return self._inner._values(ys).astype(self._dtype)


@pytest.mark.parametrize("dtype", [bool, np.int64])
@pytest.mark.parametrize("spec", ALL_SPECS)
def test_oracle_answers_of_any_dtype_enter_the_kernel_as_floats(spec, dtype):
    est = make_estimator(spec)
    d = 4
    table = np.random.default_rng(2).integers(0, 2, size=1 << d).astype(float)
    if dtype is np.int64:
        table = 3.0 * table - 1.0
    state = est.encode(np.linspace(0.2, 0.7, d))
    got = est.sample_batch(state, _CastOracle(table, dtype), np.random.default_rng(3), 40)
    want = est.sample_batch(state, TableOracle(table), np.random.default_rng(3), 40)
    _assert_same_batch(got, (want.keys, want.values, want.grads, want.raw), spec)
    assert got.raw.dtype == got.values.dtype == np.float64


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_evaluating_leaves_the_estimator_as_it_was(spec, monkeypatch):
    # A shared estimator keeps no per-call state: threads, lockstep
    # groups and later calls all see the object as it was built.
    monkeypatch.setenv(ENV_MAX_WORKERS, "2")
    est = make_estimator(spec)
    before = dict(vars(est))
    d = 4
    oracle = TableOracle(np.arange(16.0))
    rng = np.random.default_rng(8)
    for x in (np.full(d, 0.3), np.linspace(0.2, 0.7, d)):
        state = est.encode(x)
        est.sample_batch(state, oracle, rng, 3 * (_BLOCK_ENTRIES // d))
        est.at_noise(state, oracle, est.draw_noise(rng, d))
        est.evaluate(np.stack([state, state]), est.noise_law.sample(rng, (2, d)), oracle)
        assert vars(est).keys() == before.keys(), spec
        assert all(vars(est)[k] is v for k, v in before.items()), spec
