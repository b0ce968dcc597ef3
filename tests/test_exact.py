import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgrad.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    DomainError,
)
from sqgrad.exact import (
    MAX_EXACT_DIM,
    finite_difference_gradient,
    multilinear_gradient,
    multilinear_value,
)
from sqgrad.oracles import TableOracle


def brute_force_value(x, table):
    """Direct Bernoulli average over all vertices, written independently
    of the library's chunked implementation."""
    d = int(np.log2(len(table)))
    total = 0.0
    for idx, bits in enumerate(itertools.product((0, 1), repeat=d)):
        w = 1.0
        for xi, b in zip(x, bits):
            w *= xi if b else (1.0 - xi)
        total += table[idx] * w
    return total


def test_xor_has_closed_form():
    # Q(y) = y1 xor y2: v(x) = x1(1-x2) + x2(1-x1).
    oracle = TableOracle([0.0, 1.0, 1.0, 0.0])
    for x1, x2 in [(0.2, 0.7), (0.5, 0.5), (0.9, 0.1), (0.33, 0.44)]:
        x = np.array([x1, x2])
        assert multilinear_value(x, oracle) == pytest.approx(
            x1 * (1 - x2) + x2 * (1 - x1), abs=1e-14
        )
        grad = multilinear_gradient(x, oracle)
        assert grad[0] == pytest.approx(1 - 2 * x2, abs=1e-14)
        assert grad[1] == pytest.approx(1 - 2 * x1, abs=1e-14)


def test_value_at_vertices_reproduces_table():
    rng = np.random.default_rng(8)
    table = rng.normal(size=8)
    oracle = TableOracle(table)
    for idx, bits in enumerate(itertools.product((0, 1), repeat=3)):
        assert multilinear_value(np.array(bits, dtype=float), oracle) == pytest.approx(
            table[idx], abs=1e-14
        )


def test_value_matches_independent_enumeration():
    rng = np.random.default_rng(9)
    for d in (1, 2, 3, 5):
        table = rng.normal(size=1 << d)
        oracle = TableOracle(table)
        for _ in range(3):
            x = rng.uniform(0.05, 0.95, size=d)
            assert multilinear_value(x, oracle) == pytest.approx(
                brute_force_value(x, table), abs=1e-12
            )


def test_gradient_matches_coordinate_conditioning():
    # grad_i = v(x | x_i = 1) - v(x | x_i = 0), evaluated via the value
    # routine only.
    rng = np.random.default_rng(10)
    for d in (2, 4, 6):
        oracle = TableOracle(rng.normal(size=1 << d))
        x = rng.uniform(0.1, 0.9, size=d)
        grad = multilinear_gradient(x, oracle)
        for i in range(d):
            hi = x.copy()
            lo = x.copy()
            hi[i], lo[i] = 1.0, 0.0
            expected = multilinear_value(hi, oracle) - multilinear_value(lo, oracle)
            assert grad[i] == pytest.approx(expected, abs=1e-11)


def test_finite_difference_agrees_with_analytic():
    rng = np.random.default_rng(11)
    oracle = TableOracle(rng.normal(size=32))
    x = rng.uniform(0.2, 0.8, size=5)
    fd = finite_difference_gradient(x, oracle, h=1e-6)
    an = multilinear_gradient(x, oracle)
    np.testing.assert_allclose(fd, an, rtol=0, atol=1e-8)


def test_finite_difference_respects_box():
    oracle = TableOracle([0.0, 1.0])
    with pytest.raises(DomainError):
        finite_difference_gradient(np.array([1e-9]), oracle, h=1e-6)


def test_call_accounting():
    oracle = TableOracle(np.arange(16.0))
    x = np.full(4, 0.5)
    multilinear_value(x, oracle)
    assert oracle.call_count == 16
    oracle.reset_calls()
    multilinear_gradient(x, oracle)
    assert oracle.call_count == 16
    oracle.reset_calls()
    finite_difference_gradient(x, oracle, h=1e-6)
    assert oracle.call_count == 2 * 4 * 16


def test_input_validation():
    oracle = TableOracle(np.arange(8.0))
    with pytest.raises(DimensionMismatchError):
        multilinear_value(np.array([0.5, 0.5]), oracle)
    with pytest.raises(DomainError):
        multilinear_value(np.array([0.5, 0.5, 1.2]), oracle)
    with pytest.raises(DomainError):
        multilinear_value(np.array([[0.5] * 3]), oracle)


@pytest.mark.parametrize("fn", [multilinear_value, multilinear_gradient,
                                finite_difference_gradient])
def test_nan_point_is_rejected(fn):
    # NaN fails both x < 0 and x > 1, so only a test that it lies in
    # [0, 1] catches it.
    oracle = TableOracle(np.arange(8.0))
    with pytest.raises(DomainError):
        fn(np.array([0.5, np.nan, 0.5]), oracle)
    assert oracle.call_count == 0


def test_dimension_cap():
    from sqgrad.oracles import SymmetricSliceOracle

    d = MAX_EXACT_DIM + 1
    with pytest.raises(DimensionTooLargeError):
        multilinear_value(np.full(d, 0.5), SymmetricSliceOracle(d))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.integers(min_value=1, max_value=4),
)
def test_value_is_affine_per_coordinate(data, d):
    table = data.draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=1 << d,
            max_size=1 << d,
        )
    )
    x = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=0.99),
                min_size=d,
                max_size=d,
            )
        )
    )
    i = data.draw(st.integers(min_value=0, max_value=d - 1))
    t = data.draw(st.floats(min_value=0.0, max_value=1.0))
    oracle = TableOracle(table)

    def v_at(ti):
        y = x.copy()
        y[i] = ti
        return multilinear_value(y, oracle)

    v0, v1 = v_at(0.0), v_at(1.0)
    assert v_at(t) == pytest.approx(v0 + t * (v1 - v0), abs=1e-9)
