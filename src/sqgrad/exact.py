"""Brute-force values and gradients of the multilinear extension.

For an oracle Q on {0,1}^d and probabilities x in [0,1]^d the
multilinear extension is

    v(x) = sum_y Q(y) prod_i [ x_i y_i + (1 - x_i)(1 - y_i) ],

the expectation of Q under independent Bernoulli(x_i) coordinates.  It
is affine in each coordinate, so the gradient is the difference of the
two coordinate sections and central finite differences are exact up to
rounding regardless of the step.

Everything here enumerates all 2^d vertices and consumes that many
oracle calls per evaluation; dimensions above 25 are refused.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, DimensionTooLargeError, DomainError

__all__ = [
    "multilinear_value",
    "multilinear_gradient",
    "finite_difference_gradient",
    "MAX_EXACT_DIM",
]

#: 2^25 vertices is the largest enumeration this module will attempt.
MAX_EXACT_DIM = 25

_CHUNK = 1 << 16


def _checked_x(x, oracle) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("x must be a 1-D probability vector")
    if x.shape[0] != oracle.d:
        raise DimensionMismatchError(
            f"x has length {x.shape[0]} but the oracle has dimension {oracle.d}"
        )
    # A NaN fails both comparisons and is rejected.
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise DomainError("x must lie in [0, 1]^d")
    if oracle.d > MAX_EXACT_DIM:
        raise DimensionTooLargeError(
            f"exact enumeration supports d <= {MAX_EXACT_DIM}, got {oracle.d}"
        )
    return x


def _vertex_chunks(d: int):
    """Yield all vertices of {0,1}^d as (chunk, d) 0/1 arrays."""
    shifts = np.arange(d - 1, -1, -1, dtype=np.int64)
    total = 1 << d
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield ((idx[:, None] >> shifts[None, :]) & 1).astype(float)


def multilinear_value(x, oracle) -> float:
    """v(x) by full enumeration; consumes 2^d oracle calls."""
    x = _checked_x(x, oracle)
    total = 0.0
    for bits in _vertex_chunks(oracle.d):
        w = np.prod(np.where(bits == 1.0, x, 1.0 - x), axis=1)
        q = oracle.query_batch(bits)
        total += float(q @ w)
    return total


def multilinear_gradient(x, oracle) -> np.ndarray:
    """grad v(x) by one enumeration pass; consumes 2^d oracle calls.

    Coordinate i of the gradient is sum_y Q(y) (2 y_i - 1) times the
    product of the other coordinates' factors; the leave-one-out
    products come from exclusive prefix/suffix scans, which stay finite
    even when some factor is zero (x_i in {0, 1}).
    """
    x = _checked_x(x, oracle)
    d = oracle.d
    grad = np.zeros(d)
    for bits in _vertex_chunks(d):
        factors = np.where(bits == 1.0, x, 1.0 - x)
        n = factors.shape[0]
        prefix = np.ones((n, d))
        suffix = np.ones((n, d))
        np.cumprod(factors[:, :-1], axis=1, out=prefix[:, 1:])
        np.cumprod(factors[:, :0:-1], axis=1, out=suffix[:, -2::-1])
        q = oracle.query_batch(bits)
        sign = 2.0 * bits - 1.0
        grad += (q[:, None] * sign * prefix * suffix).sum(axis=0)
    return grad


def finite_difference_gradient(x, oracle, h: float = 1e-6) -> np.ndarray:
    """Central differences of v; consumes 2d 2^d oracle calls.

    Exact up to rounding because v is multilinear.  Raises
    :class:`DomainError` when some x_i +- h leaves [0, 1].
    """
    x = _checked_x(x, oracle)
    if not h > 0.0:
        raise DomainError("h must be positive")
    if np.any(x - h < 0.0) or np.any(x + h > 1.0):
        raise DomainError("x +- h must stay inside [0, 1]^d")
    grad = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (multilinear_value(up, oracle) - multilinear_value(dn, oracle)) / (
            2.0 * h
        )
    return grad
