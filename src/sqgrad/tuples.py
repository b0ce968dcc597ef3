"""Calibrated (f, sigma, sigma_hat) tuples for single-query gradient estimation.

A tuple consists of a weight function f that is absolutely continuous
and vanishes for z <= 0, a symmetric perturbation law sigma, and a
symmetric, strictly increasing encoding cdf sigma_hat.  The tuple is
*calibrated* when smoothing f with sigma reproduces the encoding cdf:

    E_{eps ~ sigma}[ f(sigma_hat^{-1}(x) + eps) ] = x   for all x in (0, 1),

equivalently (f * sigma')(z) = sigma_hat(z) wherever sigma has a
density sigma'.  Calibration is exactly what makes the single-query
estimator unbiased, so :func:`validate_tuple` and
:func:`convolution_check` verify it numerically.

Five tuples ship with the package:

========  ===========================  ====================  =========================
name      f on its support             sigma                 sigma_hat
========  ===========================  ====================  =========================
spike     4z then 4(1-z) on [0, 1]     uniform on [-1/2,     triangular cdf
                                       1/2]
arch      (pi/2) sin(pi z) on [0, 1]   uniform on [-1/2,     half-cosine cdf
                                       1/2]
cosine    1 - cos(2 pi z) on [0, 1]    uniform on [-1/2,     raised-cosine cdf
                                       1/2]
bigauss_  1 - cos(z/2) on [0, inf)     half-and-half         tabulated convolution
cosine                                 N(+-pi, 1)
longjump  max(0, 2z - 1)               atoms at -1 and +1    uniform cdf on [-1/2, 1/2]
========  ===========================  ====================  =========================

The bi-Gaussian construction works because the mixture's characteristic
function vanishes at frequency 1/2, which kills the oscillating part of
the smoothed f; its encoding cdf has no closed form.  Its 4097 values
were tabulated once by quadrature and ship with the package as
``bigauss_cosine_cdf.npy``, so the first lookup of ``bigauss_cosine``
loads 33 KB and computes only the PCHIP interpolant, with the same bits
under every BLAS kernel.

The five are rows of one table, ``_BUILDERS``, each built on its first
lookup through :func:`get_tuple`; :func:`register_tuple` adds a row.
Each weight function is written once, on float arrays, and one adapter,
``_elementwise``, gives it the float/array convention of
:class:`GoodTuple`: a scalar in, a float out.

Since sigma is symmetric, (f * sigma')(z) = E f(z + eps), so both
checks compute E f(e + eps) by the composite Gauss-Legendre rule that
made the bi-Gaussian table.  The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Callable

import numpy as np

from .distributions import (
    GaussianMixture,
    HalfCosine,
    RaisedCosine,
    SymmetricDistribution,
    TabulatedSymmetric,
    Triangular,
    TwoPoint,
    UniformInterval,
    _maybe_scalar,
)
from .errors import ConfigError, DomainError, NoDensityError, _count

__all__ = [
    "GoodTuple",
    "ValidationReport",
    "ConvolutionReport",
    "get_tuple",
    "register_tuple",
    "TUPLE_NAMES",
    "validate_tuple",
    "convolution_check",
]


@dataclass(frozen=True)
class GoodTuple:
    """A calibrated estimator tuple.

    ``f`` vanishes for z <= 0 and ``f_prime`` is its a.e. derivative
    with the convention f_prime = 0 exactly at the declared ``kinks``
    (points of nondifferentiability, all on z >= 0).  Both accept
    floats or arrays.  ``sigma`` is sampled one draw per coordinate;
    ``sigma_hat`` must expose cdf, inv_cdf and density.
    """

    name: str
    f: Callable
    f_prime: Callable
    sigma: SymmetricDistribution
    sigma_hat: SymmetricDistribution
    kinks: tuple[float, ...] = ()


# ---------- the five shipped tuples ----------


def _elementwise(body):
    """A weight function from ``body``, which maps a float array
    elementwise: the input is converted to a float array, and a scalar
    input gets a float back.  The result keeps ``body``'s name, so a
    tuple pickles its weight functions by reference."""

    @wraps(body)
    def fn(z):
        t = np.asarray(z, dtype=float)
        return _maybe_scalar(body(t), t.ndim == 0)

    return fn


@_elementwise
def _spike_f(t):
    return np.where((t >= 0.0) & (t <= 0.5), 4.0 * t,
                    np.where((t > 0.5) & (t <= 1.0), 4.0 * (1.0 - t), 0.0))


@_elementwise
def _spike_fp(t):
    return np.where((t > 0.0) & (t < 0.5), 4.0, np.where((t > 0.5) & (t < 1.0), -4.0, 0.0))


@_elementwise
def _arch_f(t):
    return np.where((t >= 0.0) & (t <= 1.0), 0.5 * math.pi * np.sin(math.pi * t), 0.0)


@_elementwise
def _arch_fp(t):
    return np.where((t > 0.0) & (t < 1.0), 0.5 * math.pi**2 * np.cos(math.pi * t), 0.0)


@_elementwise
def _cosine_f(t):
    return np.where((t >= 0.0) & (t <= 1.0), 1.0 - np.cos(2.0 * math.pi * t), 0.0)


@_elementwise
def _cosine_fp(t):
    return np.where((t > 0.0) & (t < 1.0), 2.0 * math.pi * np.sin(2.0 * math.pi * t), 0.0)


@_elementwise
def _longjump_f(t):
    return np.maximum(0.0, 2.0 * t - 1.0)


@_elementwise
def _longjump_fp(t):
    return np.where(t > 0.5, 2.0, 0.0)


@_elementwise
def _bigauss_f(t):
    return np.where(t >= 0.0, 1.0 - np.cos(0.5 * t), 0.0)


@_elementwise
def _bigauss_fp(t):
    return np.where(t > 0.0, 0.5 * np.sin(0.5 * t), 0.0)


_BIGAUSS_CENTER = math.pi
_BIGAUSS_SCALE = 1.0
_BIGAUSS_GRID_POINTS = 4097
# The bi-Gaussian encoding cdf at the 4097 grid points, float64.  For
# z >= 0 it is 1 - B(z) with
#
#     B(z) = integral_0^inf (1 - cos(w/2)) sigma'(z + w) dw,
#
# because the oscillating part of f integrates to zero against sigma
# (the mixture centers sit at +-pi, so its characteristic function
# vanishes at frequency 1/2; the same fact makes the cdf exactly
# symmetric, which fills in z < 0).  The file was made once with
# np.save from a composite Gauss-Legendre rule, 64 panels of 24 nodes
# on [0, pi + 12], summed as one matrix-vector product over the
# (2049, 1536) mixture densities and clipped to [0, 1];
# tests/test_tuples.py::_one_shot_bigauss_table repeats that quadrature
# and pins the file bit for bit.  Loading the values keeps their bits
# independent of the BLAS kernel that would sum that product.
_BIGAUSS_CDF_FILE = Path(__file__).with_name("bigauss_cosine_cdf.npy")


def _gauss_legendre_panels(lo: float, hi: float, n_panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = (0.5 * (b - a) * t[None, :] + 0.5 * (a + b)).ravel()
    weights = (0.5 * (b - a) * w[None, :]).ravel()
    return nodes, weights


def _bigauss_sigma_hat() -> TabulatedSymmetric:
    """The bi-Gaussian encoding cdf, PCHIP through the shipped table on
    4097 points over +-(pi + 8)."""
    half_span = _BIGAUSS_CENTER + 8.0 * _BIGAUSS_SCALE
    grid = np.linspace(-half_span, half_span, _BIGAUSS_GRID_POINTS)
    return TabulatedSymmetric(grid, np.load(_BIGAUSS_CDF_FILE))


# ---------- registry ----------

# The shipped tuples, each built on its first lookup: bigauss_cosine
# loads its encoding table then, and not at import.  register_tuple adds
# user-built rows.
_BUILDERS: dict[str, Callable[[], GoodTuple]] = {
    # Tent weight on [0, 1] smoothed by uniform noise on [-1/2, 1/2].
    "spike": lambda: GoodTuple("spike", _spike_f, _spike_fp, UniformInterval(0.5),
                               Triangular(0.5), (0.0, 0.5, 1.0)),
    # Sine arch weight on [0, 1] smoothed by the same uniform noise.
    "arch": lambda: GoodTuple("arch", _arch_f, _arch_fp, UniformInterval(0.5),
                              HalfCosine(0.5), (0.0, 1.0)),
    # 1 - cos(2 pi z) on [0, 1]; the raised-cosine inverse is numeric.
    "cosine": lambda: GoodTuple("cosine", _cosine_f, _cosine_fp, UniformInterval(0.5),
                                RaisedCosine(0.5), (0.0, 1.0)),
    # 1 - cos(z/2) smoothed by an equal mixture of N(+-pi, 1).  Its
    # encoding cdf has no closed form: the shipped table's 4097 grid
    # points over +-(pi + 8), interpolated by PCHIP and inverted in the
    # cell that brackets each quantile, with the bits of bisecting the
    # interpolant.
    "bigauss_cosine": lambda: GoodTuple(
        "bigauss_cosine", _bigauss_f, _bigauss_fp,
        GaussianMixture(_BIGAUSS_CENTER, _BIGAUSS_SCALE), _bigauss_sigma_hat(), (0.0,)),
    # Ramp weight with two-point noise at +-1; the encoding is linear.
    # The noise always jumps the encoded point across the origin by +-1,
    # so |z| lands in (1/2, 3/2) where f(z) = 2z - 1; the clamped form
    # max(0, 2z - 1) extends f continuously to the whole line.
    "longjump": lambda: GoodTuple("longjump", _longjump_f, _longjump_fp, TwoPoint(1.0),
                                  UniformInterval(0.5), (0.5,)),
}

TUPLE_NAMES = tuple(_BUILDERS)

_CACHE: dict[str, GoodTuple] = {}


def get_tuple(name: str) -> GoodTuple:
    """Look up a tuple by name (shipped or registered)."""
    key = str(name).lower()
    if key not in _CACHE:
        if key not in _BUILDERS:
            raise ConfigError(f"unknown tuple {name!r}; known: {', '.join(_BUILDERS)}")
        _CACHE[key] = _BUILDERS[key]()
    return _CACHE[key]


def register_tuple(tup: GoodTuple, *, overwrite: bool = False) -> None:
    """Make a user-built tuple addressable by name.

    Its ``sigma_hat.inv_cdf`` and ``sigma_hat.density`` must give each
    entry of an array the bits it would get alone, as the shipped laws
    do (a bisected inverse stops each entry on its own bracket): descent
    maps again only the state entries that moved.
    """
    key = tup.name.lower()
    if key in _BUILDERS and not overwrite:
        raise ConfigError(f"tuple name {tup.name!r} is already taken")
    _BUILDERS[key] = lambda: tup
    _CACHE[key] = tup


# ---------- calibration checks ----------


@dataclass(frozen=True)
class ValidationReport:
    """Calibration residuals |E f(sigma_hat^{-1}(x) + eps) - x| per x."""

    name: str
    method: str
    xs: np.ndarray
    residuals: np.ndarray
    max_residual: float


@dataclass(frozen=True)
class ConvolutionReport:
    """Residuals |(f * sigma')(z) - sigma_hat(z)| per grid point."""

    name: str
    z_grid: np.ndarray
    residuals: np.ndarray
    max_residual: float


def _density_bounds(sigma: SymmetricDistribution) -> tuple[float, float]:
    lo, hi = sigma.support
    if math.isinf(hi):
        if not isinstance(sigma, GaussianMixture):
            raise NoDensityError("cannot bound the support of this law")
        hi = sigma.center + 12.0 * sigma.scale
        lo = -hi
    return lo, hi


def _grid(name: str, values) -> np.ndarray:
    """``values`` as a float array, checked to be a non-empty, finite 1-D grid."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or not grid.size or not np.isfinite(grid).all():
        raise DomainError(f"{name} must be a non-empty 1-D array of finite numbers")
    return grid


# _smooth's rule: panels per piece of sigma's support, nodes per panel.
_SMOOTH_PANELS = 8
_SMOOTH_ORDER = 24


def _smooth(tup: GoodTuple, e: float) -> float:
    """E_{eps ~ sigma}[ f(e + eps) ], summed over the pieces of sigma's
    support between the points k - e, k a kink of f."""
    lo, hi = _density_bounds(tup.sigma)
    edges = [lo, *sorted(k - e for k in tup.kinks if lo < k - e < hi), hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        u, w = _gauss_legendre_panels(a, b, _SMOOTH_PANELS, _SMOOTH_ORDER)
        total += float(w @ (np.asarray(tup.f(e + u)) * tup.sigma.density(u)))
    return total


def validate_tuple(
    tup: GoodTuple,
    xs=None,
    method: str = "quadrature",
    *,
    n_samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> ValidationReport:
    """Measure the calibration identity over a grid of probabilities.

    ``method`` is ``"quadrature"`` (composite Gauss-Legendre; an exact
    two-point average when sigma is a two-point law) or ``"monte_carlo"``
    (which requires ``rng``).  Residuals of a calibrated tuple are limited
    by the numerics of sigma_hat's inverse and of the integration.
    """
    xs = _grid("xs", np.arange(1, 100) / 100.0 if xs is None else xs)
    if np.any(xs <= 0.0) or np.any(xs >= 1.0):
        raise DomainError("calibration grid must lie strictly inside (0, 1)")
    n_samples = _count("n_samples", n_samples)

    es = np.atleast_1d(tup.sigma_hat.inv_cdf(xs))
    if method == "quadrature":
        if isinstance(tup.sigma, TwoPoint):
            c = tup.sigma.magnitude
            expected = 0.5 * (
                np.asarray(tup.f(es + c)) + np.asarray(tup.f(es - c))
            )
        elif not tup.sigma.has_density:
            raise NoDensityError(
                "quadrature validation needs a density or a two-point law"
            )
        else:
            expected = np.array([_smooth(tup, float(e)) for e in es])
    elif method == "monte_carlo":
        if rng is None:
            raise DomainError("monte_carlo validation requires an rng")
        expected = np.empty(es.size)
        for i, e in enumerate(es):
            eps = tup.sigma.sample(rng, n_samples)
            expected[i] = float(np.mean(np.asarray(tup.f(e + eps))))
    else:
        raise ConfigError(f"unknown validation method {method!r}")

    residuals = np.abs(expected - xs)
    return ValidationReport(
        name=tup.name,
        method=method,
        xs=xs,
        residuals=residuals,
        max_residual=float(np.max(residuals)),
    )


def convolution_check(tup: GoodTuple, z_grid=None) -> ConvolutionReport:
    """Compare (f * sigma')(z) = E f(z + eps) against sigma_hat(z) pointwise.

    Raises :class:`NoDensityError` when sigma has no density (the
    two-point law); use :func:`validate_tuple` there instead.
    """
    if not tup.sigma.has_density:
        raise NoDensityError("convolution check needs sigma to have a density")
    if z_grid is None:
        lo, hi = tup.sigma_hat.support
        if math.isinf(hi):
            lo = tup.sigma_hat.inv_cdf(0.001)
            hi = tup.sigma_hat.inv_cdf(0.999)
        z_grid = np.linspace(lo, hi, 99)
    z_grid = _grid("z_grid", z_grid)

    conv = np.array([_smooth(tup, float(z)) for z in z_grid])
    residuals = np.abs(conv - np.asarray(tup.sigma_hat.cdf(z_grid)))
    return ConvolutionReport(
        name=tup.name,
        z_grid=z_grid,
        residuals=residuals,
        max_residual=float(np.max(residuals)),
    )
