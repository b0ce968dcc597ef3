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
the smoothed f; its encoding cdf has no closed form and is tabulated by
quadrature once per process, on the first lookup of ``bigauss_cosine``.
The build fills its 2049 x 1536 density matrix in row blocks, so it
holds that one 25 MB matrix and little else.

Since sigma is symmetric, (f * sigma')(z) = E f(z + eps), so both
checks compute E f(e + eps) by the same composite Gauss-Legendre rule
as the bi-Gaussian table.  The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
from .errors import ConfigError, DomainError, NoDensityError

__all__ = [
    "GoodTuple",
    "ValidationReport",
    "ConvolutionReport",
    "make_spike",
    "make_arch",
    "make_cosine",
    "make_bigauss_cosine",
    "make_longjump",
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


def _spike_f(z):
    t = np.asarray(z, dtype=float)
    out = np.where(
        (t >= 0.0) & (t <= 0.5),
        4.0 * t,
        np.where((t > 0.5) & (t <= 1.0), 4.0 * (1.0 - t), 0.0),
    )
    return _maybe_scalar(out, t.ndim == 0)


def _spike_fp(z):
    t = np.asarray(z, dtype=float)
    out = np.where(
        (t > 0.0) & (t < 0.5), 4.0, np.where((t > 0.5) & (t < 1.0), -4.0, 0.0)
    )
    return _maybe_scalar(out, t.ndim == 0)


def _arch_f(z):
    t = np.asarray(z, dtype=float)
    inside = (t >= 0.0) & (t <= 1.0)
    out = np.where(inside, 0.5 * math.pi * np.sin(math.pi * t), 0.0)
    return _maybe_scalar(out, t.ndim == 0)


def _arch_fp(z):
    t = np.asarray(z, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.where(inside, 0.5 * math.pi**2 * np.cos(math.pi * t), 0.0)
    return _maybe_scalar(out, t.ndim == 0)


def _cosine_f(z):
    t = np.asarray(z, dtype=float)
    inside = (t >= 0.0) & (t <= 1.0)
    out = np.where(inside, 1.0 - np.cos(2.0 * math.pi * t), 0.0)
    return _maybe_scalar(out, t.ndim == 0)


def _cosine_fp(z):
    t = np.asarray(z, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.where(inside, 2.0 * math.pi * np.sin(2.0 * math.pi * t), 0.0)
    return _maybe_scalar(out, t.ndim == 0)


def _longjump_f(z):
    t = np.asarray(z, dtype=float)
    out = np.maximum(0.0, 2.0 * t - 1.0)
    return _maybe_scalar(out, t.ndim == 0)


def _longjump_fp(z):
    t = np.asarray(z, dtype=float)
    out = np.where(t > 0.5, 2.0, 0.0)
    return _maybe_scalar(out, t.ndim == 0)


def _bigauss_f(z):
    t = np.asarray(z, dtype=float)
    out = np.where(t >= 0.0, 1.0 - np.cos(0.5 * t), 0.0)
    return _maybe_scalar(out, t.ndim == 0)


def _bigauss_fp(z):
    t = np.asarray(z, dtype=float)
    out = np.where(t > 0.0, 0.5 * np.sin(0.5 * t), 0.0)
    return _maybe_scalar(out, t.ndim == 0)


def make_spike() -> GoodTuple:
    """Tent weight on [0, 1] smoothed by uniform noise on [-1/2, 1/2]."""
    return GoodTuple(
        name="spike",
        f=_spike_f,
        f_prime=_spike_fp,
        sigma=UniformInterval(0.5),
        sigma_hat=Triangular(0.5),
        kinks=(0.0, 0.5, 1.0),
    )


def make_arch() -> GoodTuple:
    """Sine arch weight on [0, 1] smoothed by uniform noise on [-1/2, 1/2]."""
    return GoodTuple(
        name="arch",
        f=_arch_f,
        f_prime=_arch_fp,
        sigma=UniformInterval(0.5),
        sigma_hat=HalfCosine(0.5),
        kinks=(0.0, 1.0),
    )


def make_cosine() -> GoodTuple:
    """1 - cos(2 pi z) weight on [0, 1]; the encoding inverse is numeric."""
    return GoodTuple(
        name="cosine",
        f=_cosine_f,
        f_prime=_cosine_fp,
        sigma=UniformInterval(0.5),
        sigma_hat=RaisedCosine(0.5),
        kinks=(0.0, 1.0),
    )


def make_longjump() -> GoodTuple:
    """Ramp weight with two-point noise at +-1; the encoding is linear.

    The perturbation always jumps the encoded point across the origin
    by +-1, so |z| lands in (1/2, 3/2) where f(z) = 2z - 1; the clamped
    form max(0, 2z - 1) extends f continuously to the whole line.
    """
    return GoodTuple(
        name="longjump",
        f=_longjump_f,
        f_prime=_longjump_fp,
        sigma=TwoPoint(1.0),
        sigma_hat=UniformInterval(0.5),
        kinks=(0.5,),
    )


_BIGAUSS_CENTER = math.pi
_BIGAUSS_SCALE = 1.0
_BIGAUSS_GRID_POINTS = 4097
# Grid rows of the density matrix filled per block while it is tabulated.
_BIGAUSS_BLOCK_ROWS = 64


def _gauss_legendre_panels(lo: float, hi: float, n_panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = (0.5 * (b - a) * t[None, :] + 0.5 * (a + b)).ravel()
    weights = (0.5 * (b - a) * w[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=1)
def _bigauss_sigma_hat() -> TabulatedSymmetric:
    """Tabulate the bi-Gaussian encoding cdf by quadrature.

    For z >= 0 the smoothed weight splits as 1 - B(z) with

        B(z) = integral_0^inf (1 - cos(w/2)) sigma'(z + w) dw,

    because the oscillating part of f integrates to zero against sigma
    (the mixture centers sit at +-pi, so its characteristic function
    vanishes at frequency 1/2; the same fact makes the cdf exactly
    symmetric, which fills in z < 0).  The integrand is smooth, so a
    composite Gauss-Legendre rule resolves it to near machine
    precision.

    The (2049, 1536) matrix of mixture densities at grid point + node
    is allocated once and filled ``_BIGAUSS_BLOCK_ROWS`` rows at a time,
    so only block-sized temporaries sit beside it.  The quadrature stays
    one matrix-vector product over the whole matrix: one product per
    block would leave each row's sum to how BLAS splits the rows.  Every
    entry comes from the same elementwise operations as building the
    matrix in one piece, so the table has the same bits.
    """
    m, s = _BIGAUSS_CENTER, _BIGAUSS_SCALE
    sigma = GaussianMixture(m, s)
    half_span = m + 8.0 * s
    n_pos = _BIGAUSS_GRID_POINTS // 2 + 1
    z_pos = np.linspace(0.0, half_span, n_pos)
    # Integration range: the mixture density is negligible past m + 12 s.
    w_nodes, w_weights = _gauss_legendre_panels(0.0, m + 12.0 * s, 64, 24)
    f_vals = 1.0 - np.cos(0.5 * w_nodes)
    dens = np.empty((n_pos, w_nodes.size))
    for i in range(0, n_pos, _BIGAUSS_BLOCK_ROWS):
        block = slice(i, i + _BIGAUSS_BLOCK_ROWS)
        dens[block] = sigma.density(z_pos[block, None] + w_nodes[None, :])
    b = dens @ (w_weights * f_vals)
    vals_pos = 1.0 - b
    grid = np.linspace(-half_span, half_span, _BIGAUSS_GRID_POINTS)
    vals = np.empty(_BIGAUSS_GRID_POINTS)
    vals[n_pos - 1 :] = vals_pos
    vals[: n_pos - 1] = 1.0 - vals_pos[:0:-1]
    return TabulatedSymmetric(grid, np.clip(vals, 0.0, 1.0))


def make_bigauss_cosine() -> GoodTuple:
    """1 - cos(z/2) weight smoothed by an equal mixture of N(+-pi, 1).

    The encoding cdf has no closed form; it is tabulated once per
    process (4097 grid points over +-(pi + 8)), interpolated with PCHIP
    and inverted by bisection inside the cell that brackets each
    quantile.  The bisection evaluates that cell's cubic exactly as the
    interpolant does, so it makes the same comparisons as bisecting the
    interpolated cdf and returns the same bits (see
    :class:`~sqgrad.distributions.TabulatedSymmetric`).
    """
    return GoodTuple(
        name="bigauss_cosine",
        f=_bigauss_f,
        f_prime=_bigauss_fp,
        sigma=GaussianMixture(_BIGAUSS_CENTER, _BIGAUSS_SCALE),
        sigma_hat=_bigauss_sigma_hat(),
        kinks=(0.0,),
    )


# ---------- registry ----------

_BUILDERS: dict[str, Callable[[], GoodTuple]] = {
    "spike": make_spike,
    "arch": make_arch,
    "cosine": make_cosine,
    "bigauss_cosine": make_bigauss_cosine,
    "longjump": make_longjump,
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
    """Make a user-built tuple addressable by name."""
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
    if xs is None:
        xs = np.arange(1, 100) / 100.0
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0.0) or np.any(xs >= 1.0):
        raise DomainError("calibration grid must lie strictly inside (0, 1)")
    if int(n_samples) < 1:
        raise DomainError("n_samples must be at least 1")

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
    z_grid = np.asarray(z_grid, dtype=float)

    conv = np.array([_smooth(tup, float(z)) for z in z_grid])
    residuals = np.abs(conv - np.asarray(tup.sigma_hat.cdf(z_grid)))
    return ConvolutionReport(
        name=tup.name,
        z_grid=z_grid,
        residuals=residuals,
        max_residual=float(np.max(residuals)),
    )
