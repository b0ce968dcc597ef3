"""One-dimensional symmetric laws used as perturbation noise and as encodings.

Every law here is symmetric about the origin.  Wherever the cdf F is
continuous it therefore satisfies F(z) + F(-z) = 1, and the inverse cdf
(when it exists) satisfies F^{-1}(x) = -F^{-1}(1 - x).

The shipped estimator tuples draw their perturbation noise from
:class:`UniformInterval` (uniform on [-c, c]), :class:`TwoPoint` (half
mass on -c and half on +c) or :class:`GaussianMixture` (equal-weight
N(m, s^2) and N(-m, s^2)).  Their encodings are :class:`Triangular`,
:class:`HalfCosine`, :class:`RaisedCosine`, :class:`UniformInterval`
and :class:`TabulatedSymmetric`.

The public ``cdf``, ``inv_cdf`` and ``density`` live in
:class:`SymmetricDistribution`; a law implements only ``_cdf``,
``_inv_cdf`` and ``_density`` on float arrays.  Scalar input yields a
float, and ``sample(rng)`` with no size returns a float.  Samplers
consume a ``numpy.random.Generator`` so that streams can be derived and
replayed deterministically.

Each law defines its sampler once, as two halves:

* ``draw(rng, out)`` writes the generator output into ``out``, of shape
  ``(draws, *size)``: plane k holds the k-th generator call, in the
  order the law consumes its stream;
* ``from_draws(raw)`` maps such planes elementwise to noise, for any
  shape behind the leading ``draws`` axis.

``sample`` is ``from_draws`` after ``draw``.  A caller that fills the
rows of one buffer from different generators can map the whole buffer
in one pass and get, row by row, the bits ``sample`` would give.  Laws
sampled by inverse transform do the whole transform in ``draw`` (their
``from_draws`` only drops the plane axis), so a bisection stops on one
call's entries alone and never couples rows drawn from different
streams.

The module needs numpy only.  :class:`TabulatedSymmetric` computes its
PCHIP coefficients itself, with the formulas and the order of
operations of scipy's ``PchipInterpolator``, and evaluates them as
scipy's ``PPoly`` does: one cell lookup serves its cdf and density, and
the cubic is summed in PPoly's order, so each value has scipy's bits.

:meth:`TabulatedSymmetric.inv_cdf` bisects each quantile's PCHIP cell
until the call's widest bracket is below ``INV_TOL``.  It replays most
of the rounds, steering the loop's own midpoints by a Newton root of
the cell's cubic, certifies each entry against a proven bound on the
cubic's rounding error, redoes the few that fail with the exact
comparison, and runs the last rounds exactly: the round count and
every output bit are those of bisecting its cdf.  Inverses by bisection
return an empty array, of the input's shape, for an empty input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    NoDensityError,
    NotInvertibleError,
)

__all__ = [
    "SymmetricDistribution",
    "UniformInterval",
    "TwoPoint",
    "GaussianMixture",
    "Triangular",
    "HalfCosine",
    "RaisedCosine",
    "TabulatedSymmetric",
]


def _maybe_scalar(out: np.ndarray, scalar: bool) -> float | np.ndarray:
    return float(out) if scalar else out


# Standard normal cdf; erfc keeps the lower tail's relative precision.
_ndtr = np.vectorize(lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0)), otypes=[float])


def _bisect_increasing(fn, x, lo, hi, *, tol: float = 1e-12, max_iter: int = 200):
    """Invert a nondecreasing function by bisection.

    ``fn`` must satisfy fn(lo) <= x <= fn(hi) elementwise.  Returns the
    bracket midpoint once its width falls below ``tol`` (absolute, in
    the argument), or after ``max_iter`` halvings.
    """
    x = np.asarray(x, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape).copy()
    for _ in range(max_iter):
        if np.max(hi - lo, initial=0.0) < tol:
            break
        mid = 0.5 * (lo + hi)
        right = fn(mid) < x
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


class SymmetricDistribution:
    """Common interface: cdf, inv_cdf, density, sample, support.

    ``cdf``, ``inv_cdf`` and ``density`` convert their input to a float
    array, call the law's ``_cdf``, ``_inv_cdf`` or ``_density`` on it
    and return a float for a scalar; ``inv_cdf`` first rejects
    probabilities outside (0, 1).  A law without a body raises
    ``NotImplementedError``; one whose density or inverse does not exist
    raises :class:`NoDensityError` / :class:`NotInvertibleError` instead
    of returning garbage.  Laws without a closed-form sampler inherit
    inverse-transform sampling.
    """

    has_density: bool = True
    #: Generator planes per noise entry, the leading axis of ``draw``'s ``out``.
    draws: int = 1

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return _maybe_scalar(self._cdf(z), z.ndim == 0)

    def inv_cdf(self, x):
        x = np.asarray(x, dtype=float)
        # One pass each way; a NaN fails both comparisons and is rejected.
        if x.size and not (x.min() > 0.0 and x.max() < 1.0):
            raise DomainError("inv_cdf expects probabilities strictly inside (0, 1)")
        return _maybe_scalar(self._inv_cdf(x), x.ndim == 0)

    def density(self, z):
        z = np.asarray(z, dtype=float)
        return _maybe_scalar(self._density(z), z.ndim == 0)

    def _cdf(self, z: np.ndarray):
        raise NotImplementedError(f"{type(self).__name__} has no cdf")

    def _inv_cdf(self, x: np.ndarray):
        raise NotImplementedError(f"{type(self).__name__} has no inv_cdf")

    def _density(self, z: np.ndarray):
        raise NotImplementedError(f"{type(self).__name__} has no density")

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out``, shape (draws, *size), with generator output.

        The default is the whole inverse transform of one uniform plane.
        """
        u = rng.random(out=out[0])
        # random() lives in [0, 1); nudge exact zeros into the open interval.
        np.maximum(u, 1e-300, out=u)
        out[0] = self.inv_cdf(u)

    def from_draws(self, raw: np.ndarray) -> np.ndarray:
        """Noise from ``draw`` output, elementwise over ``raw[k]``."""
        return raw[0]

    def sample(self, rng: np.random.Generator, size=None):
        shape = (1,) if size is None else tuple(np.atleast_1d(size))
        raw = np.empty((self.draws, *shape))
        self.draw(rng, raw)
        out = self.from_draws(raw)
        return float(out[0]) if size is None else out


@dataclass(frozen=True)
class _HalfWidth(SymmetricDistribution):
    """A law on [-half_width, half_width], c = half_width > 0."""

    half_width: float

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise DomainError("half_width must be positive")

    @property
    def support(self) -> tuple[float, float]:
        return (-self.half_width, self.half_width)


class UniformInterval(_HalfWidth):
    """Uniform law on [-half_width, half_width]."""

    def _cdf(self, z):
        c = self.half_width
        return np.clip((z + c) / (2.0 * c), 0.0, 1.0)

    def _inv_cdf(self, x):
        return (2.0 * x - 1.0) * self.half_width

    def _density(self, z):
        c = self.half_width
        return np.where(np.abs(z) <= c, 1.0 / (2.0 * c), 0.0)

    def draw(self, rng, out):
        rng.random(out=out[0])

    def from_draws(self, raw):
        return self.half_width * (2.0 * raw[0] - 1.0)


@dataclass(frozen=True)
class TwoPoint(SymmetricDistribution):
    """Atoms of mass 1/2 at -magnitude and +magnitude."""

    magnitude: float
    has_density = False

    def __post_init__(self):
        if not self.magnitude > 0.0:
            raise DomainError("magnitude must be positive")

    @property
    def support(self) -> tuple[float, float]:
        return (-self.magnitude, self.magnitude)

    def _cdf(self, z):
        # Right-continuous step function.
        c = self.magnitude
        return np.where(z < -c, 0.0, np.where(z < c, 0.5, 1.0))

    def _inv_cdf(self, x):
        raise NotInvertibleError("a two-point law has no continuous inverse cdf")

    def _density(self, z):
        raise NoDensityError("a two-point law has no density")

    def draw(self, rng, out):
        rng.random(out=out[0])

    def from_draws(self, raw):
        c = self.magnitude
        return np.where(raw[0] < 0.5, -c, c)


@dataclass(frozen=True)
class GaussianMixture(SymmetricDistribution):
    """Equal-weight mixture of N(center, scale^2) and N(-center, scale^2)."""

    center: float
    scale: float
    draws = 2

    def __post_init__(self):
        if not self.scale > 0.0:
            raise DomainError("scale must be positive")
        if self.center < 0.0:
            raise DomainError("center must be nonnegative")

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def _cdf(self, z):
        m, s = self.center, self.scale
        return 0.5 * (_ndtr((z - m) / s) + _ndtr((z + m) / s))

    def _density(self, z):
        # (exp(-0.5 ((z - m) / s) ** 2) + exp(-0.5 ((z + m) / s) ** 2))
        # / (2 s sqrt(2 pi)), evaluated in place: the bigauss encoding
        # table calls it on 64-row blocks of a 2049 x 1536 grid.
        m, s = self.center, self.scale
        a = self._bump(z - m)
        a += self._bump(z + m)
        a /= 2.0 * s * math.sqrt(2.0 * math.pi)
        return a

    def _bump(self, t):
        """exp(-0.5 (t / scale) ** 2), overwriting an array t.

        A 0-d z reaches here as a numpy scalar, whose ``** 2`` is pow()
        and not an array's square; the operators keep each one's bits.
        """
        t /= self.scale
        t **= 2
        t *= -0.5
        return np.exp(t, out=t) if t.ndim else np.exp(t)

    def draw(self, rng, out):
        # The component's sign first, then the normal, as one stream.
        rng.random(out=out[0])
        rng.standard_normal(out=out[1])

    def from_draws(self, raw):
        sign = np.where(raw[0] < 0.5, -1.0, 1.0)
        return sign * self.center + self.scale * raw[1]


class Triangular(_HalfWidth):
    """Symmetric triangular law on [-half_width, half_width], peak at 0."""

    def _cdf(self, z):
        c = self.half_width
        t = np.clip(z, -c, c)
        left = (c + t) ** 2 / (2.0 * c * c)
        right = 1.0 - (c - t) ** 2 / (2.0 * c * c)
        return np.where(t <= 0.0, left, right)

    def _inv_cdf(self, x):
        c = self.half_width
        left = c * (np.sqrt(2.0 * x) - 1.0)
        right = c * (1.0 - np.sqrt(2.0 * (1.0 - x)))
        return np.where(x <= 0.5, left, right)

    def _density(self, z):
        c = self.half_width
        return np.where(np.abs(z) <= c, (c - np.abs(z)) / (c * c), 0.0)


class HalfCosine(_HalfWidth):
    """Law with density proportional to cos(pi z / (2 c)) on [-c, c]."""

    def _cdf(self, z):
        c = self.half_width
        t = np.clip(z, -c, c)
        return 0.5 * (1.0 + np.sin(0.5 * math.pi * t / c))

    def _inv_cdf(self, x):
        c = self.half_width
        return (2.0 * c / math.pi) * np.arcsin(2.0 * x - 1.0)

    def _density(self, z):
        c = self.half_width
        inside = np.abs(z) <= c
        return np.where(
            inside, (math.pi / (4.0 * c)) * np.cos(0.5 * math.pi * z / c), 0.0
        )


class RaisedCosine(_HalfWidth):
    """Law with density (1 + cos(pi z / c)) / (2 c) on [-c, c]."""

    INV_TOL = 1e-13
    INV_MAX_ITER = 200

    def _cdf(self, z):
        c = self.half_width
        t = np.clip(z, -c, c)
        return 0.5 + 0.5 * t / c + np.sin(math.pi * t / c) / (2.0 * math.pi)

    def _inv_cdf(self, x):
        # No closed form: the cdf mixes a line and a sine.
        c = self.half_width
        lo = np.full(x.shape, -c)
        hi = np.full(x.shape, c)
        return _bisect_increasing(
            self._cdf, x, lo, hi, tol=self.INV_TOL, max_iter=self.INV_MAX_ITER
        )

    def _density(self, z):
        c = self.half_width
        inside = np.abs(z) <= c
        return np.where(inside, (1.0 + np.cos(math.pi * z / c)) / (2.0 * c), 0.0)


def _pchip_end_slope(h0, h1, m0, m1):
    """PCHIP end slope: the one-sided three-point rule, shape-corrected."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients, shape (4, n - 1), of the PCHIP through (x, y).

    Cell i holds c[0] s^3 + c[1] s^2 + c[2] s + c[3] with s = t - x[i].
    The slopes follow scipy's ``PchipInterpolator`` (Fritsch-Butland
    weighted harmonic means, zero at a sign change or a flat secant)
    and the coefficients its ``CubicHermiteSpline``, op for op, so every
    coefficient has scipy's bits.  Needs n >= 3 finite points with x
    strictly increasing; very short cells can overflow to inf or NaN.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # Division by zero only where ``flat`` discards the result.
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


class TabulatedSymmetric(SymmetricDistribution):
    """Law given by cdf values on a grid, interpolated monotonically.

    Intended for encodings whose cdf is only available numerically.
    The grid must be finite and strictly increasing and the values
    finite and nondecreasing within [0, 1]; the interpolant is monotone
    cubic (PCHIP), so the tabulated monotonicity is preserved
    everywhere.  Outside the grid the cdf saturates at its end values.

    The cubic's coefficients are computed here once, with the formulas
    and the order of operations of scipy's ``PchipInterpolator``, and
    evaluated as its ``PPoly`` evaluates them: one cell lookup (cells
    half-open, the last one closed) and a power sum, not Horner, for
    the cdf and for the density.  So :meth:`cdf` and :meth:`density`
    return, bit for bit, what scipy's interpolant and its derivative
    return, and no scipy module is loaded.

    Inversion brackets the quantile on the grid and then bisects the
    interpolated cdf; the bracket is shrunk well below the documented
    1e-10 guarantee so downstream encode/decode round-trips are tight.
    The table bracket lies in one PCHIP cell, so the bisection gathers
    that cell's cubic once and evaluates it in place at each step, with
    no call of :meth:`cdf`.  It sums the cubic in the same order and
    takes the table value at an inner cell's right end, as the cell
    lookup does; every comparison, and so every output bit, is that of
    bisecting :meth:`cdf` itself.  The loop runs until the widest
    bracket of the call is below ``INV_TOL``.

    Most of its rounds are replayed, not evaluated.  The stop rule is
    certain to run the first few rounds (a lower bound on the widest
    bracket, :meth:`_certain_rounds`); all of them but the last
    ``INV_TAIL`` take the loop's own midpoint ``0.5 (lo + hi)`` and
    decide it by ``mid < r``, r a Newton root of the cell's cubic, in a
    handful of numpy calls and no cubic.  Then each entry is certified:
    a ``lo`` that moved must have ``cubic(lo) < x - M`` and a ``hi`` that
    moved ``cubic(hi) >= x + M``.  M is the cell's margin,
    eps (4 |c3| + 64 S) with S = |c2| h + |c1| h^2 + |c0| h^3: twice the
    rounding error of the summed cubic (gamma_3 of c3, gamma_4 of each
    other term; Higham, *Accuracy and Stability of Numerical
    Algorithms*, 3.1 and 5.1) and that of x -+ M come to under
    4 eps |c3| + 5 eps S; the rest covers the distance of the cubic with
    rounded coefficients from the Hermite cubic through the cell's end
    values and slopes, which PCHIP's slopes make monotone (Fritsch &
    Carlson, *SIAM J. Numer. Anal.* 1980).

    Why a certified entry ends where the exact loop does.  ``lo`` only
    rises, to midpoints below r, and ``hi`` only falls, to midpoints at
    or above r.  Each midpoint m sent to ``lo`` lies at or left of the
    final ``lo``, and below r, which is at most the cell's right end, so
    the edge rule lets it go; if ``lo`` moved, the offset ``m - left``
    rounds monotonically, so the computed cubic at m exceeds the one at
    ``lo`` by less than M, and cubic(m) < x: the exact loop sends m to
    ``lo`` as well.  Likewise each midpoint sent to a moved ``hi`` has
    cubic(m) >= x, and goes to ``hi`` in the exact loop too.  A bound
    that never moved was only decided at its own value, as the midpoint
    of a bracket with no float inside.  There the exact loop agrees (the
    cubic is c3 < x at an inner cell's left end, and the edge rule holds
    at its right end), or it collapses the bracket onto that value, and
    then the first exact round after the replay, deciding the same
    midpoint, collapses it too.  So after that round, by induction, each bracket
    is the exact loop's.  An entry that fails redoes its rounds with
    the exact comparison; then every entry finishes with the exact loop
    under its unchanged stop rule (the first ``INV_TAIL`` rounds of it
    are certain), so the round count and every output bit are those of
    the exact loop from the start.  A table whose widest bracket leaves
    no round to replay runs only the exact loop.
    """

    INV_TOL = 1e-13
    INV_MAX_ITER = 200
    #: Rounds inv_cdf leaves to the exact loop after its replay.
    INV_TAIL = 10

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 4 or grid.shape != values.shape:
            raise ConstructionError("grid and values must be matching 1-D arrays")
        if not (np.isfinite(grid).all() and np.isfinite(values).all()):
            raise ConstructionError("grid and tabulated cdf values must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise ConstructionError("grid must be strictly increasing")
        if np.any(np.diff(values) < 0.0):
            raise ConstructionError("tabulated cdf values must be nondecreasing")
        if values[0] < -1e-12 or values[-1] > 1.0 + 1e-12:
            raise ConstructionError("tabulated cdf values must lie in [0, 1]")
        values = np.clip(values, 0.0, 1.0)
        # Tiny cdf steps overflow a harmonic-mean term to a zero slope,
        # as in scipy; a cell too short for its step overflows the cubic.
        with np.errstate(over="ignore", invalid="ignore"):
            coef = _pchip_coefficients(grid, values)
        if not np.isfinite(coef).all():
            raise ConstructionError("a grid cell is too short for its cdf step")
        h = np.diff(grid)
        c0, c1, c2, c3 = coef
        spread = h * (np.abs(c2) + h * (np.abs(c1) + h * np.abs(c0)))
        finfo = np.finfo(float)
        margin = finfo.eps * (4.0 * np.abs(c3) + 64.0 * spread) + finfo.tiny
        with np.errstate(divide="ignore", over="ignore"):
            inv_secant = h / np.diff(values)
        self._grid = grid
        self._values = values
        self._reach = float(max(abs(grid[0]), abs(grid[-1])))
        # Per cell, for inv_cdf to gather in one take: the coefficients,
        # the chord's inverse slope for the replay's root estimate and the
        # certificate's margin M (see the class docstring).
        self._cells = np.vstack((coef, inv_secant, margin))
        self._coef = self._cells[:4]

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    @property
    def grid(self) -> np.ndarray:
        return self._grid

    def _locate(self, z):
        """Coefficients of the cell holding each z, clipped to the grid,
        and the offset s of z from the cell's left end."""
        grid = self._grid
        t = np.clip(z, grid[0], grid[-1])
        cell = np.minimum(np.searchsorted(grid, t, side="right") - 1, grid.size - 2)
        return self._coef.take(cell, axis=1), t - grid[cell]

    def _cdf(self, z):
        (c0, c1, c2, c3), s = self._locate(z)
        return (0.0 + c3) + c2 * s + c1 * (s * s) + c0 * ((s * s) * s)

    def _density(self, z):
        inside = (z >= self._grid[0]) & (z <= self._grid[-1])
        (c0, c1, c2, _), s = self._locate(z)
        # The derivative's rows are 3 c0, 2 c1 and c2, summed from 0.0.
        out = (0.0 + c2) + (2.0 * c1) * s + (3.0 * c0) * (s * s)
        out = np.where(inside, out, 0.0)
        return np.maximum(out, 0.0)

    def _inv_cdf(self, x):
        flat = np.atleast_1d(x)
        grid, last = self._grid, self._grid.size - 1
        # The table brackets each quantile in one PCHIP cell [lo, hi].
        j = np.maximum(np.searchsorted(self._values, flat, side="left"), 1)
        upper = np.minimum(j, last)
        lo = grid[j - 1]
        hi = grid[upper]
        cell = upper - 1
        left = grid[cell]
        cells = self._cells.take(cell, axis=1)
        coef = cells[:4]
        # The cell lookup takes an inner cell's right end to the next
        # cell, where the cdf is the table value, which is >= x: the
        # step goes left.
        edge = np.where(upper < last, hi, np.inf)
        certain = self._certain_rounds(np.subtract(hi, lo).max(initial=0.0))
        k = max(certain - self.INV_TAIL, 0)
        if k:
            lo0, hi0 = lo, hi
            lo, hi = _replay(flat, lo, hi, left, cells, k)
            redo = ~_certified(flat, lo0, hi0, lo, hi, left, cells)
            if redo.any():
                lo_r, hi_r = lo0[redo], hi0[redo]
                _exact_rounds(
                    flat[redo], lo_r, hi_r, left[redo], coef[:, redo], edge[redo],
                    k, k, self.INV_TOL,
                )
                lo[redo], hi[redo] = lo_r, hi_r
        _exact_rounds(
            flat, lo, hi, left, coef, edge, certain - k, self.INV_MAX_ITER - k, self.INV_TOL
        )
        return (0.5 * (lo + hi)).reshape(x.shape)

    def _certain_rounds(self, widest: float) -> int:
        """Rounds the stop rule max(hi - lo) < INV_TOL is certain to run.

        w_k bounds the real width of the widest bracket from below: a
        round halves it, less the midpoint's rounding, at most ``slip``
        (u times the grid's reach, plus a subnormal halving's), and the
        stop rule sees at least (1 - u) w_k (u = 2**-53), so round k runs
        while ``shrink w_k >= INV_TOL``; shrink = 1 - 8u also covers the
        rounding of this arithmetic.  With a = shrink / 2 the bound
        is w_k = a**k (w_0 + c) - c for c = slip / (1 - a), and rounds
        k = 0 .. floor(log(top / floor) / log(1 / a)) run, taken a hair
        low against the rounding of the logarithms.
        """
        shrink = 1.0 - 2.0**-50
        a = 0.5 * shrink
        c = (2.0**-53 * self._reach + 2.0**-1074) / (1.0 - a)
        top, floor = float(widest) * shrink + c, self.INV_TOL / shrink + c
        last = math.floor((math.log(top) - math.log(floor)) / -math.log(a) - 1e-9)
        return min(max(last + 1, 0), self.INV_MAX_ITER)


def _replay(x, lo, hi, left, cells, rounds):
    """The bisection's first ``rounds`` rounds, each decided by ``mid < r``.

    r estimates the root of the cell's cubic: the chord, then two Newton
    steps with the slope at the chord's root, clipped to the bracket (a
    NaN goes to ``lo``).
    """
    c0, c1, c2, c3, inv_secant, _ = cells
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = np.subtract(x, c3)
        s = step * inv_secant
        slope = 3.0 * c0
        slope *= s
        slope += 2.0 * c1
        slope *= s
        slope += c2
        for _ in range(2):
            q = c0 * s
            q += c1
            q *= s
            q += c2
            q *= s
            q -= step
            q /= slope
            s -= q
        r = np.fmin(np.fmax(left + s, lo), hi)
    for _ in range(rounds):
        mid = lo + hi
        mid *= 0.5
        right = mid < r
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return lo, hi


def _certified(x, lo0, hi0, lo, hi, left, cells):
    """Whether each entry's replayed decisions are all the exact ones."""
    s = np.subtract(np.stack((lo, hi)), left)
    cdf_lo, cdf_hi = _cell_cdf(cells[:4], s, *(np.empty_like(s) for _ in range(3)))
    margin = cells[5]
    ok = (lo == lo0) | (cdf_lo < x - margin)
    ok &= (hi == hi0) | (cdf_hi >= x + margin)
    return ok


def _cell_cdf(coef, s, cdf, s2, term):
    """c3 + c2 s + c1 (s s) + c0 ((s s) s) into ``cdf``, summed in the
    order of :meth:`TabulatedSymmetric.cdf`, so with its bits."""
    c0, c1, c2, c3 = coef
    np.multiply(s, s, out=s2)
    np.multiply(c2, s, out=cdf)
    cdf += c3
    cdf += np.multiply(c1, s2, out=term)
    s2 *= s
    cdf += np.multiply(c0, s2, out=term)
    return cdf


def _exact_rounds(x, lo, hi, left, coef, edge, certain, most, tol):
    """Bisect each cell's cubic for x in place, comparing ``_cell_cdf``
    at the midpoint with x: ``certain`` rounds, then more, up to
    ``most`` in all, until max(hi - lo) < tol before a round."""
    mid, s, s2, cdf, term = (np.empty_like(x) for _ in range(5))
    right, inside = (np.empty(x.shape, dtype=bool) for _ in range(2))
    for done in range(most):
        if done >= certain and np.subtract(hi, lo, out=term).max(initial=0.0) < tol:
            break
        np.add(lo, hi, out=mid)
        mid *= 0.5
        _cell_cdf(coef, np.subtract(mid, left, out=s), cdf, s2, term)
        np.less(cdf, x, out=right)
        right &= np.less(mid, edge, out=inside)
        np.putmask(lo, right, mid)
        np.putmask(hi, np.logical_not(right, out=right), mid)
