import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from sqgrad.distributions import (
    GaussianMixture,
    HalfCosine,
    RaisedCosine,
    TabulatedSymmetric,
    Triangular,
    TwoPoint,
    UniformInterval,
    _bisect_increasing,
    _pchip_coefficients,
)
from sqgrad.errors import (
    ConstructionError,
    DomainError,
    NoDensityError,
    NotInvertibleError,
)
from sqgrad.tuples import get_tuple

CLOSED_FORM = [
    UniformInterval(0.5),
    Triangular(0.5),
    HalfCosine(0.5),
    RaisedCosine(0.5),
    GaussianMixture(math.pi, 1.0),
]
# The mixture is noise only: sampled, never inverted.
INVERTIBLE = [d for d in CLOSED_FORM if not isinstance(d, GaussianMixture)]


def test_uniform_interval_spot_values():
    u = UniformInterval(0.5)
    assert u.cdf(-0.5) == 0.0
    assert u.cdf(0.0) == 0.5
    assert u.cdf(0.5) == 1.0
    assert u.cdf(-1.3) == 0.0 and u.cdf(2.0) == 1.0
    assert u.inv_cdf(0.75) == pytest.approx(0.25)
    assert u.density(0.3) == 1.0 and u.density(0.7) == 0.0


def test_triangular_spot_values():
    t = Triangular(0.5)
    # right half: 1 - (c - z)^2 / (2 c^2), by hand at z = 1/4.
    assert t.cdf(0.25) == pytest.approx(0.875, abs=1e-15)
    assert t.cdf(0.0) == pytest.approx(0.5)
    assert t.density(0.0) == pytest.approx(2.0)
    assert t.density(0.5) == 0.0


def test_half_cosine_spot_values():
    h = HalfCosine(0.5)
    assert h.cdf(0.25) == pytest.approx(0.5 * (1 + math.sin(math.pi / 4)), abs=1e-15)
    assert h.inv_cdf(0.5) == pytest.approx(0.0, abs=1e-15)
    # density integrates the cdf: peak pi/(4c) at the origin.
    assert h.density(0.0) == pytest.approx(math.pi / 2.0)


def test_raised_cosine_spot_values():
    r = RaisedCosine(0.5)
    assert r.cdf(0.25) == pytest.approx(0.75 + 1.0 / (2 * math.pi), abs=1e-15)
    assert r.density(0.0) == pytest.approx(2.0)
    assert r.density(0.5) == 0.0
    assert r.inv_cdf(r.cdf(0.17)) == pytest.approx(0.17, abs=1e-10)


@pytest.mark.parametrize("dist", CLOSED_FORM, ids=lambda d: type(d).__name__)
def test_symmetry_and_monotonicity(dist):
    lo, hi = dist.support
    if math.isinf(hi):
        lo, hi = -10.0, 10.0
    zs = np.linspace(lo, hi, 301)
    cdf = np.asarray(dist.cdf(zs))
    assert np.all(np.diff(cdf) >= -1e-12)
    np.testing.assert_allclose(cdf + np.asarray(dist.cdf(-zs)), 1.0, atol=1e-9)
    assert dist.cdf(0.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("dist", INVERTIBLE, ids=lambda d: type(d).__name__)
def test_inverse_round_trip(dist):
    xs = np.linspace(0.01, 0.99, 49)
    zs = dist.inv_cdf(xs)
    np.testing.assert_allclose(dist.cdf(zs), xs, atol=1e-9)


@pytest.mark.parametrize(
    "dist",
    CLOSED_FORM + [get_tuple("bigauss_cosine").sigma_hat],
    ids=lambda d: type(d).__name__,
)
def test_inv_cdf_rejects_boundary(dist):
    for bad in (0.0, 1.0, -0.1, 1.7, math.nan, np.array([0.3, math.nan])):
        with pytest.raises(DomainError):
            dist.inv_cdf(bad)


@pytest.mark.parametrize("dist", CLOSED_FORM, ids=lambda d: type(d).__name__)
def test_density_matches_cdf_slope(dist):
    lo, hi = dist.support
    if math.isinf(hi):
        lo, hi = -8.0, 8.0
    zs = np.linspace(lo + 0.05, hi - 0.05, 57)
    h = 1e-6
    slope = (np.asarray(dist.cdf(zs + h)) - np.asarray(dist.cdf(zs - h))) / (2 * h)
    # atol leaves room for the density kink at the triangular peak.
    np.testing.assert_allclose(np.asarray(dist.density(zs)), slope, rtol=0, atol=1e-5)


@pytest.mark.parametrize(
    "dist",
    CLOSED_FORM + [TwoPoint(1.0)],
    ids=lambda d: type(d).__name__,
)
def test_sampling_follows_cdf(dist):
    rng = np.random.default_rng(101)
    draws = np.asarray(dist.sample(rng, 200_000))
    tol = 4.5 / math.sqrt(draws.size)
    for z in (-0.9, -0.3, 0.0, 0.4, 1.1):
        assert abs(np.mean(draws <= z) - dist.cdf(z)) < tol + 1e-12


def test_sampling_shapes():
    rng = np.random.default_rng(0)
    for dist in CLOSED_FORM + [TwoPoint(1.0), get_tuple("bigauss_cosine").sigma_hat]:
        assert np.shape(dist.sample(rng)) == ()
        for size, shape in ((7, (7,)), ((3, 2), (3, 2)), (0, (0,)), ((0, 3), (0, 3))):
            assert dist.sample(rng, size).shape == shape
        if not isinstance(dist, (TwoPoint, GaussianMixture)):
            # Inverses by bisection too: no entries, no rounds.
            for x in (np.array([]), np.empty((0, 3))):
                assert dist.inv_cdf(x).shape == x.shape


def _sample_as_written_before(dist, rng, size):
    """Each law's sampler in its one-call form, before draw/from_draws."""
    if isinstance(dist, UniformInterval):
        return dist.half_width * (2.0 * rng.random(size) - 1.0)
    if isinstance(dist, TwoPoint):
        c = dist.magnitude
        return np.where(rng.random(size) < 0.5, -c, c)
    if isinstance(dist, GaussianMixture):
        sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        return sign * dist.center + dist.scale * rng.standard_normal(size)
    u = np.maximum(rng.random(size), 1e-300)
    return dist.inv_cdf(u)


_SAMPLED_LAWS = st.one_of(
    st.floats(1e-3, 1e3).map(UniformInterval),
    st.floats(1e-2, 1e2).map(TwoPoint),
    st.builds(GaussianMixture, st.floats(0.0, 5.0), st.floats(0.05, 3.0)),
    # Inverse transform: closed form, bisection, and a tabulated law.
    st.sampled_from([Triangular(0.5), RaisedCosine(0.7), get_tuple("bigauss_cosine").sigma_hat]),
)


@settings(max_examples=150, deadline=None)
@given(
    dist=_SAMPLED_LAWS,
    size=st.one_of(
        st.none(),
        st.integers(1, 12),
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_matches_the_one_call_sampler(dist, size, seed):
    # draw then from_draws gives the bits of the one-call formulas and
    # leaves the generator where they left it.
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = dist.sample(rng, size)
    want = np.asarray(_sample_as_written_before(dist, ref, size), dtype=float)
    assert np.shape(got) == want.shape
    assert np.asarray(got).tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "dist",
    CLOSED_FORM + [TwoPoint(1.0), get_tuple("bigauss_cosine").sigma_hat],
    ids=lambda d: type(d).__name__,
)
def test_sample_without_size_is_a_float(dist):
    assert type(dist.sample(np.random.default_rng(0))) is float


def test_two_point_law():
    tp = TwoPoint(1.0)
    assert tp.cdf(-1.5) == 0.0
    assert tp.cdf(-1.0) == 0.5  # right-continuous at the atom
    assert tp.cdf(0.0) == 0.5
    assert tp.cdf(1.0) == 1.0
    with pytest.raises(NotInvertibleError):
        tp.inv_cdf(0.3)
    with pytest.raises(NoDensityError):
        tp.density(0.0)
    draws = tp.sample(np.random.default_rng(2), 10_000)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    assert abs(np.mean(draws)) < 0.05


def test_gaussian_mixture_density_normalises():
    gm = GaussianMixture(math.pi, 1.0)
    from scipy.integrate import quad

    total, _ = quad(gm.density, -20, 20, limit=200)
    assert total == pytest.approx(1.0, abs=1e-10)
    draws = gm.sample(np.random.default_rng(3), 200_000)
    assert abs(np.mean(draws)) < 0.03
    assert np.std(draws) == pytest.approx(math.sqrt(1.0 + math.pi**2), rel=0.02)


@pytest.mark.parametrize("center, scale", [(math.pi, 1.0), (0.0, 0.5), (2.0, 3.0)])
def test_gaussian_mixture_cdf_matches_ndtr(center, scale):
    # The cdf is built on math.erfc; scipy's ndtr is the reference.
    from scipy.special import ndtr

    z = np.linspace(-15.0, 15.0, 3001)
    want = 0.5 * (ndtr((z - center) / scale) + ndtr((z + center) / scale))
    got = GaussianMixture(center, scale).cdf(z)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=4.5e-16)


def test_parameter_validation():
    for bad in (0.0, -1.0, math.nan):
        for law in (UniformInterval, Triangular, HalfCosine, RaisedCosine, TwoPoint):
            with pytest.raises(DomainError):
                law(bad)
    with pytest.raises(DomainError):
        GaussianMixture(1.0, 0.0)
    with pytest.raises(DomainError):
        GaussianMixture(-1.0, 1.0)


def test_tabulated_symmetric_round_trip():
    base = RaisedCosine(0.5)
    grid = np.linspace(-0.5, 0.5, 257)
    tab = TabulatedSymmetric(grid, np.asarray(base.cdf(grid)))
    xs = np.linspace(0.02, 0.98, 33)
    np.testing.assert_allclose(tab.inv_cdf(xs), base.inv_cdf(xs), atol=1e-6)
    np.testing.assert_allclose(tab.cdf(tab.inv_cdf(xs)), xs, atol=1e-12)
    # outside the grid the cdf saturates (up to interpolation roundoff)
    assert tab.cdf(-2.0) == pytest.approx(0.0, abs=1e-12)
    assert tab.cdf(2.0) == pytest.approx(1.0, abs=1e-12)
    assert tab.density(3.0) == 0.0


def _table_bisection(tab, x):
    """The tabulated inverse as a table bracket plus bisection of tab.cdf.

    This is the reference the cell-local bisection of inv_cdf must equal
    bit for bit.
    """
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x)
    grid = tab.grid
    j = np.clip(np.searchsorted(tab._values, flat, side="left"), 1, None)
    lo = grid[j - 1]
    hi = grid[np.minimum(j, grid.size - 1)]
    out = _bisect_increasing(
        tab.cdf, flat, lo, hi, tol=tab.INV_TOL, max_iter=tab.INV_MAX_ITER
    ).reshape(x.shape)
    return float(out) if x.ndim == 0 else out


_GRID9 = np.linspace(-1.0, 1.0, 9)
_GRID13 = np.linspace(-3.0, 3.0, 13)
_TABLES = {
    "bigauss": get_tuple("bigauss_cosine").sigma_hat,
    # Ends at 0.9, so quantiles above it lie past the last grid point.
    "below_one": TabulatedSymmetric(_GRID9, 0.05 + 0.85 * RaisedCosine(1.0).cdf(_GRID9)),
    # Flat runs of 0s and 1s on both sides of a ramp.
    "flat_runs": TabulatedSymmetric(_GRID13, Triangular(1.5).cdf(_GRID13)),
    # Uneven cells far from 0: the short cells shrink to adjacent doubles
    # before the widest meets INV_TOL, so bisection lands on a cell's
    # right end, which PPoly evaluates in the next cell.
    "uneven": TabulatedSymmetric(
        [-625.0, -610.0, -361.0, 155.0, 345.0], [0.0, 0.5, 0.602, 0.744, 1.0]
    ),
}


def _inner_values(tab):
    return tab._values[(tab._values > 0.0) & (tab._values < 1.0)]


def _special_quantiles(tab):
    values = _inner_values(tab)
    near = np.concatenate([np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
    ends = [5e-324, 1e-300, 1e-16, 0.5, 1.0 - 1e-16, np.nextafter(1.0, 0.0)]
    x = np.concatenate([values, near, ends])
    return x[(x > 0.0) & (x < 1.0)].tolist()


def _quantiles(tab):
    return st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        # The descent's clamp keeps its states in here.
        st.floats(1e-4, 1.0 - 1e-4),
        st.sampled_from(_special_quantiles(tab)),
    )


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_tabulated_inverse_matches_table_bisection_at_table_values(name):
    # The batch matters: the widest bracket in it sets the step count.
    tab = _TABLES[name]
    for x in (_inner_values(tab), np.array(_special_quantiles(tab))):
        assert np.array_equal(tab.inv_cdf(x), _table_bisection(tab, x))


def test_tabulated_inverse_matches_table_bisection_where_replay_fails():
    # Each root sits on its cell's first midpoint, where the cubic meets
    # x with no margin: no replayed decision there is certified, and
    # the redo stage has to restore the exact ones.
    tab = _TABLES["bigauss"]
    grid = tab.grid
    cells = np.arange(1000, 3000, 25)
    x = tab.cdf(0.5 * (grid[cells] + grid[cells + 1]))
    assert np.array_equal(tab.inv_cdf(x), _table_bisection(tab, x))


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(_TABLES)),
    # (20, 24): a lockstep descent's states on knapsack:24.
    shape=st.sampled_from([(), (1,), (7,), (3, 4), (20, 24)]),
    data=st.data(),
)
def test_tabulated_inverse_matches_table_bisection(name, shape, data):
    tab = _TABLES[name]
    quantile = _quantiles(tab)
    size = int(np.prod(shape, dtype=int))
    xs = data.draw(st.lists(quantile, min_size=size, max_size=size))
    x = np.array(xs).reshape(shape)
    arg = float(x) if x.ndim == 0 else x
    got, want = tab.inv_cdf(arg), _table_bisection(tab, arg)
    assert type(got) is type(want)
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(shape=st.tuples(st.integers(1, 20), st.integers(1, 24)), data=st.data())
def test_bigauss_inverse_is_batch_independent(shape, data):
    # Lockstep descent inverts all trials' states in one call, so the
    # group size must not change a row's bits.
    tab = _TABLES["bigauss"]
    size = shape[0] * shape[1]
    x = np.array(data.draw(st.lists(_quantiles(tab), min_size=size, max_size=size)))
    x = x.reshape(shape)
    rows = np.stack([tab.inv_cdf(row) for row in x])
    assert np.array_equal(tab.inv_cdf(x), rows)


def test_tabulated_symmetric_construction_errors():
    g = np.linspace(-1, 1, 9)
    with pytest.raises(ConstructionError):
        TabulatedSymmetric(g, np.linspace(0, 1, 8))
    with pytest.raises(ConstructionError):
        TabulatedSymmetric(np.zeros(9), np.linspace(0, 1, 9))
    with pytest.raises(ConstructionError):
        TabulatedSymmetric(g, np.linspace(1, 0, 9))
    with pytest.raises(ConstructionError):
        TabulatedSymmetric(g, np.linspace(0, 1.5, 9))
    for bad in (math.nan, math.inf, -math.inf):
        for i in (0, 4, 8):
            grid, values = g.copy(), np.linspace(0, 1, 9)
            grid[i] = bad
            with pytest.raises(ConstructionError):
                TabulatedSymmetric(grid, values)
            grid, values[i] = g, bad
            with pytest.raises(ConstructionError):
                TabulatedSymmetric(grid, values)
    # A cell so short that its secant slope overflows.
    with pytest.raises(ConstructionError):
        TabulatedSymmetric([0.0, 1e-310, 1.0, 2.0, 3.0], [0.0, 0.5, 0.6, 0.9, 1.0])


def _scipy_cdf_and_density(grid, values, z):
    """Coefficients, cdf and density as TabulatedSymmetric computed them
    with scipy's PchipInterpolator: its own PCHIP must equal them bit for bit."""
    interp = PchipInterpolator(grid, values, extrapolate=False)
    z = np.asarray(z, dtype=float)
    t = np.clip(z, grid[0], grid[-1])
    inside = (z >= grid[0]) & (z <= grid[-1])
    density = np.maximum(np.where(inside, interp.derivative()(t), 0.0), 0.0)
    return interp.c, interp(t), density


def _probe_points(grid, extra):
    """Breakpoints, their float neighbours, points outside the grid, NaN."""
    span = grid[-1] - grid[0]
    return np.concatenate([
        extra, grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        [grid[0] - span, grid[-1] + span, -np.inf, np.inf, np.nan],
    ])


def _assert_pchip_matches_scipy(tab, z):
    # Subnormal cdf steps overflow a harmonic-mean term, here as in scipy.
    with np.errstate(over="ignore", invalid="ignore"):
        coef, cdf, density = _scipy_cdf_and_density(tab.grid, tab._values, z)
    assert tab._coef.tobytes() == coef.tobytes()
    assert np.array_equal(tab.cdf(z), cdf, equal_nan=True)
    assert np.array_equal(tab.density(z), density)
    # Scalars, the last of them NaN, give floats with the same bits.
    for i in [*range(0, z.size, 7), z.size - 1]:
        got = tab.cdf(float(z[i]))
        assert type(got) is float
        assert np.array_equal(got, cdf[i], equal_nan=True)
        assert tab.density(float(z[i])) == density[i]


def test_bigauss_pchip_matches_scipy():
    tab = get_tuple("bigauss_cosine").sigma_hat
    z = np.random.default_rng(5).uniform(-15.0, 15.0, 20_000)
    _assert_pchip_matches_scipy(tab, _probe_points(tab.grid, z))


@st.composite
def _tables(draw):
    """A strictly increasing uneven grid and nondecreasing values in
    [0, 1] with flat runs (repeated steps of 0, exact 0s and 1s)."""
    n = draw(st.integers(4, 12))
    gaps = draw(st.lists(st.floats(1e-3, 50.0), min_size=n - 1, max_size=n - 1))
    start = draw(st.floats(-700.0, 700.0))
    grid = start + np.concatenate([[0.0], np.cumsum(gaps)])
    steps = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=n - 1, max_size=n - 1))
    values = np.concatenate([[0.0], np.cumsum(steps)])
    values = values / values[-1] if values[-1] > 0 else values
    low = draw(st.floats(0.0, 0.5))
    return grid, np.clip(low + (1.0 - low) * values, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(table=_tables(), seed=st.integers(0, 2**32 - 1))
def test_tabulated_pchip_matches_scipy(table, seed):
    grid, values = table
    tab = TabulatedSymmetric(grid, values)
    span = grid[-1] - grid[0]
    z = np.random.default_rng(seed).uniform(
        grid[0] - 0.1 * span, grid[-1] + 0.1 * span, 500)
    _assert_pchip_matches_scipy(tab, _probe_points(grid, z))


# The two shape corrections of the end slopes: a one-sided estimate of
# the wrong sign is set to 0, and one more than 3 times the end secant,
# where the secants change sign, is cut to 3 times it.
_END_SLOPE_ZERO = ([0.0, 1.0, 2.0, 3.0], [0.0, 0.01, 0.9, 1.0])
_END_SLOPE_CUT = ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -5.0, -4.0])


@settings(max_examples=200, deadline=None)
@example(*_END_SLOPE_ZERO)
@example(*_END_SLOPE_CUT)
@example(_END_SLOPE_CUT[0], [-y for y in _END_SLOPE_CUT[1]][::-1])  # at the right end
@given(
    x=st.lists(st.floats(1e-6, 100.0), min_size=2, max_size=9).map(
        lambda gaps: np.concatenate([[-5.0], -5.0 + np.cumsum(gaps)])),
    y=st.lists(st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)),
               min_size=10, max_size=10),
)
def test_pchip_coefficients_match_scipy(x, y):
    # Any finite data, not only monotone tables, so both corrections run.
    x, y = np.asarray(x, dtype=float), np.array(y[: len(x)])
    with np.errstate(over="ignore"):  # subnormal y steps, in scipy as here
        want = PchipInterpolator(x, y).c
        assert _pchip_coefficients(x, y).tobytes() == want.tobytes()


def test_end_slope_corrections_are_taken():
    x, y = map(np.array, _END_SLOPE_ZERO)
    assert _pchip_coefficients(x, y)[2, 0] == 0.0
    x, y = map(np.array, _END_SLOPE_CUT)
    assert _pchip_coefficients(x, y)[2, 0] == 3.0 * (y[1] - y[0]) / (x[1] - x[0])


def _mixture_density_as_written_before(dist, z):
    z = np.asarray(z, dtype=float)
    m, s = dist.center, dist.scale
    a = np.exp(-0.5 * ((z - m) / s) ** 2)
    b = np.exp(-0.5 * ((z + m) / s) ** 2)
    out = (a + b) / (2.0 * s * math.sqrt(2.0 * math.pi))
    return float(out) if z.ndim == 0 else out


@settings(max_examples=150, deadline=None)
@given(
    dist=st.builds(GaussianMixture, st.floats(0.0, 10.0), st.floats(0.01, 10.0)),
    shape=st.sampled_from([(), (1,), (9,), (4, 5)]),
    data=st.data(),
)
def test_mixture_density_in_place_matches_the_formula(dist, shape, data):
    size = int(np.prod(shape, dtype=int))
    zs = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=size, max_size=size))
    z = np.array(zs).reshape(shape)
    arg = float(z) if z.ndim == 0 else z
    got, want = dist.density(arg), _mixture_density_as_written_before(dist, arg)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_mixture_density_of_floats_matches_the_formula():
    # A float's square goes through pow(), which rounds differently from
    # an array's square for about 1 value in 1000: sweep many floats.
    dist = GaussianMixture(math.pi, 1.0)
    for z in np.random.default_rng(8).uniform(-12.0, 12.0, 4000).tolist():
        got, want = dist.density(z), _mixture_density_as_written_before(dist, z)
        assert type(got) is float
        assert got == want, z


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    c=st.floats(min_value=0.1, max_value=3.0),
)
def test_uniform_inverse_is_exact_inverse(x, c):
    u = UniformInterval(c)
    assert u.cdf(u.inv_cdf(x)) == pytest.approx(x, abs=1e-12)


_LAWS = [
    UniformInterval(0.5),
    TwoPoint(1.0),
    GaussianMixture(math.pi, 1.0),
    Triangular(0.5),
    HalfCosine(0.5),
    RaisedCosine(0.5),
    get_tuple("bigauss_cosine").sigma_hat,
]


@pytest.mark.parametrize("dist", _LAWS, ids=lambda d: type(d).__name__)
def test_law_contract_scalars_and_shapes(dist):
    # The base class converts every input and shapes every output: a
    # float gives a float, an array keeps its shape, empty ones too.
    methods = {"cdf": (-0.3, 0.4)}
    if dist.has_density:
        methods["density"] = (-0.3, 0.4)
    if not isinstance(dist, (TwoPoint, GaussianMixture)):
        methods["inv_cdf"] = (0.2, 0.9)
    for name, (lo, hi) in methods.items():
        method = getattr(dist, name)
        assert type(method(lo)) is float
        for shape in ((0,), (3,), (2, 3)):
            arg = np.linspace(lo, hi, int(np.prod(shape))).reshape(shape)
            assert np.shape(method(arg)) == shape


def test_a_law_without_an_inverse_names_itself():
    with pytest.raises(NotImplementedError, match="GaussianMixture"):
        GaussianMixture(math.pi, 1.0).inv_cdf(0.3)
