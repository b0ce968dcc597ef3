import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, wofz

from sqgrad.distributions import (
    GaussianMixture,
    TabulatedSymmetric,
    TwoPoint,
    UniformInterval,
)
from sqgrad.errors import ConfigError, DomainError, NoDensityError
from sqgrad.tuples import (
    TUPLE_NAMES,
    GoodTuple,
    _bigauss_sigma_hat,
    _density_bounds,
    _smooth,
    convolution_check,
    get_tuple,
    register_tuple,
    validate_tuple,
)

DENSITY_TUPLES = ("spike", "arch", "cosine", "bigauss_cosine")


def test_registry_contents():
    assert TUPLE_NAMES == ("spike", "arch", "cosine", "bigauss_cosine", "longjump")
    for name in TUPLE_NAMES:
        tup = get_tuple(name)
        assert tup.name == name
        assert get_tuple(name) is tup  # cached
    with pytest.raises(ConfigError):
        get_tuple("unknown")


def test_register_tuple_guard():
    custom = GoodTuple(
        name="spike",
        f=get_tuple("spike").f,
        f_prime=get_tuple("spike").f_prime,
        sigma=UniformInterval(0.5),
        sigma_hat=get_tuple("spike").sigma_hat,
    )
    with pytest.raises(ConfigError):
        register_tuple(custom)


@pytest.mark.parametrize("name", TUPLE_NAMES)
def test_weights_keep_the_float_array_convention_and_pickle_by_reference(name):
    tup = get_tuple(name)
    z = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
    for fn in (tup.f, tup.f_prime):
        assert type(fn(0.3)) is float and type(fn(np.float64(-0.2))) is float
        out = fn(z)
        assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == z.shape
        assert fn(z.tolist()).tobytes() == out.tobytes()
        assert [fn(float(t)) for t in z.ravel()] == out.ravel().tolist()
    back = pickle.loads(pickle.dumps(tup))
    assert back.f is tup.f and back.f_prime is tup.f_prime
    assert back.name == name and back.kinks == tup.kinks
    assert type(back.sigma_hat) is type(tup.sigma_hat)


def test_weight_spot_values():
    spike = get_tuple("spike")
    assert spike.f(0.25) == pytest.approx(1.0)
    assert spike.f(0.75) == pytest.approx(1.0)
    assert spike.f(0.5) == pytest.approx(2.0)
    assert spike.f(-0.2) == 0.0 and spike.f(1.2) == 0.0

    arch = get_tuple("arch")
    assert arch.f(0.5) == pytest.approx(math.pi / 2)
    assert arch.f(0.0) == 0.0 and arch.f(1.0) == pytest.approx(0.0, abs=1e-15)

    cosine = get_tuple("cosine")
    assert cosine.f(0.5) == pytest.approx(2.0)
    assert cosine.f(0.25) == pytest.approx(1.0)

    lj = get_tuple("longjump")
    assert lj.f(0.75) == pytest.approx(0.5)
    assert lj.f(0.3) == 0.0
    assert lj.f(1.25) == pytest.approx(1.5)

    bg = get_tuple("bigauss_cosine")
    assert bg.f(math.pi) == pytest.approx(1.0)
    assert bg.f(-1.0) == 0.0


def test_derivative_zero_at_kinks():
    for name in TUPLE_NAMES:
        tup = get_tuple(name)
        for k in tup.kinks:
            assert tup.f_prime(k) == 0.0


def test_derivative_matches_weight_slope():
    rng = np.random.default_rng(5)
    h = 1e-7
    for name in TUPLE_NAMES:
        tup = get_tuple(name)
        zs = rng.uniform(-1.5, 2.5, 400)
        keep = np.ones(zs.shape, dtype=bool)
        for k in tup.kinks:
            keep &= np.abs(zs - k) > 1e-3
        zs = zs[keep]
        slope = (np.asarray(tup.f(zs + h)) - np.asarray(tup.f(zs - h))) / (2 * h)
        np.testing.assert_allclose(
            np.asarray(tup.f_prime(zs)), slope, atol=1e-5,
            err_msg=f"tuple {name}",
        )


def test_weight_vanishes_on_negative_axis():
    zs = np.linspace(-5.0, -1e-9, 200)
    for name in TUPLE_NAMES:
        tup = get_tuple(name)
        assert np.all(np.asarray(tup.f(zs)) == 0.0), name
        assert np.all(np.asarray(tup.f_prime(zs)) == 0.0), name


@pytest.mark.parametrize("name", TUPLE_NAMES)
def test_calibration_by_quadrature(name):
    tup = get_tuple(name)
    rep = validate_tuple(tup, method="quadrature")
    tol = 1e-8 if name == "bigauss_cosine" else 1e-9
    assert rep.max_residual < tol, f"{name}: {rep.max_residual}"


@pytest.mark.parametrize("name", TUPLE_NAMES)
def test_calibration_by_monte_carlo(name):
    # Second, independent route to the same identity.
    tup = get_tuple(name)
    xs = np.array([0.05, 0.3, 0.5, 0.8, 0.97])
    rep = validate_tuple(
        tup, xs, method="monte_carlo", n_samples=400_000,
        rng=np.random.default_rng(42),
    )
    assert rep.max_residual < 0.02, f"{name}: {rep.max_residual}"


@pytest.mark.parametrize("name", DENSITY_TUPLES)
def test_convolution_identity(name):
    rep = convolution_check(get_tuple(name))
    tol = 1e-8 if name == "bigauss_cosine" else 1e-9
    assert rep.max_residual < tol, f"{name}: {rep.max_residual}"


@pytest.mark.parametrize("name", DENSITY_TUPLES)
def test_smooth_matches_adaptive_quadrature(name):
    # Reference: scipy's adaptive quad on the same integrand, with the
    # breakpoints and tolerances the checks used before, at the points
    # validate_tuple and convolution_check evaluate by default.
    tup = get_tuple(name)
    es = tup.sigma_hat.inv_cdf(validate_tuple(tup).xs)
    zs = convolution_check(tup).z_grid
    lo, hi = _density_bounds(tup.sigma)
    for e in np.concatenate([es, zs]).tolist():
        pts = sorted(k - e for k in tup.kinks if lo < k - e < hi)
        want, _ = quad(
            lambda u: tup.f(e + u) * tup.sigma.density(u), lo, hi,
            points=pts or None, limit=200, epsabs=1e-12, epsrel=1e-10,
        )
        assert abs(_smooth(tup, e) - want) <= 1e-12, (name, e)


def test_convolution_rejects_atomic_noise():
    with pytest.raises(NoDensityError):
        convolution_check(get_tuple("longjump"))


def test_longjump_calibration_is_exact_two_point_average():
    # sigma is +-1 with equal mass, so the identity reduces to algebra:
    # (f(e + 1) + f(e - 1)) / 2 = e + 1/2 = x for e in (-1/2, 1/2).
    tup = get_tuple("longjump")
    xs = np.arange(1, 100) / 100.0
    rep = validate_tuple(tup, xs, method="quadrature")
    assert rep.max_residual < 1e-15
    assert isinstance(tup.sigma, TwoPoint)


def test_validate_tuple_argument_errors():
    tup = get_tuple("arch")
    with pytest.raises(DomainError):
        validate_tuple(tup, xs=np.array([0.0, 0.5]))
    with pytest.raises(ConfigError):
        validate_tuple(tup, method="guesswork")
    with pytest.raises(DomainError):
        validate_tuple(tup, method="monte_carlo", rng=None)
    for n in (0, -5):
        with pytest.raises(DomainError, match="n_samples"):
            validate_tuple(tup, method="monte_carlo", n_samples=n,
                           rng=np.random.default_rng(0))


def test_encoding_laws_match_families():
    # spike smooths to the triangular cdf; hand value at z = 1/4.
    assert get_tuple("spike").sigma_hat.cdf(0.25) == pytest.approx(0.875)
    # arch smooths to the half-cosine cdf.
    assert get_tuple("arch").sigma_hat.cdf(0.25) == pytest.approx(
        0.5 * (1 + math.sin(math.pi / 4))
    )
    # cosine smooths to the raised-cosine cdf.
    assert get_tuple("cosine").sigma_hat.cdf(0.25) == pytest.approx(
        0.75 + 1.0 / (2 * math.pi)
    )
    # longjump's encoding is the linear uniform cdf.
    assert get_tuple("longjump").sigma_hat.cdf(0.2) == pytest.approx(0.7)


# ---------- independent references for the tabulated encoding ----------

_M = math.pi


def _mixture_cdf(z):
    return 0.5 * (ndtr(z - _M) + ndtr(z + _M))


def _cerfc(w):
    # erfc continued to complex arguments via the Faddeeva function.
    w = complex(w)
    return np.exp(-w * w) * wofz(1j * w)


def _bigauss_encoding_closed_form(z):
    """E[f(z + eps)] via Gaussian tail integrals of e^{i t / 2}.

    Completing the square in each mixture component turns the cosine
    term into erfc at a complex argument; the centers +-pi make the
    residual oscillation cancel between the two components.
    """
    a1 = (-z - _M - 0.5j) / math.sqrt(2.0)
    a2 = (-z + _M - 0.5j) / math.sqrt(2.0)
    inner = 1j * (math.exp(-0.125) / 4.0) * (_cerfc(a1) - _cerfc(a2))
    return float(_mixture_cdf(z) - (np.exp(0.5j * z) * inner).real)


# Frozen from two agreeing references (adaptive quadrature of the
# defining integral, and the closed form above); they match to 2e-15.
BIGAUSS_ENCODING_VALUES = {
    -4.0: 0.00614835685237843,
    -2.0: 0.12539884841170235,
    -0.75: 0.33827801188347362,
    0.0: 0.5,
    0.5: 0.60921118294379084,
    1.0: 0.71177643278019875,
    2.0: 0.87460115158829776,
    5.0: 0.99947039802279947,
}


def test_bigauss_encoding_against_frozen_values():
    tab = get_tuple("bigauss_cosine").sigma_hat
    for z, expected in BIGAUSS_ENCODING_VALUES.items():
        assert float(tab.cdf(z)) == pytest.approx(expected, abs=5e-10), z


def test_bigauss_encoding_against_closed_form_dense():
    tab = get_tuple("bigauss_cosine").sigma_hat
    span = _M + 7.5
    zs = np.linspace(-span, span, 301)
    ref = np.array([_bigauss_encoding_closed_form(z) for z in zs])
    np.testing.assert_allclose(np.asarray(tab.cdf(zs)), ref, atol=5e-10)


def test_bigauss_closed_form_self_check():
    # The closed form must itself reproduce the defining integral.
    def mixture_pdf(u):
        n = 1.0 / math.sqrt(2 * math.pi)
        return 0.5 * n * (math.exp(-0.5 * (u - _M) ** 2) + math.exp(-0.5 * (u + _M) ** 2))

    def by_quad(z):
        lo, hi = -(_M + 14), (_M + 14)
        val, _ = quad(
            lambda u: (1 - math.cos(0.5 * (z + u))) * mixture_pdf(u)
            if z + u >= 0
            else 0.0,
            lo,
            hi,
            points=[-z],
            limit=300,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        return val

    for z in (-1.3, 0.4, 2.2):
        assert _bigauss_encoding_closed_form(z) == pytest.approx(by_quad(z), abs=1e-12)


def _one_shot_bigauss_table():
    """The bigauss encoding table with its density matrix built in one
    piece: the same quadrature as the shipped build, without the row
    blocks."""
    m, s, n_grid = math.pi, 1.0, 4097
    half_span = m + 8.0 * s
    n_pos = n_grid // 2 + 1
    z_pos = np.linspace(0.0, half_span, n_pos)
    t, w = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(0.0, m + 12.0 * s, 65)
    a, b = edges[:-1][:, None], edges[1:][:, None]
    w_nodes = (0.5 * (b - a) * t[None, :] + 0.5 * (a + b)).ravel()
    w_weights = (0.5 * (b - a) * w[None, :]).ravel()
    f_vals = 1.0 - np.cos(0.5 * w_nodes)
    dens = GaussianMixture(m, s).density(z_pos[:, None] + w_nodes[None, :])
    vals_pos = 1.0 - dens @ (w_weights * f_vals)
    vals = np.empty(n_grid)
    vals[n_pos - 1 :] = vals_pos
    vals[: n_pos - 1] = 1.0 - vals_pos[:0:-1]
    return TabulatedSymmetric(np.linspace(-half_span, half_span, n_grid),
                              np.clip(vals, 0.0, 1.0))


def test_bigauss_table_matches_the_one_shot_build():
    # The shipped build fills the density matrix in row blocks; every
    # entry and the one product over it must keep the one-shot bits.
    shipped = get_tuple("bigauss_cosine").sigma_hat
    ref = _one_shot_bigauss_table()
    for name in ("grid", "_values", "_cells"):
        got, want = getattr(shipped, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_bigauss_table_build_memory():
    # One (2049, 1536) float matrix is 25.2 MB and the row blocks add
    # about 2.4 MB; building the matrix in one piece holds three such
    # matrices at once.
    tracemalloc.start()
    try:
        _bigauss_sigma_hat.__wrapped__()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


_SCIPY_BLOCKED = """
import importlib.abc, json, math, os, sys

blocked = []

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            blocked.append(name)
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoScipy())

from sqgrad import GaussianMixture
from sqgrad.cli import main

tmp = sys.argv[1]
descend = os.path.join(tmp, "descend.json")
with open(descend, "w") as fh:
    json.dump({"problem": "knapsack:6", "estimator": "esg:bigauss_cosine",
               "steps": 20, "eta": 0.1, "direction": "maximize"}, fh)
spec = os.path.join(tmp, "tiny.json")
with open(spec, "w") as fh:
    json.dump({"name": "tiny", "problem": "slice:4", "budget": 40, "n_trials": 2,
               "methods": [{"estimator": "esg:bigauss_cosine", "eta": 0.1},
                           {"estimator": "disarm", "eta": 0.1}]}, fh)
runs = [
    ["validate-tuple", "all"],
    ["exact", "--problem", "slice:6", "--x", "0.3", "--grad", "--fd", "1e-5"],
    ["estimate", "--estimator", "esg:bigauss_cosine", "--problem", "slice:6",
     "--x", "0.3", "--samples", "2000"],
    ["estimate", "--estimator", "disarm", "--problem", "slice:6",
     "--x", "0.3", "--samples", "2000"],
    ["descend", "--config", descend],
    ["descend", "--config", descend, "--trials", "2"],
    ["experiment", "--spec", spec, "--out-dir", os.path.join(tmp, "out")],
]
for argv in runs:
    assert main(argv) == 0, argv
assert 0.5 < GaussianMixture(math.pi, 1.0).cdf(0.3) < 1.0
assert not blocked, blocked
print("ok")
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    # A fresh interpreter: this one has imported scipy for the tests.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "SQGRAD_MAX_WORKERS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
