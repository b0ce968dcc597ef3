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


@pytest.mark.parametrize("n", [2.5, "7", None, 1e400])
def test_validate_tuple_sample_count_must_be_an_integer(n):
    # A count that is not an integer is refused by name, not left to
    # fail later inside the sampler as a bare TypeError.
    with pytest.raises(DomainError, match="n_samples"):
        validate_tuple(get_tuple("arch"), method="monte_carlo", n_samples=n,
                       rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "grid", [[], [[0.2, 0.3]], 0.3, [0.3, math.nan], [math.inf], [-math.inf, 0.1]],
    ids=["empty", "2-D", "scalar", "nan", "inf", "-inf"],
)
def test_calibration_checks_reject_bad_grids(grid):
    # Refused by name, not left to numpy's "zero-size array" error, a
    # TypeError or a NaN residual.
    tup = get_tuple("arch")
    with pytest.raises(DomainError, match="xs"):
        validate_tuple(tup, xs=grid)
    with pytest.raises(DomainError, match="z_grid"):
        convolution_check(tup, z_grid=grid)


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


def _bigauss_quadrature():
    """The grid and cdf values of the bigauss encoding table by the
    quadrature that made the shipped file, with a bound on how far any
    evaluation of it may round from this one.

    The quadrature sums n = 1536 products of a density and a weight at
    each grid point.  The shipped file summed them through BLAS, in an
    order that is the kernel's; here they are summed node by node, in
    a fixed order, with elementwise numpy and no BLAS.  Each order's sum
    lies within (n - 1) u S of the exact one (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 4.2; u = eps / 2, S the sum of
    the terms, which are nonnegative), so two orders differ by less
    than n eps S.  That also covers a fused multiply-add in the kernel
    and the few ulps by which two exp kernels may round each term.
    ``1 - sum`` and the mirror ``1 - value`` round once each, eps more.
    """
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
    law = GaussianMixture(m, s)
    total = np.zeros(n_pos)
    for node, weight in zip(w_nodes, w_weights * f_vals):
        total += law.density(z_pos + node) * weight
    vals = np.empty(n_grid)
    vals[n_pos - 1 :] = 1.0 - total
    vals[: n_pos - 1] = 1.0 - vals[n_pos:][::-1]
    bound = (w_nodes.size * total.max() + 2.0) * np.finfo(float).eps
    return np.linspace(-half_span, half_span, n_grid), np.clip(vals, 0.0, 1.0), bound


def test_bigauss_table_matches_the_one_shot_build():
    # The shipped file holds the quadrature's values as one BLAS kernel
    # summed them; other kernels (Sandybridge, Prescott) sum in another
    # order and differ by up to 7.8e-16, and the fixed order here by up
    # to 1.6e-15.  So the values are compared within the rounding bound
    # of any summation order, about 1.7e-13; a changed grid, node set or
    # law moves them far more.
    shipped = get_tuple("bigauss_cosine").sigma_hat
    grid, vals, bound = _bigauss_quadrature()
    assert shipped.grid.dtype == grid.dtype and shipped.grid.tobytes() == grid.tobytes()
    assert shipped._values.dtype == vals.dtype and shipped._values.shape == vals.shape
    gap = np.abs(shipped._values - vals).max()
    assert gap <= bound < 1e-12, (gap, bound)


def test_bigauss_table_build_memory():
    # The build loads 33 KB of values and computes the PCHIP cells; it
    # runs no quadrature, whose density matrix alone is 25.2 MB.
    tracemalloc.start()
    try:
        _bigauss_sigma_hat()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


_BIGAUSS_TABLE_SHA256 = "a9131086863c921ad82e389d6af08d85ed84aaed8603dae347c89ffdc5eed7d0"


def _numpy_uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_bigauss_table_bits_do_not_depend_on_the_blas_kernel():
    # Sandybridge's kernel sums a matrix-vector product in another order
    # than Haswell's, so a table computed at run time would change bits.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import hashlib; from sqgrad.tuples import get_tuple; "
            "print(hashlib.sha256(get_tuple('bigauss_cosine').sigma_hat._values"
            ".tobytes()).hexdigest())")
    digests = []
    for coretype in (None, "Sandybridge"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests == [_BIGAUSS_TABLE_SHA256] * 2, digests


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
