"""End-to-end checks, one test per claim the package stands behind.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Statistical checks use fixed seeds and four
standard-error bounds; the unbiasedness batteries tolerate at most one
bound exceedance across all their comparisons.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sqgrad.descent import DescentConfig, Schedule, descend
from sqgrad.estimators import estimate_mean_and_variance, make_estimator
from sqgrad.exact import multilinear_gradient, multilinear_value
from sqgrad.harness import load_experiment_spec, run_experiment, write_outputs
from sqgrad.oracles import TableOracle
from sqgrad.tuples import TUPLE_NAMES, convolution_check, get_tuple, validate_tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

CALIBRATION_TOL = {
    "spike": 1e-6,
    "arch": 1e-6,
    "cosine": 1e-6,
    "longjump": 1e-6,
    "bigauss_cosine": 1e-5,  # tabulated encoding
}


def test_c01_tuple_calibration():
    t0 = time.perf_counter()
    for name, tol in CALIBRATION_TOL.items():
        rep = validate_tuple(get_tuple(name), method="quadrature")
        assert rep.max_residual <= tol, (
            f"{name}: calibration residual {rep.max_residual:.3e} > {tol:g}"
        )
    assert time.perf_counter() - t0 < 10.0


def test_c02_convolution_identity():
    t0 = time.perf_counter()
    for name in ("spike", "arch", "cosine"):
        rep = convolution_check(get_tuple(name))
        assert rep.max_residual <= 1e-6, (
            f"{name}: convolution residual {rep.max_residual:.3e}"
        )
        assert rep.z_grid.shape[0] == 99
    assert time.perf_counter() - t0 < 10.0


def _random_problems(seed):
    rng = np.random.default_rng(seed)
    problems = []
    for d in (1, 2, 3):
        for _ in range(10):
            oracle = TableOracle(rng.uniform(-10.0, 10.0, size=2**d))
            x = rng.uniform(0.1, 0.9, size=d)
            problems.append((oracle, x))
    return problems, rng


def test_c03_esg_unbiasedness():
    t0 = time.perf_counter()
    problems, rng = _random_problems(20260815)
    violations = 0
    for oracle, x in problems:
        v_true = multilinear_value(x, oracle)
        g_true = multilinear_gradient(x, oracle)
        for name in TUPLE_NAMES:
            s = estimate_mean_and_variance(
                f"esg:{name}", x, oracle, 1_000_000, rng
            )
            violations += int(
                np.sum(np.abs(s.mean_gradient - g_true) > 4.0 * s.gradient_std_err)
            )
            violations += int(abs(s.mean_value - v_true) > 4.0 * s.value_std_err)
    assert violations <= 1, f"{violations} comparisons exceeded 4 std-err"
    assert time.perf_counter() - t0 < 300.0


def test_c04_baseline_unbiasedness():
    t0 = time.perf_counter()
    problems, rng = _random_problems(915)
    violations = 0
    for oracle, x in problems:
        g_true = multilinear_gradient(x, oracle)
        for spec in ("reinforce", "arm", "disarm"):
            s = estimate_mean_and_variance(spec, x, oracle, 1_000_000, rng)
            violations += int(
                np.sum(np.abs(s.mean_gradient - g_true) > 4.0 * s.gradient_std_err)
            )
    assert violations <= 1, f"{violations} comparisons exceeded 4 std-err"
    assert time.perf_counter() - t0 < 180.0


def test_c05_variance_contrast():
    # Identity objective in one coordinate: the score-function variance
    # grows like (1-x)/x while the single-query estimator stays at 1.
    t0 = time.perf_counter()
    oracle = TableOracle([0.0, 1.0])
    rng = np.random.default_rng(52)
    for x, var_reinforce in [(0.5, 1.0), (0.1, 9.0), (0.05, 19.0)]:
        s = estimate_mean_and_variance(
            "reinforce", np.array([x]), oracle, 1_000_000, rng
        )
        assert abs(s.gradient_variance[0] - var_reinforce) <= 0.05 * var_reinforce
        s = estimate_mean_and_variance(
            "esg:longjump", np.array([x]), oracle, 1_000_000, rng
        )
        assert abs(s.gradient_variance[0] - 1.0) <= 0.05
    assert time.perf_counter() - t0 < 60.0


def test_c06_pathwise_gradient_matches_finite_differences():
    # At fixed noise, away from kinks and the threshold, the gradient
    # is the ordinary derivative of the single evaluation.
    t0 = time.perf_counter()
    h = 1e-6
    d = 4
    rng = np.random.default_rng(42)
    oracle = TableOracle(rng.uniform(-10.0, 10.0, size=2**d))
    for name in TUPLE_NAMES:
        tup = get_tuple(name)
        est = make_estimator(f"esg:{name}")
        enc = make_estimator(f"encoded_esg:{name}")
        kinks = np.asarray(tup.kinks, dtype=float)
        accepted = 0
        while accepted < 200:
            x = rng.uniform(0.1, 0.9, size=d)
            eps = est.draw_noise(rng, d)
            e = np.asarray(tup.sigma_hat.inv_cdf(x), dtype=float)
            az = np.abs(e + eps)
            if np.any(az <= 1e-3):
                continue
            if kinks.size and np.any(np.abs(az[:, None] - kinks) <= 1e-3):
                continue
            accepted += 1

            g = est.at_noise(x, oracle, eps).gradient
            for i in range(d):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (
                    est.at_noise(xp, oracle, eps).value
                    - est.at_noise(xm, oracle, eps).value
                ) / (2.0 * h)
                rel = abs(g[i] - fd) / max(abs(g[i]), 1e-6)
                assert rel <= 1e-4, f"{name}: rel err {rel:.2e} at x={x}"

            ge = enc.at_noise(e, oracle, eps).gradient
            for i in range(d):
                ep, em = e.copy(), e.copy()
                ep[i] += h
                em[i] -= h
                fd = (
                    enc.at_noise(ep, oracle, eps).value
                    - enc.at_noise(em, oracle, eps).value
                ) / (2.0 * h)
                rel = abs(ge[i] - fd) / max(abs(ge[i]), 1e-6)
                assert rel <= 1e-4, f"encoded {name}: rel err {rel:.2e}"
    assert time.perf_counter() - t0 < 30.0


def test_c07_keys_are_deliberately_miscalibrated():
    # With the two-point perturbation the key is the noise sign, so
    # P[k=1] is 1/2 at every x; only sigma = sigma_hat calibrates keys.
    t0 = time.perf_counter()
    oracle = TableOracle([0.0, 1.0])
    x = np.array([0.3])
    est = make_estimator("esg:longjump")
    keys = est.sample_batch(x, oracle, np.random.default_rng(8), 1_000_000).keys
    freq = float(keys.mean())
    assert 0.498 <= freq <= 0.502, f"longjump key frequency {freq}"

    naive = make_estimator("naive")
    keys = naive.sample_batch(x, oracle, np.random.default_rng(9), 1_000_000).keys
    p = float(keys.mean())
    se = math.sqrt(0.3 * 0.7 / 1_000_000)
    assert abs(p - 0.3) <= 4.0 * se, f"naive key frequency {p}"
    assert time.perf_counter() - t0 < 30.0


def test_c08_query_accounting():
    t0 = time.perf_counter()
    single = ["naive", "reinforce"] + [
        f"{kind}:{name}"
        for kind in ("esg", "encoded_esg")
        for name in TUPLE_NAMES
    ]
    x = np.array([0.4, 0.6])
    n = 1234
    for spec in single:
        oracle = TableOracle(np.arange(4.0))
        estimate_mean_and_variance(spec, x, oracle, n, np.random.default_rng(1))
        assert oracle.call_count == n, spec
    for spec in ("arm", "disarm"):
        oracle = TableOracle(np.arange(4.0))
        estimate_mean_and_variance(spec, x, oracle, n, np.random.default_rng(1))
        assert oracle.call_count == 2 * n, spec
    assert time.perf_counter() - t0 < 5.0


def test_c09_encoded_and_plain_descent_coincide():
    # The long-jump encoding is linear, so the two loops perform the
    # same arithmetic; matched seeds must give matching iterates.
    t0 = time.perf_counter()
    common = dict(
        steps=10_000,
        schedule=Schedule("constant", 0.05),
        direction="maximize",
        x0=0.35,
        clamp=1e-4,
        seed=31,
        snapshot_every=1,
    )
    plain, _ = descend(
        DescentConfig(estimator="esg:longjump", **common),
        TableOracle([-0.3, 1.1]),
    )
    encoded, _ = descend(
        DescentConfig(estimator="encoded_esg:longjump", **common),
        TableOracle([-0.3, 1.1]),
    )
    assert plain.snapshots.shape == (10_001, 1)
    gap = float(np.max(np.abs(plain.snapshots - encoded.snapshots)))
    assert gap <= 1e-12, f"iterate gap {gap:.3e}"
    assert float(np.max(np.abs(plain.raw - encoded.raw))) <= 1e-12
    assert float(np.max(np.abs(plain.final_x - encoded.final_x))) <= 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_c10_slice_benchmark_separates_methods():
    # Qualitative reproduction on the shipped config: the single-query
    # methods reach the global maximum 18 while the score-function
    # baseline stays at the local optimum 3, in at least two of three
    # meta-repetitions.
    t0 = time.perf_counter()
    spec = load_experiment_spec(REPO_ROOT / "configs" / "slice_d10.json")
    successes = 0
    for rep in range(3):
        result = run_experiment(replace(spec, base_seed=spec.base_seed + rep))
        final = {s.label: float(s.median[-1]) for s in result.series}
        reached = all(
            final[m] >= 18.0 - 1e-9
            for m in ("esg:spike", "esg:arch", "esg:longjump")
        )
        stuck = final["reinforce"] <= 3.0 + 1e-9
        successes += int(reached and stuck)
    assert successes >= 2, f"only {successes}/3 meta-repetitions separated"
    assert time.perf_counter() - t0 < 600.0


def test_c11_experiment_outputs_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    spec = load_experiment_spec(REPO_ROOT / "configs" / "slice_d10.json")
    small = replace(
        spec, name="determinism_check", budget=400, n_trials=5, grid_points=64
    )
    paths = []
    for sub in ("one", "two"):
        result = run_experiment(small)
        paths.append(write_outputs(result, tmp_path / sub))
    (csv1, svg1), (csv2, svg2) = paths
    assert open(csv1, "rb").read() == open(csv2, "rb").read()
    assert open(svg1, "rb").read() == open(svg2, "rb").read()
    assert time.perf_counter() - t0 < 60.0
