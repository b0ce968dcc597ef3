"""Monte Carlo gradients versus brute force on a random 4-bit table.

Every estimator realisation spends exactly one oracle query (two for
arm/disarm), yet the averages converge to the enumerated gradient of
the multilinear extension.  Run:

    python3 demos/gradient_sanity.py [--samples N]
"""

import argparse

import numpy as np

from sqgrad import (
    TableOracle,
    estimate_mean_and_variance,
    multilinear_gradient,
    multilinear_value,
)
from sqgrad.cli import _at_least

SPECS = ["esg:spike", "esg:arch", "esg:longjump", "reinforce", "arm", "disarm"]


def main():
    ap = argparse.ArgumentParser()
    # The types of ``sqgrad estimate``: a bad value is a usage error.
    ap.add_argument("--samples", type=_at_least(1), default=200_000)
    ap.add_argument("--seed", type=_at_least(0), default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    oracle = TableOracle(rng.uniform(-5.0, 5.0, size=16))
    x = np.array([0.2, 0.45, 0.7, 0.9])

    print(f"x = {x}")
    print(f"exact value    v(x) = {multilinear_value(x, oracle):+.4f}")
    g = multilinear_gradient(x, oracle)
    print(f"exact gradient g(x) = {np.array2string(g, precision=4)}")
    print()
    print(f"{'estimator':<14} {'queries':>8} {'max |mean - g|':>15} {'in std errs':>12}")
    for spec in SPECS:
        oracle.reset_calls()
        s = estimate_mean_and_variance(spec, x, oracle, args.samples, rng)
        err = np.abs(s.mean_gradient - g)
        sigmas = float(np.max(err / s.gradient_std_err))
        print(f"{spec:<14} {s.queries:>8} {float(np.max(err)):>15.4f} {sigmas:>12.2f}")


if __name__ == "__main__":
    main()
