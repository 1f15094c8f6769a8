"""Haar-random vs adversarial coordinate subspace: curves and slope gap.

The generic subspace decays with a dimension-sized exponent; the coordinate
construction pins the rate at roughly eps^1.  Writes one CSV per regime.
"""

import argparse

from tensorball import (
    DistributionSpec,
    ExperimentConfig,
    UsageError,
    coordinate_line_subspace,
    curve_csv_bytes,
    estimate_smallball,
    fit_slope,
    haar_subspace,
)
from tensorball.cli import _parse_trials
import numpy as np

GRID = (0.6, 0.5, 0.4, 0.3, 0.24, 0.19, 0.15, 0.12, 0.1, 0.08, 0.063, 0.05, 0.04, 0.03)


def trial_count(text: str) -> int:
    """``--trials`` as the CLI reads it: a finite whole number, also as a float (``2e3``)."""
    try:
        return _parse_trials(text)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--l", dest="ell", type=int, default=2)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--trials", type=trial_count, default=10**6)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    cfg = ExperimentConfig(seed=args.seed, trials=args.trials, epsilon_grid=GRID)
    shape = (args.n,) * args.ell
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(2**32, 0)))
    bases = {
        "haar": haar_subspace(shape, args.m, rng),
        "line": coordinate_line_subspace(args.n, args.ell, args.m),
    }
    slopes = {}
    for name, basis in bases.items():
        curve = estimate_smallball((DistributionSpec(kind="uniform-cube-sqrt3", dim=args.n),) * args.ell, basis, cfg)
        with open(f"subspace_{name}.csv", "wb") as fh:
            fh.write(curve_csv_bytes(curve))
        slopes[name] = fit_slope(curve, (0.05, 0.3)).slope
        print(f"{name}: slope {slopes[name]:.3f}, p(0.1) = {curve.p_hat[GRID.index(0.1)]:.3e}")
    print(f"slope gap {slopes['haar'] - slopes['line']:.3f}")


if __name__ == "__main__":
    main()
