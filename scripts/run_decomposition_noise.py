"""Recovery error of the smoothed decomposition as entry noise grows.

Sweeps uniform entry noise over decades against one fixed smoothed draw and
fits the error-vs-noise log-log slope (expected near 1 while noise stays
below the spectral-gap scale).
"""

import argparse
import csv

import numpy as np

from tensorball import DegeneracyError, SmoothedEnsemble, decompose_smoothed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--l", dest="ell", type=int, default=3)
    ap.add_argument("--r", type=int, default=6)
    ap.add_argument("--rho", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--decades", type=int, default=6)
    ap.add_argument("--out", default="decomposition_noise.csv")
    args = ap.parse_args(argv)

    ensemble = SmoothedEnsemble.random(args.r, args.n, args.ell, args.rho, rng=args.seed)
    noises = [10.0**-k for k in range(4, 4 + args.decades)]
    rows = []
    for noise in sorted(noises):
        try:
            report = decompose_smoothed(ensemble, noise, rng=args.seed + 4)
        except DegeneracyError as exc:
            print(f"noise {noise:.0e}: degenerate ({exc})")
            continue
        rows.append((noise, report.max_error, report.diagnostics["residual"]))
        print(f"noise {noise:.0e}: max error {report.max_error:.3e}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["noise", "max_error", "residual"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    if len(rows) >= 3:
        x = np.log([r[0] for r in rows])
        y = np.log([r[1] for r in rows])
        print(f"log-log slope {np.polyfit(x, y, 1)[0]:.3f}")


if __name__ == "__main__":
    main()
