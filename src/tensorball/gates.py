"""Acceptance gates: nine go/no-go checks with pinned tolerances.

Each gate returns ``(ok, line)``, where ``line`` is its verdict
(``acceptance <k> <name>: PASS/FAIL (<detail>, <elapsed>s/<budget>s)``).
Seeds are frozen; every gate also enforces its runtime budget.  ``GATES``
is the one table: ``tests/test_acceptance.py`` runs each entry as a test,
and ``tensorball selftest`` prints the nine lines and exits 4 if any gate
fails.
"""

import contextlib
import io
import math
import tempfile
import time
from pathlib import Path

import numpy as np

from .cli import main as cli_main
from .decomposition import decompose_smoothed
from .distributions import DistributionSpec, HistogramDensity, matched_cube
from .exact_laws import exact_smallball, product_uniform_cdf
from .khatri_rao import SmoothedEnsemble, pinv_hs_norm_sq, projection_distance_sum, smin_tail_experiment
from .montecarlo import (
    ExperimentConfig,
    SlabBody,
    _aux_rng,
    dominance_test,
    estimate_smallball,
    fit_slope,
    norm_concentration,
)
from .subspaces import coordinate_line_subspace, haar_subspace

SEED = 1


def _verdict(num, name, ok, detail, started, budget_s):
    elapsed = time.perf_counter() - started
    ok = bool(ok) and elapsed < budget_s
    return ok, f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'} ({detail}, {elapsed:.1f}s/{budget_s:.0f}s)"


def pinv_row_distance_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        r = int(rng.integers(1, 9))
        d = int(rng.integers(r, 17))
        a = rng.standard_normal((r, d))
        lhs = pinv_hs_norm_sq(a)
        rhs = projection_distance_sum(a)
        worst = max(worst, abs(lhs - rhs) / max(lhs, rhs))
    return _verdict(1, "pinv identity", worst <= 1e-8, f"worst rel diff {worst:.2e}", started, 5.0)


def product_law_vs_monte_carlo():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n = 1_000_000
    band = math.sqrt(math.log(2 / 0.001) / (2 * n))
    zs = np.linspace(-0.9999, 0.9999, 2001)
    worst = 0.0
    for ell in (2, 3, 4):
        samples = np.sort(rng.uniform(-1.0, 1.0, size=(n, ell)).prod(axis=1))
        emp = np.searchsorted(samples, zs, side="right") / n
        worst = max(worst, float(np.max(np.abs(emp - product_uniform_cdf(ell, zs)))))
    closed = product_uniform_cdf(2, 0.5)
    oracle = np.random.default_rng(123).uniform(-1.0, 1.0, size=(10_000_000, 2)).prod(axis=1)
    mc = float(np.count_nonzero(oracle <= 0.5)) / 10_000_000
    ok = worst <= band and abs(closed - 0.923287) < 5e-7 and abs(closed - mc) <= 4e-4
    detail = f"worst KS dist {worst:.2e} vs band {band:.2e}, F(0.5) mc gap {abs(closed - mc):.1e}"
    return _verdict(2, "product-of-uniforms law", ok, detail, started, 30.0)


def single_direction_sharpness():
    started = time.perf_counter()
    grid = tuple(sorted((float(e) for e in np.geomspace(1e-3, 1e-1, 20)), reverse=True))
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=8),) * 3
    cfg = ExperimentConfig(seed=SEED, trials=1_000_000, confidence=0.999)
    basis = coordinate_line_subspace(8, 3, 1)
    curve = estimate_smallball(specs, basis, cfg, grid)
    exact = exact_smallball(specs, basis, grid)
    inside = sum(lo <= p <= hi for p, lo, hi in zip(exact, curve.ci_low, curve.ci_high))
    fit = fit_slope(curve, (1e-3, 1e-1), deflate_log_power=2)
    ok = inside == len(grid) and abs(fit.slope - 1.0) <= 0.15
    detail = f"{inside}/{len(grid)} in CI, deflated slope {fit.slope:.3f}"
    return _verdict(3, "single-direction sharpness", ok, detail, started, 120.0)


def fixed_vs_generic_separation():
    started = time.perf_counter()
    grid = (0.6, 0.5, 0.4, 0.3, 0.24, 0.19, 0.15, 0.12, 0.1, 0.08, 0.063, 0.05, 0.04, 0.03)
    specs = (DistributionSpec(kind="uniform-cube-sqrt3", dim=4),) * 2
    cfg = ExperimentConfig(seed=SEED, trials=1_000_000, confidence=0.99)
    line = estimate_smallball(specs, coordinate_line_subspace(4, 2, 4), cfg, grid)
    haar = estimate_smallball(specs, haar_subspace((4, 4), 4, _aux_rng(SEED, 0)), cfg, grid)
    i = grid.index(0.1)
    disjoint = haar.ci_high[i] < line.ci_low[i]
    slope_gap = fit_slope(haar, (0.05, 0.3)).slope - fit_slope(line, (0.05, 0.3)).slope
    ok = disjoint and slope_gap >= 1.0
    detail = (
        f"p(0.1) haar {haar.p_hat[i]:.2e} < line {line.p_hat[i]:.2e} disjoint={disjoint}, "
        f"slope gap {slope_gap:.2f}"
    )
    return _verdict(4, "generic vs adversarial subspace", ok, detail, started, 180.0)


def dominance_by_matched_cube():
    started = time.perf_counter()
    hist = HistogramDensity((-1.5, -0.5, 0.5, 1.5), (0.15, 0.7, 0.15))
    laws = (
        DistributionSpec(kind="gaussian-std", dim=2),
        DistributionSpec(kind="symmetric-exponential-unitvar", dim=2),
        DistributionSpec(kind="histogram", dim=2, histogram=hist),
    )
    cfg = ExperimentConfig(seed=SEED, trials=1_000_000, confidence=0.99)
    violations = 0
    for li, law in enumerate(laws):
        cube = matched_cube(law)
        bodies = [SlabBody.random(4, 3, 1.0, _aux_rng(SEED, 10 * li + b)) for b in range(5)]
        reports = dominance_test((law,) * 2, (cube,) * 2, bodies, cfg)
        violations += sum(rep.violation_candidate for rep in reports)
    return _verdict(5, "dominance by matched cube", violations == 0, f"{violations}/15 violation candidates", started, 300.0)


def norm_concentration_tails():
    started = time.perf_counter()
    specs = (DistributionSpec(kind="gaussian-std", dim=64),) * 2
    t_grid = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    cfg = ExperimentConfig(seed=SEED, trials=100_000)
    upper, lower = norm_concentration(specs, t_grid, cfg)
    p_half = upper.hit_counts[t_grid.index(0.5)] / upper.trials
    nested = (
        list(upper.hit_counts) == sorted(upper.hit_counts, reverse=True)
        and list(lower.hit_counts) == sorted(lower.hit_counts, reverse=True)
    )
    ok = p_half <= 0.01 and nested
    return _verdict(6, "norm concentration", ok, f"upper tail at t=0.5 is {p_half:.1e}, nested={nested}", started, 60.0)


def smoothed_smin_tail_slope():
    started = time.perf_counter()
    grid = tuple(sorted((float(e) for e in np.geomspace(0.01, 3.0, 22)), reverse=True))
    ensemble = SmoothedEnsemble.random(8, 6, 2, 1.0, rng=_aux_rng(SEED, 0))
    cfg = ExperimentConfig(seed=SEED, trials=10_000)
    result = smin_tail_experiment(ensemble, cfg, grid)
    counts = np.asarray(result.curve.hit_counts)
    ok_idx = np.flatnonzero(counts >= 30)
    estar = grid[int(ok_idx.max())]
    fit = fit_slope(result.curve, (estar, 10 * estar))
    ok = fit.slope >= 0.8
    detail = f"slope {fit.slope:.2f} over [{estar:.3f}, {10 * estar:.3f}] ({fit.n_points} points)"
    return _verdict(7, "smoothed smin tail", ok, detail, started, 240.0)


def decomposition_recovery():
    started = time.perf_counter()
    plain = decompose_smoothed(SmoothedEnsemble.random(6, 10, 3, 1.0, rng=1), 0.0, rng=2)
    folded = decompose_smoothed(SmoothedEnsemble.random(3, 4, 4, 1.0, rng=2), 0.0, rng=3)
    ensemble = SmoothedEnsemble.random(6, 10, 3, 0.1, rng=3)
    noises = (1e-10, 1e-8, 1e-6)
    errors = [decompose_smoothed(ensemble, s, rng=7).max_error for s in noises]
    slope = float(np.polyfit(np.log(noises), np.log(errors), 1)[0])
    ok = plain.max_error <= 1e-6 and folded.max_error <= 1e-6 and abs(slope - 1.0) <= 0.3
    detail = (
        f"noiseless {plain.max_error:.1e}, folded {folded.max_error:.1e}, noise slope {slope:.2f}"
    )
    return _verdict(8, "decomposition recovery", ok, detail, started, 120.0)


def determinism():
    started = time.perf_counter()
    args = (
        "smallball", "--n", "3", "--l", "2", "--m", "2", "--trials", "5e4",
        "--eps-grid", "0.05:0.5:8", "--seed", str(SEED),
    )
    # the run and its replay write into a directory that is gone afterwards,
    # and their "wrote ..." lines stay off stdout
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        first = Path(tmp, "first")
        again = Path(tmp, "again")
        byte_identical = (
            cli_main([*args, "--out", str(first)]) == 0
            and cli_main(["--replay", str(first / "smallball_manifest.json"), "--out", str(again)]) == 0
            and (first / "smallball.csv").read_bytes() == (again / "smallball.csv").read_bytes()
        )

    # same batch partition, different scheduling: counts must be identical
    specs = (DistributionSpec(kind="gaussian-std", dim=3),) * 2
    basis = coordinate_line_subspace(3, 2, 2)
    grid = (0.5, 0.1)
    serial = estimate_smallball(
        specs, basis, ExperimentConfig(seed=SEED, trials=40_000, batch_size=10_000, threads=1), grid
    )
    threaded = estimate_smallball(
        specs, basis, ExperimentConfig(seed=SEED, trials=40_000, batch_size=10_000, threads=4), grid
    )
    same_counts = serial.hit_counts == threaded.hit_counts
    ok = byte_identical and same_counts
    detail = f"replay byte-identical={byte_identical}, multi-batch counts equal={same_counts}"
    return _verdict(9, "determinism", ok, detail, started, 30.0)


GATES = (
    pinv_row_distance_identity, product_law_vs_monte_carlo, single_direction_sharpness,
    fixed_vs_generic_separation, dominance_by_matched_cube, norm_concentration_tails,
    smoothed_smin_tail_slope, decomposition_recovery, determinism,
)
