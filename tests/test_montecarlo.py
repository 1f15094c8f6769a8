import math
import threading

import numpy as np
import pytest

from tensorball import (
    DataSparsityError,
    DistributionSpec,
    ExperimentConfig,
    HistogramDensity,
    SlabBody,
    SmallBallCurve,
    ValidationError,
    clopper_pearson,
    coordinate_line_subspace,
    curve_csv_bytes,
    diagonal_direction,
    dominance_test,
    estimate_direction_smallball,
    estimate_smallball,
    fit_slope,
    matched_cube,
    norm_concentration,
    kron,
    product_uniform_smallball,
    rows_csv_bytes,
    sample_matrix,
)
from tensorball import montecarlo

GAUSS2 = (DistributionSpec(kind="gaussian-std", dim=2),) * 2
CUBE_UNIT_GRID = (0.5, 0.3, 0.2, 0.1, 0.05)


def cfg_of(seed=0, trials=10_000, grid=CUBE_UNIT_GRID, **kw):
    return ExperimentConfig(seed=seed, trials=trials, epsilon_grid=grid, **kw)


def test_config_validation():
    with pytest.raises(ValidationError):
        cfg_of(trials=10)
    with pytest.raises(ValidationError):
        cfg_of(grid=(0.1, 0.2))
    with pytest.raises(ValidationError):
        cfg_of(seed=-1)
    with pytest.raises(ValidationError):
        cfg_of(confidence=1.0)


@pytest.mark.parametrize("trials", [1000.5, 1000.0, "1000"])
def test_config_requires_integral_trials(trials):
    with pytest.raises(ValidationError):
        cfg_of(trials=trials)


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 100, 0.99)
    assert lo == 0.0 and 0 < hi < 0.1
    lo, hi = clopper_pearson(100, 100, 0.99)
    assert hi == 1.0 and 0.9 < lo < 1.0


def test_clopper_pearson_brackets_estimate():
    lo, hi = clopper_pearson(37, 1000, 0.95)
    assert lo < 0.037 < hi
    lo99, hi99 = clopper_pearson(37, 1000, 0.99)
    assert lo99 < lo and hi < hi99


def test_curve_rejects_nonmonotone_counts():
    with pytest.raises(ValidationError):
        SmallBallCurve(
            epsilon_grid=(0.2, 0.1), hit_counts=(5, 50), trials=100, confidence=0.99
        )


def test_smallball_deterministic():
    basis = coordinate_line_subspace(3, 2, 2)
    specs = (DistributionSpec(kind="uniform-cube-sqrt3", dim=3),) * 2
    a = estimate_smallball(specs, basis, cfg_of(seed=5))
    b = estimate_smallball(specs, basis, cfg_of(seed=5))
    assert a.hit_counts == b.hit_counts
    assert a.scaling == "eps*sqrt(m)"


def test_threads_do_not_change_counts():
    basis = coordinate_line_subspace(4, 2, 3)
    specs = (DistributionSpec(kind="gaussian-std", dim=4),) * 2
    one = estimate_smallball(specs, basis, cfg_of(seed=2, trials=30_000, batch_size=5_000, threads=1))
    four = estimate_smallball(specs, basis, cfg_of(seed=2, trials=30_000, batch_size=5_000, threads=4))
    assert one.hit_counts == four.hit_counts


def test_degenerate_shifted_point_mass_always_hits():
    # the point mass at 0.7 minus its centre 0.7: a shift is written into the edges
    h = HistogramDensity(bin_edges=(0.7 - 0.7, 0.7 - 0.7), heights=(0.0,))
    specs = (DistributionSpec(kind="histogram", dim=2, histogram=h),) * 2
    basis = coordinate_line_subspace(2, 2, 2)
    cfg = ExperimentConfig(seed=0, trials=1000, epsilon_grid=(0.1, 0.01))
    curve = estimate_smallball(specs, basis, cfg)
    assert curve.hit_counts == (1000, 1000)


def test_huge_eps_always_hits():
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=2),) * 2
    basis = coordinate_line_subspace(2, 2, 1)
    curve = estimate_smallball(specs, basis, cfg_of(trials=1000, grid=(10.0, 5.0)))
    assert curve.hit_counts == (1000, 1000)


def test_direction_gaussian_matches_normal_cdf():
    from scipy.stats import norm

    specs = (DistributionSpec(kind="gaussian-std", dim=4),)
    f = diagonal_direction(4, 1)
    curve = estimate_direction_smallball(specs, f, cfg_of(seed=3, trials=200_000))
    assert curve.scaling == "eps"
    for eps, lo, hi in zip(curve.epsilon_grid, curve.ci_low, curve.ci_high):
        want = 2 * norm.cdf(eps) - 1
        assert lo - 2e-3 <= want <= hi + 2e-3


@pytest.mark.parametrize("kind", ["gaussian-std", "uniform-cube-unit"])
def test_direction_counts_equal_one_row_smallball(kind):
    specs = (DistributionSpec(kind=kind, dim=3),) * 3
    direction = diagonal_direction(3, 3)
    cfg = cfg_of(seed=11, trials=5000, batch_size=2000)
    a = estimate_direction_smallball(specs, direction, cfg)
    b = estimate_smallball(specs, direction, cfg)
    assert a.hit_counts == b.hit_counts
    assert a.scaling == "eps" and b.scaling == "eps*sqrt(m)"


def test_direction_cube_matches_product_law():
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=3),) * 2
    f = diagonal_direction(3, 2)
    cfg = cfg_of(seed=8, trials=400_000, confidence=0.999)
    curve = estimate_direction_smallball(specs, f, cfg)
    for eps, lo, hi in zip(curve.epsilon_grid, curve.ci_low, curve.ci_high):
        assert lo <= product_uniform_smallball(2, 1.0, eps) <= hi


def test_norm_concentration_split_at_zero_grid():
    specs = (DistributionSpec(kind="gaussian-std", dim=8),) * 2
    curves = norm_concentration(specs, (1e-9, 0.5), cfg_of(trials=2000, grid=(1.0, 0.5)))
    # thresholds straddle the scale: essentially every draw is on one side
    assert curves.upper_counts[0] + curves.lower_counts[0] == 2000


def test_norm_concentration_support_bound():
    ell = 2
    specs = (DistributionSpec(kind="uniform-cube-sqrt3", dim=4),) * ell
    t = 3.0 ** (ell / 2.0) - 1.0
    curves = norm_concentration(specs, (0.5, t), cfg_of(trials=5000, grid=(1.0, 0.5)))
    assert curves.upper_counts[-1] == 0


def test_norm_concentration_rejects_anisotropic():
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=4),) * 2
    with pytest.raises(ValidationError, match="isotropic"):
        norm_concentration(specs, (0.5,), cfg_of(trials=1000, grid=(1.0, 0.5)))


def test_dominance_identical_laws_consistent():
    body = SlabBody.random(4, 3, 1.0, np.random.default_rng(0))
    rep = dominance_test(GAUSS2, GAUSS2, body, cfg_of(seed=1, trials=50_000, grid=(1.0, 0.5)))
    assert not rep.violation_candidate
    assert abs(rep.gap) < 0.02


def test_dominance_empty_body_everything_inside():
    body = SlabBody(directions=np.zeros((0, 4)))
    rep = dominance_test(GAUSS2, GAUSS2, body, cfg_of(trials=1000, grid=(1.0, 0.5)))
    assert rep.p_hat_a == 1.0 and rep.p_hat_b == 1.0


def test_dominance_histogram_vs_matched_cube():
    """Bounded-density law vs the cube with the same sup: theorem direction."""
    h = HistogramDensity(bin_edges=(-1.5, -0.5, 0.5, 1.5), heights=(0.15, 0.7, 0.15))
    spec = DistributionSpec(kind="histogram", dim=2, histogram=h)
    cube = matched_cube(spec)
    body = SlabBody(np.eye(4) / 0.25)
    rep = dominance_test(
        (spec,) * 2, (cube,) * 2, body, cfg_of(seed=4, trials=200_000, grid=(1.0, 0.5))
    )
    assert not rep.violation_candidate
    assert rep.p_hat_a <= rep.p_hat_b + 0.01


def synthetic_curve(fn, grid, trials=1_000_000):
    counts = []
    prev = trials
    for e in grid:
        c = min(prev, int(round(fn(e) * trials)))
        counts.append(c)
        prev = c
    return SmallBallCurve(epsilon_grid=grid, hit_counts=tuple(counts), trials=trials, confidence=0.99)


def test_fit_slope_power_law():
    grid = tuple(float(e) for e in np.geomspace(0.5, 0.05, 10))
    curve = synthetic_curve(lambda e: e**2, grid)
    fit = fit_slope(curve, (0.05, 0.5))
    assert abs(fit.slope - 2.0) < 0.01
    assert fit.n_points == 10


def test_fit_slope_with_deflation():
    grid = tuple(float(e) for e in np.geomspace(0.3, 0.01, 12))
    curve = synthetic_curve(lambda e: e * math.log(1 / e), grid)
    fit = fit_slope(curve, (0.01, 0.3), deflate_log_power=1)
    assert abs(fit.slope - 1.0) < 0.02


def test_fit_slope_deflation_needs_eps_below_one():
    grid = (2.0, 1.5, 0.8, 0.4, 0.2, 0.1)
    curve = synthetic_curve(lambda e: min(e, 1.0) / 2, grid)
    with pytest.raises(ValidationError, match="below 1"):
        fit_slope(curve, (0.1, 2.0), deflate_log_power=2)
    # restricting to the valid window makes the same call legal
    fit_slope(curve, (0.1, 0.8), deflate_log_power=2)


def test_fit_slope_sparsity():
    grid = (0.5, 0.4, 0.3, 0.2, 0.1)
    curve = SmallBallCurve(epsilon_grid=grid, hit_counts=(0,) * 5, trials=1000, confidence=0.99)
    with pytest.raises(DataSparsityError):
        fit_slope(curve, (0.1, 0.5))


def test_curve_csv_and_sidecar():
    basis = coordinate_line_subspace(2, 2, 1)
    specs = (DistributionSpec(kind="gaussian-std", dim=2),) * 2
    cfg = cfg_of(seed=5, trials=1000, grid=(0.5, 0.1))
    curve = estimate_smallball(specs, basis, cfg)
    raw = curve_csv_bytes(curve, comment="manifest: abc")
    lines = raw.decode().splitlines()
    assert lines[0] == "# manifest: abc"
    assert lines[1] == "epsilon,hits,trials,p_hat,ci_low,ci_high"
    assert len(lines) == 4


def test_csv_cell_spelling():
    """Curve cells are reprs with NaN as ``nan``; table cells leave NaN and None empty."""
    curve = SmallBallCurve(epsilon_grid=(0.5, 0.1), hit_counts=(3, 1), trials=10, confidence=0.9)
    lines = curve_csv_bytes(curve, extra_columns={"bound": [float("nan"), 0.25]}).decode().splitlines()
    assert lines[0] == "epsilon,hits,trials,p_hat,ci_low,ci_high,bound"
    assert lines[1].startswith("0.5,3,10,0.3,") and lines[1].endswith(",nan")
    assert lines[2].endswith(",0.25")
    rows = [{"a": 1, "b": float("nan"), "c": None, "d": True}, {"a": 2.5, "b": float("inf")}]
    raw = rows_csv_bytes(["a", "b", "c", "d"], rows, comment="manifest: abc")
    assert raw == b"# manifest: abc\na,b,c,d\n1,,,True\n2.5,inf,,\n"


def batch_streams(cfg):
    """(generator, size) of every batch, as the batch partition defines them."""
    full, rem = divmod(cfg.trials, cfg.batch_size)
    for i, size in enumerate([cfg.batch_size] * full + ([rem] if rem else [])):
        yield np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,))), size


def reference_membership_hits(specs, body, cfg):
    """Membership counts with a fresh Kronecker product for every chunk."""
    chunk = (1 << 21) // body.ambient_dim
    hits = 0
    for rng, size in batch_streams(cfg):
        for start in range(0, size, chunk):
            xs = [sample_matrix(s, rng, min(chunk, size - start)) for s in specs]
            hits += int(np.count_nonzero(body.contains(kron([x[:, :, None] for x in xs])[:, :, 0])))
    return hits


@pytest.mark.parametrize("tail, count, threads", [(1, 8, 1), (2, 8, 2), (1, 0, 1)])
def test_membership_counts_match_fresh_products(tail, count, threads):
    # n=4, l=3: chunks of 2^21 / 64 = 32768 trials, so each batch ends in a
    # chunk of ``tail`` trials
    spec = DistributionSpec(kind="symmetric-exponential-unitvar", dim=4)
    specs = (spec,) * 3
    body = SlabBody.random(64, count, 1.0, np.random.default_rng(count))
    batch = 32768 + tail
    cfg = cfg_of(seed=9, trials=2 * batch + 5, grid=(1.0, 0.5), batch_size=batch, threads=threads)
    for laws in (specs, (matched_cube(spec),) * 3):
        want = reference_membership_hits(laws, body, cfg)
        assert montecarlo._membership_counts(laws, body, cfg) == want
        assert 0 < want <= cfg.trials


def test_norm_concentration_matches_linalg_norm():
    specs = (DistributionSpec(kind="gaussian-std", dim=16), DistributionSpec(kind="uniform-cube-sqrt3", dim=8))
    t = np.linspace(0.02, 0.6, 12)
    cfg = cfg_of(seed=3, trials=25_000, grid=(1.0, 0.5), batch_size=7_001, threads=2)
    upper = np.zeros(t.size, dtype=int)
    lower = np.zeros(t.size, dtype=int)
    scale = math.sqrt(16 * 8)
    for rng, size in batch_streams(cfg):
        norm_prod = np.ones(size)
        for spec in specs:
            norm_prod = norm_prod * np.linalg.norm(sample_matrix(spec, rng, size), axis=1)
        upper += np.count_nonzero(norm_prod[:, None] >= (1.0 + t) * scale, axis=0)
        lower += np.count_nonzero(norm_prod[:, None] <= (1.0 - t) * scale, axis=0)
    curves = norm_concentration(specs, tuple(t), cfg)
    assert curves.upper_counts == tuple(upper) and curves.lower_counts == tuple(lower)
    assert upper[0] > 0 and lower[0] > 0


class Sentinel(Exception):
    pass


@pytest.mark.parametrize("threads", [1, 2])
def test_batch_driver_streams_a_huge_plan(threads):
    calls = []
    lock = threading.Lock()

    def kernel(rng, size):
        with lock:
            calls.append(size)
            if len(calls) > 3:
                raise Sentinel
        return np.asarray([size])

    cfg = cfg_of(trials=10**30, grid=(1.0, 0.5), threads=threads)
    with pytest.raises(Sentinel):
        montecarlo._sum_over_batches(cfg, kernel)
    assert 4 <= len(calls) <= 3 + montecarlo._WINDOW_PER_THREAD * threads


@pytest.mark.parametrize("threads", [1, 3])
def test_batch_driver_adds_every_batch_once(threads):
    cfg = cfg_of(seed=1, trials=1_000_003, grid=(1.0, 0.5), batch_size=9_999, threads=threads)
    total = montecarlo._sum_over_batches(cfg, lambda rng, size: np.asarray([size, 1]))
    assert total.tolist() == [1_000_003, 101]
