import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import beta

from tensorball import (
    DataSparsityError,
    DistributionSpec,
    ExperimentConfig,
    HistogramDensity,
    SlabBody,
    SmallBallCurve,
    SmoothedEnsemble,
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
    smin_tail_experiment,
)
from tensorball import montecarlo

GAUSS2 = (DistributionSpec(kind="gaussian-std", dim=2),) * 2
CUBE_UNIT_GRID = (0.5, 0.3, 0.2, 0.1, 0.05)


def cfg_of(seed=0, trials=10_000, **kw):
    return ExperimentConfig(seed=seed, trials=trials, **kw)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs on any machine, so a run with ``threads >= 2`` has a pool of two."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)


def test_config_validation():
    with pytest.raises(ValidationError):
        cfg_of(trials=10)
    with pytest.raises(ValidationError):
        cfg_of(seed=-1)
    with pytest.raises(ValidationError):
        cfg_of(confidence=1.0)


@pytest.mark.parametrize("trials", [1000.5, 1000.0, "1000"])
def test_config_requires_integral_trials(trials):
    with pytest.raises(ValidationError):
        cfg_of(trials=trials)


@pytest.mark.parametrize("field, value", [("batch_size", 50.5), ("batch_size", 100.0), ("threads", 1.5), ("threads", "2")])
def test_config_requires_integral_batch_size_and_threads(field, value):
    with pytest.raises(ValidationError):
        cfg_of(**{field: value})


BAD_EPS_GRIDS = [(0.1, 0.2), (0.5, 0.5), (0.5, math.nan), (math.nan,), (0.5, 0.0), (0.5, -0.1), (math.inf, 0.5), ()]


@pytest.mark.parametrize("grid", BAD_EPS_GRIDS)
@pytest.mark.parametrize("estimator", [estimate_smallball, estimate_direction_smallball])
def test_eps_grid_check(estimator, grid):
    # NaN passes a check written ``grid <= 0`` or ``diff >= 0``: it must be refused, not counted
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=3),) * 2
    with pytest.raises(ValidationError, match="strictly decreasing"):
        estimator(specs, diagonal_direction(3, 2), cfg_of(trials=100), grid)


@pytest.mark.parametrize("t_grid", [(0.5, math.nan), (math.nan,), (0.5, math.inf), (0.5, 0.1), ()])
def test_t_grid_check(t_grid):
    with pytest.raises(ValidationError, match="strictly increasing"):
        norm_concentration(GAUSS2, t_grid, cfg_of(trials=100))


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


@pytest.mark.parametrize("trials", [1, 2, 7, 100, 1001, 10**5, 10**7])
def test_clopper_pearson_matches_beta_ppf_bitwise(trials):
    """The Boost quantile called directly gives the bits of ``scipy.stats.beta.ppf``, the reference route."""
    k = np.unique(np.linspace(0, trials, min(trials + 1, 300)).round())
    for confidence in (0.5, 0.9, 0.95, 0.98, 0.99, 0.999):
        alpha = 1 - confidence
        lo, hi = clopper_pearson(k, trials, confidence)
        with np.errstate(invalid="ignore"):
            want_lo = np.where(k > 0, beta.ppf(alpha / 2, k, trials - k + 1), 0.0)
            want_hi = np.where(k < trials, beta.ppf(1 - alpha / 2, k + 1, trials - k), 1.0)
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()


def test_curve_rejects_nonmonotone_counts():
    with pytest.raises(ValidationError):
        SmallBallCurve(
            epsilon_grid=(0.2, 0.1), hit_counts=(5, 50), trials=100, confidence=0.99
        )


def test_smallball_deterministic():
    basis = coordinate_line_subspace(3, 2, 2)
    specs = (DistributionSpec(kind="uniform-cube-sqrt3", dim=3),) * 2
    a = estimate_smallball(specs, basis, cfg_of(seed=5), CUBE_UNIT_GRID)
    b = estimate_smallball(specs, basis, cfg_of(seed=5), CUBE_UNIT_GRID)
    assert a.hit_counts == b.hit_counts


def test_threads_do_not_change_counts(two_cpus):
    basis = coordinate_line_subspace(4, 2, 3)
    specs = (DistributionSpec(kind="gaussian-std", dim=4),) * 2
    one = estimate_smallball(
        specs, basis, cfg_of(seed=2, trials=30_000, batch_size=5_000, threads=1), CUBE_UNIT_GRID
    )
    four = estimate_smallball(
        specs, basis, cfg_of(seed=2, trials=30_000, batch_size=5_000, threads=4), CUBE_UNIT_GRID
    )
    assert one.hit_counts == four.hit_counts


def test_degenerate_shifted_point_mass_always_hits():
    # the point mass at 0.7 minus its centre 0.7: a shift is written into the edges
    h = HistogramDensity(bin_edges=(0.7 - 0.7, 0.7 - 0.7), heights=(0.0,))
    specs = (DistributionSpec(kind="histogram", dim=2, histogram=h),) * 2
    basis = coordinate_line_subspace(2, 2, 2)
    cfg = ExperimentConfig(seed=0, trials=1000)
    curve = estimate_smallball(specs, basis, cfg, (0.1, 0.01))
    assert curve.hit_counts == (1000, 1000)


def test_huge_eps_always_hits():
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=2),) * 2
    basis = coordinate_line_subspace(2, 2, 1)
    curve = estimate_smallball(specs, basis, cfg_of(trials=1000), (10.0, 5.0))
    assert curve.hit_counts == (1000, 1000)


def test_direction_gaussian_matches_normal_cdf():
    from scipy.stats import norm

    specs = (DistributionSpec(kind="gaussian-std", dim=4),)
    f = diagonal_direction(4, 1)
    curve = estimate_direction_smallball(specs, f, cfg_of(seed=3, trials=200_000), CUBE_UNIT_GRID)
    for eps, lo, hi in zip(curve.epsilon_grid, curve.ci_low, curve.ci_high):
        want = 2 * norm.cdf(eps) - 1
        assert lo - 2e-3 <= want <= hi + 2e-3


@pytest.mark.parametrize("kind", ["gaussian-std", "uniform-cube-unit"])
def test_direction_counts_equal_one_row_smallball(kind):
    specs = (DistributionSpec(kind=kind, dim=3),) * 3
    direction = diagonal_direction(3, 3)
    cfg = cfg_of(seed=11, trials=5000, batch_size=2000)
    a = estimate_direction_smallball(specs, direction, cfg, CUBE_UNIT_GRID)
    b = estimate_smallball(specs, direction, cfg, CUBE_UNIT_GRID)
    assert a.hit_counts == b.hit_counts


def test_direction_refuses_a_basis_of_several_rows():
    # counted, such a basis would follow a third threshold convention: no sqrt(m), yet m rows
    specs = (DistributionSpec(kind="gaussian-std", dim=3),) * 2
    with pytest.raises(ValidationError, match="one-row basis, got m = 3"):
        estimate_direction_smallball(specs, coordinate_line_subspace(3, 2, 3), cfg_of(trials=1000), (0.5, 0.1))


def test_direction_cube_matches_product_law():
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=3),) * 2
    f = diagonal_direction(3, 2)
    cfg = cfg_of(seed=8, trials=400_000, confidence=0.999)
    curve = estimate_direction_smallball(specs, f, cfg, CUBE_UNIT_GRID)
    for eps, lo, hi in zip(curve.epsilon_grid, curve.ci_low, curve.ci_high):
        assert lo <= product_uniform_smallball(2, 1.0, eps) <= hi


def test_norm_concentration_split_at_zero_grid():
    specs = (DistributionSpec(kind="gaussian-std", dim=8),) * 2
    curves = norm_concentration(specs, (1e-9, 0.5), cfg_of(trials=2000))
    # thresholds straddle the scale: essentially every draw is on one side
    assert curves.upper.hit_counts[0] + curves.lower.hit_counts[0] == 2000


def test_norm_concentration_support_bound():
    ell = 2
    specs = (DistributionSpec(kind="uniform-cube-sqrt3", dim=4),) * ell
    t = 3.0 ** (ell / 2.0) - 1.0
    curves = norm_concentration(specs, (0.5, t), cfg_of(trials=5000))
    assert curves.upper.hit_counts[-1] == 0


def test_norm_concentration_rejects_anisotropic():
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=4),) * 2
    with pytest.raises(ValidationError, match="isotropic"):
        norm_concentration(specs, (0.5,), cfg_of(trials=1000))


def test_dominance_identical_laws_consistent():
    body = SlabBody.random(4, 3, 1.0, np.random.default_rng(0))
    (rep,) = dominance_test(GAUSS2, GAUSS2, [body], cfg_of(seed=1, trials=50_000))
    assert not rep.violation_candidate
    assert abs(rep.gap) < 0.02


def test_dominance_empty_body_everything_inside():
    body = SlabBody(directions=np.zeros((0, 4)))
    (rep,) = dominance_test(GAUSS2, GAUSS2, [body], cfg_of(trials=1000))
    assert rep.p_hat_a == 1.0 and rep.p_hat_b == 1.0


def test_dominance_histogram_vs_matched_cube():
    """Bounded-density law vs the cube with the same sup: theorem direction."""
    h = HistogramDensity(bin_edges=(-1.5, -0.5, 0.5, 1.5), heights=(0.15, 0.7, 0.15))
    spec = DistributionSpec(kind="histogram", dim=2, histogram=h)
    cube = matched_cube(spec)
    body = SlabBody(np.eye(4) / 0.25)
    (rep,) = dominance_test((spec,) * 2, (cube,) * 2, [body], cfg_of(seed=4, trials=200_000))
    assert not rep.violation_candidate
    assert rep.p_hat_a <= rep.p_hat_b + 0.01


def dominance_bodies(kind):
    """Gaussian or Laplace factors at n=16, l=3 against slab bodies of 0, 3 and 8 directions."""
    spec = DistributionSpec(kind=kind, dim=16)
    bodies = [SlabBody.random(16**3, count, 1 / 64, np.random.default_rng(count)) for count in (0, 3, 8)]
    return (spec,) * 3, (matched_cube(spec),) * 3, bodies


@pytest.mark.parametrize("kind", ["gaussian-std", "symmetric-exponential-unitvar"])
@pytest.mark.parametrize("threads", [1, 2])
def test_dominance_bodies_share_draws(kind, threads, two_cpus):
    specs_a, specs_b, bodies = dominance_bodies(kind)
    # chunks of 2^21 / 4096 = 512 trials: batches of 1300 end in a chunk of
    # 276, and the last batch of 700 in one of 188
    cfg = cfg_of(seed=6, trials=4_600, batch_size=1_300, threads=threads)
    together = dominance_test(specs_a, specs_b, bodies, cfg)
    alone = tuple(dominance_test(specs_a, specs_b, [body], cfg)[0] for body in bodies)
    assert together == alone
    assert together[0].hits_a == together[0].hits_b == cfg.trials
    # strictly below the matched cube, which with the Laplace law lands in both bodies on every trial
    assert all(0 < rep.hits_a < rep.hits_b for rep in together[1:])


def test_dominance_draws_once_for_every_body(monkeypatch):
    specs_a, specs_b, bodies = dominance_bodies("gaussian-std")
    draws = []

    def counting(spec, rng, n, out=None):
        draws.append(n)
        return sample_matrix(spec, rng, n, out=out)

    monkeypatch.setattr(montecarlo, "sample_matrix", counting)
    cfg = cfg_of(seed=6, trials=4_600, batch_size=1_300)
    dominance_test(specs_a, specs_b, bodies[2:], cfg)
    one = list(draws)
    draws.clear()
    dominance_test(specs_a, specs_b, [*bodies, *bodies[1:]], cfg)
    # 2 laws x 11 chunks x 3 factors
    assert draws == one and len(one) == 66


def test_dominance_needs_a_body():
    with pytest.raises(ValidationError, match="at least one slab body"):
        dominance_test(GAUSS2, GAUSS2, [], cfg_of(trials=1000))


@pytest.mark.parametrize("trials", [100, 7001])
@pytest.mark.parametrize("confidence", [0.9, 0.99, 0.999])
def test_dominance_one_sided_bounds_are_beta_quantiles(monkeypatch, trials, confidence):
    from scipy.special import betaincinv

    body = SlabBody.random(4, 3, 1.0, np.random.default_rng(0))
    cfg = cfg_of(trials=trials, confidence=confidence)
    for k in (0, 1, trials - 1, trials):
        monkeypatch.setattr(montecarlo, "_membership_counts", lambda specs, bodies, cfg: np.full(len(bodies), k))
        (rep,) = dominance_test(GAUSS2, GAUSS2, [body], cfg)
        want_low = betaincinv(k, trials - k + 1, 1 - confidence) if k > 0 else 0.0
        want_high = betaincinv(k + 1, trials - k, confidence) if k < trials else 1.0
        assert (rep.hits_a, rep.hits_b) == (k, k)
        assert type(rep.lower_a_one_sided) is float and type(rep.upper_b_one_sided) is float
        assert rep.lower_a_one_sided == want_low and rep.upper_b_one_sided == want_high
        assert rep.gap == want_low - want_high


def test_norm_tail_intervals_are_clopper_pearson_of_their_counts():
    specs = (DistributionSpec(kind="gaussian-std", dim=8),) * 2
    t_grid = (0.01, 0.1, 0.3, 3.0)
    curves = norm_concentration(specs, t_grid, cfg_of(seed=2, trials=3000, confidence=0.95))
    for curve in curves:
        assert curve.epsilon_grid == t_grid and curve.trials == 3000
        low, high = clopper_pearson(curve.hit_counts, 3000, 0.95)
        assert curve.ci_low == tuple(low.tolist()) and curve.ci_high == tuple(high.tolist())
    # t = 3 lies past both tails: a zero count, whose interval starts at 0
    assert curves.upper.hit_counts[-1] == curves.lower.hit_counts[-1] == 0
    assert curves.upper.ci_low[-1] == 0.0


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
    cfg = cfg_of(seed=5, trials=1000)
    curve = estimate_smallball(specs, basis, cfg, (0.5, 0.1))
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
def test_membership_counts_match_fresh_products(tail, count, threads, two_cpus):
    # n=4, l=3: chunks of 2^21 / 64 = 32768 trials, so each batch ends in a
    # chunk of ``tail`` trials
    spec = DistributionSpec(kind="symmetric-exponential-unitvar", dim=4)
    specs = (spec,) * 3
    body = SlabBody.random(64, count, 1.0, np.random.default_rng(count))
    batch = 32768 + tail
    cfg = cfg_of(seed=9, trials=2 * batch + 5, batch_size=batch, threads=threads)
    for laws in (specs, (matched_cube(spec),) * 3):
        want = reference_membership_hits(laws, body, cfg)
        assert montecarlo._membership_counts(laws, [body], cfg).tolist() == [want]
        assert 0 < want <= cfg.trials


def test_membership_counts_never_build_the_tensors():
    # n=4, l=3: a batch of 1e5 trials in 2^21-entry chunks; one chunk's
    # n^l tensors alone take 16 MB
    spec = DistributionSpec(kind="symmetric-exponential-unitvar", dim=4)
    body = SlabBody.random(64, 8, 1.0, np.random.default_rng(0))
    cfg = cfg_of(seed=0, trials=100_000, batch_size=100_000)
    tracemalloc.start()
    try:
        montecarlo._membership_counts((spec,) * 3, [body], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


@pytest.mark.parametrize("at_least", [False, True])
def test_count_hits_match_comparisons(at_least):
    rng = np.random.default_rng(8)
    thresholds = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf])
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, 0.5, 1.0, -1.0, np.nan]
    for values in (np.array(special), np.concatenate([rng.standard_normal(500), special]), np.array([])):
        want = np.count_nonzero((values[:, None] >= thresholds) if at_least else (values[:, None] <= thresholds), axis=0)
        got = montecarlo._count_hits(values.copy(), thresholds, at_least=at_least)
        assert np.array_equal(got, want)


def test_norm_concentration_holds_one_factor_array():
    # both factors draw into one array, each norm taken before the next draw
    specs = (DistributionSpec(kind="gaussian-std", dim=64),) * 2
    cfg = cfg_of(seed=0, trials=20_000, batch_size=20_000)
    one_factor = 20_000 * 64 * 8
    tracemalloc.start()
    try:
        norm_concentration(specs, np.linspace(0.05, 0.95, 10), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * one_factor


def _reuse_direction(cfg):
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=5),) * 3
    return estimate_direction_smallball(specs, diagonal_direction(5, 3), cfg, CUBE_UNIT_GRID).hit_counts


def _reuse_norms(cfg):
    # unequal dims: the shared factor array is sliced to either shape
    specs = (DistributionSpec(kind="gaussian-std", dim=16), DistributionSpec(kind="uniform-cube-sqrt3", dim=8))
    curves = norm_concentration(specs, np.linspace(0.02, 0.6, 8), cfg)
    return curves.upper.hit_counts + curves.lower.hit_counts


def _reuse_dominance(cfg):
    # n=16, l=3: chunks of 2^21 / 4096 = 512 trials, so batches of 1300 end
    # in a chunk of 276 and the last batch of 700 in one of 188
    spec = DistributionSpec(kind="gaussian-std", dim=16)
    body = SlabBody.random(16**3, 3, 1 / 64, np.random.default_rng(5))
    (rep,) = dominance_test((spec,) * 3, (matched_cube(spec),) * 3, [body], cfg)
    return rep.hits_a, rep.hits_b


def _reuse_norms_laplace(cfg):
    # Laplace draws allocate anyway; the arrays kept for them stay unused
    specs = (DistributionSpec(kind="symmetric-exponential-unitvar", dim=16),) * 2
    curves = norm_concentration(specs, np.linspace(0.02, 0.6, 8), cfg)
    return curves.upper.hit_counts + curves.lower.hit_counts


def _reuse_smin(cfg):
    e = SmoothedEnsemble.random(4, 4, 2, 0.5, rng=1)
    return smin_tail_experiment(e, cfg, (2.0, 1.0, 0.5, 0.2)).curve.hit_counts


# each run has at least three batches and a shorter last one, so a worker
# thread re-enters its kernel with a shorter slice of its kept arrays
REUSE_RUNS = {
    "direction": (_reuse_direction, 13_500, 4_000),
    "norms": (_reuse_norms, 13_500, 4_000),
    "norms-laplace": (_reuse_norms_laplace, 13_500, 4_000),
    "dominance": (_reuse_dominance, 4_600, 1_300),
    "smin": (_reuse_smin, 1_000, 300),
}


@pytest.mark.parametrize("name", sorted(REUSE_RUNS))
def test_reused_batch_arrays_change_no_count(name, monkeypatch, two_cpus):
    estimate, trials, batch = REUSE_RUNS[name]
    one, two = (estimate(cfg_of(seed=6, trials=trials, batch_size=batch, threads=t)) for t in (1, 2))
    # every batch on fresh arrays
    monkeypatch.setattr(montecarlo._Scratch, "array", lambda self, name, shape: np.empty(shape))
    fresh = estimate(cfg_of(seed=6, trials=trials, batch_size=batch, threads=1))
    assert one == two == fresh
    assert 0 < sum(one) < trials * len(one)


def test_later_batches_draw_into_the_first_batch_arrays(monkeypatch):
    addresses = []

    def recording(spec, rng, n, out=None):
        x = sample_matrix(spec, rng, n, out=out)
        assert out is not None and x is out
        addresses.append(out.ctypes.data)
        return x

    monkeypatch.setattr(montecarlo, "sample_matrix", recording)
    _reuse_direction(cfg_of(seed=6, trials=13_500, batch_size=4_000))
    # four batches of three factors: batches 2-4 draw into the arrays of batch 1
    assert len(addresses) == 12 and len(set(addresses[:3])) == 3
    assert addresses[3:] == addresses[:3] * 3


def test_scratch_keeps_one_array_per_name_and_thread():
    scratch = montecarlo._Scratch()
    first = scratch.array("x", (100, 4))
    assert first.shape == (100, 4) and first.flags.c_contiguous
    # shrinking shapes are views of the one allocation, shaped as asked
    for shape in ((100, 3), (37, 4), (400,), (1, 1)):
        view = scratch.array("x", shape)
        assert view.shape == shape and view.flags.c_contiguous
        assert view.ctypes.data == first.ctypes.data and view.base is first.base
    # other names get their own arrays
    assert not np.shares_memory(scratch.array("y", (100, 4)), first)
    # a larger shape allocates anew, and that array is kept
    larger = scratch.array("x", (101, 4))
    assert not np.shares_memory(larger, first)
    assert scratch.array("x", (100, 4)).ctypes.data == larger.ctypes.data
    # another thread keeps its own arrays under the same name
    other = []
    worker = threading.Thread(target=lambda: other.append(scratch.array("x", (10, 4))))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert not np.shares_memory(other[0], larger)
    assert scratch.array("x", (10, 4)).ctypes.data == larger.ctypes.data


def test_norm_concentration_matches_linalg_norm(two_cpus):
    specs = (DistributionSpec(kind="gaussian-std", dim=16), DistributionSpec(kind="uniform-cube-sqrt3", dim=8))
    t = np.linspace(0.02, 0.6, 12)
    cfg = cfg_of(seed=3, trials=25_000, batch_size=7_001, threads=2)
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
    assert curves.upper.hit_counts == tuple(upper) and curves.lower.hit_counts == tuple(lower)
    assert upper[0] > 0 and lower[0] > 0


class Sentinel(Exception):
    pass


@pytest.mark.parametrize("threads", [1, 2])
def test_batch_driver_streams_a_huge_plan(threads, two_cpus):
    calls = []
    lock = threading.Lock()

    def kernel(rng, size, scratch):
        with lock:
            calls.append(size)
            if len(calls) > 3:
                raise Sentinel
        return np.asarray([size])

    cfg = cfg_of(trials=10**30, threads=threads)
    with pytest.raises(Sentinel):
        montecarlo._sum_over_batches(cfg, kernel)
    assert 4 <= len(calls) <= 3 + montecarlo._WINDOW_PER_THREAD * threads


@pytest.mark.parametrize("threads", [1, 3])
def test_batch_driver_adds_every_batch_once(threads, two_cpus):
    cfg = cfg_of(seed=1, trials=1_000_003, batch_size=9_999, threads=threads)
    total = montecarlo._sum_over_batches(cfg, lambda rng, size, scratch: np.asarray([size, 1]))
    assert total.tolist() == [1_000_003, 101]


@pytest.mark.parametrize("cpus, threads, pools", [(3, 100_000, [3]), (3, 2, [2]), (1, 100_000, [])])
def test_pool_never_has_more_workers_than_cpus(monkeypatch, inline_pool, cpus, threads, pools):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    cfg = cfg_of(seed=1, trials=1_000_003, batch_size=9_999, threads=threads)
    total = montecarlo._sum_over_batches(cfg, lambda rng, size, scratch: np.asarray([size, 1]))
    assert total.tolist() == [1_000_003, 101]
    assert inline_pool == pools
