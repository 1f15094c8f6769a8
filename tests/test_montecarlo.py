import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from tensorball import (
    DataSparsityError,
    DistributionSpec,
    ExperimentConfig,
    HistogramDensity,
    SlabBody,
    SmallBallCurve,
    SmoothedEnsemble,
    SubspaceBasis,
    ValidationError,
    clopper_pearson,
    contract,
    coordinate_line_subspace,
    curve_csv_bytes,
    diagonal_direction,
    dominance_test,
    estimate_direction_smallball,
    estimate_smallball,
    fit_slope,
    haar_subspace,
    matched_cube,
    norm_concentration,
    kron,
    product_uniform_smallball,
    rows_csv_bytes,
    sample_matrix,
    smin_tail_experiment,
)
from tensorball import distributions, montecarlo, tensor_core
from tensorball.tensor_core import contract_blocks
from test_tensor_core import BLOCK_CASES, GATHER_ROWS, blocks_match_contract, in_thread, rows_at

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


@pytest.mark.parametrize(
    "make, field, value",
    [
        (lambda v: cfg_of(seed=v), "seed", 3),
        (lambda v: cfg_of(trials=v), "trials", 1100),
        (lambda v: cfg_of(batch_size=v), "batch_size", 200),
        (lambda v: cfg_of(threads=v), "threads", 2),
        (lambda v: SmallBallCurve((0.5,), (0,), v, 0.9), "trials", 5),
        (lambda v: DistributionSpec("gaussian-std", v), "dim", 3),
    ],
    ids=["seed", "trials", "batch_size", "threads", "curve-trials", "dim"],
)
def test_run_sizes_refuse_bools_and_keep_python_ints(make, field, value):
    # a bool passed as a size, and a numpy integer was kept in its own type,
    # where a run's batch offsets such as -1100 do not fit a uint16
    with pytest.raises(ValidationError):
        make(True)
    made = getattr(make(np.uint16(value)), field)
    assert type(made) is int and made == value


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


@pytest.mark.parametrize(
    "hits, trials, confidence, message",
    [
        ([5], 100, 1.5, "confidence must lie in"),
        ([5], 100, 0.0, "confidence must lie in"),
        ([5], 100, math.nan, "confidence must lie in"),
        ([5], 3, 0.9, "hit counts must lie in"),
        ([-1], 100, 0.9, "hit counts must lie in"),
        ([math.nan], 100, 0.9, "hit counts must lie in"),
        ([2.5], 10, 0.9, "hit counts must lie in"),
        ([5], 10.5, 0.9, "trials must be an integer >= 1"),
        ([0], 0, 0.9, "trials must be an integer >= 1"),
        ([1], True, 0.9, "trials must be an integer >= 1"),
    ],
)
def test_clopper_pearson_refuses_what_has_no_interval(hits, trials, confidence, message):
    # a confidence outside (0, 1) or hits above trials gave NaN bounds, and
    # trials = 10.5 an interval
    with pytest.raises(ValidationError, match=message):
        clopper_pearson(hits, trials, confidence)


def test_curve_rejects_nonmonotone_counts():
    with pytest.raises(ValidationError):
        SmallBallCurve(
            epsilon_grid=(0.2, 0.1), hit_counts=(5, 50), trials=100, confidence=0.99
        )


@pytest.mark.parametrize(
    "trials, confidence",
    [(0, 0.99), (-5, 0.99), (100.0, 0.99), (100, 1.5), (100, 1.0), (100, 0.0), (100, float("nan"))],
)
def test_curve_rejects_bad_trials_or_confidence(trials, confidence):
    # trials = 0 would divide by zero in p_hat, and these confidences give NaN intervals
    with pytest.raises(ValidationError):
        SmallBallCurve(epsilon_grid=(0.2, 0.1), hit_counts=(0, 0), trials=trials, confidence=confidence)


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
    # cube-unit has variance 1/3; a histogram is refused whatever its moments
    gauss = DistributionSpec(kind="gaussian-std", dim=4)
    for spec in (DistributionSpec(kind="uniform-cube-unit", dim=4), matched_cube(gauss)):
        with pytest.raises(ValidationError, match="isotropic"):
            norm_concentration((gauss, spec), (0.5,), cfg_of(trials=1000))


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

    passes = []

    def one_pass(row_sets, shape, xs, scratch=None):
        passes.append(len(row_sets))
        return contract_blocks(row_sets, shape, xs, scratch)

    monkeypatch.setattr(montecarlo, "sample_matrix", counting)
    monkeypatch.setattr(montecarlo, "contract_blocks", one_pass)
    cfg = cfg_of(seed=6, trials=4_600, batch_size=1_300)
    dominance_test(specs_a, specs_b, bodies[2:], cfg)
    one = list(draws)
    draws.clear()
    passes.clear()
    dominance_test(specs_a, specs_b, [*bodies, *bodies[1:]], cfg)
    # 2 laws x 11 chunks x 3 factors, and per chunk one pass per direction
    # count: the body of 0, the two of 3 and the two of 8 (at n = 16 the
    # full Kronecker block is not the cheapest split, so no stacked pass)
    assert draws == one and len(one) == 66
    assert passes == [1, 2, 2] * 22


def test_stacked_dominance_draws_once_and_takes_no_pass_without_an_undecided_trial(monkeypatch):
    # n = 4, l = 3 with 8 + 3 + 0 + 8 + 8 directions: the full block is the cheapest split, so each
    # chunk is decided by the guarded pass, and no trial of these seeds lies within its band of 1
    spec = DistributionSpec(kind="gaussian-std", dim=4)
    bodies = [SlabBody.random(64, count, 0.25, np.random.default_rng(count + k)) for k, count in enumerate((8, 3, 0, 8, 8))]
    draws, passes, rechecks = [], [], []
    monkeypatch.setattr(montecarlo, "sample_matrix", lambda spec, rng, n, out=None: draws.append(n) or sample_matrix(spec, rng, n, out=out))
    monkeypatch.setattr(montecarlo, "contract_blocks", lambda *args: passes.append(args) or contract_blocks(*args))
    monkeypatch.setattr(montecarlo, "_recheck", lambda *args: rechecks.append(args) or iter(()))
    cfg = cfg_of(seed=6, trials=70_000, batch_size=40_000)
    together = dominance_test((spec,) * 3, (matched_cube(spec),) * 3, bodies, cfg)
    # 2 laws x (2 chunks of the first batch + 1 of the second) x 3 factors
    assert draws == [32768, 32768, 32768, 7232, 7232, 7232, 30000, 30000, 30000] * 2
    assert passes == rechecks == []
    monkeypatch.undo()
    alone = tuple(dominance_test((spec,) * 3, (matched_cube(spec),) * 3, [body], cfg)[0] for body in bodies)
    assert together == alone and together[2].hits_a == cfg.trials


@pytest.mark.parametrize("dim, count", [(4, 2.5), (4.0, 2), (4, -1), (4, True)])
def test_slab_body_refuses_sizes_that_are_not_integers(dim, count):
    with pytest.raises(ValidationError, match="(dim|count) must be an integer >= 0"):
        SlabBody.random(dim, count, 1.0, 0)


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


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_iterator_matches_contract_in_every_batch(name, threads, two_cpus):
    # each worker thread takes its blocks from its own slice of the run's holder
    shape, row_sets = BLOCK_CASES[name]

    def kernel(rng, size, scratch):
        xs = [rng.standard_normal((size, n)) for n in shape]
        return np.asarray([blocks_match_contract(row_sets, shape, xs, scratch), 1])

    cfg = cfg_of(seed=3, trials=2_507, batch_size=1_000, threads=threads)
    assert montecarlo._sum_over_batches(cfg, kernel).tolist() == [3, 3]


def test_line_smallball_holds_no_products_array():
    # n = 8, l = 3, m = 8: a batch keeps the first factor whole, one column of
    # each other factor and the row norms, plus a draw chunk and a block of
    # products; a (size, m) products array would add 6.4 MB more
    specs = (DistributionSpec(kind="uniform-cube-sqrt3", dim=8),) * 3
    size = 100_000
    cfg = cfg_of(seed=0, trials=size, batch_size=size)
    peak = traced_peak(lambda: estimate_smallball(specs, coordinate_line_subspace(8, 3, 8), cfg, CUBE_UNIT_GRID))
    kept = 8 * size * (8 + 1 + 1 + 1)
    assert peak < kept + 3 * tensor_core._BLOCK_BYTES < kept + 8 * size * 8


def test_held_blocks_do_not_grow_with_the_body_count(monkeypatch):
    # n = 4, l = 3: the guarded pass runs for 3 bodies as for 30, and each
    # run's holder keeps the chunk's factors and one block of the pass,
    # within one _BLOCK_BYTES; only the per-body products grow
    specs = (DistributionSpec(kind="symmetric-exponential-unitvar", dim=4),) * 3
    holders = []
    monkeypatch.setattr(montecarlo, "_Scratch", lambda: holders.append(tensor_core._Scratch()) or holders[-1])

    def held(count):
        holders.clear()
        bodies = [SlabBody.random(64, 8, 1.0, np.random.default_rng(k)) for k in range(count)]
        dominance_test(specs, (matched_cube(specs[0]),) * 3, bodies, cfg_of(seed=1, trials=5_000))
        assert len(holders) == 2
        return [{name: a.size for name, a in h.kept.items()} for h in holders]

    three, thirty = held(3), held(30)
    factors = {"x0", "x1", "x2"}
    for few, many in zip(three, thirty):
        assert set(few) == set(many) and factors < set(few)
        assert all(few[name] == many[name] for name in factors)
        for kept in (few, many):
            assert 8 * sum(size for name, size in kept.items() if name not in factors) <= tensor_core._BLOCK_BYTES
        # the stacked products and each body's largest |p_k|
        assert {name for name in few if many[name] > few[name]} == {"stacked", "most"}


def test_dense_smallball_keeps_no_array_once_it_returns():
    # the run's holder goes with the run: nothing of a dense contraction's
    # blocks outlives it on the calling thread, here a fresh one
    specs = (DistributionSpec(kind="gaussian-std", dim=8),) * 3
    basis = haar_subspace((8, 8, 8), 8, np.random.default_rng(0))
    cfg = cfg_of(seed=0, trials=20_000, batch_size=10_000)

    def traced():
        tracemalloc.start()
        try:
            return estimate_smallball(specs, basis, cfg, CUBE_UNIT_GRID), tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    # one untraced call loads what the run imports lazily
    want = in_thread(lambda: estimate_smallball(specs, basis, cfg, CUBE_UNIT_GRID))
    got, held = in_thread(traced)
    assert got == want
    assert held < 64 * 1024


@pytest.mark.parametrize(
    "dims, directions, stacked",
    [
        # (n, l) = (4, 3), 24 rows: 64 + 25 entries per trial against 16 + 25 * 4 at t = 1
        ((4, 4, 4), 24, True),
        ((4, 4, 4), 15, False),
        ((4, 4, 4), 16, True),
        ((2, 2), 1, False),
        ((2, 2), 4, True),
        ((8, 8, 8), 24, False),
        ((16, 16, 16), 6, False),
        ((5,), 3, False),
    ],
)
def test_stacked_pass_runs_where_the_full_block_is_the_cheapest_split(dims, directions, stacked, monkeypatch):
    assert montecarlo._stacked(dims, directions) is stacked
    calls = []
    original = montecarlo._guarded_hits
    monkeypatch.setattr(montecarlo, "_guarded_hits", lambda *args: calls.append(len(args[0])) or original(*args))
    specs = tuple(DistributionSpec(kind="gaussian-std", dim=n) for n in dims)
    bodies = [SlabBody.random(math.prod(dims), directions, 0.3, np.random.default_rng(0))]
    montecarlo._membership_counts(specs, bodies, cfg_of(trials=200))
    assert calls == ([1] if stacked else [])


def unstacked(monkeypatch, run):
    """``run()`` with the guarded pass off: every chunk takes ``contract_blocks`` per direction count."""
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_stacked", lambda dims, directions: False)
        return run()


@pytest.fixture
def slab_rechecks(monkeypatch):
    """The trials of every ``_recheck`` call, and the row sets that ``contract_blocks`` gets meanwhile."""
    calls, gathered, lock = [], [], threading.Lock()
    original, blocks = montecarlo._recheck, montecarlo.contract_blocks

    def recording(row_sets, shape, xs, unsure, scratch):
        with lock:
            calls.append(unsure.copy())
        return original(row_sets, shape, xs, unsure, scratch)

    def passing(row_sets, shape, xs, scratch=None):
        with lock:
            gathered.append(len(row_sets))
        return blocks(row_sets, shape, xs, scratch)

    monkeypatch.setattr(montecarlo, "_recheck", recording)
    monkeypatch.setattr(montecarlo, "contract_blocks", passing)
    return calls, gathered


@pytest.mark.parametrize("threads", [1, 2])
def test_guarded_pass_rechecks_planted_near_ties(threads, monkeypatch, slab_rechecks, two_cpus):
    # n = 2, l = 2: trial t of the first batch has products a few roundings from +1 and -1, on both
    # sides, with dense directions and with directions of one nonzero each (the gather path)
    specs = (DistributionSpec(kind="gaussian-std", dim=2),) * 2
    cfg = cfg_of(seed=4, trials=2_500, batch_size=1_000, threads=threads)
    rng = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(0,)))
    xs = [sample_matrix(s, rng, 1_000) for s in specs]
    base = np.random.default_rng(0).standard_normal((1, 4))
    dense = contract(base, (2, 2), xs)[:, 0]
    t = int(np.argmax(np.abs(dense[:100])))
    # the coordinate (1, 0) alone: x_1[1] * (x_2[0] * c)
    single = np.array([[0.0, 0.0, 1.0, 0.0]])
    gather = xs[0][t, 1] * xs[1][t, 0]
    nudges = (1 - 8 * 2.0**-52, 1 - 2.0**-52, 1.0, 1 + 2.0**-52, 1 + 8 * 2.0**-52)
    directions = [sign * rows / p * nudge for rows, p in ((base, dense[t]), (single, gather)) for sign in (1, -1) for nudge in nudges]
    bodies = [SlabBody(d) for d in directions]
    # every planted product at trial t, as contract_blocks gives it, lies within a few roundings of
    # +-1, on both sides
    at_t = np.array([contract(d, (2, 2), xs)[t, 0] for d in directions])
    assert np.all(np.abs(np.abs(at_t) - 1) < 1e-14)
    assert 0 < np.count_nonzero(np.abs(at_t) <= 1) < len(bodies)
    calls, gathered = slab_rechecks
    got = montecarlo._membership_counts(specs, bodies, cfg)
    # one recheck per chunk with an undecided trial: the first batch's, with trial t in it
    assert len(calls) == 1 and t in calls[0].tolist()
    # the recheck takes the gather bodies through contract_blocks, one set per body
    assert gathered == [len(nudges) * 2]
    assert got.tolist() == unstacked(monkeypatch, lambda: montecarlo._membership_counts(specs, bodies, cfg)).tolist()


@pytest.mark.parametrize("kind", ["gaussian-std", "symmetric-exponential-unitvar"])
def test_guarded_pass_counts_bodies_of_every_direction_count(kind, monkeypatch, two_cpus):
    # n = 4, l = 3: 3 + 8 + 5 + 8 directions in one gemm beside a body of none, which holds every
    # trial; chunks of 32768 trials, so the batches of 40000 end in a chunk of 7232
    spec = DistributionSpec(kind=kind, dim=4)
    bodies = [SlabBody.random(64, count, 0.3, np.random.default_rng(k)) for k, count in enumerate((3, 0, 8, 5, 8))]
    laws = ((spec,) * 3, (matched_cube(spec),) * 3)
    cfg = cfg_of(seed=2, trials=90_001, batch_size=40_000)
    together = dominance_test(*laws, bodies, cfg)
    assert together == dominance_test(*laws, bodies, cfg_of(seed=2, trials=90_001, batch_size=40_000, threads=2))
    assert together == unstacked(monkeypatch, lambda: dominance_test(*laws, bodies, cfg))
    # each body alone has too few rows to stack
    assert together == tuple(dominance_test(*laws, [body], cfg)[0] for body in bodies)
    assert together[1].hits_a == together[1].hits_b == cfg.trials
    assert all(0 < rep.hits_a < rep.hits_b < cfg.trials for rep in together[::2])


@given(
    dims=st.lists(st.integers(1, 4), min_size=2, max_size=3).map(tuple),
    counts=st.lists(st.integers(0, 7), min_size=1, max_size=4),
    kind=st.sampled_from(["gaussian-std", "symmetric-exponential-unitvar", "uniform-cube-sqrt3"]),
    scale=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(dims=(3, 3, 3), counts=[4, 0, 7], kind="gaussian-std", scale=0.3, seed=0)
@example(dims=(3, 3, 3), counts=[4, 4], kind="gaussian-std", scale=0.3, seed=0)
@settings(max_examples=40, deadline=None)
def test_membership_counts_match_fresh_products_on_small_shapes(dims, counts, kind, scale, seed):
    # both sides of the rule: (3, 3, 3) stacks 9 rows and more, not 8
    specs = tuple(DistributionSpec(kind=kind, dim=n) for n in dims)
    width = math.prod(dims)
    bodies = [SlabBody.random(width, count, scale / math.sqrt(width), np.random.default_rng(seed + k)) for k, count in enumerate(counts)]
    cfg = cfg_of(seed=seed, trials=700, batch_size=300)
    want = [reference_membership_hits(specs, body, cfg) for body in bodies]
    assert montecarlo._membership_counts(specs, bodies, cfg).tolist() == want


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


def traced_peak(run):
    """tracemalloc's peak over ``run()``, after one untraced call has loaded
    what ``run`` imports lazily (``scipy.special``, about 13 MB)."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_norm_concentration_holds_one_factor_array():
    # every factor reduces chunk by chunk: the peak does not grow with the
    # batch by more than one chunk, and stays below one factor of the smaller batch
    specs = (DistributionSpec(kind="gaussian-std", dim=64),) * 2
    t = np.linspace(0.05, 0.95, 10)
    small, large = (
        traced_peak(lambda: norm_concentration(specs, t, cfg_of(seed=0, trials=b, batch_size=b)))
        for b in (20_000, 60_000)
    )
    assert abs(large - small) < tensor_core._BLOCK_BYTES
    assert large < 20_000 * 64 * 8


def test_direction_keeps_less_than_one_factor_array():
    # n=8, l=3: each factor keeps the one column the direction reads
    specs = (DistributionSpec(kind="uniform-cube-unit", dim=8),) * 3
    cfg = cfg_of(seed=0, trials=100_000, batch_size=100_000)
    peak = traced_peak(lambda: estimate_direction_smallball(specs, diagonal_direction(8, 3), cfg, CUBE_UNIT_GRID))
    assert peak < 100_000 * 8 * 8


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
    monkeypatch.setattr(tensor_core._Scratch, "array", lambda self, name, shape, dtype=float: np.empty(shape, dtype))
    fresh = estimate(cfg_of(seed=6, trials=trials, batch_size=batch, threads=1))
    assert one == two == fresh
    assert 0 < sum(one) < trials * len(one)


def test_later_batches_draw_into_the_first_batch_arrays(monkeypatch):
    draws = []

    def recording(spec, rng, n, out=None):
        x = sample_matrix(spec, rng, n, out=out)
        assert out is not None and x is out
        draws.append((n, out.ctypes.data))
        return x

    for module in (montecarlo, distributions):
        monkeypatch.setattr(module, "sample_matrix", recording)
    # n=5: chunks of 1000 rows, so batches of 4000 draw four chunks per factor
    monkeypatch.setattr(tensor_core, "_BLOCK_BYTES", 8 * 5 * 1000)
    _reuse_direction(cfg_of(seed=6, trials=13_500, batch_size=4_000))
    # three batches of 4000 and one of 1500, three factors each
    assert sum(n for n, _ in draws) == 3 * 13_500 and max(n for n, _ in draws) == 1000
    first = 12
    assert sum(n for n, _ in draws[:first]) == 3 * 4_000
    assert {a for _, a in draws[first:]} <= {a for _, a in draws[:first]}


def whole_factor_norm_tails(specs, t, cfg):
    """Upper and lower norm-tail counts with every factor drawn whole and normed by ``np.linalg.norm``."""
    upper = np.zeros(t.size, dtype=int)
    lower = np.zeros(t.size, dtype=int)
    scale = math.sqrt(math.prod(s.dim for s in specs))
    for rng, size in batch_streams(cfg):
        norm_prod = np.ones(size)
        for spec in specs:
            norm_prod = norm_prod * np.linalg.norm(sample_matrix(spec, rng, size), axis=1)
        upper += np.count_nonzero(norm_prod[:, None] >= (1.0 + t) * scale, axis=0)
        lower += np.count_nonzero(norm_prod[:, None] <= (1.0 - t) * scale, axis=0)
    return tuple(upper), tuple(lower)


def test_norm_concentration_matches_linalg_norm(two_cpus):
    specs = (DistributionSpec(kind="gaussian-std", dim=16), DistributionSpec(kind="uniform-cube-sqrt3", dim=8))
    t = np.linspace(0.02, 0.6, 12)
    cfg = cfg_of(seed=3, trials=25_000, batch_size=7_001, threads=2)
    upper, lower = whole_factor_norm_tails(specs, t, cfg)
    curves = norm_concentration(specs, tuple(t), cfg)
    assert curves.upper.hit_counts == upper and curves.lower.hit_counts == lower
    assert upper[0] > 0 and lower[0] > 0


def whole_factor_projection_hits(specs, basis, cfg, eps):
    """Projection counts with every factor drawn whole and contracted by ``contract``."""
    hits = np.zeros(len(eps), dtype=int)
    for rng, size in batch_streams(cfg):
        inner = contract(basis.rows, basis.shape, [sample_matrix(s, rng, size) for s in specs])
        norms = np.sqrt(np.einsum("bm,bm->b", inner, inner))
        hits += np.count_nonzero(norms[:, None] <= eps * math.sqrt(basis.m), axis=0)
    return tuple(hits)


def gather_basis(name):
    shape, indices = GATHER_ROWS[name]
    return SubspaceBasis(shape=shape, rows=rows_at(shape, indices, [(-1.0) ** k for k in range(len(indices))]))


MULTI_BIN = HistogramDensity(bin_edges=(-1.0, 0.0, 0.5, 2.0), heights=(0.5, 0.4, 0.2))

# (laws, basis): every basis has rows of one nonzero each, so ``contract`` gathers
CHUNKED_PROJECTIONS = {
    "direction": ((DistributionSpec(kind="uniform-cube-unit", dim=8),) * 3, diagonal_direction(8, 3)),
    "line": ((DistributionSpec(kind="uniform-cube-sqrt3", dim=8),) * 3, coordinate_line_subspace(8, 3, 5)),
    "stepped": (tuple(DistributionSpec(kind="gaussian-std", dim=n) for n in (7, 5, 4)), gather_basis("stepped")),
    "shuffled": (
        tuple(DistributionSpec(kind="symmetric-exponential-unitvar", dim=n) for n in (7, 5, 4)),
        gather_basis("shuffled"),
    ),
    "histogram": (
        (DistributionSpec(kind="histogram", dim=7, histogram=MULTI_BIN),) * 2,
        coordinate_line_subspace(7, 2, 3),
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CHUNKED_PROJECTIONS))
def test_projection_counts_hold_at_many_chunk_boundaries(name, threads, monkeypatch, two_cpus):
    # chunks of 24 // n rows (3 at n = 8), so every batch crosses hundreds of
    # chunk boundaries, and the last batch of 507 is shorter
    monkeypatch.setattr(tensor_core, "_BLOCK_BYTES", 8 * 24)
    specs, basis = CHUNKED_PROJECTIONS[name]
    eps = np.geomspace(2.0, 0.05, 8)
    cfg = cfg_of(seed=5, trials=2_507, batch_size=1_000, threads=threads)
    estimate = estimate_direction_smallball if name == "direction" else estimate_smallball
    want = whole_factor_projection_hits(specs, basis, cfg, eps)
    assert estimate(specs, basis, cfg, eps).hit_counts == want
    assert 0 < sum(want) < cfg.trials * len(eps)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "specs",
    [
        (DistributionSpec(kind="gaussian-std", dim=16), DistributionSpec(kind="uniform-cube-sqrt3", dim=8)),
        (DistributionSpec(kind="symmetric-exponential-unitvar", dim=16),) * 2,
    ],
)
def test_norm_counts_hold_at_many_chunk_boundaries(specs, threads, monkeypatch, two_cpus):
    # chunks of one row at n = 16 and three at n = 8
    monkeypatch.setattr(tensor_core, "_BLOCK_BYTES", 8 * 24)
    t = np.linspace(0.02, 0.6, 12)
    cfg = cfg_of(seed=3, trials=2_507, batch_size=1_000, threads=threads)
    upper, lower = whole_factor_norm_tails(specs, t, cfg)
    curves = norm_concentration(specs, tuple(t), cfg)
    assert curves.upper.hit_counts == upper and curves.lower.hit_counts == lower
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


def test_float_batch_sums_do_not_depend_on_the_thread_count(two_cpus):
    """Batch results add in batch order, so float partials give the same bits at any thread count."""
    def kernel(rng, size, scratch):
        return rng.random(3) * size

    trials, batch = 10_007, 997  # ten full batches and one of 37 trials
    in_order = sum(
        kernel(np.random.default_rng(np.random.SeedSequence(2, spawn_key=(i,))), min(batch, trials - i * batch), None)
        for i in range(11)
    )
    for threads in (1, 2):
        total = montecarlo._sum_over_batches(cfg_of(seed=2, trials=trials, batch_size=batch, threads=threads), kernel)
        assert total.tobytes() == in_order.tobytes()


@pytest.mark.parametrize("cpus, threads, pools", [(3, 100_000, [3]), (3, 2, [2]), (1, 100_000, [])])
def test_pool_never_has_more_workers_than_cpus(monkeypatch, inline_pool, cpus, threads, pools):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    cfg = cfg_of(seed=1, trials=1_000_003, batch_size=9_999, threads=threads)
    total = montecarlo._sum_over_batches(cfg, lambda rng, size, scratch: np.asarray([size, 1]))
    assert total.tolist() == [1_000_003, 101]
    assert inline_pool == pools


# --- the float32 screen of dense small-ball projections ---------------------

SCREEN_LAWS = {
    "cube": DistributionSpec(kind="uniform-cube-sqrt3", dim=1),
    "gauss": DistributionSpec(kind="gaussian-std", dim=1),
    "laplace": DistributionSpec(kind="symmetric-exponential-unitvar", dim=1),
    "histogram": DistributionSpec(kind="histogram", dim=1, histogram=HistogramDensity((-2.0, -0.5, 1.0, 3.0), (0.2, 0.3, 0.125))),
}


def law(name, dim):
    spec = SCREEN_LAWS[name]
    return DistributionSpec(kind=spec.kind, dim=dim, histogram=spec.histogram)


def file_basis(tmp_path, shape, m, seed):
    """An orthonormal basis read back from a basis file: the Q of a QR of small integers, not a Haar draw."""
    ints = np.random.default_rng(seed).integers(-3, 4, size=(math.prod(shape), m)).astype(float)
    SubspaceBasis(shape, np.linalg.qr(ints)[0].T).save(tmp_path / "basis.tb")
    return SubspaceBasis.load(tmp_path / "basis.tb")


def float64_norms(rows, shape, xs):
    """The unscreened kernel's norms: ``contract_blocks`` products, their squares summed, the square root."""
    norms = np.empty(xs[0].shape[0])
    for start, (inner,) in contract_blocks([rows], shape, xs):
        np.einsum("bm,bm->b", inner, inner, out=norms[start : start + len(inner)])
    return np.sqrt(norms)


def unscreened(monkeypatch, run):
    """``run()`` with the screen off: every dense projection takes the float64 kernel alone."""
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_SCREEN_WORK", math.inf)
        return run()


@pytest.fixture
def rechecks(monkeypatch):
    """Every ``_recheck`` call of a run: its factors, the trials it rechecks and the norms it gives them."""
    calls, lock, original = [], threading.Lock(), montecarlo._recheck

    def recording(row_sets, shape, xs, unsure, scratch):
        # the norms the small-ball kernel takes from the products, before it may overwrite them
        norms = np.empty(len(unsure))
        for k, trials, products in original(row_sets, shape, xs, unsure, scratch):
            norms[np.searchsorted(unsure, trials)] = np.sqrt(np.einsum("bm,bm->b", products, products))
            yield k, trials, products
        with lock:
            calls.append(([x.copy() for x in xs], unsure.copy(), norms))

    monkeypatch.setattr(montecarlo, "_recheck", recording)
    return calls


@pytest.mark.parametrize("basis_kind", ["haar", "file"])
@pytest.mark.parametrize("law_name", sorted(SCREEN_LAWS))
@pytest.mark.parametrize("shape, m", [((7,), 1), ((7,), 5), ((5, 6), 2), ((5, 6), 11), ((4, 3, 5), 1), ((4, 3, 5), 9), ((3, 2, 4, 3), 6), ((3, 2, 4, 3), 20)])
def test_screen_band_holds_the_float64_norm(shape, m, law_name, basis_kind, tmp_path):
    seed = len(shape) * 100 + m
    basis = haar_subspace(shape, m, np.random.default_rng(seed)) if basis_kind == "haar" else file_basis(tmp_path, shape, m, seed)
    rng = np.random.default_rng(seed + 1)
    xs = [sample_matrix(law(law_name, n), rng, 3_001) for n in shape]
    norms = np.empty(3_001)
    band = montecarlo._screen(basis.rows, shape, xs, norms, tensor_core._Scratch()).copy()
    assert np.all(np.isfinite(band)) and np.all(band > 0)
    assert np.all(np.abs(norms - float64_norms(basis.rows, shape, xs)) <= band)


@pytest.mark.parametrize("shape, m, tied", [((16, 16, 16), 16, [17]), ((8, 8, 8), 12, [17, 400, 999])])
def test_screen_counts_a_planted_near_tie_in_float64(shape, m, tied, monkeypatch, rechecks):
    # both shapes are screened (65536 and 6144 multiply-adds per trial), in blocks of 500 trials
    specs = (DistributionSpec(kind="gaussian-std", dim=shape[0]),) * 3
    basis = haar_subspace(shape, m, np.random.default_rng(3))
    cfg = cfg_of(seed=4, trials=1_000, batch_size=1_000)
    rng = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(0,)))
    norms = float64_norms(basis.rows, basis.shape, [sample_matrix(s, rng, 1_000) for s in specs])
    # thresholds on trials' own float64 norms, and one a rounding below the first of them
    planted = [*norms[tied], np.nextafter(norms[tied[0]], 0), norms.max() * 2]
    eps = np.sort(planted)[::-1] / math.sqrt(m)
    got = estimate_smallball(specs, basis, cfg, eps)
    assert len(rechecks) == 1 and set(tied) <= set(rechecks[0][1].tolist())
    # a handful of trials, each with the bits it has among the batch's 1000: a product of so few
    # rows of its own would round some of them otherwise
    xs, unsure, rechecked = rechecks[0]
    assert len(unsure) < 8 and np.array_equal(rechecked, norms[unsure])
    assert got == unscreened(monkeypatch, lambda: estimate_smallball(specs, basis, cfg, eps))
    assert 0 < min(got.hit_counts) < max(got.hit_counts) == 1_000


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rechecked_norms_are_the_float64_kernels_bits(seed, threads, monkeypatch, rechecks, two_cpus):
    # batches of 1000 trials in two blocks of 500, and a last batch of 507 in one;
    # thresholds a few bands apart send most trials to the recheck, more than a block of them
    specs = (DistributionSpec(kind="symmetric-exponential-unitvar", dim=8),) * 3
    basis = haar_subspace((8, 8, 8), 12, np.random.default_rng(seed))
    cfg = cfg_of(seed=seed, trials=2_507, batch_size=1_000, threads=threads)
    eps = np.geomspace(10.0, 0.01, 20_000)
    got = estimate_smallball(specs, basis, cfg, eps)
    assert len(rechecks) == 3 and max(len(unsure) for _, unsure, _ in rechecks) > 500
    for xs, unsure, norms in rechecks:
        assert np.array_equal(norms, float64_norms(basis.rows, basis.shape, xs)[unsure])
    assert got == unscreened(monkeypatch, lambda: estimate_smallball(specs, basis, cfg, eps))


def test_screen_rechecks_few_trials_on_the_dense_haar_shape(rechecks):
    # the dense-haar benchmark's call: n = 16, l = 3, m = 16, the cube, one batch of 2e4
    from tensorball.cli import _parse_grid

    specs = (DistributionSpec(kind="uniform-cube-sqrt3", dim=16),) * 3
    basis = haar_subspace((16, 16, 16), 16, np.random.default_rng(0))
    estimate_smallball(specs, basis, cfg_of(seed=0, trials=20_000), _parse_grid("0.1:1:20"))
    assert len(rechecks) == 1 and 0 < len(rechecks[0][1]) <= 0.03 * 20_000


def scaled(basis, factor):
    """``basis`` with its rows scaled: ``SubspaceBasis`` itself refuses rows that are not orthonormal."""
    return type("ScaledBasis", (), {"shape": basis.shape, "m": basis.m, "rows": basis.rows * factor})()


EXTREMES = {
    # float32 overflows at 3.4e38: every cast factor is inf
    "histogram 1e39": (lambda b: b, "histogram", 1e39, (1e119, 1e118, 1e117, 1e116, 1e115)),
    # float32 products of three 1e-30s underflow to 0 or subnormals
    "histogram 1e-30": (lambda b: b, "histogram", 1e-30, (1e-88, 1e-89, 1e-90, 1e-91, 1e-92)),
    # float32 rounds every row entry to 0; float64 squares of the products underflow
    "file 1e-200": (lambda b: scaled(b, 1e-200), "gauss", 1.0, (1e-199, 1e-200, 1e-201, 1e-250)),
    # float32 rounds every row entry to inf; float64 squares of the products overflow
    "file 1e200": (lambda b: scaled(b, 1e200), "gauss", 1.0, (1e300, 1e201, 1e200, 1e199)),
}


@pytest.mark.parametrize("name", sorted(EXTREMES))
def test_screen_sends_extreme_inputs_to_the_recheck(name, tmp_path, monkeypatch, rechecks):
    make, law_name, width, eps = EXTREMES[name]
    if law_name == "histogram":
        spec = DistributionSpec(kind="histogram", dim=8, histogram=HistogramDensity((-width, width), (0.5 / width,)))
    else:
        spec = law(law_name, 8)
    basis = make(file_basis(tmp_path, (8, 8, 8), 12, 5))
    cfg = cfg_of(seed=7, trials=2_000, batch_size=1_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = estimate_smallball((spec,) * 3, basis, cfg, eps)
    assert len(rechecks) == 2 and all(len(unsure) > 0 for _, unsure, _ in rechecks)
    assert got == unscreened(monkeypatch, lambda: estimate_smallball((spec,) * 3, basis, cfg, eps))


def test_screened_smallball_keeps_no_array_once_it_returns():
    # as the unscreened run above: the screen's float32 blocks, bands and
    # rechecked factors go with the run's holder
    specs = (DistributionSpec(kind="gaussian-std", dim=8),) * 3
    basis = haar_subspace((8, 8, 8), 16, np.random.default_rng(0))
    cfg = cfg_of(seed=0, trials=20_000, batch_size=10_000)
    grid = np.geomspace(4.0, 0.5, 30)

    def traced():
        tracemalloc.start()
        try:
            return estimate_smallball(specs, basis, cfg, grid), tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    want = in_thread(lambda: estimate_smallball(specs, basis, cfg, grid))
    got, held = in_thread(traced)
    assert got == want
    assert held < 64 * 1024


def test_unsure_counts_nan_and_inf_as_unsure():
    thresholds = np.array([3.0, 2.0, 1.0])
    values = np.array([0.5, 1.0, 1.05, 2.5, 5.0, np.inf, np.nan, 2.5, 2.5])
    band = np.array([0.1, 0.0, 0.1, 0.1, 1.0, 0.1, 0.1, np.inf, np.nan])
    # 1.0 sits on a threshold and 1.05 lies within its band of one; 5.0 lies 2 above the top one, farther than its band
    assert montecarlo._unsure(values, band, thresholds).tolist() == [1, 2, 5, 6, 7, 8]
