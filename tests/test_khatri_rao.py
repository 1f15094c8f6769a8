import importlib
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorball import (
    DegeneracyError,
    ExperimentConfig,
    HypothesisViolationError,
    RangeError,
    SminTailResult,
    SmoothedEnsemble,
    ValidationError,
    bound_smin_tail,
    khatri_rao,
    pinv_hs_norm_sq,
    projection_distance_sum,
    sample_smoothed_factors,
    smin_tail_experiment,
)
from tensorball import montecarlo
from tensorball.tensor_core import _block_rows, _Scratch, kron

kr_module = importlib.import_module("tensorball.khatri_rao")


def test_khatri_rao_single_columns():
    out = khatri_rao([np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])])
    assert out.shape == (4, 1)
    assert np.array_equal(out[:, 0], [3.0, 4.0, 6.0, 8.0])


def test_khatri_rao_identity_pair():
    out = khatri_rao([np.eye(2), np.eye(2)])
    assert np.array_equal(out[:, 0], [1, 0, 0, 0])
    assert np.array_equal(out[:, 1], [0, 0, 0, 1])


def test_khatri_rao_rejects_bad_input():
    with pytest.raises(ValidationError):
        khatri_rao([])
    with pytest.raises(ValidationError):
        khatri_rao([np.ones((2, 3)), np.ones((2, 2))])


@pytest.mark.parametrize("mats", [[np.ones((2, 2, 2))] * 2, [np.ones(2), np.ones((2, 1))]], ids=["3-d", "1-d"])
def test_khatri_rao_refuses_factors_that_are_not_matrices(mats):
    # 3-d factors gave a batched product, 1-d ones were read as one row
    with pytest.raises(ValidationError, match="2-d"):
        khatri_rao(mats)


@pytest.mark.parametrize("sizes", [(2.5, 4, 3), (2, 4, 2.0), (2, 4.0, 2), (True, 4, 2), (0, 4, 2), (2, 4, -1)])
def test_ensemble_refuses_sizes_that_are_not_positive_integers(sizes):
    with pytest.raises(ValidationError, match="must be an integer >= 1"):
        SmoothedEnsemble.random(*sizes, 1.0, 0)
    r, n, ell = sizes
    with pytest.raises(ValidationError, match="must be an integer >= 1"):
        SmoothedEnsemble(r=r, n=n, ell=ell, rho=1.0, base=())


def test_ensemble_takes_numpy_integer_sizes():
    e = SmoothedEnsemble.random(np.int64(2), np.int32(4), np.uint8(3), 1.0, 0)
    want = SmoothedEnsemble.random(2, 4, 3, 1.0, 0)
    assert len(e.base) == 3 and all(np.array_equal(a, b) for a, b in zip(e.base, want.base))
    # kept as np.uint8, n**ell = 8**3 wrapped to 0 and r <= n**ell/2 refused the run
    wide = SmoothedEnsemble.random(np.uint8(20), np.uint8(8), np.uint8(3), 1.0, 0)
    assert all(type(v) is int for v in (wide.r, wide.n, wide.ell))
    assert smin_tail_experiment(wide, smin_cfg(), (0.5,)).thresholds[0] > 0


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_khatri_rao_columns_are_flattened_rank_one(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((3, 2)), rng.standard_normal((2, 2)), rng.standard_normal((4, 2))]
    kr = khatri_rao(mats)
    assert kr.shape == (24, 2)
    for i in range(2):
        assert np.allclose(kr[:, i], reduce(np.kron, [m[:, i] for m in mats]), atol=1e-12)


def test_pinv_hs_diagonal():
    assert pinv_hs_norm_sq(np.diag([1.0, 2.0])) == pytest.approx(1.25)


def test_pinv_hs_orthonormal_rows():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 3)))
    assert pinv_hs_norm_sq(q.T) == pytest.approx(3.0)


def test_pinv_hs_rejects_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(DegeneracyError):
        pinv_hs_norm_sq(a)


def test_projection_distance_single_row():
    v = np.array([[3.0, 4.0]])
    assert projection_distance_sum(v) == pytest.approx(1.0 / 25.0)


def test_projection_distance_names_dependent_row():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(DegeneracyError, match="row"):
        projection_distance_sum(a)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_pinv_identity_two_routes_agree(seed):
    """SVD route and row-distance route compute the same functional."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 9))
    lhs = pinv_hs_norm_sq(a)
    rhs = projection_distance_sum(a)
    assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_singular_value_sandwich(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 6))
    a = rng.standard_normal((r, r + 5))
    smin = np.linalg.svd(a, compute_uv=False)[-1]
    val = pinv_hs_norm_sq(a)
    assert 1.0 / smin**2 <= val * (1 + 1e-12)
    assert val <= r / smin**2 * (1 + 1e-12)


def test_ensemble_zero_rho_reproduces_base():
    e = SmoothedEnsemble.random(3, 4, 2, 0.0, rng=1)
    mats = sample_smoothed_factors(e, np.random.default_rng(99))
    for got, want in zip(mats, e.base):
        assert np.array_equal(got, want)
    assert np.array_equal(khatri_rao(sample_smoothed_factors(e, 5)), khatri_rao(e.base))


def test_ensemble_seeded_draws_identical():
    e = SmoothedEnsemble.random(2, 5, 3, 0.7, rng=4)
    a = khatri_rao(sample_smoothed_factors(e, np.random.default_rng(11)))
    b = khatri_rao(sample_smoothed_factors(e, np.random.default_rng(11)))
    assert np.array_equal(a, b)
    assert a.shape == (125, 2)


def test_ensemble_base_columns_on_cap_sphere():
    e = SmoothedEnsemble.random(4, 6, 2, 0.3, rng=2)
    for b in e.base:
        assert np.allclose(np.linalg.norm(b, axis=0), 1.0, atol=1e-12)


def test_ensemble_validation():
    ok = np.zeros((3, 2))
    with pytest.raises(ValidationError):
        SmoothedEnsemble(r=2, n=3, ell=2, rho=-0.1, base=(ok, ok))
    with pytest.raises(ValidationError):
        SmoothedEnsemble(r=2, n=3, ell=2, rho=0.1, base=(ok,))
    big = np.full((3, 2), 2.0)
    with pytest.raises(ValidationError, match="exceeds 1"):
        SmoothedEnsemble(r=2, n=3, ell=2, rho=0.1, base=(big, big))


def test_ensemble_rejects_nan_rho():
    base = np.array([[1.0], [0.0]])
    with pytest.raises(ValidationError, match="rho"):
        SmoothedEnsemble(r=1, n=2, ell=1, rho=float("nan"), base=(base,))


def test_ensemble_rejects_nan_base_column():
    base = np.array([[1.0, np.nan], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="base vector norm"):
        SmoothedEnsemble(r=2, n=2, ell=1, rho=0.5, base=(base,))


def smin_cfg(trials=200, seed=0):
    return ExperimentConfig(seed=seed, trials=trials, batch_size=100)


def replayed_smin(e, cfg):
    """Per-trial SVD s_min of the Khatri-Rao matrices on the experiment's own (one-batch) stream."""
    assert cfg.batch_size >= cfg.trials
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    sigma = e.rho / math.sqrt(e.n)
    mats = [e.base[j][None] + sigma * rng.standard_normal((cfg.trials, e.n, e.r)) for j in range(e.ell)]
    kr = [khatri_rao([m[b] for m in mats]) for b in range(cfg.trials)]
    return np.array([np.linalg.svd(a, compute_uv=False)[-1] for a in kr])


def svd_counts(smin, thresholds):
    return tuple(int(np.count_nonzero(smin <= t)) for t in thresholds)


@pytest.fixture
def svd_spy(monkeypatch):
    """Count the matrices ``np.linalg.svd`` is asked for while it keeps working."""
    seen = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def test_smin_tail_thresholds_and_labels():
    e = SmoothedEnsemble.random(3, 3, 2, 0.5, rng=0)
    grid = (0.1, 0.01)
    res = smin_tail_experiment(e, smin_cfg(), grid)
    assert isinstance(res, SminTailResult)
    pre = math.sqrt(1 - 3 / 9) * (0.5) ** 2
    assert res.thresholds == pytest.approx((pre * 0.1, pre * 0.01))


def test_smin_tail_tiny_eps_never_hits():
    e = SmoothedEnsemble.random(2, 3, 2, 0.2, rng=3)
    res = smin_tail_experiment(e, smin_cfg(), (1e-10, 1e-12))
    assert res.curve.hit_counts == (0, 0)


def test_smin_tail_bound_validity_window():
    """Bound values only where eps < exp(-C_main * ell); NaN outside."""
    e = SmoothedEnsemble.random(2, 3, 2, 0.5, rng=1)
    grid = (0.5, math.exp(-2) * 0.9, 1e-4)
    res = smin_tail_experiment(e, smin_cfg(), grid)
    assert math.isnan(res.bound_values[0])
    assert res.bound_values[1] > 0
    assert res.bound_values[2] > 0
    assert res.bound_values[2] < res.bound_values[1]


def test_smin_tail_rejects_bad_regimes():
    crowded = SmoothedEnsemble.random(5, 3, 1, 0.5, rng=0)
    with pytest.raises(HypothesisViolationError):
        smin_tail_experiment(crowded, smin_cfg(), (0.1, 0.01))
    frozen = SmoothedEnsemble.random(2, 3, 2, 0.0, rng=0)
    with pytest.raises(ValidationError, match=r"^rho must be > 0, got 0\.0$"):
        smin_tail_experiment(frozen, smin_cfg(), (0.1, 0.01))
    # the experiment and the bound refuse in one order: rho first, then the hypothesis
    both = SmoothedEnsemble.random(5, 3, 1, 0.0, rng=0)
    with pytest.raises(ValidationError, match="rho must be > 0"):
        smin_tail_experiment(both, smin_cfg(), (0.1, 0.01))
    with pytest.raises(ValidationError, match="rho must be > 0"):
        bound_smin_tail(0.01, 5, 3, 1, 0.0)
    # a scale past the float range gives infinite thresholds, whose squares the Gram test cannot compare
    huge = SmoothedEnsemble.random(2, 3, 2, 1e308, rng=0)
    with pytest.raises(RangeError, match="squared threshold overflows a float"):
        smin_tail_experiment(huge, smin_cfg(), (0.1, 0.01))


@pytest.mark.parametrize("grid", [(math.nan,), (0.5, math.nan), (0.1, 0.5), (0.5, 0.0), ()])
def test_smin_tail_refuses_bad_eps_grid(grid):
    # NaN passes a check written ``grid <= 0`` or ``diff >= 0``: it must be refused, not counted
    e = SmoothedEnsemble.random(2, 3, 2, 0.5, rng=0)
    with pytest.raises(ValidationError, match="strictly decreasing"):
        smin_tail_experiment(e, smin_cfg(), grid)


def test_smin_tail_counts_agree_with_direct_svd():
    """Replay the experiment's own stream and recount by hand."""
    e = SmoothedEnsemble.random(2, 3, 2, 0.8, rng=6)
    cfg = ExperimentConfig(seed=9, trials=150, batch_size=150)
    res = smin_tail_experiment(e, cfg, (0.8, 0.3))
    assert res.curve.hit_counts == svd_counts(replayed_smin(e, cfg), res.thresholds)


def test_smin_tail_rejects_non_finite_singular_values(monkeypatch):
    """The sandwich check is real code, so it also holds under ``python -O``.

    NaN eigenvalues send every trial to the SVD fallback, whose NaN singular
    values must then reach the sandwich check.  The grid point eps = 1e3
    puts t^2 above trace(G) >= lambda_max, so the screen passes no trial.
    """
    e = SmoothedEnsemble.random(2, 3, 2, 0.5, rng=0)

    def nan_eigvalsh(a, UPLO="L"):
        return np.full(a.shape[:-1], np.nan)

    def nan_svd(a, compute_uv=True):
        return np.full(a.shape[:-2] + (a.shape[-1],), np.nan)

    monkeypatch.setattr(np.linalg, "eigvalsh", nan_eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", nan_svd)
    with pytest.raises(DegeneracyError, match="sandwich"):
        smin_tail_experiment(e, smin_cfg(), (1e3, 0.1, 0.01))


def test_smin_tail_nan_eigenvalues_fall_back_to_svd(monkeypatch, svd_spy):
    e = SmoothedEnsemble.random(3, 3, 2, 0.7, rng=2)
    cfg = ExperimentConfig(seed=4, trials=120, batch_size=120)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, UPLO="L": np.full(a.shape[:-1], np.nan))
    # eps = 1e3 puts t^2 above trace(G) >= lambda_max: the screen passes no trial
    res = smin_tail_experiment(e, cfg, (1e3, 1.5, 0.8, 0.3))
    assert sum(svd_spy) == 120
    assert res.curve.hit_counts == svd_counts(replayed_smin(e, cfg), res.thresholds)


@pytest.mark.parametrize(
    "r, n, ell, rho, seed",
    [(3, 3, 2, 0.8, 0), (8, 6, 2, 1.0, 1), (6, 4, 3, 1.0, 2), (5, 3, 3, 0.5, 3), (4, 3, 4, 1.0, 4), (6, 2, 4, 0.6, 5)],
)
def test_smin_tail_gram_counts_equal_svd_counts(svd_spy, r, n, ell, rho, seed):
    e = SmoothedEnsemble.random(r, n, ell, rho, rng=seed)
    cfg = ExperimentConfig(seed=seed, trials=200, batch_size=200)
    res = smin_tail_experiment(e, cfg, (2.0, 1.0, 0.5, 0.2, 0.05))
    assert svd_spy == []
    counts = svd_counts(replayed_smin(e, cfg), res.thresholds)
    assert res.curve.hit_counts == counts
    assert 0 < sum(counts) < 5 * 200


@pytest.mark.parametrize(
    "rho, base_scale, screened",
    [(1e-6, 1.0, False), (1.0, 1.0, True), (1e3, 1.0, True), (1e8, 1.0, True), (1e-10, 1e-10, True)],
    ids=["rho=1e-6", "rho=1", "rho=1e3", "gram>float32", "gram<float32"],
)
def test_smin_tail_counts_equal_svd_counts_at_every_scale(monkeypatch, rho, base_scale, screened):
    """The float32 screen scales each Gram before the cast, so Grams far above or below the float32
    range (entries near 1e48 at rho = 1e8, near 1e-60 with base vectors and rho of 1e-10) are
    screened like any other and count as the SVD does.  The grid puts thresholds among the trials'
    own s_min, so the half above the top one is the screen's to pass; at rho = 1e-6 every s_min
    lies within the screen's float32 widening of the top threshold, and eigvalsh takes them all."""
    e = SmoothedEnsemble.random(6, 4, 3, rho, rng=11)
    e = SmoothedEnsemble(r=e.r, n=e.n, ell=e.ell, rho=rho, base=tuple(base_scale * b for b in e.base))
    cfg = ExperimentConfig(seed=7, trials=200, batch_size=200)
    smin = replayed_smin(e, cfg)
    prefactor = smin_tail_experiment(e, cfg, (1.0,)).thresholds[0]
    seen = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, UPLO="L": seen.append(len(a)) or real(a, UPLO))
    res = smin_tail_experiment(e, cfg, tuple(np.quantile(smin, [0.5, 0.2, 0.05, 0.01]) / prefactor))
    assert res.curve.hit_counts == svd_counts(smin, res.thresholds)
    assert 0 < res.curve.hit_counts[-1] < res.curve.hit_counts[0] <= 100
    if screened:
        assert sum(seen) <= res.curve.hit_counts[0] + 5
    else:
        assert sum(seen) == 200


def test_smin_tail_ill_conditioned_ensemble_falls_back(svd_spy):
    """Near-duplicate Khatri-Rao columns put lambda_min inside the band: the SVD decides."""
    g = np.random.default_rng(8).standard_normal((4, 3))
    g /= np.linalg.norm(g, axis=0)
    base = np.hstack([g, g])
    e = SmoothedEnsemble(r=6, n=4, ell=2, rho=1e-6, base=(base, base))
    cfg = ExperimentConfig(seed=1, trials=100, batch_size=100)
    res = smin_tail_experiment(e, cfg, (1e7, 1e6, 3e5, 1e5))
    assert sum(svd_spy) == 100
    assert res.curve.hit_counts == svd_counts(replayed_smin(e, cfg), res.thresholds)
    assert any(0 < c < 100 for c in res.curve.hit_counts)


def tie_epsilon(prefactor, target):
    """An eps with ``prefactor * eps == target`` exactly, or None if rounding skips it."""
    eps = target / prefactor
    for _ in range(8):
        got = prefactor * eps
        if got == target:
            return eps
        eps = np.nextafter(eps, np.inf if got < target else -np.inf)
    return None


def test_smin_tail_threshold_tie_counts_as_hit(svd_spy):
    """A threshold equal to a trial's SVD s_min bit for bit is a hit (``<=``)."""
    e = SmoothedEnsemble.random(4, 3, 2, 0.9, rng=5)
    cfg = ExperimentConfig(seed=2, trials=100, batch_size=100)
    prefactor = smin_tail_experiment(e, cfg, (1.0,)).thresholds[0]
    smin = replayed_smin(e, cfg)
    target, eps = next((s, x) for s in np.sort(smin) if (x := tie_epsilon(prefactor, s)) is not None)
    svd_spy.clear()
    res = smin_tail_experiment(e, cfg, (2 * eps, eps, eps / 2))
    assert res.thresholds[1] == target
    assert np.count_nonzero(smin < target) < np.count_nonzero(smin <= target)
    assert res.curve.hit_counts == svd_counts(smin, res.thresholds)
    assert sum(svd_spy) >= 1


def test_smin_tail_forced_fallback_keeps_counts(monkeypatch, svd_spy):
    monkeypatch.setattr(kr_module, "_GRAM_BAND", 1e-2)
    e = SmoothedEnsemble.random(5, 3, 3, 1.0, rng=7)
    cfg = ExperimentConfig(seed=6, trials=300, batch_size=300)
    res = smin_tail_experiment(e, cfg, (2.0, 1.0, 0.5, 0.2))
    assert 0 < sum(svd_spy) < 300
    assert res.curve.hit_counts == svd_counts(replayed_smin(e, cfg), res.thresholds)


def smin_peak(e, trials):
    """Traced peak bytes of one ``smin_tail_experiment`` call of ``trials`` trials in one batch."""
    tracemalloc.start()
    try:
        smin_tail_experiment(e, ExperimentConfig(seed=0, trials=trials), (0.5, 0.1, 0.01))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smin_tail_memory_stays_off_the_khatri_rao_matrix():
    """1e3 trials at r=20, n=8, ell=3: the 512 x 20 matrices alone would take 82 MB.

    Past the draws, the batch keeps one s_min per trial: 2000 more trials add
    their factors and a few scalars each, and no r x r Gram or r eigenvalues.
    """
    e = SmoothedEnsemble.random(20, 8, 3, 1.0, rng=0)
    # a first call loads what the interval needs, outside the traced calls
    smin_tail_experiment(e, ExperimentConfig(seed=0, trials=100), (0.5,))
    assert smin_peak(e, 1000) < 32e6
    grown = smin_peak(e, 4000) - smin_peak(e, 2000)
    assert grown <= 1.1 * 2000 * (e.ell * e.n * e.r + 2) * 8


def whole_batch_smin(e, thresholds, rng, size):
    """Per-trial s_min of one batch as the kernel found it with the whole
    batch's Grams, screen, eigenvalues and redone SVDs at once: the reference
    the blocked kernel must equal bit for bit.  A trial the screen passes is
    recorded as inf."""
    sigma = e.rho / math.sqrt(e.n)
    mats = []
    for j in range(e.ell):
        a = rng.standard_normal((size, e.n, e.r))
        a *= sigma
        a += e.base[j]
        mats.append(a)
    # each mode Gram from a contiguous copy of A^T, as the kernel forms it
    gram = np.matmul(mats[0].transpose(0, 2, 1).copy(), mats[0])
    for a in mats[1:]:
        gram *= np.matmul(a.transpose(0, 2, 1).copy(), a)
    band = kr_module._GRAM_BAND * np.trace(gram, axis1=1, axis2=2)
    screened = kr_module._screen(gram, np.max(thresholds) ** 2 + band, _Scratch())
    spectral = np.flatnonzero(~screened)
    gram, band = gram[spectral], band[spectral]
    lam = np.linalg.eigvalsh(gram)
    lam_min = lam[:, 0]
    certified = (
        np.all(np.isfinite(lam), axis=1)
        & (lam_min > band)
        & np.all(np.abs(lam_min[:, None] - thresholds[None, :] ** 2) > band[:, None], axis=1)
    )
    smin = np.empty(spectral.size)
    pinv_sq = np.empty(spectral.size)
    smin[certified] = np.sqrt(lam_min[certified])
    pinv_sq[certified] = np.sum(1.0 / lam[certified], axis=1)
    finite = certified.copy()
    redo = np.flatnonzero(~certified)
    if redo.size:
        s = np.linalg.svd(kron([a[spectral[redo]] for a in mats]), compute_uv=False)
        smin[redo] = s[:, -1]
        pinv_sq[redo] = np.sum(1.0 / s**2, axis=1)
        finite[redo] = np.all(np.isfinite(s), axis=1)
    inv_sq = 1.0 / smin**2
    assert np.all(finite & (pinv_sq >= inv_sq * (1 - 1e-9)) & (pinv_sq <= e.r * inv_sq * (1 + 1e-9)))
    out = np.full(size, np.inf)
    out[spectral] = smin
    return out


@pytest.fixture
def counted_smin(monkeypatch):
    """The s_min arrays the kernel hands to ``_count_hits``, copied before it sorts them."""
    seen = []
    real = kr_module._count_hits

    def spy(values, thresholds):
        seen.append(values.copy())
        return real(values, thresholds)

    monkeypatch.setattr(kr_module, "_count_hits", spy)
    return seen


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)], ids=["1", "B-1", "B", "B+1", "3B+5"])
@pytest.mark.parametrize("r, n, ell", [(1, 3, 2), (8, 6, 2), (20, 8, 3), (40, 8, 3)])
def test_smin_blocks_equal_the_whole_batch(monkeypatch, counted_smin, r, n, ell, blocks, extra, threads):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    size = blocks * _block_rows(2 * r * r) + extra
    e = SmoothedEnsemble.random(r, n, ell, 1.0, rng=r)
    cfg = ExperimentConfig(seed=3, trials=max(100, 2 * size), batch_size=size, threads=threads)
    res = smin_tail_experiment(e, cfg, (2.0, 1.0, 0.5, 0.2, 0.05))
    thresholds = np.array(res.thresholds)
    want, counts = [], 0
    for i in range(-(-cfg.trials // size)):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        want.append(whole_batch_smin(e, thresholds, rng, min(size, cfg.trials - i * size)))
        counts = counts + montecarlo._count_hits(want[-1].copy(), thresholds)
    assert res.curve.hit_counts == tuple(counts)
    # with two threads the batches finish in any order
    assert sorted(a.tobytes() for a in counted_smin) == sorted(a.tobytes() for a in want)


def test_smin_redo_goes_in_bounded_chunks(monkeypatch, svd_spy):
    # lambda_min <= trace(G), so a band of one trace leaves no trial certified
    monkeypatch.setattr(kr_module, "_GRAM_BAND", 1.0)
    e = SmoothedEnsemble.random(20, 8, 3, 1.0, rng=2)
    cfg = ExperimentConfig(seed=5, trials=400, batch_size=400)
    res = smin_tail_experiment(e, cfg, (2.0, 1.0, 0.5, 0.2))
    assert sum(svd_spy) == 400
    assert max(svd_spy) <= _block_rows(8**3 * 20)
    assert res.curve.hit_counts == svd_counts(replayed_smin(e, cfg), res.thresholds)


def test_smin_sandwich_violations_add_up_over_blocks(monkeypatch):
    e = SmoothedEnsemble.random(20, 8, 3, 1.0, rng=0)
    # two blocks of the kernel
    assert _block_rows(2 * 20 * 20) < 200 <= 2 * _block_rows(2 * 20 * 20)
    real = np.linalg.eigvalsh

    def misordered(a, UPLO="L"):
        # the first trial of each block gets an eigenvalue below its smallest,
        # so that 1/lambda summed exceeds r/lambda_min
        lam = real(a, UPLO)
        lam[0, 1] = lam[0, 0] / (4 * a.shape[-1])
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", misordered)
    # eps = 1e3 puts t^2 above trace(G) >= lambda_max: the screen passes no trial
    with pytest.raises(DegeneracyError, match="violated on 2 of 200 draws"):
        smin_tail_experiment(e, ExperimentConfig(seed=0, trials=200, batch_size=200), (1e3, 0.5, 0.1))


def screen_grams(rng, size, r):
    """Positive definite r x r Grams of Wishart draws on r + 1 rows, with columns scaled over four decades."""
    x = rng.standard_normal((size, r + 1, r)) * 10.0 ** rng.uniform(-2, 2, (size, 1, r))
    return np.matmul(x.transpose(0, 2, 1), x)


@pytest.mark.parametrize("r", [1, 2, 5, 20, 40])
def test_screen_brackets_lambda_min(r):
    """A passed Gram has lambda_min > shift - (r+1) u trace; one with lambda_min above shift by twice
    the screen's float32 widening passes."""
    gram = screen_grams(np.random.default_rng(r), 200, r)
    offsets = np.array([-1e-6, -1e-8, -1e-10, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-10, 1e-8, 1e-6, 1e-4])
    gram = np.repeat(gram, offsets.size, axis=0)
    lam_min = np.linalg.eigvalsh(gram)[:, 0]
    trace = np.trace(gram, axis1=1, axis2=2)
    shift = lam_min - np.tile(offsets, 200) * trace
    passed = kr_module._screen(gram, shift, _Scratch())
    assert np.all(lam_min[passed] > shift[passed] - (r + 1) * 2.0**-53 * trace[passed])
    widening = (r + 2) * 2.0**-24 / (1 - 2 * (r + 3) * 2.0**-24) * (np.abs(trace) - r * np.minimum(shift, 0))
    assert np.all(passed[lam_min > shift + 2 * widening])
    assert 0 < np.count_nonzero(passed) < passed.size


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_screen_never_passes_a_non_finite_gram(bad):
    """``pytest -W error`` also checks that no RuntimeWarning escapes."""
    r = 4
    rows, cols = np.tril_indices(r)
    gram = np.repeat(screen_grams(np.random.default_rng(0), 1, r), rows.size + 2, axis=0)
    shift = np.full(len(gram), 0.5 * np.linalg.eigvalsh(gram[0])[0])
    assert np.all(kr_module._screen(gram, shift, _Scratch()))
    # one Gram per lower-triangle position, set there and at its mirror image
    gram[np.arange(rows.size), rows, cols] = gram[np.arange(rows.size), cols, rows] = bad
    shift[-2:] = math.nan, math.inf
    assert not np.any(kr_module._screen(gram, shift, _Scratch()))


def test_screen_does_not_depend_on_the_blocks():
    gram = screen_grams(np.random.default_rng(1), 60, 6)
    lam_min = np.linalg.eigvalsh(gram)[:, 0]
    # spread across the float32 screen's widening, so that some Grams pass and some fail
    shift = lam_min - np.random.default_rng(2).uniform(-1e-5, 1e-5, 60) * np.trace(gram, axis1=1, axis2=2)
    scratch = _Scratch()
    whole = kr_module._screen(gram, shift, scratch)
    assert 0 < np.count_nonzero(whole) < 60
    for cuts in ([1], [7, 30], list(range(1, 60))):
        parts = [kr_module._screen(g, s, scratch) for g, s in zip(np.split(gram, cuts), np.split(shift, cuts))]
        assert np.array_equal(np.concatenate(parts), whole)


def test_screen_does_not_depend_on_the_scale():
    """Each Gram is scaled by a power of two before the float32 cast, so scaling a Gram and its
    shift by 2^k, far past the float32 range either way, passes the same Grams."""
    gram = screen_grams(np.random.default_rng(3), 60, 6)
    lam_min = np.linalg.eigvalsh(gram)[:, 0]
    shift = lam_min - np.random.default_rng(4).uniform(-1e-5, 1e-5, 60) * np.trace(gram, axis1=1, axis2=2)
    whole = kr_module._screen(gram, shift, _Scratch())
    assert 0 < np.count_nonzero(whole) < 60
    for k in (-600, -300, 300, 600):
        assert np.array_equal(kr_module._screen(gram * 2.0**k, shift * 2.0**k, _Scratch()), whole)


def test_smin_screen_leaves_few_trials_to_eigvalsh(monkeypatch):
    """The benchmark's smin shape and default grid: of 1e3 trials the screen passes all but
    the few near or below the top threshold, and the counts are the SVD's."""
    e = SmoothedEnsemble.random(20, 8, 3, 1.0, rng=0)
    cfg = ExperimentConfig(seed=0, trials=1000, batch_size=1000)
    seen = []
    real = np.linalg.eigvalsh

    def spy(a, UPLO="L"):
        seen.append(len(a))
        return real(a, UPLO)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    res = smin_tail_experiment(e, cfg, np.geomspace(5e-1, 1e-3, 15))
    assert res.curve.hit_counts[0] <= sum(seen) <= 20
    assert res.curve.hit_counts == svd_counts(replayed_smin(e, cfg), res.thresholds)
