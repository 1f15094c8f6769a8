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
    SminTailResult,
    SmoothedEnsemble,
    ValidationError,
    khatri_rao,
    pinv_hs_norm_sq,
    projection_distance_sum,
    sample_smoothed_factors,
    smin_tail_experiment,
)


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


def smin_cfg(grid, trials=200, seed=0):
    return ExperimentConfig(seed=seed, trials=trials, epsilon_grid=grid, batch_size=100)


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
    res = smin_tail_experiment(e, smin_cfg(grid))
    assert isinstance(res, SminTailResult)
    assert res.curve.scaling == "smin-threshold"
    pre = math.sqrt(1 - 3 / 9) * (0.5) ** 2
    assert res.thresholds == pytest.approx((pre * 0.1, pre * 0.01))


def test_smin_tail_tiny_eps_never_hits():
    e = SmoothedEnsemble.random(2, 3, 2, 0.2, rng=3)
    res = smin_tail_experiment(e, smin_cfg((1e-10, 1e-12)))
    assert res.curve.hit_counts == (0, 0)


def test_smin_tail_bound_validity_window():
    """Bound values only where eps < exp(-C_main * ell); NaN outside."""
    e = SmoothedEnsemble.random(2, 3, 2, 0.5, rng=1)
    grid = (0.5, math.exp(-2) * 0.9, 1e-4)
    res = smin_tail_experiment(e, smin_cfg(grid))
    assert math.isnan(res.bound_values[0])
    assert res.bound_values[1] > 0
    assert res.bound_values[2] > 0
    assert res.bound_values[2] < res.bound_values[1]


def test_smin_tail_rejects_bad_regimes():
    crowded = SmoothedEnsemble.random(5, 3, 1, 0.5, rng=0)
    with pytest.raises(HypothesisViolationError):
        smin_tail_experiment(crowded, smin_cfg((0.1, 0.01)))
    frozen = SmoothedEnsemble.random(2, 3, 2, 0.0, rng=0)
    with pytest.raises(ValidationError):
        smin_tail_experiment(frozen, smin_cfg((0.1, 0.01)))


def test_smin_tail_counts_agree_with_direct_svd():
    """Replay the experiment's own stream and recount by hand."""
    e = SmoothedEnsemble.random(2, 3, 2, 0.8, rng=6)
    cfg = ExperimentConfig(seed=9, trials=150, epsilon_grid=(0.8, 0.3), batch_size=150)
    res = smin_tail_experiment(e, cfg)
    assert res.curve.hit_counts == svd_counts(replayed_smin(e, cfg), res.thresholds)


def test_smin_tail_rejects_non_finite_singular_values(monkeypatch):
    """The sandwich check is real code, so it also holds under ``python -O``.

    NaN eigenvalues send every trial to the SVD fallback, whose NaN singular
    values must then reach the sandwich check.
    """
    e = SmoothedEnsemble.random(2, 3, 2, 0.5, rng=0)

    def nan_eigvalsh(a, UPLO="L"):
        return np.full(a.shape[:-1], np.nan)

    def nan_svd(a, compute_uv=True):
        return np.full(a.shape[:-2] + (a.shape[-1],), np.nan)

    monkeypatch.setattr(np.linalg, "eigvalsh", nan_eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", nan_svd)
    with pytest.raises(DegeneracyError, match="sandwich"):
        smin_tail_experiment(e, smin_cfg((0.1, 0.01)))


def test_smin_tail_nan_eigenvalues_fall_back_to_svd(monkeypatch, svd_spy):
    e = SmoothedEnsemble.random(3, 3, 2, 0.7, rng=2)
    cfg = ExperimentConfig(seed=4, trials=120, epsilon_grid=(1.5, 0.8, 0.3), batch_size=120)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, UPLO="L": np.full(a.shape[:-1], np.nan))
    res = smin_tail_experiment(e, cfg)
    assert sum(svd_spy) == 120
    assert res.curve.hit_counts == svd_counts(replayed_smin(e, cfg), res.thresholds)


@pytest.mark.parametrize(
    "r, n, ell, rho, seed",
    [(3, 3, 2, 0.8, 0), (8, 6, 2, 1.0, 1), (6, 4, 3, 1.0, 2), (5, 3, 3, 0.5, 3), (4, 3, 4, 1.0, 4), (6, 2, 4, 0.6, 5)],
)
def test_smin_tail_gram_counts_equal_svd_counts(svd_spy, r, n, ell, rho, seed):
    e = SmoothedEnsemble.random(r, n, ell, rho, rng=seed)
    cfg = ExperimentConfig(seed=seed, trials=200, epsilon_grid=(2.0, 1.0, 0.5, 0.2, 0.05), batch_size=200)
    res = smin_tail_experiment(e, cfg)
    assert svd_spy == []
    counts = svd_counts(replayed_smin(e, cfg), res.thresholds)
    assert res.curve.hit_counts == counts
    assert 0 < sum(counts) < 5 * 200


def test_smin_tail_ill_conditioned_ensemble_falls_back(svd_spy):
    """Near-duplicate Khatri-Rao columns put lambda_min inside the band: the SVD decides."""
    g = np.random.default_rng(8).standard_normal((4, 3))
    g /= np.linalg.norm(g, axis=0)
    base = np.hstack([g, g])
    e = SmoothedEnsemble(r=6, n=4, ell=2, rho=1e-6, base=(base, base))
    cfg = ExperimentConfig(seed=1, trials=100, epsilon_grid=(1e7, 1e6, 3e5, 1e5), batch_size=100)
    res = smin_tail_experiment(e, cfg)
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
    cfg = ExperimentConfig(seed=2, trials=100, epsilon_grid=(1.0,), batch_size=100)
    prefactor = smin_tail_experiment(e, cfg).thresholds[0]
    smin = replayed_smin(e, cfg)
    target, eps = next((s, x) for s in np.sort(smin) if (x := tie_epsilon(prefactor, s)) is not None)
    tie_cfg = ExperimentConfig(seed=2, trials=100, epsilon_grid=(2 * eps, eps, eps / 2), batch_size=100)
    svd_spy.clear()
    res = smin_tail_experiment(e, tie_cfg)
    assert res.thresholds[1] == target
    assert np.count_nonzero(smin < target) < np.count_nonzero(smin <= target)
    assert res.curve.hit_counts == svd_counts(smin, res.thresholds)
    assert sum(svd_spy) >= 1


def test_smin_tail_forced_fallback_keeps_counts(monkeypatch, svd_spy):
    kr_module = importlib.import_module("tensorball.khatri_rao")
    monkeypatch.setattr(kr_module, "_GRAM_BAND", 1e-2)
    e = SmoothedEnsemble.random(5, 3, 3, 1.0, rng=7)
    cfg = ExperimentConfig(seed=6, trials=300, epsilon_grid=(2.0, 1.0, 0.5, 0.2), batch_size=300)
    res = smin_tail_experiment(e, cfg)
    assert 0 < sum(svd_spy) < 300
    assert res.curve.hit_counts == svd_counts(replayed_smin(e, cfg), res.thresholds)


def test_smin_tail_memory_stays_off_the_khatri_rao_matrix():
    """1e3 trials at r=20, n=8, ell=3: the 512 x 20 matrices alone would take 82 MB."""
    e = SmoothedEnsemble.random(20, 8, 3, 1.0, rng=0)
    cfg = ExperimentConfig(seed=0, trials=1000, epsilon_grid=(0.5, 0.1, 0.01))
    tracemalloc.start()
    try:
        smin_tail_experiment(e, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
