"""Seeded Monte-Carlo engine for small-ball, norm, and dominance experiments.

Trials are partitioned into batches; batch ``i`` of a run draws from
``SeedSequence(seed, spawn_key=(i,))``, so the counts depend on the seed and
the batch partition only, and schedulers cannot change them.  Every curve
stores exact Clopper-Pearson intervals per grid point.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.stats import beta as _beta

from .distributions import sample_matrix
from .errors import DataSparsityError, ValidationError
from .subspaces import SubspaceBasis
from .tensor_core import contract, kron

_ISOTROPIC_KINDS = ("uniform-cube-sqrt3", "gaussian-std", "symmetric-exponential-unitvar")


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducibility contract for one experiment run.

    ``epsilon_grid`` must be strictly decreasing so nested-event counts are
    monotone along the grid.  ``batch_size`` defines the deterministic batch
    partition; ``threads`` only changes scheduling, never results.
    """

    seed: int
    trials: int
    epsilon_grid: tuple[float, ...]
    confidence: float = 0.99
    batch_size: int = 100_000
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not isinstance(self.trials, (int, np.integer)):
            raise ValidationError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 100:
            raise ValidationError(f"need at least 100 trials, got {self.trials}")
        grid = np.asarray(self.epsilon_grid, dtype=float)
        if grid.size < 1 or np.any(grid <= 0) or np.any(np.diff(grid) >= 0):
            raise ValidationError("epsilon_grid must be strictly decreasing positive reals")
        object.__setattr__(self, "epsilon_grid", tuple(grid.tolist()))
        if not 0 < self.confidence < 1:
            raise ValidationError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.batch_size < 1 or self.threads < 1:
            raise ValidationError("batch_size and threads must be >= 1")


def clopper_pearson(hits, trials: int, confidence: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact binomial two-sided confidence bounds from beta quantiles."""
    k = np.asarray(hits, dtype=float)
    alpha = 1.0 - confidence
    with np.errstate(invalid="ignore"):
        low = np.where(k > 0, _beta.ppf(alpha / 2, k, trials - k + 1), 0.0)
        high = np.where(k < trials, _beta.ppf(1 - alpha / 2, k + 1, trials - k), 1.0)
    return low, high


@dataclass(frozen=True)
class SmallBallCurve:
    """Empirical small-ball curve with exact binomial intervals.

    ``scaling`` records the threshold convention the counts were taken
    against ("eps*sqrt(m)" for subspace events, "eps" for single directions,
    "smin-threshold" for least-singular-value tails).
    """

    epsilon_grid: tuple[float, ...]
    hit_counts: tuple[int, ...]
    trials: int
    confidence: float
    ci_low: tuple[float, ...] = field(init=False)
    ci_high: tuple[float, ...] = field(init=False)
    scaling: str = "eps"

    def __post_init__(self):
        grid = np.asarray(self.epsilon_grid, dtype=float)
        counts = np.asarray(self.hit_counts)
        if grid.shape != counts.shape:
            raise ValidationError("epsilon_grid and hit_counts must have equal length")
        if np.any(counts < 0) or np.any(counts > self.trials):
            raise ValidationError("hit counts must lie in [0, trials]")
        if np.any(np.diff(counts) > 0):
            raise ValidationError("hit counts must be nonincreasing along the decreasing grid (nested events)")
        object.__setattr__(self, "epsilon_grid", tuple(grid.tolist()))
        object.__setattr__(self, "hit_counts", tuple(int(c) for c in counts))
        low, high = clopper_pearson(counts, self.trials, self.confidence)
        object.__setattr__(self, "ci_low", tuple(low.tolist()))
        object.__setattr__(self, "ci_high", tuple(high.tolist()))

    @property
    def p_hat(self) -> np.ndarray:
        return np.asarray(self.hit_counts, dtype=float) / self.trials


class SlopeFit(NamedTuple):
    slope: float
    stderr: float
    n_points: int


@dataclass(frozen=True)
class SlabBody:
    """Symmetric convex body cut out by slabs: all x with |<x, u_k>| <= 1."""

    directions: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        if d.ndim != 2:
            raise ValidationError("directions must be a 2-d array (count x ambient dim)")
        if d.shape[0] > 0 and np.any(np.linalg.norm(d, axis=1) == 0):
            raise ValidationError("every slab direction must be nonzero")
        object.__setattr__(self, "directions", d)

    @property
    def ambient_dim(self) -> int:
        return self.directions.shape[1]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.directions.shape[0] == 0:
            return np.ones(pts.shape[0], dtype=bool)
        return np.all(np.abs(pts @ self.directions.T) <= 1.0, axis=1)

    @classmethod
    def random(cls, dim: int, count: int, scale: float, rng) -> "SlabBody":
        rng = np.random.default_rng(rng)
        return cls(directions=scale * rng.standard_normal((count, dim)))


@dataclass(frozen=True)
class DominanceReport:
    """Consistency report for P(tensor(A) in K) <= P(tensor(B) in K)."""

    trials: int
    confidence: float
    hits_a: int
    hits_b: int
    p_hat_a: float
    p_hat_b: float
    lower_a_one_sided: float
    upper_b_one_sided: float
    gap: float
    violation_candidate: bool


@dataclass(frozen=True)
class NormTailCurves:
    """Empirical upper/lower norm-deviation tails over an increasing t grid."""

    t_grid: tuple[float, ...]
    upper_counts: tuple[int, ...]
    lower_counts: tuple[int, ...]
    trials: int
    confidence: float

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        up = np.asarray(self.upper_counts)
        lo = np.asarray(self.lower_counts)
        if t.size < 1 or np.any(np.diff(t) <= 0):
            raise ValidationError("t_grid must be strictly increasing")
        if t.shape != up.shape or t.shape != lo.shape:
            raise ValidationError("count arrays must match the t grid")
        if np.any(np.diff(up) > 0) or np.any(np.diff(lo) > 0):
            raise ValidationError("tail counts must be nonincreasing in t (nested events)")
        object.__setattr__(self, "t_grid", tuple(t.tolist()))
        object.__setattr__(self, "upper_counts", tuple(int(c) for c in up))
        object.__setattr__(self, "lower_counts", tuple(int(c) for c in lo))

    def intervals(self):
        up_lo, up_hi = clopper_pearson(np.asarray(self.upper_counts), self.trials, self.confidence)
        lo_lo, lo_hi = clopper_pearson(np.asarray(self.lower_counts), self.trials, self.confidence)
        return (up_lo, up_hi), (lo_lo, lo_hi)


# batches in flight per worker thread when ``threads > 1``
_WINDOW_PER_THREAD = 2


def _batch_plan(trials: int, batch_size: int):
    """The batch sizes, lazily: a large ``trials`` has far too many to list."""
    full, rem = divmod(trials, batch_size)
    for _ in range(full):
        yield batch_size
    if rem:
        yield rem


def _in_order(run, jobs, threads: int):
    """``map(run, jobs)`` on a thread pool, at most ``_WINDOW_PER_THREAD * threads``
    jobs in flight (``Executor.map`` would submit every job up front)."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        try:
            for job in jobs:
                pending.append(pool.submit(run, job))
                if len(pending) == _WINDOW_PER_THREAD * threads:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _sum_over_batches(cfg: ExperimentConfig, kernel: Callable[[np.random.Generator, int], np.ndarray]):
    """Run ``kernel`` once per batch on its derived stream and add the results.

    The plan is walked lazily into a running total, so memory does not grow
    with the batch count; integer counts add associatively, so neither this
    nor the thread count moves a count.
    """

    def run(job):
        i, size = job
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(i,))
        return kernel(np.random.default_rng(seq), size)

    jobs = enumerate(_batch_plan(cfg.trials, cfg.batch_size))
    parts = _in_order(run, jobs, cfg.threads) if cfg.threads > 1 else map(run, jobs)
    total = next(parts)
    for part in parts:
        total = total + part
    return total


def _projection_curve(specs, rows, shape, thresholds, cfg: ExperimentConfig, scaling: str) -> SmallBallCurve:
    """Counts of ||(<row_k, x_1 x ... x x_l>)_k|| <= threshold, one sample per trial for the whole grid."""
    dims = tuple(s.dim for s in specs)
    if dims != tuple(shape):
        raise ValidationError(f"factor dims {dims} do not match shape {tuple(shape)}")

    def kernel(rng, size):
        xs = [sample_matrix(s, rng, size) for s in specs]
        inner = contract(rows, shape, xs)
        norms = np.sqrt(np.einsum("bm,bm->b", inner, inner))
        return np.count_nonzero(norms[:, None] <= thresholds[None, :], axis=0)

    counts = _sum_over_batches(cfg, kernel)
    return SmallBallCurve(
        epsilon_grid=cfg.epsilon_grid,
        hit_counts=tuple(int(c) for c in counts),
        trials=cfg.trials,
        confidence=cfg.confidence,
        scaling=scaling,
    )


def estimate_smallball(specs, basis: SubspaceBasis, cfg: ExperimentConfig) -> SmallBallCurve:
    """Empirical P(||proj of (X1 x ... x Xl)|| <= eps*sqrt(m)) per grid point.

    One sample per trial is tested against the whole nested grid, so counts
    are exactly monotone.
    """
    thresholds = np.asarray(cfg.epsilon_grid) * math.sqrt(basis.m)
    return _projection_curve(specs, basis.rows, basis.shape, thresholds, cfg, "eps*sqrt(m)")


def estimate_direction_smallball(specs, f: SubspaceBasis, cfg: ExperimentConfig) -> SmallBallCurve:
    """Empirical P(|<X1 x ... x Xl, f>| <= eps) per grid point (no sqrt(m) scaling).

    ``f`` is a one-row basis.  This is the m = 1 case of ``estimate_smallball``
    without the sqrt(m) scaling: sqrt(x*x) == |x| in round-to-nearest
    arithmetic barring over- or underflow, so the counts are those of |<., f>|.
    """
    return _projection_curve(specs, f.rows, f.shape, np.asarray(cfg.epsilon_grid), cfg, "eps")


def norm_concentration(specs, t_grid, cfg: ExperimentConfig) -> NormTailCurves:
    """Tail frequencies of the tensor norm around its isotropic scale sqrt(prod n_j).

    Counts P(prod ||X_j|| >= (1+t) * n^(l/2)) and P(<= (1-t) * n^(l/2)) for
    every t.  Requires the unit-variance built-in kinds.
    """
    for spec in specs:
        if spec.kind not in _ISOTROPIC_KINDS:
            raise ValidationError(
                f"norm_concentration needs centered isotropic kinds {_ISOTROPIC_KINDS}, got {spec.kind!r}"
            )
    t = np.asarray(t_grid, dtype=float)
    if t.size < 1 or np.any(np.diff(t) <= 0):
        raise ValidationError("t_grid must be strictly increasing")
    scale = math.sqrt(math.prod(s.dim for s in specs))
    upper_thr = (1.0 + t) * scale
    lower_thr = (1.0 - t) * scale

    def kernel(rng, size):
        norm_prod = np.ones(size)
        for spec in specs:
            x = sample_matrix(spec, rng, size)
            # np.linalg.norm's own formula, squaring in place
            norm_prod *= np.sqrt(np.add.reduce(np.multiply(x, x, out=x), axis=1))
        upper = np.count_nonzero(norm_prod[:, None] >= upper_thr[None, :], axis=0)
        lower = np.count_nonzero(norm_prod[:, None] <= lower_thr[None, :], axis=0)
        return np.stack([upper, lower])

    both = _sum_over_batches(cfg, kernel)
    return NormTailCurves(
        t_grid=tuple(t.tolist()),
        upper_counts=tuple(int(c) for c in both[0]),
        lower_counts=tuple(int(c) for c in both[1]),
        trials=cfg.trials,
        confidence=cfg.confidence,
    )


def _membership_counts(specs, body: SlabBody, cfg: ExperimentConfig) -> int:
    dims = [s.dim for s in specs]
    ambient = math.prod(dims)
    if body.ambient_dim != ambient:
        raise ValidationError(
            f"slab body lives in dimension {body.ambient_dim}, tensors in {ambient}"
        )
    chunk = max(1, (1 << 21) // max(ambient, 1))

    def kernel(rng, size):
        hits = 0
        done = 0
        # one product buffer for the batch's chunks; ``contains`` still runs
        # its gemm on exactly one chunk's rows, since BLAS rounds by row count
        buf = np.empty((min(chunk, size), ambient, 1))
        while done < size:
            cur = min(chunk, size - done)
            xs = [sample_matrix(s, rng, cur) for s in specs]
            flat = kron([x[:, :, None] for x in xs], out=buf[:cur])[:, :, 0]
            hits += int(np.count_nonzero(body.contains(flat)))
            done += cur
        return np.asarray([hits])

    return int(_sum_over_batches(cfg, kernel)[0])


def dominance_test(specs_a, specs_b, body: SlabBody, cfg: ExperimentConfig) -> DominanceReport:
    """Check consistency of P(tensor(A) in K) <= P(tensor(B) in K) at cfg.confidence.

    Flags a violation candidate only when the one-sided exact intervals are
    disjoint in the wrong order; sampling noise alone never contradicts the
    dominance direction.
    """
    if tuple(s.dim for s in specs_a) != tuple(s.dim for s in specs_b):
        raise ValidationError("specs_a and specs_b must have matching factor dims")
    hits_a = _membership_counts(specs_a, body, cfg)
    hits_b = _membership_counts(specs_b, body, cfg)
    n = cfg.trials
    # one-sided bounds at the same confidence level
    alpha = 1.0 - cfg.confidence
    lower_a = float(_beta.ppf(alpha, hits_a, n - hits_a + 1)) if hits_a > 0 else 0.0
    upper_b = float(_beta.ppf(1 - alpha, hits_b + 1, n - hits_b)) if hits_b < n else 1.0
    gap = lower_a - upper_b
    return DominanceReport(
        trials=n,
        confidence=cfg.confidence,
        hits_a=hits_a,
        hits_b=hits_b,
        p_hat_a=hits_a / n,
        p_hat_b=hits_b / n,
        lower_a_one_sided=lower_a,
        upper_b_one_sided=upper_b,
        gap=gap,
        violation_candidate=bool(gap > 0),
    )


def fit_slope(curve: SmallBallCurve, eps_range: tuple[float, float], deflate_log_power: int = 0) -> SlopeFit:
    """OLS slope of log(p_hat / log(1/eps)^deflate) against log eps.

    Only grid points inside ``eps_range`` with nonzero counts enter the fit;
    fewer than 4 such points raises ``DataSparsityError``.
    """
    if deflate_log_power < 0:
        raise ValidationError("deflate_log_power must be >= 0")
    lo, hi = min(eps_range), max(eps_range)
    eps = np.asarray(curve.epsilon_grid)
    counts = np.asarray(curve.hit_counts)
    keep = (eps >= lo) & (eps <= hi) & (counts > 0)
    if keep.sum() < 4:
        raise DataSparsityError(
            f"need >= 4 grid points in [{lo:.3g}, {hi:.3g}] with nonzero counts, found {int(keep.sum())}"
        )
    x = np.log(eps[keep])
    y = np.log(counts[keep] / curve.trials)
    if deflate_log_power:
        if np.any(eps[keep] >= 1.0):
            raise ValidationError("log deflation needs every fitted grid point below 1")
        y = y - deflate_log_power * np.log(np.log(1.0 / eps[keep]))
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - y.mean() - slope * xc
    dof = max(keep.sum() - 2, 1)
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    return SlopeFit(slope=slope, stderr=stderr, n_points=int(keep.sum()))


def rows_csv_bytes(header, rows, comment: str | None = None, nan: str = "") -> bytes:
    """Render dict rows to CSV bytes under ``header``, after an optional ``# comment`` line.

    A float cell is its ``repr``, or ``nan`` if it is NaN; a missing key or
    None is an empty cell; anything else is its ``str``.
    """

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return nan if math.isnan(value) else repr(value)
        return str(value)

    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(header))
    lines.extend(",".join(cell(row.get(col)) for col in header) for row in rows)
    return "".join(line + "\n" for line in lines).encode()


def curve_csv_bytes(curve: SmallBallCurve, extra_columns: dict | None = None, comment: str | None = None) -> bytes:
    """Render a curve to CSV bytes: epsilon, hits, trials, p_hat, ci_low, ci_high [, extras].

    Every float, extras included, is written as its ``repr``, NaN as ``nan``.
    """
    extras = extra_columns or {}
    header = ["epsilon", "hits", "trials", "p_hat", "ci_low", "ci_high", *extras]
    rows = []
    for i, eps in enumerate(curve.epsilon_grid):
        hits = curve.hit_counts[i]
        values = [eps, hits, curve.trials, hits / curve.trials, curve.ci_low[i], curve.ci_high[i]]
        values += [float(col[i]) for col in extras.values()]
        rows.append(dict(zip(header, values)))
    return rows_csv_bytes(header, rows, comment, nan="nan")
