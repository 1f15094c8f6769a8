"""Seeded Monte-Carlo engine for small-ball, norm, and dominance experiments.

Trials are partitioned into batches; batch ``i`` of a run draws from
``SeedSequence(seed, spawn_key=(i,))``, so the counts depend on the seed and
the batch partition only, and schedulers cannot change them.  Every curve
stores exact Clopper-Pearson intervals per grid point.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .distributions import sample_matrix
from .errors import DataSparsityError, RangeError, ValidationError
from .subspaces import SubspaceBasis
from .tensor_core import contract

_ISOTROPIC_KINDS = ("uniform-cube-sqrt3", "gaussian-std", "symmetric-exponential-unitvar")


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducibility contract for one experiment run.

    ``batch_size`` defines the deterministic batch partition; ``threads``
    only changes scheduling, never results.  A grid is not part of the run:
    the estimators that count on one take it as an argument.
    """

    seed: int
    trials: int
    confidence: float = 0.99
    batch_size: int = 100_000
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        counts = {"trials": self.trials, "batch_size": self.batch_size, "threads": self.threads}
        if not all(isinstance(v, (int, np.integer)) for v in counts.values()):
            raise ValidationError(f"trials, batch_size and threads must be integers, got {counts}")
        if self.trials < 100:
            raise ValidationError(f"need at least 100 trials, got {self.trials}")
        if not 0 < self.confidence < 1:
            raise ValidationError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.batch_size < 1 or self.threads < 1:
            raise ValidationError("batch_size and threads must be >= 1")


def _beta_bounds(hits, trials: int, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact binomial bounds with ``tail`` probability beyond each: the
    ``tail`` quantile of Beta(k, n-k+1) (0 at k = 0) and the ``1 - tail``
    quantile of Beta(k+1, n-k) (1 at k = n)."""
    # imported here so that runs which report no interval never load scipy
    from scipy.special import betaincinv

    k = np.asarray(hits, dtype=float)
    with np.errstate(invalid="ignore"):
        low = np.where(k > 0, betaincinv(k, trials - k + 1, tail), 0.0)
        high = np.where(k < trials, betaincinv(k + 1, trials - k, 1 - tail), 1.0)
    return low, high


def clopper_pearson(hits, trials: int, confidence: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact binomial two-sided confidence bounds from beta quantiles."""
    return _beta_bounds(hits, trials, (1.0 - confidence) / 2)


@dataclass(frozen=True)
class SmallBallCurve:
    """Empirical curve of nested hit counts with exact binomial intervals.

    Counts must be nonincreasing along ``epsilon_grid``; each estimator's
    docstring states what its grid values threshold.
    """

    epsilon_grid: tuple[float, ...]
    hit_counts: tuple[int, ...]
    trials: int
    confidence: float
    ci_low: tuple[float, ...] = field(init=False)
    ci_high: tuple[float, ...] = field(init=False)

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
        if not np.isfinite(d).all():
            raise ValidationError("every slab direction must be finite")
        # entries, not norms: the norm of a row of tiny entries underflows to 0
        if not np.any(d != 0, axis=1).all():
            raise ValidationError("every slab direction must be nonzero")
        object.__setattr__(self, "directions", d)

    @property
    def ambient_dim(self) -> int:
        return self.directions.shape[1]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.directions.shape[0] == 0:
            return np.ones(pts.shape[0], dtype=bool)
        return self.inside(lambda d: pts @ d.T)

    def inside(self, inner) -> np.ndarray:
        """Which points lie in every slab, given ``inner(directions)``: their
        ``(points, count)`` inner products with the directions, a fresh array
        or one the caller owns, which is overwritten with its absolute values."""
        # a product past the float range is far outside its slab, and inf counts it so
        with np.errstate(over="ignore"):
            products = inner(self.directions)
            return np.all(np.abs(products, out=products) <= 1.0, axis=1)

    @classmethod
    def random(cls, dim: int, count: int, scale: float, rng) -> "SlabBody":
        rng = np.random.default_rng(rng)
        # a scale past the float range gives infinite directions, which __post_init__ refuses
        with np.errstate(over="ignore"):
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


class NormTailCurves(NamedTuple):
    """Upper and lower norm-deviation tails, each a curve over the increasing t grid."""

    upper: SmallBallCurve
    lower: SmallBallCurve


# batches in flight per worker thread when a run has several workers
_WINDOW_PER_THREAD = 2


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the OS cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_order(run, jobs, workers: int):
    """``map(run, jobs)`` on ``workers`` threads, at most ``_WINDOW_PER_THREAD * workers``
    jobs in flight (``Executor.map`` would submit every job up front)."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for job in jobs:
                pending.append(pool.submit(run, job))
                if len(pending) == _WINDOW_PER_THREAD * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


class _Scratch(threading.local):
    """Arrays that the batches of one run reuse, kept per worker thread.

    A fresh array of a batch's size would be mapped and page-faulted anew for
    every batch.  Instead each thread keeps, by name, the flat array of the
    name's largest request so far, and every request gets its leading
    ``prod(shape)`` entries as a C-contiguous array of that shape.  Kernels
    draw into these arrays and treat them as fresh ones, so no bit changes.
    No kernel returns a view of a kept array, and ``_sum_over_batches`` makes
    one holder per run, so nothing outlives the run's batches.
    """

    def __init__(self):
        self.kept = {}

    def array(self, name: str, shape) -> np.ndarray:
        """An uninitialised float array of ``shape``, backed by the kept array when that is large enough."""
        flat = self.kept.get(name)
        size = math.prod(shape)
        if flat is None or flat.size < size:
            flat = self.kept[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _count_hits(values: np.ndarray, thresholds: np.ndarray, at_least: bool = False) -> np.ndarray:
    """Per threshold, how many ``values`` lie at or below it (at or above it
    with ``at_least``): the counts of ``values[:, None] <= thresholds``.

    Sorts ``values`` in place and searches it.  NaN sorts last and searches
    as above inf, so neither side counts it, as no comparison holds for it.
    """
    values.sort()
    if at_least:
        return np.searchsorted(values, np.inf, side="right") - np.searchsorted(values, thresholds, side="left")
    return np.searchsorted(values, thresholds, side="right")


def _sum_over_batches(cfg: ExperimentConfig, kernel: Callable[[np.random.Generator, int, _Scratch], np.ndarray]):
    """Run ``kernel(rng, size, scratch)`` once per batch on its derived stream and add the results.

    Batch ``i`` holds ``min(batch_size, trials - i * batch_size)`` trials.  The
    lazy ``range`` of batches feeds a running total, so memory does not grow
    with the batch count, and integer counts add associatively, so no count
    depends on the thread count.  ``threads`` workers, at most one per usable
    CPU, share one ``_Scratch``, each holding one batch's arrays.
    """
    scratch = _Scratch()

    def run(i):
        size = min(cfg.batch_size, cfg.trials - i * cfg.batch_size)
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(i,))
        return kernel(np.random.default_rng(seq), size, scratch)

    jobs = range(-(-cfg.trials // cfg.batch_size))
    workers = min(cfg.threads, _usable_cpus())
    return sum(_in_order(run, jobs, workers) if workers > 1 else map(run, jobs))


def _hit_curve(cfg: ExperimentConfig, eps_grid, kernel_for) -> SmallBallCurve:
    """The curve of the hit counts of ``kernel_for(eps)``, the per-batch counter on the
    checked grid, summed over the run.  This is the one check of an epsilon grid:
    finite, positive and strictly decreasing, so the counted events are nested."""
    eps = np.asarray(eps_grid, dtype=float)
    # written so that NaN fails it
    if eps.ndim != 1 or eps.size < 1 or not (np.all(np.isfinite(eps) & (eps > 0)) and np.all(np.diff(eps) < 0)):
        raise ValidationError(f"eps_grid must be strictly decreasing positive reals, got {eps_grid!r}")
    counts = _sum_over_batches(cfg, kernel_for(eps))
    return SmallBallCurve(epsilon_grid=eps, hit_counts=counts, trials=cfg.trials, confidence=cfg.confidence)


def _projection_curve(specs, basis: SubspaceBasis, cfg: ExperimentConfig, eps_grid) -> SmallBallCurve:
    """Counts of ||(<row_k, x_1 x ... x x_l>)_k|| <= sqrt(m) * eps, one sample per trial for the whole grid."""
    dims = tuple(s.dim for s in specs)
    if dims != basis.shape:
        raise ValidationError(f"factor dims {dims} do not match shape {basis.shape}")
    scale = math.sqrt(basis.m)

    def kernel_for(eps):
        if not math.isfinite(float(eps[0]) * scale):
            raise RangeError(f"threshold eps*sqrt(m) overflows a float at eps = {eps[0]:g}, m = {basis.m}")
        thresholds = eps * scale

        def kernel(rng, size, scratch):
            xs = [sample_matrix(s, rng, size, out=scratch.array(f"x{j}", (size, s.dim))) for j, s in enumerate(specs)]
            inner = contract(basis.rows, basis.shape, xs, out=scratch.array("inner", (size, basis.m)))
            norms = np.einsum("bm,bm->b", inner, inner, out=scratch.array("norms", (size,)))
            return _count_hits(np.sqrt(norms, out=norms), thresholds)

        return kernel

    return _hit_curve(cfg, eps_grid, kernel_for)


def estimate_smallball(specs, basis: SubspaceBasis, cfg: ExperimentConfig, eps_grid) -> SmallBallCurve:
    """Empirical P(||proj of (X1 x ... x Xl)|| <= eps*sqrt(m)) per point of the decreasing ``eps_grid``.

    One sample per trial is tested against the whole nested grid, so counts
    are exactly monotone.
    """
    return _projection_curve(specs, basis, cfg, eps_grid)


def estimate_direction_smallball(specs, f: SubspaceBasis, cfg: ExperimentConfig, eps_grid) -> SmallBallCurve:
    """Empirical P(|<X1 x ... x Xl, f>| <= eps) per point of the decreasing ``eps_grid`` (no sqrt(m) scaling).

    ``f`` is a one-row basis; more rows raise ``ValidationError``.  This is
    the m = 1 case of ``estimate_smallball`` without the sqrt(m) scaling:
    sqrt(x*x) == |x| in round-to-nearest arithmetic barring over- or
    underflow, so the counts are those of |<., f>|.
    """
    if f.m != 1:
        raise ValidationError(f"a single direction is a one-row basis, got m = {f.m} rows")
    return _projection_curve(specs, f, cfg, eps_grid)


def norm_concentration(specs, t_grid, cfg: ExperimentConfig) -> NormTailCurves:
    """Tail frequencies of the tensor norm around its isotropic scale sqrt(prod n_j).

    Counts P(prod ||X_j|| >= (1+t) * n^(l/2)) and P(<= (1-t) * n^(l/2)) for
    every t, as two curves on the increasing ``t_grid`` (both tails shrink
    as t grows).  Requires the unit-variance built-in kinds.
    """
    for spec in specs:
        if spec.kind not in _ISOTROPIC_KINDS:
            raise ValidationError(
                f"norm_concentration needs centered isotropic kinds {_ISOTROPIC_KINDS}, got {spec.kind!r}"
            )
    t = np.asarray(t_grid, dtype=float)
    # written so that NaN fails it
    if t.ndim != 1 or t.size < 1 or not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        raise ValidationError(f"t_grid must be strictly increasing finite reals, got {t_grid!r}")
    scale = math.sqrt(math.prod(s.dim for s in specs))
    # |1 +- t| <= 1 + |t|, so this bounds both thresholds of every t
    widest = 1.0 + float(np.max(np.abs(t)))
    if not math.isfinite(widest * scale):
        raise RangeError(f"threshold (1+t)*sqrt(prod n_j) overflows a float at t = {widest - 1.0:g}")
    upper_thr = (1.0 + t) * scale
    lower_thr = (1.0 - t) * scale

    def kernel(rng, size, scratch):
        norm_prod = scratch.array("prod", (size,))
        norm_prod.fill(1.0)
        norm = scratch.array("norm", (size,))
        for spec in specs:
            # every factor draws into one array: its norm is taken before the next draw
            x = sample_matrix(spec, rng, size, out=scratch.array("x", (size, spec.dim)))
            # np.linalg.norm's own formula, squaring in place
            np.add.reduce(np.multiply(x, x, out=x), axis=1, out=norm)
            norm_prod *= np.sqrt(norm, out=norm)
        upper = _count_hits(norm_prod, upper_thr, at_least=True)
        lower = _count_hits(norm_prod, lower_thr)
        return np.stack([upper, lower])

    upper, lower = _sum_over_batches(cfg, kernel)
    return NormTailCurves(
        upper=SmallBallCurve(epsilon_grid=t, hit_counts=upper, trials=cfg.trials, confidence=cfg.confidence),
        lower=SmallBallCurve(epsilon_grid=t, hit_counts=lower, trials=cfg.trials, confidence=cfg.confidence),
    )


def _membership_counts(specs, bodies, cfg: ExperimentConfig) -> np.ndarray:
    """Per body of ``bodies``, in order, how many trials land inside it.

    Each chunk's factors are drawn once and tested against every body, each
    body with the ``contract`` call it would take alone, so a body's count
    does not depend on the others.
    """
    if not bodies:
        raise ValidationError("need at least one slab body")
    dims = tuple(s.dim for s in specs)
    ambient = math.prod(dims)
    for body in bodies:
        if body.ambient_dim != ambient:
            raise ValidationError(
                f"slab body lives in dimension {body.ambient_dim}, tensors in {ambient}"
            )
    # trials drawn per call of ``sample_matrix``: the chunk boundaries are
    # part of the random stream, so this defines the stream, not the memory
    # (``contract`` never builds the n^l tensors)
    chunk = max(1, (1 << 21) // max(ambient, 1))

    def kernel(rng, size, scratch):
        hits = np.zeros(len(bodies), dtype=np.int64)
        done = 0
        while done < size:
            cur = min(chunk, size - done)
            xs = [sample_matrix(s, rng, cur, out=scratch.array(f"x{j}", (cur, s.dim))) for j, s in enumerate(specs)]
            for k, body in enumerate(bodies):
                inside = body.inside(lambda d: contract(d, dims, xs, out=scratch.array("inner", (cur, d.shape[0]))))
                hits[k] += np.count_nonzero(inside)
            done += cur
        return hits

    return _sum_over_batches(cfg, kernel)


def dominance_test(specs_a, specs_b, bodies, cfg: ExperimentConfig) -> tuple[DominanceReport, ...]:
    """Check consistency of P(tensor(A) in K) <= P(tensor(B) in K) at cfg.confidence
    for every slab body K of ``bodies``; one report per body, in order.

    Each law's factors are drawn once for all the bodies, and every body's
    counts are those of a call with that body alone.  Flags a violation
    candidate only when the one-sided exact intervals are disjoint in the
    wrong order; sampling noise alone never contradicts the dominance
    direction.
    """
    if tuple(s.dim for s in specs_a) != tuple(s.dim for s in specs_b):
        raise ValidationError("specs_a and specs_b must have matching factor dims")
    bodies = tuple(bodies)
    hits_a = _membership_counts(specs_a, bodies, cfg)
    hits_b = _membership_counts(specs_b, bodies, cfg)
    n = cfg.trials
    # one-sided bounds at the same confidence level
    low, high = _beta_bounds([hits_a, hits_b], n, 1.0 - cfg.confidence)
    reports = []
    for a, b, lower_a, upper_b in zip(hits_a.tolist(), hits_b.tolist(), low[0].tolist(), high[1].tolist()):
        gap = lower_a - upper_b
        reports.append(
            DominanceReport(
                trials=n,
                confidence=cfg.confidence,
                hits_a=a,
                hits_b=b,
                p_hat_a=a / n,
                p_hat_b=b / n,
                lower_a_one_sided=lower_a,
                upper_b_one_sided=upper_b,
                gap=gap,
                violation_candidate=gap > 0,
            )
        )
    return tuple(reports)


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

    A float cell, numpy floats included, is the ``repr`` of its Python
    float, or ``nan`` if it is NaN; a missing key or None is an empty cell;
    anything else is its ``str``.
    """

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return nan if math.isnan(value) else repr(float(value))
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
