"""Seeded Monte-Carlo engine for small-ball, norm, and dominance experiments.

This module owns every random stream of a run.  Trials are partitioned into
batches; batch ``i`` draws from ``SeedSequence(seed, spawn_key=(i,))``, so
the counts depend on the seed and the batch partition only, and schedulers
cannot change them.  What a run draws outside its batches (a Haar basis,
slab bodies, a smoothed ensemble, a decomposition's factors, noise and
probes) comes from auxiliary stream ``k``,
``SeedSequence(seed, spawn_key=(2**32, k))`` (``_aux_rng``).  Every curve
stores exact Clopper-Pearson intervals per grid point.

A kernel holds only what it reads of a batch's factors, and reduces each
block of products as it comes.  ``norm_concentration`` reduces each row
chunk of ``sample_chunks`` to row norms as it is drawn, and a projection
whose rows ``contract`` gathers keeps only the columns they read
(``read_columns``), copied from each chunk through column views; both hold
one chunk of ``tensor_core._block_rows`` rows at a time, a histogram law its
whole factor.  A factor whose every column is read (every factor of dense
rows) is drawn whole into its kept array, and the dominance bodies draw in
chunks of 2^21 tensor entries, which define its stream.  Projections and
slab tests take their products from ``tensor_core.contract_blocks``, one
block at a time: a projection reduces each block to row norms, and the
dominance kernel makes one pass per chunk and direction count and counts
each body's slab test per block.  Two guarded passes decide most trials
from other arithmetic and give only the trials they cannot place the
products of ``contract_blocks`` (``_recheck``): a large dense projection is
screened in float32 (``estimate_smallball``), and where the full Kronecker
block is the cheapest split for every body's directions together, the slab
tests take one stacked float64 gemm per block (``_membership_counts``).  So
every count is the one the float64 kernel gives.  Every kept array, the
blocks included, comes from the run's ``tensor_core._Scratch``, which goes
with the run.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .distributions import sample_chunks, sample_matrix
from .errors import DataSparsityError, RangeError, ValidationError
from .subspaces import SubspaceBasis, _check_sizes
from .tensor_core import (
    _block_rows,
    _columns,
    _dense_block,
    _dense_blocks,
    _entries,
    _Scratch,
    _single_entries,
    _split,
    contract_blocks,
    kron,
    read_columns,
)


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
        sizes = (
            *_check_sizes(0, seed=self.seed),
            *_check_sizes(1, trials=self.trials, batch_size=self.batch_size, threads=self.threads),
        )
        for name, value in zip(("seed", "trials", "batch_size", "threads"), sizes):
            object.__setattr__(self, name, value)
        if self.trials < 100:
            raise ValidationError(f"need at least 100 trials, got {self.trials}")
        if not 0 < self.confidence < 1:
            raise ValidationError(f"confidence must lie in (0, 1), got {self.confidence}")


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
    """Exact binomial two-sided confidence bounds from beta quantiles.

    Refuses a confidence outside (0, 1), trials that are not an integer
    >= 1 and hits that are not integers in [0, trials]; each check is
    written so that NaN fails it.
    """
    (trials,) = _check_sizes(1, trials=trials)
    if not 0 < confidence < 1:
        raise ValidationError(f"confidence must lie in (0, 1), got {confidence}")
    hits = np.asarray(hits)
    if not np.all((hits >= 0) & (hits <= trials) & (hits == np.floor(hits))):
        raise ValidationError("hit counts must lie in [0, trials] and be integers")
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
        (trials,) = _check_sizes(1, trials=self.trials)
        object.__setattr__(self, "trials", trials)
        grid = np.asarray(self.epsilon_grid, dtype=float)
        # floats, so that the differences of unsigned counts do not wrap
        counts = np.asarray(self.hit_counts, dtype=float)
        if grid.shape != counts.shape:
            raise ValidationError("epsilon_grid and hit_counts must have equal length")
        # refuses a confidence outside (0, 1) and counts outside [0, trials]
        low, high = clopper_pearson(counts, trials, self.confidence)
        if np.any(np.diff(counts) > 0):
            raise ValidationError("hit counts must be nonincreasing along the decreasing grid (nested events)")
        object.__setattr__(self, "epsilon_grid", tuple(grid.tolist()))
        object.__setattr__(self, "hit_counts", tuple(int(c) for c in counts))
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
        # a product past the float range is far outside its slab, and inf counts it so
        with np.errstate(over="ignore"):
            return self.inside(pts @ self.directions.T)

    def inside(self, products: np.ndarray) -> np.ndarray:
        """Which points lie in every slab, given their ``(points, count)``
        inner products with the directions, which are overwritten with their
        absolute values.  Each point's test reads its own row alone."""
        return np.all(np.abs(products, out=products) <= 1.0, axis=1)

    @classmethod
    def random(cls, dim: int, count: int, scale: float, rng) -> "SlabBody":
        dim, count = _check_sizes(0, dim=dim, count=count)
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

# Multiply-adds per trial (m * prod n) of a dense projection above which the
# float32 screen of ``estimate_smallball`` pays for its casts, bands and
# decisions.  Kernel medians on a 2-vCPU machine (numpy 2.4.6, OpenBLAS
# 0.3.31): even at 4096 ((8, 8, 8) with m = 8, (16, 16) with m = 16), 10-25%
# faster from 8192 up, 25-30% slower at 2048 ((8, 8, 8), m = 4) and 864.
_SCREEN_WORK = 4096


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
    The holder is the run's own, so nothing it keeps outlives the run's
    batches, and no kernel returns a view of it.
    """
    scratch = _Scratch()

    def run(i):
        size = min(cfg.batch_size, cfg.trials - i * cfg.batch_size)
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(i,))
        return kernel(np.random.default_rng(seq), size, scratch)

    jobs = range(-(-cfg.trials // cfg.batch_size))
    workers = min(cfg.threads, _usable_cpus())
    return sum(_in_order(run, jobs, workers) if workers > 1 else map(run, jobs))


def _aux_rng(seed: int, stream: int) -> np.random.Generator:
    """Auxiliary stream ``stream`` of a run with ``seed``, for draws outside its batches."""
    # spawn keys of length 2 cannot collide with the length-1 batch keys
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2**32, stream)))


def _eps_grid(eps_grid) -> np.ndarray:
    """The one check of an epsilon grid: finite, positive and strictly decreasing,
    so the counted events are nested.  Returns the grid as a float array."""
    eps = np.asarray(eps_grid, dtype=float)
    # written so that NaN fails it
    if eps.ndim != 1 or eps.size < 1 or not (np.all(np.isfinite(eps) & (eps > 0)) and np.all(np.diff(eps) < 0)):
        raise ValidationError(f"eps_grid must be strictly decreasing positive reals, got {eps_grid!r}")
    return eps


def estimate_smallball(specs, basis: SubspaceBasis, cfg: ExperimentConfig, eps_grid) -> SmallBallCurve:
    """Empirical P(||proj of (X1 x ... x Xl)|| <= eps*sqrt(m)) per point of the decreasing ``eps_grid``.

    One sample per trial is tested against the whole nested grid, so counts
    are exactly monotone.  When ``contract`` gathers, each factor keeps only
    the columns its rows read, drawn in row chunks and copied through column
    views; a factor whose every column is read, as every factor of dense
    rows is, is drawn whole into its kept array.  Each block of
    ``contract_blocks`` is reduced to row norms as it comes; a row's norm
    sums its own m squares, so the block partition changes no bit.

    Dense rows of more than ``_SCREEN_WORK`` multiply-adds per trial (m *
    prod n) and at least two modes go through a float32 screen first
    (``_screen``): the same split contraction in single precision, with an
    a-priori band per trial, ``gamma_K * ||F||_F * prod_j ||x_j||`` rounded
    up, plus the float64 path's own bound and an underflow term, where K
    counts the roundings on a product's path (derivation in ``_screen``).
    A trial whose screened norm lies farther than its band from every
    threshold is counted from it; the exact norm and the float64 kernel's
    lie on the same side of each threshold.  Every other trial, and any
    whose norm or band is not finite, is recomputed in float64 by
    ``_recheck`` with the bits of the unscreened kernel.  So the counts are
    those of the float64 kernel.
    """
    dims = tuple(s.dim for s in specs)
    if dims != basis.shape:
        raise ValidationError(f"factor dims {dims} do not match shape {basis.shape}")
    eps = _eps_grid(eps_grid)
    scale = math.sqrt(basis.m)
    if not math.isfinite(float(eps[0]) * scale):
        raise RangeError(f"threshold eps*sqrt(m) overflows a float at eps = {eps[0]:g}, m = {basis.m}")
    thresholds = eps * scale
    read = read_columns(basis.rows, basis.shape)
    cols, rows, shape = (None, basis.rows, basis.shape) if read is None else read

    def factor(j, spec, rng, size, scratch):
        # ``cols[j]`` is sorted and unique, so at full size it reads every column in order
        if cols is None or cols[j].size == spec.dim:
            return sample_matrix(spec, rng, size, out=scratch.array(f"x{j}", (size, spec.dim)))
        kept = scratch.array(f"x{j}", (size, cols[j].size))
        chunks = sample_chunks(spec, rng, size, _block_rows(spec.dim), lambda s: scratch.array("chunk", s))
        for start, x in chunks:
            kept[start : start + len(x)] = _columns(x, cols[j])
        return kept

    # one mode has a single block, which a recheck would redo whole
    screened = read is None and len(shape) > 1 and basis.m * math.prod(shape) > _SCREEN_WORK

    def kernel(rng, size, scratch):
        xs = [factor(j, s, rng, size, scratch) for j, s in enumerate(specs)]
        norms = scratch.array("norms", (size,))
        if screened:
            band = _screen(rows, shape, xs, norms, scratch)
            for _, trials, inner in _recheck([rows], shape, xs, _unsure(norms, band, thresholds), scratch):
                norms[trials] = np.sqrt(np.einsum("bm,bm->b", inner, inner))
        else:
            for start, (inner,) in contract_blocks([rows], shape, xs, scratch):
                np.einsum("bm,bm->b", inner, inner, out=norms[start : start + len(inner)])
            np.sqrt(norms, out=norms)
        return _count_hits(norms, thresholds)

    return SmallBallCurve(eps, _sum_over_batches(cfg, kernel), cfg.trials, cfg.confidence)


def _screen(rows: np.ndarray, shape: tuple[int, ...], xs, norms: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """Single-precision projection norms of every trial, into ``norms``, and the band around each.

    The dense contraction of ``tensor_core._dense_blocks`` runs on the blocks
    of the float64 kernel, in float32: the rows once per call, and each
    block's factors, are rounded to float32 in ``scratch`` arrays, and each
    trial's norm is summed in float64 from its float32 products.  Returns
    the ``"band"`` array: per trial, a bound on the distance of its norm here
    from the exact norm plus the distance of the float64 kernel's norm from
    the exact one.  A band is inf or NaN where none can be given, and a
    norm here that met an overflow is inf or NaN.
    """
    size, m, ell = xs[0].shape[0], rows.shape[0], len(shape)
    # one mode is one gemm over n = prod n[0:]: with t = 0, lead = 1 counts a batched dot
    # that is not there, and l - 2 = -1 takes it back
    t = _split(shape, m) if ell > 1 else 0
    width, trail, lead = math.prod(shape), math.prod(shape[t:]), math.prod(shape[:t])
    # A term F_ki x_1[i_1] ... x_l[i_l] of row k's exact product p_k reaches p_k here through at
    # most K1 roundings of relative size u (Higham 2002, section 3.1): l + 1 casts (a row entry
    # and one entry per factor), the l - 2 multiplications of the two Kronecker products, one
    # multiplication and prod n[t:] - 1 additions in the gemm, and one multiplication and
    # prod n[:t] - 1 additions in the batched dot.  So |p_k(here) - p_k| <= gamma_K1 * sum_i
    # |F_ki T_i| <= gamma_K1 * ||F_k|| * prod_j ||x_j|| by Cauchy-Schwarz (T the trial's simple
    # tensor, gamma_K = K u / (1 - K u)), and over the m rows gamma_K1 * ||F||_F * prod_j ||x_j||.
    # Float32 squares are exact in float64, whose m - 1 additions and square root add m
    # roundings of less than u: K = K1 + m.  The float64 kernel takes the same path without the
    # casts and with one more rounding per square, so gamma_K at its own u bounds it as well.
    k = (ell + 1) + (ell - 2) + trail + lead + m
    # the band's own float64 arithmetic rounds at most J times on any path
    k_band = m * width + sum(shape) + 4 * ell + 16
    rel = _gamma(k, 2.0**-24) + _gamma(k, 2.0**-53) if k * 2.0**-24 <= 0.5 and k_band * 2.0**-53 <= 0.5 else math.inf
    # A product or cast that underflows (or is flushed to zero) errs instead by at most the least
    # normal, 2^-126 or 2^-1022.  Each of the at most (2l + 2) * prod n such errors on a row's path
    # grows by no more than the other factors, each at most max(1, its largest norm in the
    # batch): sqrt(m) * (2l + 2) * prod n * lambda * cap over the m rows, where 4 covers the
    # relative growth on top while K u <= 1/2.  The float64 kernel's squares can underflow too:
    # sqrt(2 m 2^-1022) more.  A factor whose squared norm underflows has a norm below 2^-511,
    # and the cap, which holds every other factor's norm, dwarfs the relative term it drops.
    tiny = 4 * (2 * ell + 2) * width * math.sqrt(m) * (2.0**-126 + 2.0**-1022)
    floor = math.sqrt(2 * m * 2.0**-1022)
    frob_sq = float(np.einsum("md,md->", rows, rows))
    # Dividing by 1 - gamma_J at 2^-53 rounds the band up.  So does 1 + 2^-26 for the roundings of
    # value -+ band in ``_unsure``: the value is below 2^25 bands (the band holds 2^-24 ||F||_F *
    # prod_j ||x_j||, which bounds the value), so each errs by less than 2^-27 of the band.
    up = (1 + 2.0**-26) / (1 - _gamma(k_band, 2.0**-53))
    band = scratch.array("band", (size,))
    band.fill(frob_sq)
    cap = max(1.0, frob_sq)
    # a band past the float range is inf, and a NaN one fails every band test
    with np.errstate(over="ignore", invalid="ignore"):
        for x in xs:
            # ``norms`` holds each factor's squared norms until the screen fills it
            np.einsum("bn,bn->b", x, x, out=norms)
            # NaN, not 1, where some norm is NaN
            cap *= float(np.max(norms, initial=1.0))
            band *= norms
        np.sqrt(band, out=band)
        band *= rel * up
        band += (tiny * math.sqrt(cap) + floor) * up

    block = _dense_block(shape, m, size)
    rows32 = scratch.array("screen rows", rows.shape, np.float32)
    xs32 = [scratch.array(f"screen x{j}", (block, n), np.float32) for j, n in enumerate(shape)]
    out = scratch.array("screen products", (block, m), np.float32)
    out64 = scratch.array("products", (block, m))
    # a cast past the float32 range gives inf, and inf gives inf or NaN: both fail a band test
    with np.errstate(over="ignore", invalid="ignore"):
        np.copyto(rows32, rows, casting="same_kind")
        for s in range(0, size, block):
            s = min(s, size - block)
            for x, x32 in zip(xs, xs32):
                np.copyto(x32, x[s : s + block], casting="same_kind")
            for _ in _dense_blocks([rows32], shape, xs32, [out], scratch):
                pass
            # float32 squares are exact in float64
            np.copyto(out64, out)
            norm = norms[s : s + block]
            np.sqrt(np.einsum("bm,bm->b", out64, out64, out=norm), out=norm)
    return band


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error of k roundings of size u; inf from k u >= 1."""
    return k * u / (1 - k * u) if k * u < 1 else math.inf


def _unsure(values: np.ndarray, band: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Indices of the trials that a comparison of ``values`` with the decreasing ``thresholds``
    cannot count: some threshold lies within the trial's ``band`` of its value, or the value or
    the band is not finite (NaN and inf fail ``next > value + band``)."""
    asc = thresholds[::-1]
    # inf - inf is NaN, and NaN searches as above every threshold
    with np.errstate(invalid="ignore"):
        # the least threshold at or above value - band, inf where there is none
        nearest = np.append(asc, np.inf)[np.searchsorted(asc, values - band)]
    return np.flatnonzero(~(nearest > values + band))


def _recheck(row_sets, shape: tuple[int, ...], xs, unsure: np.ndarray, scratch):
    """The float64 kernel's products of row sets of one row count with the trials ``unsure`` of ``xs``.

    Yields ``(k, trials, products)``: row set ``k``'s inner products with
    the trials ``trials`` (indices into ``xs``), with the bits that
    ``contract_blocks`` on every trial of ``xs`` gives them; the next step
    overwrites them.  Each trial of ``unsure`` comes at least once per set,
    and some come twice.  The trials are gathered and padded with repeats to
    at least one block of the dense path on all of ``xs``.  Dense sets go
    through ``_dense_blocks`` on blocks of that row count, so every gemm has
    the row count of that call's own; sets whose rows have one nonzero each
    go through ``contract_blocks``, whose gathered products are elementwise.
    """
    if unsure.size == 0:
        return
    size, m = xs[0].shape[0], row_sets[0].shape[0]
    block = _dense_block(shape, m, size)
    picks = np.resize(unsure, max(unsure.size, block))
    picked = [np.take(x, picks, axis=0, out=scratch.array(f"recheck x{j}", (picks.size, x.shape[1]))) for j, x in enumerate(xs)]
    dense = [k for k, rows in enumerate(row_sets) if _single_entries(rows, shape) is None]
    gather = [k for k in range(len(row_sets)) if k not in dense]
    if dense:
        outs = list(scratch.array("products", (len(dense), block, m)))
        for s in _dense_blocks([row_sets[k] for k in dense], shape, picked, outs, scratch):
            for k, out in zip(dense, outs):
                yield k, picks[s : s + block], out
    if gather:
        for s, products in contract_blocks([row_sets[k] for k in gather], shape, picked, scratch):
            for k, out in zip(gather, products):
                yield k, picks[s : s + len(out)], out


def estimate_direction_smallball(specs, f: SubspaceBasis, cfg: ExperimentConfig, eps_grid) -> SmallBallCurve:
    """Empirical P(|<X1 x ... x Xl, f>| <= eps) for a one-row basis ``f`` (more rows raise ``ValidationError``):
    ``estimate_smallball`` at m = 1, whose sqrt(x*x) == |x| barring over- or underflow."""
    if f.m != 1:
        raise ValidationError(f"a single direction is a one-row basis, got m = {f.m} rows")
    return estimate_smallball(specs, f, cfg, eps_grid)


def norm_concentration(specs, t_grid, cfg: ExperimentConfig) -> NormTailCurves:
    """Tail frequencies of the tensor norm around its isotropic scale sqrt(prod n_j).

    Counts P(prod ||X_j|| >= (1+t) * n^(l/2)) and P(<= (1-t) * n^(l/2)) for
    every t, as two curves on the increasing ``t_grid`` (both tails shrink
    as t grows).  Requires centered isotropic laws (``DistributionSpec.isotropic``).
    """
    for spec in specs:
        if not spec.isotropic:
            raise ValidationError(f"norm_concentration needs centered isotropic laws, got {spec.kind!r}")
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
        for spec in specs:
            # every chunk of every factor draws into one array: its norms are taken before the next draw
            for start, x in sample_chunks(spec, rng, size, _block_rows(spec.dim), lambda s: scratch.array("x", s)):
                norm = scratch.array("norm", (len(x),))
                # np.linalg.norm's own formula, squaring in place; each row
                # sums alone, so a chunk's norms are the whole factor's bits
                np.add.reduce(np.multiply(x, x, out=x), axis=1, out=norm)
                norm_prod[start : start + len(x)] *= np.sqrt(norm, out=norm)
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

    Each chunk's factors are drawn once for every body, and each body's
    count is the count of the products that ``contract_blocks`` gives with
    that body alone.  Where the full Kronecker block is the cheapest split
    for the stacked directions of every body (``_stacked``), a guarded pass
    decides each trial from one gemm against all of them and rechecks only
    the trials its band cannot place (``_guarded_hits``).  Elsewhere each
    chunk goes through one ``contract_blocks`` pass per direction count,
    whose products for each body are those of a call with that body alone,
    and each block's slab tests are counted as it comes, row by row.
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
    # (no kernel builds a whole chunk's n^l tensors)
    chunk = max(1, (1 << 21) // max(ambient, 1))
    counts = [len(body.directions) for body in bodies]
    groups = [[k for k, c in enumerate(counts) if c == count] for count in dict.fromkeys(counts)]
    stack = _SlabStack.of(bodies) if _stacked(dims, sum(counts)) else None

    def kernel(rng, size, scratch):
        hits = np.zeros(len(bodies), dtype=np.int64)
        done = 0
        while done < size:
            cur = min(chunk, size - done)
            xs = [sample_matrix(s, rng, cur, out=scratch.array(f"x{j}", (cur, s.dim))) for j, s in enumerate(specs)]
            if stack is not None:
                hits += _guarded_hits(bodies, groups, stack, dims, xs, scratch)
            else:
                # a product past the float range is far outside its slab, and inf counts it so
                with np.errstate(over="ignore"):
                    for ks in groups:
                        for _, products in contract_blocks([bodies[k].directions for k in ks], dims, xs, scratch):
                            hits[ks] += [np.count_nonzero(bodies[k].inside(p)) for k, p in zip(ks, products)]
            done += cur
        return hits

    return _sum_over_batches(cfg, kernel)


def _stacked(dims: tuple[int, ...], directions: int) -> bool:
    """Whether the full Kronecker block (t = 0) holds fewer entries per trial than every split of
    ``_split`` for ``directions`` rows, in ``_entries``'s own count.  One mode has no block to build."""
    return len(dims) > 1 and _entries(dims, directions, 0) < _entries(dims, directions, _split(dims, directions))


class _SlabStack(NamedTuple):
    """The slab directions of every body that has some, stacked for the guarded pass."""

    rows: np.ndarray  # (R, prod n): the held bodies' directions, in order
    held: list  # the bodies with directions, in order
    starts: np.ndarray  # each held body's first row
    norm: float  # at least every row's Euclidean norm

    @classmethod
    def of(cls, bodies) -> "_SlabStack":
        # ``_stacked`` admits no call without a direction
        held = [k for k, body in enumerate(bodies) if len(body.directions)]
        rows = np.concatenate([bodies[k].directions for k in held])
        starts = np.cumsum([0] + [len(bodies[k].directions) for k in held[:-1]])
        # each row is scaled by its largest magnitude first, so no square overflows; every row is
        # nonzero (``SlabBody``) and its largest scaled square is exactly 1.  The division, the
        # square, the prod n - 1 additions, the square root, the product and the division below
        # round at most prod n + 4 times, and the squares that underflow err by less than
        # prod n * 2^-1022 <= 2^-53 times the sum in all: gamma_{prod n + 6} at 2^-53 bounds them.
        big = np.max(np.abs(rows), axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            norms = big[:, 0] * np.sqrt(np.einsum("rn,rn->r", rows / big, rows / big))
        norm = float(np.max(norms)) / (1 - _gamma(rows.shape[1] + 6, 2.0**-53))
        return cls(rows, held, starts, norm)


def _guarded_hits(bodies, groups, stack: _SlabStack, dims: tuple[int, ...], xs, scratch) -> np.ndarray:
    """Per body, how many trials of the chunk ``xs`` land inside it, counted as ``contract_blocks``'s
    products count them.

    Per block of ``_block_rows`` trials, ``kron`` builds the ``(prod n, b)``
    Khatri-Rao block of the transposed factor rows, and one float64 gemm
    takes its products with every stacked direction.  Each body decides each
    trial from ``v``, the largest ``|p_k|`` over its rows: inside when ``v``
    lies below ``1 - band``, outside when above ``1 + band``, where the
    chunk's band (``_slab_band``) bounds the distance of every ``p_k`` here
    from the product that ``contract_blocks`` gives (a NaN ``v`` or band,
    or an inf band, places no trial).  The trials a body cannot place are
    gathered per direction count and recomputed by ``_recheck`` at the
    chunk's own block geometry, so every count is that of
    ``contract_blocks``.  A body of no directions holds every trial.
    """
    size, ell = xs[0].shape[0], len(dims)
    held, rows = stack.held, stack.rows
    ends = [*stack.starts[1:], len(rows)]
    # per trial: the transposed factor rows, kron's stages (the last is the Khatri-Rao column),
    # the R products and each held body's largest |p_k|
    stages = [math.prod(dims[: j + 1]) for j in range(1, ell)]
    block = min(size, _block_rows(sum(dims) + sum(stages) + len(rows) + len(held)))
    hits = np.zeros(len(bodies), dtype=np.int64)
    hits[[k for k, body in enumerate(bodies) if not len(body.directions)]] = size
    placed = np.zeros(len(held), dtype=np.int64)
    unsure = {}
    band = _slab_band(stack.norm, dims, xs)
    low, high = 1.0 - band, 1.0 + band

    def arrays(b):
        return (
            [scratch.array(f"rows{j}", (n, b)) for j, n in enumerate(dims)],
            [scratch.array(f"stage{j}", (n, b)) for j, n in enumerate(stages, 1)],
            scratch.array("stacked", (len(rows), b)),
            scratch.array("most", (len(held), b)),
        )

    full = arrays(block)
    # a product past the float range is inf, and inf - inf is NaN: neither decides a trial
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, size, block):
            b = min(block, size - s)
            factors, outs, products, most = full if b == block else arrays(b)
            # kron reads contiguous rows faster than the transposed views
            for factor, x in zip(factors, xs):
                np.copyto(factor, x[s : s + b].T)
            column = factors[0]
            for factor, out in zip(factors[1:], outs):
                column = kron([column, factor], out=out)
            np.abs(np.matmul(rows, column, out=products), out=products)
            for i, (lo, hi) in enumerate(zip(stack.starts, ends)):
                np.maximum.reduce(products[lo:hi], axis=0, out=most[i])
            inside, outside = most < low, most > high
            count = np.count_nonzero(inside, axis=1)
            placed += count
            for i in np.flatnonzero(count + np.count_nonzero(outside, axis=1) < b):
                unsure.setdefault(held[i], []).append(s + np.flatnonzero(~(inside[i] | outside[i])))
    hits[held] += placed
    # a product past the float range is far outside its slab, and inf counts it so
    with np.errstate(over="ignore"):
        for ks in groups:
            ks = [k for k in ks if k in unsure]
            if not ks:
                continue
            asked = [np.concatenate(unsure[k]) for k in ks]
            trials = np.unique(np.concatenate(asked))
            got = np.empty((len(ks), trials.size), dtype=bool)
            for i, picked, products in _recheck([bodies[k].directions for k in ks], dims, xs, trials, scratch):
                got[i, np.searchsorted(trials, picked)] = bodies[ks[i]].inside(products)
            for i, k in enumerate(ks):
                hits[k] += np.count_nonzero(got[i, np.searchsorted(trials, asked[i])])
    return hits


def _slab_band(norm: float, dims: tuple[int, ...], xs) -> float:
    """A band for the chunk of factor rows ``xs``: the distance of every product of the guarded
    pass from the one of ``contract_blocks`` is at most it, with room for the roundings of
    ``1 - band`` and ``1 + band``.  ``norm`` bounds every direction's norm.  Where no band can be
    given it is inf or NaN, and then neither bound decides a trial."""
    ell, width = len(dims), math.prod(dims)
    # A term u_ki T_i of a product p_k reaches p_k through at most K = prod n + l - 1 roundings of
    # u = 2^-53 (Higham 2002, section 3.1) on either path: here the l - 1 multiplications of the
    # Khatri-Rao column, one multiplication and prod n - 1 additions in the gemm; in
    # ``contract_blocks`` the l - 2 multiplications of its two Kronecker products, one
    # multiplication and prod n[t:] - 1 additions in the gemm and one and prod n[:t] - 1 in the
    # batched dot (prod n[t:] + prod n[:t] <= prod n + 1), or the l multiplications of the gather.
    # So each lies within gamma_K * sum_i |u_ki T_i| <= gamma_K * ||u_k|| * prod_j ||x_j|| of the
    # exact p_k (Cauchy-Schwarz), and the two within twice that of each other.  Every trial's
    # ||x_j|| is at most sqrt(n_j) times the chunk's largest |entry| of x_j.
    rel = 2 * _gamma(width + ell - 1, 2.0**-53)
    # A multiplication that underflows (or flushes to zero) errs instead by at most 2^-1022, which
    # the at most l later factors grow by no more than max(1, norm) * cap, cap = prod_j max(1,
    # bound on ||x_j||), and the relative roundings by at most 2: over the prod n terms of the at
    # most l multiplications of each path, 4 * prod n * l * 2^-1022 * max(1, norm) * cap.  The
    # product of the l bounds below errs by at most l * 2^-1022 * cap if it underflows.
    tiny = 2.0**-1022
    # the band's own arithmetic rounds at most 4 l + 16 times on any path; dividing by 1 - gamma
    # of that rounds it up.  1 - band and 1 + band round by at most 2^-53 and 2^-53 (1 + band):
    # the factor 1 + 2^-51 and the added 2^-52 cover both.
    up = (1 + 2.0**-51) / (1 - _gamma(4 * ell + 16, 2.0**-53))
    bound, cap = 1.0, 1.0
    for x, n in zip(xs, dims):
        # np.maximum, unlike max(), gives NaN where an entry is NaN
        top = math.sqrt(n) * float(np.maximum(np.max(x), -np.min(x)))
        bound *= top
        cap *= float(np.maximum(1.0, top))
    floor = rel * norm * ell * tiny + 4 * width * ell * tiny * max(1.0, norm)
    # 4 * norm * bound is inf wherever a sum of either path could pass the float range, and so is
    # the band there
    return up * (rel / 4 * (4 * norm * bound) + floor * cap) + 2.0**-52


def dominance_test(specs_a, specs_b, bodies, cfg: ExperimentConfig) -> tuple[DominanceReport, ...]:
    """Check consistency of P(tensor(A) in K) <= P(tensor(B) in K) at cfg.confidence
    for every slab body K of ``bodies``; one report per body, in order.

    Each law's factors are drawn once for all the bodies, and every body's
    counts are those of a call with that body alone: where the bodies'
    directions stack into one gemm, the trials that gemm cannot place within
    its error band are recounted with the products of a one-body call
    (``_membership_counts``).  Flags a violation
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
