"""Khatri-Rao products, the Moore-Penrose/projection identity, and smoothed ensembles.

The central identity: for a full-row-rank matrix, the squared Hilbert-
Schmidt norm of the pseudo-inverse equals the sum over rows of inverse
squared distances to the span of the other rows.  Both sides are computed
by independent routes (SVD vs least-squares residuals) so they can cross-
check each other.

The smoothed s_min tail never builds the n^ell x r Khatri-Rao matrix on its
main route: (A (.) B)^T (A (.) B) = (A^T A) * (B^T B) (Kolda & Bader, SIAM
Review 2009) gives s_min^2 as the smallest eigenvalue of an r x r Hadamard
product of factor Grams.  Trials whose eigenvalue lies within a rounding
band of zero or of a squared threshold are redone by SVD, so every count is
the SVD's count.  Most trials need no eigenvalue at all: a vectorized
LDL^T of G - (t_max^2 + band) I whose pivots are all finite and positive
puts lambda_min above t_max^2 + band, less (r+1)*u*trace(G) of rounding
(u the unit roundoff; Higham 2002, section 10.1), which leaves it outside
the band above the top threshold, where the trial counts no hit.

The rank tolerance, the rounding band, the base-vector norm cap (1) and the
bound constants (``BoundConfig()``) are fixed module values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, RangeError, ValidationError
from .exact_laws import BoundConfig, _smin_scale, bound_smin_tail
from .montecarlo import ExperimentConfig, SmallBallCurve, _count_hits, _eps_grid, _sum_over_batches
from .subspaces import _check_sizes
from .tensor_core import _block_rows, _Scratch, kron

_RANK_TOL = 1e-12

# Relative half-width, in units of trace(G), of the band around 0 and around
# each squared threshold inside which a Gram eigenvalue is not trusted to
# decide a count (derivation in ``smin_tail_experiment``).
_GRAM_BAND = 1e-10


def _matrices(factors) -> list[np.ndarray]:
    """``factors`` as float arrays, refused unless every one is a 2-d (n_j x r) matrix."""
    mats = [np.asarray(a, dtype=float) for a in factors]
    if any(a.ndim != 2 for a in mats):
        raise ValidationError(f"each factor must be a 2-d (n_j x r) matrix, got shapes {[a.shape for a in mats]}")
    return mats


def khatri_rao(factor_matrices) -> np.ndarray:
    """Columnwise Kronecker product: column i is the flattened simple tensor
    of the i-th columns of the factors, in the global row-major order."""
    mats = _matrices(factor_matrices)
    if not mats:
        raise ValidationError("need at least one factor matrix")
    r = mats[0].shape[1]
    if any(a.shape[1] != r for a in mats):
        raise ValidationError(f"all factors must share the column count {r}")
    return kron(mats)


def pinv_hs_norm_sq(a: np.ndarray) -> float:
    """Sum of 1/s_i^2 over the singular values, via full SVD.

    Requires full rank min(rows, cols); a singular value below
    ``1e-12 * s_max`` (``_RANK_TOL``) raises ``DegeneracyError``.
    """
    a = np.asarray(a, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0 or s[-1] < _RANK_TOL * s[0]:
        raise DegeneracyError(
            f"matrix is rank-deficient to tolerance (s_min/s_max = {s[-1] / max(s[0], 1e-300):.3e})"
        )
    return float(np.sum(1.0 / s**2))


def projection_distance_sum(a: np.ndarray) -> float:
    """Sum over rows of 1/dist(v_i, span of other rows)^2, via least squares.

    The sum ranges over the r rows of the matrix.  A residual below
    tolerance raises ``DegeneracyError`` naming the offending row.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    r = a.shape[0]
    scale = np.max(np.linalg.norm(a, axis=1), initial=0.0)
    total = 0.0
    for i in range(r):
        v = a[i]
        others = np.delete(a, i, axis=0)
        coef, *_ = np.linalg.lstsq(others.T, v, rcond=None)
        resid = v - others.T @ coef
        dist_sq = float(resid @ resid)
        if dist_sq <= (_RANK_TOL * max(scale, 1.0)) ** 2:
            raise DegeneracyError(f"row {i} lies in the span of the other rows (distance {math.sqrt(dist_sq):.3e})")
        total += 1.0 / dist_sq
    return total


@dataclass(frozen=True)
class SmoothedEnsemble:
    """Base simple tensors plus per-mode Gaussian smoothing.

    ``base`` holds one (n x r) matrix per mode; column i of mode j is the
    base vector X_i^(j), with norm at most 1.  Smoothing adds independent
    N(0, rho^2/n I_n) noise per vector.
    """

    r: int
    n: int
    ell: int
    rho: float
    base: tuple[np.ndarray, ...]

    def __post_init__(self):
        for name, value in zip(("r", "n", "ell"), _check_sizes(1, r=self.r, n=self.n, ell=self.ell)):
            object.__setattr__(self, name, value)
        # each check is written so that NaN fails it
        if not self.rho >= 0:
            raise ValidationError(f"need rho >= 0, got {self.rho}")
        base = tuple(np.asarray(b, dtype=float) for b in self.base)
        if len(base) != self.ell or any(b.shape != (self.n, self.r) for b in base):
            raise ValidationError(f"base must be {self.ell} matrices of shape ({self.n}, {self.r})")
        worst = max(float(np.max(np.linalg.norm(b, axis=0))) for b in base)
        if not worst <= 1.0 + 1e-12:
            raise ValidationError(f"base vector norm {worst} exceeds 1")
        object.__setattr__(self, "base", base)

    @classmethod
    def random(cls, r: int, n: int, ell: int, rho: float, rng=None) -> "SmoothedEnsemble":
        """Base vectors drawn uniformly on the unit sphere."""
        r, n, ell = _check_sizes(1, r=r, n=n, ell=ell)
        rng = np.random.default_rng(rng)
        base = []
        for _ in range(ell):
            g = rng.standard_normal((n, r))
            base.append(g / np.linalg.norm(g, axis=0))
        return cls(r=r, n=n, ell=ell, rho=rho, base=tuple(base))


def sample_smoothed_factors(e: SmoothedEnsemble, rng) -> list[np.ndarray]:
    """One smoothed draw of the per-mode factor matrices X + G."""
    rng = np.random.default_rng(rng)
    if e.rho == 0:
        return [b.copy() for b in e.base]
    sigma = e.rho / math.sqrt(e.n)
    return [b + sigma * rng.standard_normal((e.n, e.r)) for b in e.base]


@dataclass(frozen=True)
class SminTailResult:
    """Empirical s_min tail curve plus the matching closed-form reference.

    ``thresholds[i]`` is the actual cutoff sqrt(1 - r/n^ell) (c rho)^ell eps_i
    tested against; ``bound_values`` carries the tail bound where the grid
    point is inside the validity range, NaN elsewhere.
    """

    curve: SmallBallCurve
    thresholds: tuple[float, ...]
    bound_values: tuple[float, ...]


def _screen(gram: np.ndarray, shift: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """True for each Gram whose LDL^T pivots of ``gram - shift * I`` are all finite and > 0.

    The elimination runs on every matrix of the stack at once, one pivot per
    step, in the ``scratch`` arrays ``"mode_gram"`` and ``"schur"`` in turn;
    ``gram`` is left as it was.  Each step is elementwise over the stack, so
    no pivot depends on which matrices share the call.  A passing matrix is
    positive definite up to the rounding of the elimination: with u the unit
    roundoff and r the order, its smallest eigenvalue exceeds
    ``shift - (r + 1) * u * trace(gram)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, section 10.1).  Like ``eigvalsh``, it reads
    the lower triangle.  A NaN pivot fails ``> 0``, and a NaN or infinite
    entry there reaches a later pivot as NaN or -inf, so a non-finite Gram or
    shift never passes.
    """
    rows, r = gram.shape[0], gram.shape[-1]
    # the stack axis last, so that every step runs over contiguous rows of it
    a = scratch.array("mode_gram", (r, r, rows))
    np.copyto(a, gram.transpose(1, 2, 0))
    passed = np.ones(rows, dtype=bool)
    # NaN and inf stay in the matrix that makes them: a non-finite Gram or
    # shift fails at the pivot they reach, and a failed matrix, which goes on
    # dividing by its zero or NaN pivot, stays failed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a.reshape(r * r, rows)[:: r + 1] -= shift
        for k in range(1, r + 1):
            pivot = a[0, 0]
            passed &= (pivot > 0) & (pivot < np.inf)
            if k == r:
                break
            schur = scratch.array(("mode_gram", "schur")[k % 2], (r - k, r - k, rows))
            col = a[1:, 0]
            np.multiply(col[:, None], col / pivot, out=schur)
            np.subtract(a[1:, 1:], schur, out=schur)
            a = schur
    return passed


def _smin_hits(e: SmoothedEnsemble, thresholds: np.ndarray, rng, size: int, scratch: _Scratch) -> np.ndarray:
    """One batch of ``smin_tail_experiment``: hit counts of s_min <= each threshold.

    The factors are drawn whole for the batch, which is the random stream.
    Everything after the draws goes one block of ``_block_rows(2 * r * r)``
    trials at a time, and the SVD redo in chunks of ``_block_rows(n**ell * r)``
    trials, so the batch keeps only the factors and one s_min per trial.
    A trial that ``_screen`` passes at ``max(thresholds)**2 + band`` has its
    s_min above every threshold; it is recorded as inf, a hit nowhere, and
    gets no eigenvalues, SVD or sandwich check.  Every Gram product, trace,
    screen, eigvalsh and SVD acts matrix by matrix, so no value depends on the
    blocks.
    """
    sigma = e.rho / math.sqrt(e.n)
    mats = []
    for j in range(e.ell):
        # base + sigma * G, the same two roundings in place
        a = rng.standard_normal(out=scratch.array(f"a{j}", (size, e.n, e.r)))
        a *= sigma
        a += e.base[j]
        mats.append(a)
    block, chunk = _block_rows(2 * e.r * e.r), _block_rows(e.n**e.ell * e.r)
    top_sq = np.max(thresholds) ** 2
    # a screened trial's s_min is above every threshold
    smin = np.full(size, np.inf)
    violated = 0
    for start in range(0, size, block):
        part = [a[start : start + block] for a in mats]
        rows = len(part[0])
        gram = np.matmul(part[0].transpose(0, 2, 1), part[0], out=scratch.array("gram", (rows, e.r, e.r)))
        mode_gram = scratch.array("mode_gram", (rows, e.r, e.r))
        for a in part[1:]:
            gram *= np.matmul(a.transpose(0, 2, 1), a, out=mode_gram)
        # Why the band certifies the count.  With u the unit roundoff, each
        # computed Gram entry is off by at most n*u*|a_i||a_k| per mode, so
        # the Hadamard product G is off entrywise by at most about
        # ell*(n+1)*u*d_i*d_k, d_i = sqrt(G_ii) the Khatri-Rao column norms;
        # that error matrix has spectral norm <= ell*(n+1)*u*trace(G), and by
        # Weyl it moves every eigenvalue by no more.  ``eigvalsh`` is
        # backward stable and adds O(u)*||G|| <= O(u)*trace(G); the reference
        # SVD's s_min, rounding of the Khatri-Rao entries included, is off by
        # O(ell*u)*s_max, so its square by O(ell*u)*trace(G).
        # Measured, the computed lambda_min and the SVD's s_min^2 differ by
        # under 4e-16*trace(G) (r up to 40, n up to 12, ell up to 4), so 1e-10
        # leaves about six orders of headroom, and it keeps the worst-case
        # bound ~100x inside the band while ell*(n+1) < 1e4.  Outside the
        # band, lambda_min <= t^2 and the SVD's s_min <= t therefore agree:
        # the count is the SVD's count, not a close one.  Inside it (or near
        # lambda_min = 0, where squaring loses the small singular values) the
        # trial is redone by SVD.  NaN fails every comparison below, so it is
        # redone too.
        # The screen passes a trial only if its lambda_min exceeds
        # t_max^2 + band - (r+1)*u*trace(G), which is above t_max^2 by more
        # than the band's worth of rounding while (r+1)*u << 1e-10: the SVD's
        # s_min is above every threshold, so the trial counts no hit, as the
        # SVD would count it.  The screen computes no spectrum, so such a
        # trial skips the sandwich check; a non-finite Gram never passes, so
        # every draw that could fail the check still reaches it.
        band = _GRAM_BAND * np.trace(gram, axis1=1, axis2=2)
        screened = _screen(gram, top_sq + band, scratch)
        spectral = np.flatnonzero(~screened)
        band = band[spectral]
        lam = np.linalg.eigvalsh(gram[spectral])
        lam_min = lam[:, 0]
        certified = (
            np.all(np.isfinite(lam), axis=1)
            & (lam_min > band)
            & np.all(np.abs(lam_min[:, None] - thresholds[None, :] ** 2) > band[:, None], axis=1)
        )
        spectral_smin = np.empty(spectral.size)
        pinv_sq = np.empty(spectral.size)
        spectral_smin[certified] = np.sqrt(lam_min[certified])
        pinv_sq[certified] = np.sum(1.0 / lam[certified], axis=1)
        finite = certified.copy()
        redo = np.flatnonzero(~certified)
        for at in range(0, redo.size, chunk):
            redone = redo[at : at + chunk]
            s = np.linalg.svd(kron([a[spectral[redone]] for a in part]), compute_uv=False)
            spectral_smin[redone] = s[:, -1]
            pinv_sq[redone] = np.sum(1.0 / s**2, axis=1)
            finite[redone] = np.all(np.isfinite(s), axis=1)
        inv_sq = 1.0 / spectral_smin**2
        ok = finite & (pinv_sq >= inv_sq * (1 - 1e-9)) & (pinv_sq <= e.r * inv_sq * (1 + 1e-9))
        violated += spectral.size - np.count_nonzero(ok)
        smin[start + spectral] = spectral_smin
    if violated:
        raise DegeneracyError(
            f"singular-value sandwich violated on {violated} of {size} draws"
            " (non-finite or misordered singular values)"
        )
    return _count_hits(smin, thresholds)


def smin_tail_experiment(e: SmoothedEnsemble, cfg: ExperimentConfig, eps_grid) -> SminTailResult:
    """Monte-Carlo lower tail of s_min of the smoothed Khatri-Rao matrix.

    Per trial, draws the smoothed factors A_1..A_ell and takes s_min^2 as the
    smallest eigenvalue of the r x r Gram G = (A_1^T A_1) * ... * (A_ell^T A_ell)
    of the Khatri-Rao matrix, which is never formed.  First a shifted LDL^T
    screen (``_screen``) passes each trial whose G - (t_max^2 + band) I has
    finite positive pivots: its lambda_min is above t_max^2 + band up to
    (r+1)*u*trace(G) of rounding, so its s_min is above every threshold and
    it needs no eigenvalue (about 99% of the trials at r = 20, n = 8,
    ell = 3, rho = 1 on the default grid).  A trial the screen leaves whose
    smallest eigenvalue is non-finite, at most ``_GRAM_BAND * trace(G)``, or
    within that band of a squared threshold is redone by full SVD of its
    Khatri-Rao matrix, so every hit count equals the SVD's count.  Hits are
    counted against the thresholds sqrt(1 - r/n^ell) * (c rho)^ell * eps, one
    per point of the decreasing ``eps_grid``.  The singular-value sandwich
    1/s_min^2 <= ||A^+||_HS^2 <= r/s_min^2 is checked on every draw the
    screen leaves, from the eigenvalues or the redone singular values; a
    failure (non-finite or misordered values) raises ``DegeneracyError``.  A
    non-finite Gram never passes the screen, so every draw that could fail
    the check reaches it.
    Memory per batch is O(size * ell*n*r) for the draws plus one block: three
    r x r arrays (Gram, mode Gram, screen) for each of ``_block_rows(2 * r * r)``
    trials, or the n^ell x r matrices of ``_block_rows(n**ell * r)`` redone
    trials.  The constants c and C are those of the default ``BoundConfig``.
    """
    bound_cfg = BoundConfig()
    prefactor = _smin_scale(e.r, e.n, e.ell, e.rho, bound_cfg.c_small)
    eps = _eps_grid(eps_grid)
    # squared thresholds meet Gram eigenvalues, so they too must be finite floats,
    # the largest grid threshold's as well as the scale's
    widest = prefactor * max(1.0, float(eps[0]))
    if not math.isfinite(widest * widest):
        raise RangeError(f"squared threshold overflows a float at rho = {e.rho:g}, l = {e.ell}, eps = {eps[0]:g}")
    thresholds = prefactor * eps
    counts = _sum_over_batches(cfg, lambda rng, size, scratch: _smin_hits(e, thresholds, rng, size, scratch))
    curve = SmallBallCurve(eps, counts, cfg.trials, cfg.confidence)
    bounds = []
    for x in eps:
        try:
            bounds.append(bound_smin_tail(float(x), e.r, e.n, e.ell, e.rho, bound_cfg)[1])
        except RangeError:
            bounds.append(math.nan)
    return SminTailResult(curve=curve, thresholds=tuple(thresholds.tolist()), bound_values=tuple(bounds))
