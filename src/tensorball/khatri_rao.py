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
the SVD's count.

The rank tolerance, the rounding band, the base-vector norm cap (1) and the
bound constants (``BoundConfig()``) are fixed module values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, HypothesisViolationError, RangeError, ValidationError
from .exact_laws import BoundConfig, bound_smin_tail
from .montecarlo import ExperimentConfig, SmallBallCurve, _sum_over_batches
from .tensor_core import kron

_RANK_TOL = 1e-12

# Relative half-width, in units of trace(G), of the band around 0 and around
# each squared threshold inside which a Gram eigenvalue is not trusted to
# decide a count (derivation in ``smin_tail_experiment``).
_GRAM_BAND = 1e-10


def khatri_rao(factor_matrices) -> np.ndarray:
    """Columnwise Kronecker product: column i is the flattened simple tensor
    of the i-th columns of the factors, in the global row-major order."""
    mats = [np.atleast_2d(np.asarray(a, dtype=float)) for a in factor_matrices]
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
        if self.r < 1 or self.n < 1 or self.ell < 1:
            raise ValidationError("r, n and ell must be positive")
        if self.rho < 0:
            raise ValidationError("need rho >= 0")
        base = tuple(np.asarray(b, dtype=float) for b in self.base)
        if len(base) != self.ell or any(b.shape != (self.n, self.r) for b in base):
            raise ValidationError(f"base must be {self.ell} matrices of shape ({self.n}, {self.r})")
        worst = max(float(np.max(np.linalg.norm(b, axis=0))) for b in base)
        if worst > 1.0 + 1e-12:
            raise ValidationError(f"base vector norm {worst} exceeds 1")
        object.__setattr__(self, "base", base)

    @classmethod
    def random(cls, r: int, n: int, ell: int, rho: float, rng=None) -> "SmoothedEnsemble":
        """Base vectors drawn uniformly on the unit sphere."""
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


def smin_tail_experiment(e: SmoothedEnsemble, cfg: ExperimentConfig) -> SminTailResult:
    """Monte-Carlo lower tail of s_min of the smoothed Khatri-Rao matrix.

    Per trial, draws the smoothed factors A_1..A_ell and takes s_min^2 as the
    smallest eigenvalue of the r x r Gram G = (A_1^T A_1) * ... * (A_ell^T A_ell)
    of the Khatri-Rao matrix, which is never formed.  A trial whose smallest
    eigenvalue is non-finite, at most ``_GRAM_BAND * trace(G)``, or within
    that band of a squared threshold is redone by full SVD of its Khatri-Rao
    matrix, so every hit count equals the SVD's count.  Hits are counted
    against the threshold grid sqrt(1 - r/n^ell) * (c rho)^ell * eps.  The
    singular-value sandwich 1/s_min^2 <= ||A^+||_HS^2 <= r/s_min^2 is checked
    on every draw, from the eigenvalues or the redone singular values; a
    failure (non-finite or misordered values) raises ``DegeneracyError``.
    Memory per batch is O(size * (ell*n*r + r^2)) plus the n^ell x r
    matrices of the redone trials.  The constants c and C are those of the
    default ``BoundConfig``.
    """
    bound_cfg = BoundConfig()
    if e.r > e.n**e.ell / 2:
        raise HypothesisViolationError(f"need r <= n^ell/2 = {e.n ** e.ell / 2}, got r = {e.r}")
    if e.rho <= 0:
        raise ValidationError("the smoothed experiment needs rho > 0")
    eps = np.asarray(cfg.epsilon_grid)
    try:
        prefactor = math.sqrt(1.0 - e.r / e.n**e.ell) * (bound_cfg.c_small * e.rho) ** e.ell
    except OverflowError:
        prefactor = math.inf
    # squared thresholds meet Gram eigenvalues, so they too must be finite floats
    if not math.isfinite(prefactor * prefactor):
        raise RangeError(f"threshold scale (c rho)^l squared overflows a float at rho = {e.rho:g}, l = {e.ell}")
    thresholds = prefactor * eps
    thresholds_sq = thresholds**2
    sigma = e.rho / math.sqrt(e.n)

    def kernel(rng, size):
        mats = [e.base[j][None, :, :] + sigma * rng.standard_normal((size, e.n, e.r)) for j in range(e.ell)]
        gram = np.matmul(mats[0].transpose(0, 2, 1), mats[0])
        for a in mats[1:]:
            gram *= np.matmul(a.transpose(0, 2, 1), a)
        lam = np.linalg.eigvalsh(gram)
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
        band = _GRAM_BAND * np.trace(gram, axis1=1, axis2=2)
        lam_min = lam[:, 0]
        certified = (
            np.all(np.isfinite(lam), axis=1)
            & (lam_min > band)
            & np.all(np.abs(lam_min[:, None] - thresholds_sq[None, :]) > band[:, None], axis=1)
        )
        smin = np.empty(size)
        pinv_sq = np.empty(size)
        smin[certified] = np.sqrt(lam_min[certified])
        pinv_sq[certified] = np.sum(1.0 / lam[certified], axis=1)
        finite = certified.copy()
        redo = np.flatnonzero(~certified)
        if redo.size:
            s = np.linalg.svd(kron([a[redo] for a in mats]), compute_uv=False)
            smin[redo] = s[:, -1]
            pinv_sq[redo] = np.sum(1.0 / s**2, axis=1)
            finite[redo] = np.all(np.isfinite(s), axis=1)
        inv_sq = 1.0 / smin**2
        ok = finite & (pinv_sq >= inv_sq * (1 - 1e-9)) & (pinv_sq <= e.r * inv_sq * (1 + 1e-9))
        if not np.all(ok):
            raise DegeneracyError(
                f"singular-value sandwich violated on {size - np.count_nonzero(ok)} of {size} draws"
                " (non-finite or misordered singular values)"
            )
        return np.count_nonzero(smin[:, None] <= thresholds[None, :], axis=0)

    counts = _sum_over_batches(cfg, kernel)
    curve = SmallBallCurve(
        epsilon_grid=cfg.epsilon_grid,
        hit_counts=tuple(int(c) for c in counts),
        trials=cfg.trials,
        confidence=cfg.confidence,
        scaling="smin-threshold",
    )
    bounds = []
    limit = math.exp(-bound_cfg.C_main * e.ell)
    for x in eps:
        if 0 < x < limit:
            bounds.append(bound_smin_tail(float(x), e.r, e.n, e.ell, e.rho, bound_cfg)[1])
        else:
            bounds.append(math.nan)
    return SminTailResult(curve=curve, thresholds=tuple(thresholds.tolist()), bound_values=tuple(bounds))
