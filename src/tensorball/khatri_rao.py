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
float32 LDL^T of G - (t_max^2 + band) I, its shift widened by the float32
rounding (Higham 2002, section 10.1), whose pivots are all finite and
positive puts lambda_min above t_max^2 + band, outside the band above the
top threshold, where the trial counts no hit.

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
    """True for each Gram whose smallest eigenvalue a float32 LDL^T elimination proves above ``shift``.

    Each Gram G of order r is scaled by c, the power of two with c * |trace(G)|
    in [1/2, 1), and the elimination runs in float32 on c * (G - (shift + w) I),
    where the widening w, about (r + 2) * 2^-24 * trace(G) for a shift >= 0,
    pays for the float32 cast and every rounding of the elimination.  A Gram
    passes when all its pivots are finite and > 0, and then its lambda_min is
    above ``shift`` itself.  The converse holds but for about as much again: a
    Gram whose lambda_min exceeds shift + 2 w passes (checked in the tests; it
    decides speed, never a count).  Like ``eigvalsh``, the screen reads the
    lower triangle.  The elimination runs on every matrix of the stack at
    once, one pivot per step, in the ``scratch`` arrays ``"mode_gram"`` and
    ``"schur"`` in turn; ``gram`` is left as it was.  Each step is elementwise
    over the stack, so no pivot depends on which matrices share the call.  A
    NaN pivot fails ``> 0``, and a NaN or infinite entry, or one past the
    float32 range after scaling, reaches a later pivot as NaN or -inf, so a
    non-finite Gram or shift never passes.
    """
    rows, r = gram.shape[0], gram.shape[-1]
    u = 2.0**-24
    # Why a pass proves lambda_min(G) > s.  With s' = s + w, X = c (G - s' I) is exact in float64
    # but for one rounding of each G_ii - s', and its cast A = X + E has |E_ij| <= u |X_ij|.  The
    # elimination computes L D L^T = A + F with |F| <= gamma_{r+1} |L| D |L^T| (Higham 2002,
    # section 10.1: an entry meets a division, a product and a subtraction per update, r + 1
    # roundings in all once folded).  A pass means D > 0, so M = L D L^T is positive definite, and
    # by Cauchy-Schwarz |L| D |L^T| and |A| - |F| are entrywise at most sqrt(M_ii M_jj), a matrix
    # of spectral norm trace(M).  So ||F|| + ||E|| <= (gamma_{r+1} + u (1 + gamma_{r+1}) / (1 - u))
    # trace(M), with trace(M) <= trace(A) / (1 - gamma_{r+1}) <= (1 + u) trace(X) / (1 - gamma_{r+1})
    # (A's diagonal is positive), and by Weyl lambda_min(X) > -(r + 2) u (1 + u) / ((1 - u)
    # (1 - 2 (r + 1) u)) trace(X).  With T = |trace(G)| - r min(s, 0), trace(X) <= c T, so
    # lambda_min(G) > s' less that factor times T.  The widening's 1 - 2 (r + 3) u leaves
    # (r + 2) 2^-48 T over, more than the float64 roundings of the trace, w, s' and G_ii - s' (a
    # few r 2^-53 T) and the float32 underflows (about 3 r^2 2^-150 / c, and 1/c <= 2 T but for a
    # zero trace, whose Gram with a diagonal >= 0 is 0) take.  It needs 2 (r + 3) u < 1, which
    # every r x r Gram that fits in memory meets.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        trace = np.trace(gram, axis1=1, axis2=2)
        widened = shift + (r + 2) * u / (1 - 2 * (r + 3) * u) * (np.abs(trace) - r * np.minimum(shift, 0))
        # |trace| * scale in [1/2, 1); a trace below 2^-1024 gives a scale of inf, and NaN or inf
        # one of 1, and either a Gram that fails
        scale = np.ldexp(1.0, -np.frexp(trace)[1])
        # the stack axis last, so that every step runs over contiguous rows of it
        a = scratch.array("mode_gram", (r, r, rows), np.float32)
        np.multiply(gram.transpose(1, 2, 0), scale, out=a)
        diagonal = np.diagonal(gram, axis1=1, axis2=2).T - widened
        diagonal *= scale
        a.reshape(r * r, rows)[:: r + 1] = diagonal
        passed = np.ones(rows, dtype=bool)
        # NaN and inf stay in the matrix that makes them: a non-finite Gram or
        # shift fails at the pivot they reach, and a failed matrix, which goes on
        # dividing by its zero or NaN pivot, stays failed
        for k in range(1, r + 1):
            pivot = a[0, 0]
            passed &= (pivot > 0) & (pivot < np.inf)
            if k == r:
                break
            schur = scratch.array(("mode_gram", "schur")[k % 2], (r - k, r - k, rows), np.float32)
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
        gram = scratch.array("gram", (rows, e.r, e.r))
        mode_gram = scratch.array("mode_gram", (rows, e.r, e.r))
        transposed = scratch.array("transposed", (rows, e.r, e.n))
        for j, a in enumerate(part):
            # A^T copied whole, so that np.matmul runs one BLAS gemm per trial; on the
            # transposed view it takes a strided loop of its own
            np.copyto(transposed, a.transpose(0, 2, 1))
            np.matmul(transposed, a, out=mode_gram if j else gram)
            if j:
                gram *= mode_gram
        # Why the band certifies the count.  With u the unit roundoff, each
        # computed Gram entry is off by at most n*u*|a_i||a_k| per mode, in
        # any order of summation (BLAS's gemm included), so
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
        # t_max^2 + band (its float32 rounding is paid for inside it), which
        # is above t_max^2 by the band's worth of rounding: the SVD's s_min is
        # above every threshold, so the trial counts no hit, as the SVD would
        # count it.  The screen computes no spectrum, so such a trial skips
        # the sandwich check; a non-finite Gram never passes, so every draw
        # that could fail the check still reaches it.
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
    of the Khatri-Rao matrix, which is never formed.  Each mode Gram is one
    BLAS gemm per trial on a contiguous copy of A_j^T.  First a shifted LDL^T
    screen (``_screen``) passes each trial whose G - (t_max^2 + band) I,
    scaled by a power of two near 1/trace(G) and cast to float32, has finite
    positive pivots after its shift is widened by about (r+2)*2^-24*trace(G)
    for the float32 rounding: its lambda_min is above t_max^2 + band, so its
    s_min is above every threshold and it needs no eigenvalue (about 99% of
    the trials at r = 20, n = 8, ell = 3, rho = 1 on the default grid).  A
    trial the screen leaves whose smallest eigenvalue is non-finite, at most
    ``_GRAM_BAND * trace(G)``, or within that band of a squared threshold is
    redone by full SVD of its Khatri-Rao matrix, so every hit count equals
    the SVD's count.  Hits are counted against the thresholds
    sqrt(1 - r/n^ell) * (c rho)^ell * eps, one per point of the decreasing
    ``eps_grid``.  The singular-value sandwich
    1/s_min^2 <= ||A^+||_HS^2 <= r/s_min^2 is checked on every draw the
    screen leaves, from the eigenvalues or the redone singular values; a
    failure (non-finite or misordered values) raises ``DegeneracyError``.  A
    non-finite Gram never passes the screen, so every draw that could fail
    the check reaches it.
    Memory per batch is O(size * ell*n*r) for the draws plus one block: for
    each of ``_block_rows(2 * r * r)`` trials the Gram and a mode Gram, whose
    bytes the screen reuses in float32, an r x n copy of a factor and the
    screen's float32 Schur complement, or the n^ell x r matrices of
    ``_block_rows(n**ell * r)`` redone trials.  The constants c and C are
    those of the default ``BoundConfig``.
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
