"""Khatri-Rao products, the Moore-Penrose/projection identity, and smoothed ensembles.

The central identity: for a full-row-rank matrix, the squared Hilbert-
Schmidt norm of the pseudo-inverse equals the sum over rows of inverse
squared distances to the span of the other rows.  Both sides are computed
by independent routes (SVD vs least-squares residuals) so they can cross-
check each other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, HypothesisViolationError, ValidationError
from .exact_laws import BoundConfig, bound_smin_tail
from .montecarlo import ExperimentConfig, SmallBallCurve, _sum_over_batches
from .tensor_core import kron

_RANK_TOL = 1e-12


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


def pinv_hs_norm_sq(a: np.ndarray, rank_tol: float = _RANK_TOL) -> float:
    """Sum of 1/s_i^2 over the singular values, via full SVD.

    Requires full rank min(rows, cols); a singular value below
    ``rank_tol * s_max`` raises ``DegeneracyError``.
    """
    a = np.asarray(a, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0 or s[-1] < rank_tol * s[0]:
        raise DegeneracyError(
            f"matrix is rank-deficient to tolerance (s_min/s_max = {s[-1] / max(s[0], 1e-300):.3e})"
        )
    return float(np.sum(1.0 / s**2))


def projection_distance_sum(a: np.ndarray, rank_tol: float = _RANK_TOL) -> float:
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
        if dist_sq <= (rank_tol * max(scale, 1.0)) ** 2:
            raise DegeneracyError(f"row {i} lies in the span of the other rows (distance {math.sqrt(dist_sq):.3e})")
        total += 1.0 / dist_sq
    return total


@dataclass(frozen=True)
class SmoothedEnsemble:
    """Base simple tensors plus per-mode Gaussian smoothing.

    ``base`` holds one (n x r) matrix per mode; column i of mode j is the
    base vector X_i^(j), with norm at most ``norm_cap``.  Smoothing adds
    independent N(0, rho^2/n I_n) noise per vector.
    """

    r: int
    n: int
    ell: int
    rho: float
    base: tuple[np.ndarray, ...]
    norm_cap: float = 1.0

    def __post_init__(self):
        if self.r < 1 or self.n < 1 or self.ell < 1:
            raise ValidationError("r, n and ell must be positive")
        if self.rho < 0 or self.norm_cap <= 0:
            raise ValidationError("need rho >= 0 and norm_cap > 0")
        base = tuple(np.asarray(b, dtype=float) for b in self.base)
        if len(base) != self.ell or any(b.shape != (self.n, self.r) for b in base):
            raise ValidationError(f"base must be {self.ell} matrices of shape ({self.n}, {self.r})")
        worst = max(float(np.max(np.linalg.norm(b, axis=0))) for b in base)
        if worst > self.norm_cap + 1e-12:
            raise ValidationError(f"base vector norm {worst} exceeds norm_cap {self.norm_cap}")
        object.__setattr__(self, "base", base)

    @classmethod
    def random(cls, r: int, n: int, ell: int, rho: float, norm_cap: float = 1.0, rng=None) -> "SmoothedEnsemble":
        """Base vectors drawn uniformly on the radius-``norm_cap`` sphere."""
        rng = np.random.default_rng(rng)
        base = []
        for _ in range(ell):
            g = rng.standard_normal((n, r))
            base.append(norm_cap * g / np.linalg.norm(g, axis=0))
        return cls(r=r, n=n, ell=ell, rho=rho, base=tuple(base), norm_cap=norm_cap)

    def to_json(self) -> str:
        return json.dumps(
            {
                "r": self.r,
                "n": self.n,
                "ell": self.ell,
                "rho": self.rho,
                "norm_cap": self.norm_cap,
                "base": [b.tolist() for b in self.base],
            }
        )

    @classmethod
    def from_json(cls, s: str) -> "SmoothedEnsemble":
        d = json.loads(s)
        return cls(
            r=d["r"],
            n=d["n"],
            ell=d["ell"],
            rho=d["rho"],
            norm_cap=d["norm_cap"],
            base=tuple(np.asarray(b) for b in d["base"]),
        )


def sample_smoothed_factors(e: SmoothedEnsemble, rng) -> list[np.ndarray]:
    """One smoothed draw of the per-mode factor matrices X + G."""
    rng = np.random.default_rng(rng)
    if e.rho == 0:
        return [b.copy() for b in e.base]
    sigma = e.rho / math.sqrt(e.n)
    return [b + sigma * rng.standard_normal((e.n, e.r)) for b in e.base]


def sample_smoothed(e: SmoothedEnsemble, rng) -> np.ndarray:
    """Khatri-Rao matrix (n^ell x r) of one smoothed draw."""
    return khatri_rao(sample_smoothed_factors(e, rng))


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


def smin_tail_experiment(
    e: SmoothedEnsemble,
    cfg: ExperimentConfig,
    bound_cfg: BoundConfig = BoundConfig(),
) -> SminTailResult:
    """Monte-Carlo lower tail of s_min of the smoothed Khatri-Rao matrix.

    Per trial, draws the smoothed factors, forms the Khatri-Rao matrix and
    takes its smallest singular value by full SVD; hits are counted against
    the threshold grid sqrt(1 - r/n^ell) * (c rho)^ell * eps.  The singular-
    value sandwich 1/s_min^2 <= ||A^+||_HS^2 <= r/s_min^2 is checked on
    every draw; a failure (non-finite or misordered singular values) raises
    ``DegeneracyError``.
    """
    if e.r > e.n**e.ell / 2:
        raise HypothesisViolationError(f"need r <= n^ell/2 = {e.n ** e.ell / 2}, got r = {e.r}")
    if e.rho <= 0:
        raise ValidationError("the smoothed experiment needs rho > 0")
    eps = np.asarray(cfg.epsilon_grid)
    prefactor = math.sqrt(1.0 - e.r / e.n**e.ell) * (bound_cfg.c_small * e.rho) ** e.ell
    thresholds = prefactor * eps
    sigma = e.rho / math.sqrt(e.n)

    def kernel(rng, size):
        mats = [e.base[j][None, :, :] + sigma * rng.standard_normal((size, e.n, e.r)) for j in range(e.ell)]
        s = np.linalg.svd(kron(mats), compute_uv=False)
        smin = s[:, -1]
        pinv_sq = np.sum(1.0 / s**2, axis=1)
        inv_sq = 1.0 / smin**2
        finite = np.all(np.isfinite(s), axis=1)
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
