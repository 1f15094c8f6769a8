"""Simultaneous-diagonalization decomposition and smoothed recovery experiments.

Order-3 tensors are decomposed from the eigenvectors of two random mode-3
contractions; higher orders reduce to order 3 by grouping modes into
Khatri-Rao flattenings.  Recovery quality is always measured after optimal
component matching, against the smoothed factors (the objects the smoothed
pipeline can actually recover), never the unperturbed base.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DegeneracyError, ValidationError
from .khatri_rao import SmoothedEnsemble, khatri_rao, sample_smoothed_factors

_UNIT_TOL = 1e-10

# relative tolerance of the probe spectra in ``simultaneous_diagonalize``
_SPECTRAL_TOL = 1e-10


@dataclass(frozen=True)
class Rank1Terms:
    """Weighted sum of rank-one terms with canonicalized unit factors.

    ``factors[j]`` is an (n_j x r) matrix whose column i is the mode-j unit
    vector of term i; the first nonzero entry of every column is nonnegative
    and scale (including sign) lives in ``weights``.  ``residual`` optionally
    carries the relative reconstruction error reported by a decomposition.
    """

    weights: np.ndarray
    factors: tuple[np.ndarray, ...]
    residual: float | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        mats = tuple(np.atleast_2d(np.asarray(f, dtype=float)) for f in self.factors)
        r = w.size
        if len(mats) < 1 or any(m.shape[1] != r for m in mats):
            raise ValidationError("each factor matrix needs one column per weight")
        for j, m in enumerate(mats):
            norms = np.linalg.norm(m, axis=0)
            if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
                raise ValidationError(f"mode-{j} factor columns must be unit vectors (within {_UNIT_TOL})")
            for i in range(r):
                nz = np.flatnonzero(m[:, i])
                if nz.size and m[nz[0], i] < 0:
                    raise ValidationError(f"mode-{j} column {i} violates the nonnegative-leading-sign convention")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "factors", mats)

    @property
    def r(self) -> int:
        return self.weights.size

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(m.shape[0] for m in self.factors)

    @classmethod
    def from_raw(cls, factors, weights=None, residual: float | None = None) -> "Rank1Terms":
        """Normalize arbitrary factor columns, absorbing norms and signs into weights."""
        mats = [np.atleast_2d(np.asarray(f, dtype=float)).copy() for f in factors]
        r = mats[0].shape[1]
        w = np.ones(r) if weights is None else np.asarray(weights, dtype=float).ravel().copy()
        if w.size != r:
            raise ValidationError(f"need {r} weights, got {w.size}")
        for m in mats:
            norms = np.linalg.norm(m, axis=0)
            if np.any(norms == 0):
                raise ValidationError("cannot normalize a zero factor column")
            m /= norms
            w *= norms
            for i in range(r):
                nz = np.flatnonzero(m[:, i])
                if m[nz[0], i] < 0:
                    m[:, i] = -m[:, i]
                    w[i] = -w[i]
        return cls(weights=w, factors=tuple(mats), residual=residual)

    def reconstruct(self) -> np.ndarray:
        """Dense tensor sum of the weighted rank-one terms."""
        return (khatri_rao(self.factors) @ self.weights).reshape(self.shape)

@dataclass(frozen=True)
class RecoveryReport:
    """Per-component recovery errors after optimal matching and sign alignment."""

    permutation: tuple[int, ...]
    factor_errors: np.ndarray
    weight_errors: np.ndarray
    max_error: float
    diagnostics: dict | None = None

    def __post_init__(self):
        perm = tuple(int(p) for p in self.permutation)
        if sorted(perm) != list(range(len(perm))):
            raise ValidationError(f"permutation must be a bijection on 0..{len(perm) - 1}")
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "factor_errors", np.asarray(self.factor_errors, dtype=float))
        object.__setattr__(self, "weight_errors", np.asarray(self.weight_errors, dtype=float))

    def to_json_dict(self) -> dict:
        return {
            "permutation": list(self.permutation),
            "factor_errors": self.factor_errors.tolist(),
            "weight_errors": self.weight_errors.tolist(),
            "max_error": self.max_error,
            "diagnostics": self.diagnostics,
        }

    def to_csv_rows(self) -> list[dict]:
        rows = []
        for i, j in enumerate(self.permutation):
            row = {"component": i, "matched_to": j, "weight_error": self.weight_errors[i]}
            for mode in range(self.factor_errors.shape[1]):
                row[f"factor_error_mode{mode + 1}"] = self.factor_errors[i, mode]
            rows.append(row)
        return rows


def contract_mode3(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Mode-3 contraction (M_a)_pq = sum_k T_pqk a_k."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    if t.ndim != 3 or a.shape != (t.shape[2],):
        raise ValidationError(f"need an order-3 tensor and a length-{t.shape[-1]} vector")
    return np.tensordot(t, a, axes=(2, 0))


def _pinv_rank(m: np.ndarray, r: int) -> np.ndarray | None:
    """Pseudo-inverse truncated to the top r singular values; None if rank-deficient.

    Truncating at the known rank, not at a threshold, keeps entry noise from
    leaking 1/noise-sized directions into the eigenproblem.
    """
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[r - 1] <= _SPECTRAL_TOL * s[0]:
        return None
    return (vt[:r].T / s[:r]) @ u[:, :r].T


def _realify_columns(vals, vecs, idx):
    """Phase-align selected eigenvectors and drop residual imaginary parts."""
    out = np.empty((vecs.shape[0], len(idx)))
    for k, i in enumerate(idx):
        v = vecs[:, i]
        pivot = np.argmax(np.abs(v))
        phase = v[pivot] / abs(v[pivot])
        w = np.real(v / phase)
        out[:, k] = w / np.linalg.norm(w)
    return out, np.real(vals[idx])


def simultaneous_diagonalize(t: np.ndarray, r: int, rng=None) -> Rank1Terms:
    """Recover rank-one terms of an order-3 tensor from two Gaussian probes.

    Eigenvectors of M_a M_b^+ give the mode-1 factors, of (M_a)^T (M_b^T)^+
    the mode-2 factors (paired by eigenvalue), and least squares recovers the
    weighted mode-3 factors.  Eigenvalue collisions or complex spectra
    trigger fresh probes, up to 5 draws, then ``DegeneracyError``.  The
    relative reconstruction residual is stored on the result.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValidationError(f"need an order-3 tensor, got order {t.ndim}")
    n1, n2, n3 = t.shape
    if not 1 <= r <= min(n1, n2):
        raise ValidationError(f"rank r = {r} unsupported: need 1 <= r <= min(n1, n2) = {min(n1, n2)}")
    rng = np.random.default_rng(rng)
    t_norm = np.linalg.norm(t)
    if t_norm == 0:
        raise ValidationError("cannot decompose the zero tensor")
    failure = None
    for _ in range(5):
        a = rng.standard_normal(n3)
        b = rng.standard_normal(n3)
        m_a = contract_mode3(t, a)
        m_b = contract_mode3(t, b)
        pinv_b = _pinv_rank(m_b, r)
        if pinv_b is None:
            failure = "probe contraction nearly rank-deficient"
            continue
        eig_u = np.linalg.eig(m_a @ pinv_b)
        eig_v = np.linalg.eig(m_a.T @ pinv_b.T)

        def select(vals):
            order = np.argsort(-np.abs(vals), kind="stable")
            return order[:r], order[r:]

        idx_u, rest_u = select(eig_u.eigenvalues)
        idx_v, rest_v = select(eig_v.eigenvalues)
        radius = max(np.max(np.abs(eig_u.eigenvalues)), np.max(np.abs(eig_v.eigenvalues)))
        if radius == 0:
            failure = "all probe eigenvalues vanished"
            continue
        sel = np.concatenate([eig_u.eigenvalues[idx_u], eig_v.eigenvalues[idx_v]])
        if np.max(np.abs(np.imag(sel))) > _SPECTRAL_TOL * radius:
            failure = "complex eigenvalues beyond tolerance"
            continue
        lam_u = np.real(eig_u.eigenvalues[idx_u])
        lam_v = np.real(eig_v.eigenvalues[idx_v])
        gaps = np.abs(lam_u[:, None] - lam_u[None, :])[np.triu_indices(r, 1)]
        if gaps.size and np.min(gaps) <= _SPECTRAL_TOL * radius:
            failure = "eigenvalue collision within tolerance"
            continue
        leak_u = np.max(np.abs(eig_u.eigenvalues[rest_u]), initial=0.0)
        leak_v = np.max(np.abs(eig_v.eigenvalues[rest_v]), initial=0.0)
        if min(np.min(np.abs(lam_u)), np.min(np.abs(lam_v))) <= max(leak_u, leak_v) + _SPECTRAL_TOL * radius:
            failure = "spectrum does not separate rank-r part from the null space"
            continue
        u_mat, lam_u = _realify_columns(eig_u.eigenvalues, eig_u.eigenvectors, idx_u)
        v_mat, lam_v = _realify_columns(eig_v.eigenvalues, eig_v.eigenvectors, idx_v)
        _, pairing = linear_sum_assignment(np.abs(lam_u[:, None] - lam_v[None, :]))
        v_mat = v_mat[:, pairing]
        design = khatri_rao([u_mat, v_mat])
        sol, *_ = np.linalg.lstsq(design, t.reshape(n1 * n2, n3), rcond=None)
        scales = np.linalg.norm(sol, axis=1)
        if np.any(scales == 0):
            failure = "a recovered component collapsed to zero"
            continue
        terms = Rank1Terms.from_raw([u_mat, v_mat, sol.T], weights=None)
        residual = float(np.linalg.norm(t - terms.reconstruct()) / t_norm)
        return dataclasses.replace(terms, residual=residual)
    raise DegeneracyError(f"no usable probe pair after 5 draws: {failure}")


@dataclass(frozen=True)
class FoldingPlan:
    """How the modes of an order-l tensor were grouped down to order 3."""

    shape: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]

    @property
    def grouped_shape(self) -> tuple[int, ...]:
        return tuple(math.prod(self.shape[j] for j in g) for g in self.groups)


def folding_plan(shape) -> FoldingPlan:
    """Mode grouping 1..floor((l-1)/2), the rest up to l-1, then l alone."""
    shape = tuple(int(n) for n in shape)
    ell = len(shape)
    if ell < 3:
        raise ValidationError(f"folding needs order >= 3, got {ell}")
    g1 = (ell - 1) // 2
    groups = (tuple(range(g1)), tuple(range(g1, ell - 1)), (ell - 1,))
    return FoldingPlan(shape=shape, groups=groups)


def fold_higher_order(terms: Rank1Terms) -> tuple[FoldingPlan, Rank1Terms]:
    """Group the modes of order >= 4 terms into order-3 Khatri-Rao flattenings."""
    if terms.order < 4:
        raise ValidationError(f"fold_higher_order needs order >= 4, got {terms.order}")
    plan = folding_plan(terms.shape)
    grouped = [khatri_rao([terms.factors[j] for j in g]) for g in plan.groups]
    folded = Rank1Terms.from_raw(grouped, weights=terms.weights.copy())
    return plan, folded


def _best_rank1(vec: np.ndarray, dims: tuple[int, ...]):
    """Split a (nearly) simple flattened vector into unit factors plus a scale."""
    if len(dims) == 1:
        norm = float(np.linalg.norm(vec))
        if norm == 0:
            raise ValidationError("cannot factor a zero vector")
        return [vec / norm], norm
    mat = vec.reshape(dims[0], -1)
    u_mat, s, vt = np.linalg.svd(mat, full_matrices=False)
    tail, scale = _best_rank1(s[0] * vt[0], dims[1:])
    return [u_mat[:, 0]] + tail, scale


def unfold_terms(plan: FoldingPlan, folded: Rank1Terms) -> Rank1Terms:
    """Invert the fold: split grouped factor columns back into per-mode unit vectors."""
    if folded.order != 3:
        raise ValidationError("unfold expects order-3 grouped terms")
    r = folded.r
    ell = len(plan.shape)
    new_factors = [np.empty((plan.shape[j], r)) for j in range(ell)]
    new_weights = folded.weights.copy()
    for i in range(r):
        for g_idx, group in enumerate(plan.groups):
            col = folded.factors[g_idx][:, i]
            dims = tuple(plan.shape[j] for j in group)
            if len(dims) == 1:
                new_factors[group[0]][:, i] = col
            else:
                parts, scale = _best_rank1(col, dims)
                for j, part in zip(group, parts):
                    new_factors[j][:, i] = part
                new_weights[i] *= scale
    return Rank1Terms.from_raw(new_factors, weights=new_weights, residual=folded.residual)


def match_components(truth: Rank1Terms, est: Rank1Terms) -> RecoveryReport:
    """Optimal assignment of estimated to true components, then per-mode errors.

    The score of a pair is the product over modes of |cosine similarity|;
    matching maximizes the total score (Hungarian method).  Signs are aligned
    per mode before measuring errors, with the accumulated flip applied to
    the estimated weight.
    """
    if truth.order != est.order or truth.shape != est.shape:
        raise ValidationError("truth and estimate must share order and shape")
    if truth.r != est.r:
        raise ValidationError(f"component counts differ: {truth.r} vs {est.r}")
    r = truth.r
    score = np.ones((r, r))
    for mode in range(truth.order):
        score *= np.abs(truth.factors[mode].T @ est.factors[mode])
    _, col = linear_sum_assignment(-score)
    factor_errors = np.zeros((r, truth.order))
    weight_errors = np.zeros(r)
    for i in range(r):
        j = col[i]
        flip = 1.0
        for mode in range(truth.order):
            tv = truth.factors[mode][:, i]
            ev = est.factors[mode][:, j]
            sign = 1.0 if float(tv @ ev) >= 0 else -1.0
            flip *= sign
            factor_errors[i, mode] = float(np.linalg.norm(tv - sign * ev))
        aligned_weight = est.weights[j] * flip
        denom = max(abs(truth.weights[i]), np.finfo(float).tiny)
        weight_errors[i] = abs(truth.weights[i] - aligned_weight) / denom
    max_error = float(max(factor_errors.max(), weight_errors.max()))
    return RecoveryReport(
        permutation=tuple(int(c) for c in col),
        factor_errors=factor_errors,
        weight_errors=weight_errors,
        max_error=max_error,
    )


def decompose_smoothed(e: SmoothedEnsemble, noise_scale: float, rng=None) -> RecoveryReport:
    """End-to-end smoothed recovery: draw, perturb, fold, diagonalize, match.

    Builds the dense tensor of one smoothed draw, adds i.i.d. uniform entry
    noise of the given scale, reduces to order 3 by mode grouping, runs the
    simultaneous diagonalization and matches the result against the smoothed
    factors.  The report's diagnostics carry the smallest singular values of
    the two grouped Khatri-Rao matrices and the reconstruction residual.
    """
    if e.ell < 3:
        raise ValidationError(f"decomposition needs ell >= 3, got {e.ell}")
    if noise_scale < 0:
        raise ValidationError("noise_scale must be nonnegative")
    plan = folding_plan((e.n,) * e.ell)
    max_rank = plan.grouped_shape[0]
    if e.r > max_rank:
        raise ValidationError(f"need r <= n^floor((ell-1)/2) = {max_rank}, got r = {e.r}")
    rng = np.random.default_rng(rng)
    factors = sample_smoothed_factors(e, rng)
    truth = Rank1Terms.from_raw([f.copy() for f in factors])
    dense = truth.reconstruct()
    if noise_scale > 0:
        dense = dense + rng.uniform(-noise_scale, noise_scale, dense.shape)
    folded = dense.reshape(plan.grouped_shape)
    est3 = simultaneous_diagonalize(folded, e.r, rng)
    est = est3 if e.ell == 3 else unfold_terms(plan, est3)
    report = match_components(truth, est)
    diagnostics = {
        "smin_group1": float(np.linalg.svd(khatri_rao([factors[j] for j in plan.groups[0]]), compute_uv=False)[-1]),
        "smin_group2": float(np.linalg.svd(khatri_rao([factors[j] for j in plan.groups[1]]), compute_uv=False)[-1]),
        "residual": est3.residual,
    }
    return dataclasses.replace(report, diagnostics=diagnostics)
