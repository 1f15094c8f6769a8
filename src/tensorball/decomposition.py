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

from .errors import DegeneracyError, ValidationError
from .khatri_rao import SmoothedEnsemble, _matrices, khatri_rao, sample_smoothed_factors
from .subspaces import _check_sizes, _dims
from .tensor_core import kron

_UNIT_TOL = 1e-10

# relative tolerance of the probe spectra in ``simultaneous_diagonalize``
_SPECTRAL_TOL = 1e-10


def _column_norms(m: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every column of a real matrix, bit for bit, in one call.

    ``norm`` takes one BLAS dot of a contiguous copy of the column with
    itself; ``vecdot`` takes the same dot of each contiguous row of ``m.T``.
    """
    c = np.ascontiguousarray(m.T)
    return np.sqrt(np.vecdot(c, c))


def _leading(m: np.ndarray) -> np.ndarray:
    """First nonzero entry of each column of ``m``; 0 for a zero column."""
    if m.size == 0:
        return np.zeros(m.shape[1])
    return m[(m != 0).argmax(axis=0), np.arange(m.shape[1])]


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
        mats = tuple(_matrices(self.factors))
        r = w.size
        if len(mats) < 1 or any(m.shape[1] != r for m in mats):
            raise ValidationError("each factor matrix needs one column per weight")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        for j, m in enumerate(mats):
            norms = np.linalg.norm(m, axis=0)
            # written so that a NaN norm fails it
            if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):
                raise ValidationError(f"mode-{j} factor columns must be unit vectors (within {_UNIT_TOL})")
            negative = np.flatnonzero(_leading(m) < 0)
            if negative.size:
                raise ValidationError(f"mode-{j} column {negative[0]} violates the nonnegative-leading-sign convention")
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
        mats = [m.copy() for m in _matrices(factors)]
        if not mats or any(m.shape[1] != mats[0].shape[1] for m in mats):
            raise ValidationError("each factor matrix needs one column per weight")
        r = mats[0].shape[1]
        w = np.ones(r) if weights is None else np.asarray(weights, dtype=float).ravel().copy()
        if w.size != r:
            raise ValidationError(f"need {r} weights, got {w.size}")
        for m in mats:
            norms = np.linalg.norm(m, axis=0)
            if not np.all(norms > 0):
                raise ValidationError("cannot normalize a zero or NaN factor column")
            m /= norms
            w *= norms
            flip = _leading(m) < 0
            m[:, flip] = -m[:, flip]
            w[flip] = -w[flip]
        return cls(weights=w, factors=tuple(mats), residual=residual)

    def reconstruct(self) -> np.ndarray:
        """Dense tensor sum of the weighted rank-one terms.

        One gemm of the unfolding identity (Kolda & Bader, SIAM Review 2009):
        the tensor viewed as ``(prod(n[:-1]), n_l)`` is
        ``kron(factors[:-1]) @ (weights * factors[-1]).T``, so the weights
        scale the last factor's columns and the leading Khatri-Rao product
        is formed once; order 1 takes a row of ones for it.  Each entry is
        ``sum_i lead[p, i] * (w_i * last[k, i])``: the terms of the
        whole-matrix ``khatri_rao(factors) @ weights`` associated another
        way and summed in the gemm's order, so the two agree to within about
        (r + l) roundings of ``sum_i |w_i| |a_i| x |b_i| x ...`` per entry,
        not bit for bit.  No terms (r = 0) give zeros.  Memory is the lead
        product and the output, O(prod(n[:-1]) * r + prod(n)), never the
        prod(n) x r Khatri-Rao matrix.
        """
        *head, last = self.factors
        lead = kron(head) if head else np.ones((1, self.r))
        return np.matmul(lead, (self.weights * last).T).reshape(self.shape)


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


def _assign(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching of a square cost matrix: the column of each row.

    Hungarian method by shortest augmenting paths (Kuhn, Naval Res. Logist.
    Q. 2, 1955) with the initialization of Jonker & Volgenant (Computing 38,
    1987): the row duals start at the row minima and each row, in order,
    takes its argmin column if that column is still free.  A cost close to a
    permutation is solved there; each row left over is joined by one
    Dijkstra search over reduced costs, after which the duals are updated so
    every matched pair keeps reduced cost zero.
    """
    c = np.asarray(cost, dtype=float)
    if not np.isfinite(c).all():
        raise ValidationError("assignment costs must be finite")
    n = c.shape[0]
    first = c.argmin(axis=1)
    col_of = [-1] * n
    row_of = [-1] * n
    for i, j in enumerate(first.tolist()):
        if row_of[j] < 0:
            row_of[j] = i
            col_of[i] = j
    if -1 not in col_of:
        return np.array(col_of)
    col_of = np.array(col_of)
    row_of = np.array(row_of)
    u = c[np.arange(n), first]
    v = np.zeros(n)
    for start in np.flatnonzero(col_of < 0).tolist():
        dist = np.full(n, np.inf)
        pred = np.zeros(n, dtype=int)
        scanned = np.zeros(n, dtype=bool)
        reached = []
        i, d, sink = start, 0.0, -1
        while sink < 0:
            reduced = d + c[i] - u[i] - v
            better = ~scanned & (reduced < dist)
            dist[better] = reduced[better]
            pred[better] = i
            open_dist = np.where(scanned, np.inf, dist)
            d = float(open_dist.min())
            ties = np.flatnonzero(open_dist == d)
            free = ties[row_of[ties] < 0]
            # among equally short paths, end at a free column when one exists
            j = int(free[0] if free.size else ties[0])
            scanned[j] = True
            if row_of[j] < 0:
                sink = j
            else:
                i = int(row_of[j])
                reached.append(i)
        u[start] += d
        reached = np.asarray(reached, dtype=int)
        u[reached] += d - dist[col_of[reached]]
        v[scanned] -= d - dist[scanned]
        j = sink
        while True:
            i = int(pred[j])
            row_of[j] = i
            col_of[i], j = j, int(col_of[i])
            if i == start:
                break
    return col_of


def _realify_columns(vecs, idx):
    """Phase-align selected eigenvectors and drop residual imaginary parts.

    Each column is divided by the phase of its largest-modulus entry; that
    modulus is ``np.hypot``, which gives the bits of the scalar ``abs``.
    """
    v = vecs[:, idx]
    pivots = v[np.abs(v).argmax(axis=0), np.arange(len(idx))]
    w = np.real(v / (pivots / np.hypot(pivots.real, pivots.imag)))
    return w / _column_norms(w)


def simultaneous_diagonalize(t: np.ndarray, r: int, rng=None) -> Rank1Terms:
    """Recover rank-one terms of an order-3 tensor from two Gaussian probes.

    With M_b = u_b diag(s) vt_b truncated to its top r singular triples,
    the r x r pencil K = (u_b^T M_a vt_b^T) diag(s)^-1 has eigenvectors Y
    (Leurgans, Ross & Abel, SIAM J. Matrix Anal. Appl. 1993): the mode-1
    factors are U = u_b Y and the mode-2 factors V are the columns of
    (Y^-1 diag(s) vt_b)^T up to scale, in eigenvalue order by descending
    modulus.  The weighted mode-3 factors solve the least-squares problem on
    the Khatri-Rao design U (.) V through its r x r normal equations: the
    Gram is the Hadamard product (U^T U) * (V^T V) (Kolda & Bader, SIAM
    Review 2009), so the (n1 n2 x r) design is never formed.  The solve's
    relative error is about eps * kappa(U (.) V)^2, where an SVD of the
    design gives eps * kappa(U (.) V) (eps the unit roundoff).
    A nearly rank-deficient M_b, vanishing, complex or colliding eigenvalues
    of K, or an exactly singular Y or Gram trigger fresh probes, up to 5
    draws, then ``DegeneracyError`` naming each draw's reason.  The relative
    reconstruction residual is stored on the result.  A tensor with a
    non-finite entry is refused.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValidationError(f"need an order-3 tensor, got order {t.ndim}")
    n1, n2, n3 = t.shape
    (r,) = _check_sizes(1, r=r)
    if r > min(n1, n2):
        raise ValidationError(f"rank r = {r!r} unsupported: need an integer 1 <= r <= min(n1, n2) = {min(n1, n2)}")
    if not np.isfinite(t).all():
        raise ValidationError("cannot decompose a tensor with a non-finite entry")
    rng = np.random.default_rng(rng)
    t_norm = np.linalg.norm(t)
    if t_norm == 0:
        raise ValidationError("cannot decompose the zero tensor")
    failures = []
    for _ in range(5):
        a = rng.standard_normal(n3)
        b = rng.standard_normal(n3)
        m_a = contract_mode3(t, a)
        m_b = contract_mode3(t, b)
        u_b, s, vt_b = np.linalg.svd(m_b, full_matrices=False)
        if s[r - 1] <= _SPECTRAL_TOL * s[0]:
            failures.append("probe contraction nearly rank-deficient")
            continue
        # truncating at the known rank, not at a threshold, keeps entry noise
        # from leaking 1/noise-sized directions into the r x r pencil
        u_b, s, vt_b = u_b[:, :r], s[:r], vt_b[:r]
        vals, vecs = np.linalg.eig((u_b.T @ m_a @ vt_b.T) / s)
        radius = np.max(np.abs(vals))
        if radius == 0:
            failures.append("all probe eigenvalues vanished")
            continue
        if np.max(np.abs(np.imag(vals))) > _SPECTRAL_TOL * radius:
            failures.append("complex eigenvalues beyond tolerance")
            continue
        lam = np.real(vals)
        gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(r, 1)]
        if gaps.size and np.min(gaps) <= _SPECTRAL_TOL * radius:
            failures.append("eigenvalue collision within tolerance")
            continue
        y = _realify_columns(vecs, np.argsort(-np.abs(vals), kind="stable"))
        u_mat = u_b @ y
        # M_b = u_b diag(s) vt_b = U D_b V^T with U = u_b Y, so V^T is
        # D_b^-1 Y^-1 diag(s) vt_b: the columns of V up to scale
        try:
            v_mat = np.linalg.solve(y, s[:, None] * vt_b).T
        except np.linalg.LinAlgError:
            failures.append("eigenvector matrix of the probe pencil is singular")
            continue
        v_mat /= _column_norms(v_mat)
        # row i of the right side contracts u's column i with the mode-1
        # unfolding, then v's column i with that (n2 x n3) slice; relative error
        # about eps * kappa(u (.) v)^2, against eps * kappa for lstsq's SVD, and
        # the LU fails only on an exactly singular Gram
        gram = (u_mat.T @ u_mat) * (v_mat.T @ v_mat)
        slices = (u_mat.T @ t.reshape(n1, n2 * n3)).reshape(r, n2, n3)
        rhs = np.matmul(v_mat.T[:, None, :], slices).reshape(r, n3)
        try:
            sol = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            failures.append("Khatri-Rao Gram of the recovered factors is singular")
            continue
        scales = np.linalg.norm(sol, axis=1)
        if np.any(scales == 0):
            failures.append("a recovered component collapsed to zero")
            continue
        terms = Rank1Terms.from_raw([u_mat, v_mat, sol.T], weights=None)
        diff = terms.reconstruct()
        np.subtract(t, diff, out=diff)
        # set on the result no caller has seen yet: ``dataclasses.replace``
        # would run every check of ``__post_init__`` a second time
        object.__setattr__(terms, "residual", float(np.linalg.norm(diff) / t_norm))
        return terms
    attempts = "; ".join(f"draw {k}: {reason}" for k, reason in enumerate(failures, 1))
    raise DegeneracyError(f"no usable probe pair after 5 draws ({attempts})")


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
    shape = _dims(shape)
    ell = len(shape)
    if ell < 3:
        raise ValidationError(f"folding needs order >= 3, got {ell}")
    g1 = (ell - 1) // 2
    groups = (tuple(range(g1)), tuple(range(g1, ell - 1)), (ell - 1,))
    return FoldingPlan(shape=shape, groups=groups)


def _best_rank1(vecs: np.ndarray, dims: tuple[int, ...]):
    """Split (nearly) simple flattened vectors, one per row, into unit factors plus scales.

    One stacked SVD per leading mode; row i gets the bits it would get alone.
    """
    if len(dims) == 1:
        norms = _column_norms(vecs.T)
        if np.any(norms == 0):
            raise ValidationError("cannot factor a zero vector")
        return [vecs / norms[:, None]], norms
    u_mat, s, vt = np.linalg.svd(vecs.reshape(len(vecs), dims[0], -1), full_matrices=False)
    tail, scales = _best_rank1(s[:, :1] * vt[:, 0], dims[1:])
    return [u_mat[:, :, 0]] + tail, scales


def unfold_terms(plan: FoldingPlan, folded: Rank1Terms) -> Rank1Terms:
    """Invert the fold: split grouped factor columns back into per-mode unit vectors."""
    if folded.order != 3:
        raise ValidationError("unfold expects order-3 grouped terms")
    new_factors = [None] * len(plan.shape)
    new_weights = folded.weights.copy()
    for group, grouped in zip(plan.groups, folded.factors):
        if len(group) == 1:
            new_factors[group[0]] = grouped
            continue
        parts, scales = _best_rank1(grouped.T, tuple(plan.shape[j] for j in group))
        for j, part in zip(group, parts):
            new_factors[j] = part.T
        new_weights *= scales
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
    col = _assign(-score)
    factor_errors = np.zeros((r, truth.order))
    flip = np.ones(r)
    for mode in range(truth.order):
        tm, em = truth.factors[mode], est.factors[mode][:, col]
        # np.vecdot calls BLAS dot once per column pair, as ``a @ b`` on two columns does
        sign = np.where(np.vecdot(tm.T, em.T) >= 0, 1.0, -1.0)
        flip *= sign
        factor_errors[:, mode] = _column_norms(tm - sign * em)
    denom = np.maximum(np.abs(truth.weights), np.finfo(float).tiny)
    weight_errors = np.abs(truth.weights - est.weights[col] * flip) / denom
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
    # written so that a NaN scale fails it
    if not 0 <= noise_scale < math.inf:
        raise ValidationError(f"noise_scale must be finite and nonnegative, got {noise_scale}")
    plan = folding_plan((e.n,) * e.ell)
    max_rank = plan.grouped_shape[0]
    if e.r > max_rank:
        raise ValidationError(f"need r <= n^floor((ell-1)/2) = {max_rank}, got r = {e.r}")
    rng = np.random.default_rng(rng)
    factors = sample_smoothed_factors(e, rng)
    truth = Rank1Terms.from_raw(factors)
    dense = truth.reconstruct()
    if noise_scale > 0:
        dense += rng.uniform(-noise_scale, noise_scale, dense.shape)
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
