"""Subspace constructions for projection experiments.

Two regimes: Haar-random subspaces of the flattened tensor space, and the
adversarial coordinate constructions aligned with the first mode.  Arbitrary
user bases enter as basis files (``SubspaceBasis.load``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core
from .errors import ValidationError

_ORTHO_TOL = 1e-10


def _dims(shape) -> tuple[int, ...]:
    """``shape`` as a tuple of ints, refused unless it has at least one mode and every dim is at least 1."""
    dims = tuple(int(n) for n in shape)
    if not dims or min(dims) < 1:
        raise ValidationError(f"a tensor shape needs at least one mode and dims >= 1, got {dims}")
    return dims


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal rows spanning an m-dimensional subspace of the flattened space.

    ``rows[k]`` is the flat vector of the basis tensor f^(k); orthonormality
    is validated to 1e-10 at construction.
    """

    shape: tuple[int, ...]
    rows: np.ndarray

    def __post_init__(self):
        shape = _dims(self.shape)
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        d = math.prod(shape)
        if rows.shape[1] != d:
            raise ValidationError(f"rows have length {rows.shape[1]}, expected prod{shape} = {d}")
        if rows.shape[0] < 1 or rows.shape[0] > d:
            raise ValidationError(f"need 1 <= m <= {d}, got m = {rows.shape[0]}")
        # a NaN or inf entry, or a Gram entry past the float range, gives a
        # NaN or inf residual, and the check is written so that both fail it
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.max(np.abs(rows @ rows.T - np.eye(rows.shape[0])))
        if not resid <= _ORTHO_TOL:
            raise ValidationError(f"rows are not orthonormal (residual {resid:.3e} > {_ORTHO_TOL})")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    def save(self, path) -> None:
        tensor_core.write_basis_payload(path, self.shape, self.rows)

    @classmethod
    def load(cls, path) -> "SubspaceBasis":
        shape, rows = tensor_core.read_basis_payload(path)
        return cls(shape=shape, rows=rows)


def haar_subspace(shape, m: int, rng) -> SubspaceBasis:
    """Uniformly random m-dimensional subspace of the flattened tensor space.

    The rows are the first m columns of a Haar orthogonal matrix, realized by
    QR of a D x m standard Gaussian matrix with the positive-diagonal
    convention that makes the factorization unique.
    """
    rng = np.random.default_rng(rng)
    shape = _dims(shape)
    d = math.prod(shape)
    if not 1 <= m <= d:
        raise ValidationError(f"need 1 <= m <= {d}, got m = {m}")
    g = rng.standard_normal((d, m))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return SubspaceBasis(shape=shape, rows=(q * signs).T)


def diagonal_direction(n: int, ell: int) -> SubspaceBasis:
    """Unit tensor e_1 x ... x e_1, a single 1 at the first multi-index, as a one-row basis."""
    if n < 1 or ell < 1:
        raise ValidationError("n and ell must be at least 1")
    rows = np.zeros((1, n**ell))
    rows[0, 0] = 1.0
    return SubspaceBasis(shape=(n,) * ell, rows=rows)


def coordinate_line_subspace(n: int, ell: int, m: int) -> SubspaceBasis:
    """Adversarial coordinate subspace spanned by e_k x e_1 x ... x e_1, k = 1..m."""
    if ell < 1 or not 1 <= m <= n:
        raise ValidationError(f"need ell >= 1 and 1 <= m <= n = {n}, got ell = {ell}, m = {m}")
    d = n**ell
    rows = np.zeros((m, d))
    rows[np.arange(m), np.arange(m) * n ** (ell - 1)] = 1.0
    return SubspaceBasis(shape=(n,) * ell, rows=rows)
