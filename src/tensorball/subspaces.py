"""Subspace constructions for projection experiments.

Two regimes: Haar-random subspaces of the flattened tensor space, and the
adversarial coordinate constructions aligned with the first mode.  Arbitrary
user bases enter as basis files, whose layout ``SubspaceBasis.save`` writes
and ``SubspaceBasis.load`` reads and checks.  ``resolve`` maps a subspace's
spelling (``haar``, ``line``, ``file:<path>``) to its basis.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_ORTHO_TOL = 1e-10

# most flattened entries a basis file or a CLI run may hold
FLATTEN_CAP = 10_000_000

_BASIS_MAGIC = b"TBSB"


def _check_sizes(least: int, **sizes) -> tuple[int, ...]:
    """The package's one size rule: each size (a dim, ``ell``, ``m``, ``n``, ``r``, a trial count, ...) must be
    a Python or numpy integer >= ``least``, and a bool is not one.  Returns the sizes in order as Python ints,
    so that ``n**ell`` and batch offsets do not wrap in a small numpy type."""
    for name, value in sizes.items():
        if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least):
            raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return tuple(int(value) for value in sizes.values())


def _dims(shape) -> tuple[int, ...]:
    """``shape`` as a tuple of Python ints, refused unless it has at least one mode and every dim is an integer >= 1."""
    dims = tuple(shape)
    if not dims:
        raise ValidationError("a tensor shape needs at least one mode, got ()")
    return _check_sizes(1, **{f"shape[{j}]": n for j, n in enumerate(dims)})


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
        """Binary basis file, all little-endian: magic ``TBSB``, order l (uint32),
        the l dims (uint32), the row count m (uint32), then the m x prod(dims)
        rows as float64 in row-major order."""
        order = len(self.shape)
        with open(path, "wb") as fh:
            fh.write(struct.pack(f"<4sI{order}II", _BASIS_MAGIC, order, *self.shape, self.m))
            fh.write(np.ascontiguousarray(self.rows, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "SubspaceBasis":
        """Read a ``save`` file; any defect raises ``ValidationError``.

        The header is checked field by field, and a claimed size above
        ``FLATTEN_CAP`` entries is refused before any data is read.  The payload
        must hold exactly the claimed number of entries, and the rows must make
        a valid basis.
        """
        try:
            with open(path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                head = fh.read(8)
                if len(head) < 8 or head[:4] != _BASIS_MAGIC:
                    raise ValidationError(f"{path} is not a basis file (bad magic {head[:4]!r})")
                (order,) = struct.unpack("<I", head[4:])
                header_len = 12 + 4 * order
                if order < 1 or header_len > size:
                    raise ValidationError(f"{path}: header claims order {order}, file has {size} bytes")
                *shape, m = struct.unpack(f"<{order + 1}I", fh.read(header_len - 8))
                if min(shape) < 1 or m < 1:
                    raise ValidationError(f"{path}: dims {tuple(shape)} and row count {m} must be positive")
                entries = m * math.prod(shape)
                if entries > FLATTEN_CAP:
                    raise ValidationError(f"{path}: header claims {entries} entries, above the cap of {FLATTEN_CAP}")
                if size - header_len != 8 * entries:
                    raise ValidationError(f"{path}: payload has {size - header_len} bytes, header claims {8 * entries}")
                data = np.frombuffer(fh.read(8 * entries), dtype="<f8")
        except OSError as exc:
            raise ValidationError(f"cannot read basis file {path}: {exc.strerror or exc}") from exc
        return cls(shape=tuple(shape), rows=data.reshape(m, -1).copy())


def haar_subspace(shape, m: int, rng) -> SubspaceBasis:
    """Uniformly random m-dimensional subspace of the flattened tensor space.

    The rows are the first m columns of a Haar orthogonal matrix, realized by
    QR of a D x m standard Gaussian matrix with the positive-diagonal
    convention that makes the factorization unique.
    """
    rng = np.random.default_rng(rng)
    shape = _dims(shape)
    d = math.prod(shape)
    (m,) = _check_sizes(1, m=m)
    if m > d:
        raise ValidationError(f"need 1 <= m <= {d}, got m = {m}")
    g = rng.standard_normal((d, m))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return SubspaceBasis(shape=shape, rows=(q * signs).T)


def resolve(choice: str, shape, m: int, rng) -> SubspaceBasis:
    """The one table of subspace spellings: ``haar`` (``haar_subspace`` drawn from ``rng``), ``line``
    (``coordinate_line_subspace`` of the cubic ``shape``) and ``file:<path>`` (``SubspaceBasis.load``).
    Any other spelling, and a basis whose shape or m is not the one asked for, raises ``ValidationError``."""
    shape = _dims(shape)
    if choice == "haar":
        return haar_subspace(shape, m, rng)
    if choice == "line":
        basis = coordinate_line_subspace(shape[0], len(shape), m)
    elif isinstance(choice, str) and choice.startswith("file:"):
        basis = SubspaceBasis.load(choice[5:])
    else:
        raise ValidationError(f"unknown subspace {choice!r} (want haar, line, or file:<path>)")
    if basis.shape != shape or basis.m != m:
        raise ValidationError(f"{choice} basis has shape {basis.shape}, m = {basis.m}; want {shape}, m = {m}")
    return basis


def diagonal_direction(n: int, ell: int) -> SubspaceBasis:
    """Unit tensor e_1 x ... x e_1 as a one-row basis: ``coordinate_line_subspace(n, ell, 1)``."""
    return coordinate_line_subspace(n, ell, 1)


def coordinate_line_subspace(n: int, ell: int, m: int) -> SubspaceBasis:
    """Adversarial coordinate subspace spanned by e_k x e_1 x ... x e_1, k = 1..m."""
    n, ell, m = _check_sizes(1, n=n, ell=ell, m=m)
    if m > n:
        raise ValidationError(f"need m <= n, got n = {n}, m = {m}")
    d = n**ell
    rows = np.zeros((m, d))
    rows[np.arange(m), np.arange(m) * n ** (ell - 1)] = 1.0
    return SubspaceBasis(shape=(n,) * ell, rows=rows)
