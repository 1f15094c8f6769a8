"""Simple tensors, flattening, inner products, and projections.

Flattening is row-major throughout (last index fastest), matching
``numpy.reshape`` order and columnwise Kronecker products.  Multi-index
``(i_1, ..., i_l)`` maps to flat position ``i_l + n_l * (i_{l-1} + ...)``.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ResourceError, ValidationError

FLATTEN_CAP = 10_000_000

_FLAT_MAGIC = b"TBFT"
_BASIS_MAGIC = b"TBSB"


@dataclass(frozen=True)
class SimpleTensor:
    """Rank-one tensor stored as its factor vectors."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValidationError("a simple tensor needs at least one factor")
        fixed = []
        for j, f in enumerate(self.factors):
            arr = np.asarray(f, dtype=float)
            if arr.ndim != 1 or arr.size < 1:
                raise ValidationError(f"factor {j} must be a nonempty 1-d vector")
            fixed.append(arr)
        object.__setattr__(self, "factors", tuple(fixed))

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.factors)


@dataclass(frozen=True)
class FlatTensor:
    """Dense tensor flattened to a vector, with its original shape."""

    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) < 1 or any(n < 1 for n in shape):
            raise ValidationError(f"invalid tensor shape {shape}")
        data = np.asarray(self.data, dtype=float).ravel()
        if data.size != math.prod(shape):
            raise ValidationError(
                f"data length {data.size} does not match shape {shape} (= {math.prod(shape)} entries)"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)

    @property
    def order(self) -> int:
        return len(self.shape)


def flatten(t: SimpleTensor, cap: int = FLATTEN_CAP) -> FlatTensor:
    """Materialize the rank-one tensor as a row-major flat vector.

    Raises ``ResourceError`` when the entry count would exceed ``cap``
    (default 10^7).
    """
    size = math.prod(t.shape)
    if size > cap:
        raise ResourceError(f"flattening would materialize {size} entries, above the cap of {cap}")
    data = reduce(np.kron, t.factors)
    return FlatTensor(shape=t.shape, data=data)


def inner_simple(a: SimpleTensor, b: SimpleTensor) -> float:
    """Frobenius inner product of two simple tensors, as a product of factor inner products."""
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch {a.shape} vs {b.shape}")
    out = 1.0
    for fa, fb in zip(a.factors, b.factors):
        out *= float(np.dot(fa, fb))
    return out


def inner_flat(t: SimpleTensor, f: FlatTensor) -> float:
    """Frobenius inner product of a simple tensor with a dense one.

    Contracts one mode at a time starting with the last (fastest) index, so
    no rank-one tensor is ever materialized.
    """
    if t.shape != f.shape:
        raise ValidationError(f"shape mismatch {t.shape} vs {f.shape}")
    cur = f.data.reshape(f.shape)
    for vec in reversed(t.factors):
        cur = cur @ vec
    return float(cur)


def frobenius_norm(t: SimpleTensor) -> float:
    """Frobenius norm, equal to the product of factor Euclidean norms."""
    out = 1.0
    for f in t.factors:
        out *= float(np.linalg.norm(f))
    return out


def projection_norm(t: SimpleTensor, basis) -> float:
    """Norm of the orthogonal projection of ``t`` onto ``span(basis.rows)``.

    ``basis`` provides orthonormal rows of length ``prod(t.shape)`` (see
    ``subspaces.SubspaceBasis``).  Computed as the root of the sum of
    squared inner products against the rows, one mode contraction at a time.
    """
    if tuple(basis.shape) != t.shape:
        raise ValidationError(f"basis shape {tuple(basis.shape)} does not match tensor shape {t.shape}")
    m = basis.rows.shape[0]
    cur = basis.rows.reshape((m,) + t.shape)
    for vec in reversed(t.factors):
        cur = cur @ vec
    return float(np.linalg.norm(cur))


def write_flat(f: FlatTensor, path) -> None:
    """Binary dump: magic, order, shape (uint32) then float64 entries, all little-endian."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _FLAT_MAGIC, f.order))
        fh.write(struct.pack(f"<{f.order}I", *f.shape))
        fh.write(f.data.astype("<f8").tobytes())


def read_flat(path) -> FlatTensor:
    with open(path, "rb") as fh:
        magic, order = struct.unpack("<4sI", fh.read(8))
        if magic != _FLAT_MAGIC:
            raise ValidationError(f"bad magic {magic!r} in {path}")
        shape = struct.unpack(f"<{order}I", fh.read(4 * order))
        data = np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8")
    return FlatTensor(shape=shape, data=data.copy())


def write_basis_payload(path, shape, rows: np.ndarray) -> None:
    """Same layout as ``write_flat`` plus a row-count field before the data."""
    order = len(shape)
    m = rows.shape[0]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _BASIS_MAGIC, order))
        fh.write(struct.pack(f"<{order}I", *shape))
        fh.write(struct.pack("<I", m))
        fh.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())


def read_basis_payload(path) -> tuple[tuple[int, ...], np.ndarray]:
    with open(path, "rb") as fh:
        magic, order = struct.unpack("<4sI", fh.read(8))
        if magic != _BASIS_MAGIC:
            raise ValidationError(f"bad magic {magic!r} in {path}")
        shape = struct.unpack(f"<{order}I", fh.read(4 * order))
        (m,) = struct.unpack("<I", fh.read(4))
        data = np.frombuffer(fh.read(8 * m * math.prod(shape)), dtype="<f8")
    return tuple(shape), data.reshape(m, math.prod(shape)).copy()


def export_csv(f: FlatTensor, path) -> None:
    """Write one row per entry: 1-based multi-index columns, then the value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"i_{j + 1}" for j in range(f.order)] + ["value"])
        for flat_idx in range(f.data.size):
            multi = np.unravel_index(flat_idx, f.shape)
            writer.writerow([int(i) + 1 for i in multi] + [repr(float(f.data[flat_idx]))])
