"""Simple tensors, flattening, inner products, and projections.

Flattening is row-major throughout (last index fastest), matching
``numpy.reshape`` order and columnwise Kronecker products.  Multi-index
``(i_1, ..., i_l)`` maps to flat position ``i_l + n_l * (i_{l-1} + ...)``.
Two primitives own that order: ``kron`` builds flattened (Khatri-Rao)
products and ``contract`` takes inner products with dense rows without
building them; every other module goes through these.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError, ValidationError

FLATTEN_CAP = 10_000_000

# bytes of first-mode intermediate ``contract`` holds at once
_BLOCK_BYTES = 1 << 20

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
    data = kron([f[:, None] for f in t.factors])[:, 0]
    return FlatTensor(shape=t.shape, data=data)


def kron(mats, out=None) -> np.ndarray:
    """Row-major Kronecker product along axis -2 of ``(..., n_j, r)`` arrays.

    Row ``i_l + n_l * (i_{l-1} + ...)`` of the ``(..., prod n_j, r)`` result
    is the product of row ``i_j`` of every factor, elementwise over the
    leading axes and the last one: with ``r`` columns it is the column-wise
    (Khatri-Rao) product, with one column the flattened simple tensor.
    Factors multiply from the left, so a 1-d product rounds exactly like a
    left fold of NumPy's Kronecker product.

    ``out``, a C-contiguous array of the result's shape, receives the last
    stage's product in place of a fresh allocation and is returned; each
    entry is the same product, so the bits do not change.
    """
    if out is not None and not out.flags.c_contiguous:
        raise ValidationError("kron needs a C-contiguous out= array")
    res = mats[0]
    for j in range(1, len(mats)):
        left, right = res[..., :, None, :], mats[j][..., None, :, :]
        if out is not None and j == len(mats) - 1:
            prod = np.multiply(left, right, out=out.reshape(np.broadcast_shapes(left.shape, right.shape)))
        else:
            prod = left * right
        res = prod.reshape(prod.shape[:-3] + (-1, prod.shape[-1]))
    if out is None:
        return res
    if len(mats) == 1:
        np.copyto(out, res)
    return out


def contract(rows: np.ndarray, shape: tuple[int, ...], xs) -> np.ndarray:
    """Inner products of every basis row with every trial's simple tensor.

    rows: (m, D); xs: one (size, n_j) array per mode.  Returns (size, m).

    When every row has exactly one nonzero ``c`` at ``(i_1, ..., i_l)`` (the
    coordinate-line and diagonal constructions), the inner product is the
    gathered product ``x_1[i_1] * (... * (x_l[i_l] * c))``, O(size * m * l).
    For finite factors it is bitwise the dense chain's result: there every
    other term of each sum is an exact zero, and the surviving products nest
    in this order.  Any other row set takes the dense chain; the row check
    runs once per call.

    The dense chain contracts the last mode first, vectorized over trials.
    Trials go through in blocks whose first-mode intermediate fits in
    ``_BLOCK_BYTES``, so memory is O(size * (sum n_j + m)) plus one block
    instead of O(size * m * prod n_j[:-1]).  Each trial goes through the
    same BLAS and einsum steps whatever the block size, so the result is
    bitwise the one of a single block holding every trial.
    """
    single = _single_entries(rows, shape)
    if single is not None:
        index, coef = single
        out = xs[-1][:, index[-1]] * coef
        for x, i in zip(xs[-2::-1], index[-2::-1]):
            np.multiply(x[:, i], out, out=out)
        return out
    return _contract_dense(rows, shape, xs)


def _single_entries(rows: np.ndarray, shape: tuple[int, ...]):
    """Multi-index and value of each row's only nonzero, or None if a row has
    none or several."""
    nonzero = rows != 0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None
    flat = np.argmax(nonzero, axis=1)
    return np.unravel_index(flat, shape), rows[np.arange(rows.shape[0]), flat]


def _contract_dense(rows: np.ndarray, shape: tuple[int, ...], xs) -> np.ndarray:
    m = rows.shape[0]
    ell = len(shape)
    if ell == 1:
        return xs[0] @ rows.T
    # (n_l, m * prod n_j[:-1]), built as tensordot builds it: for C-ordered
    # rows a Fortran-ordered view, which BLAS reads transposed.  A C-ordered
    # copy rounds differently.
    right = np.moveaxis(rows.reshape((m,) + shape), ell, 0).reshape(shape[-1], -1)
    size = xs[0].shape[0]
    block = min(size, max(2, _BLOCK_BYTES // (8 * max(1, right.shape[1]))))
    # one buffer for every block: a fresh allocation this large would be
    # mapped and page-faulted anew each time
    buf = np.empty((block, right.shape[1]))
    out = np.empty((size, m))
    for s in range(0, size, max(block, 1)):
        b = min(block, size - s)
        if b == 1 and size > 1:
            # numpy sends a one-row product to gemv, which rounds unlike
            # gemm: take the previous trial along again (same bits)
            s, b = s - 1, 2
        cur = np.dot(xs[-1][s : s + b], right, out=buf[:b])
        rest = math.prod(shape[:-1])
        for j in range(ell - 2, 0, -1):
            nj = shape[j]
            cur = np.einsum("bkj,bj->bk", cur.reshape(b, m * (rest // nj), nj), xs[j][s : s + b])
            rest //= nj
        np.einsum("bmj,bj->bm", cur.reshape(b, m, rest), xs[0][s : s + b], out=out[s : s + b])
    return out


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

    A ``contract`` over one row and one trial, so no rank-one tensor is
    ever materialized.
    """
    if t.shape != f.shape:
        raise ValidationError(f"shape mismatch {t.shape} vs {f.shape}")
    return float(contract(f.data[None, :], f.shape, [v[None, :] for v in t.factors])[0, 0])


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
    squared inner products against the rows, a ``contract`` over one trial.
    """
    if tuple(basis.shape) != t.shape:
        raise ValidationError(f"basis shape {tuple(basis.shape)} does not match tensor shape {t.shape}")
    return float(np.linalg.norm(contract(basis.rows, t.shape, [v[None, :] for v in t.factors])))


def write_basis_payload(path, shape, rows: np.ndarray) -> None:
    """Binary basis file, all little-endian: magic ``TBSB``, order l (uint32),
    the l dims (uint32), the row count m (uint32), then the m x prod(dims)
    rows as float64 in row-major order."""
    order = len(shape)
    m = rows.shape[0]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _BASIS_MAGIC, order))
        fh.write(struct.pack(f"<{order}I", *shape))
        fh.write(struct.pack("<I", m))
        fh.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())


def read_basis_payload(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Read a ``write_basis_payload`` file; any defect raises ``ValidationError``.

    The header is checked field by field, and a claimed size above
    ``FLATTEN_CAP`` entries is refused before any data is read.  The payload
    must hold exactly the claimed number of entries.
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
    return tuple(shape), data.reshape(m, -1).copy()
