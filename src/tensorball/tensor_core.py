"""Flattening, Kronecker products and inner products of simple tensors.

Flattening is row-major throughout (last index fastest), matching
``numpy.reshape`` order and columnwise Kronecker products.  Multi-index
``(i_1, ..., i_l)`` maps to flat position ``i_l + n_l * (i_{l-1} + ...)``.
Two primitives own that order: ``kron`` builds flattened (Khatri-Rao)
products and ``contract`` takes inner products with dense rows without
building the whole products; every other module goes through these.
This module also owns the reuse of working arrays (``_Scratch``) and the
byte budget of one block (``_block_rows``).  It is the contraction layer
alone: it opens no file and draws no random number.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ValidationError

# bytes of intermediates one block holds: of trials in the dense path of
# ``contract``, of output rows in ``Rank1Terms.reconstruct``, of factor rows
# in a Monte-Carlo chunk
_BLOCK_BYTES = 1 << 20


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


def contract(rows: np.ndarray, shape: tuple[int, ...], xs, out=None) -> np.ndarray:
    """Inner products of every basis row with every trial's simple tensor.

    rows: (m, D); xs: one (size, n_j) array per mode.  Returns (size, m);
    ``out``, a C-contiguous float64 array of that shape, receives the result
    in place of a fresh allocation and is returned, with the same bits.

    When every row has exactly one nonzero ``c`` at ``(i_1, ..., i_l)`` (the
    coordinate-line and diagonal constructions), the inner product is the
    gathered product ``x_1[i_1] * (... * (x_l[i_l] * c))``, O(size * m * l).
    For finite factors it is bitwise what contracting the last mode first
    gives: there every other term of each sum is an exact zero, and the
    surviving products nest in this order.  Any other row set takes the
    dense path; the row check runs once per call.

    With one mode the dense path is one gemm.  With more it splits the
    modes at the ``t`` that holds the fewest entries per trial
    (``_split``), forms the trailing factors' product
    ``x_{t+1} x ... x x_l`` with ``kron``, multiplies it by the rows, viewed
    as ``(m * prod n[:t], prod n[t:])``, in one gemm, and finishes with one
    batched dot against the leading factors' product ``x_1 x ... x x_t``.
    That sums in another order than the last-mode-first chain, so the two
    agree up to rounding only.  Trials go through in blocks that fit in
    ``_BLOCK_BYTES``, so memory is O(size * (sum n_j + m)) plus one block
    instead of O(size * prod n_j).  Every gemm of a call has the same row
    count, so the result is bitwise the one of a single block holding every
    trial wherever BLAS rounds a row alike in products of that many rows and
    more, as it does for every shape the tests check.
    """
    size, m = xs[0].shape[0], rows.shape[0]
    if out is None:
        out = np.empty((size, m))
    elif out.shape != (size, m) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValidationError(f"contract needs a C-contiguous float64 out= of shape {(size, m)}")
    single = _single_entries(rows, shape)
    if single is not None:
        index, coef = single
        np.multiply(_columns(xs[-1], index[-1]), coef, out=out)
        for x, i in zip(xs[-2::-1], index[-2::-1]):
            np.multiply(_columns(x, i), out, out=out)
        return out
    return _contract_dense(rows, shape, xs, out)


def _columns(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``x[:, index]``, as a view when ``index`` steps evenly (one repeated
    column broadcasts), so no gathered copy is made; the values are the same."""
    step = index[1] - index[0] if index.size > 1 else 1
    if index.size and step >= 0 and np.all(np.diff(index) == step):
        if step == 0:
            return x[:, index[0], None]
        return x[:, index[0] : index[-1] + 1 : step]
    return x[:, index]


def read_columns(rows: np.ndarray, shape: tuple[int, ...]):
    """The columns that rows of one nonzero each read, or None when ``contract``
    would not gather: some row has no nonzero or several.

    Returns ``(cols, read_rows, read_shape)``.  ``cols[j]`` lists, in
    increasing order, the columns of mode ``j`` that some row reads, and
    ``read_rows`` holds each row's nonzero at its multi-index among those
    columns, on ``read_shape = tuple(c.size for c in cols)``.  So
    ``contract(read_rows, read_shape, [x[:, c] for x, c in zip(xs, cols)])``
    is ``contract(rows, shape, xs)`` bit for bit: it gathers the same entries
    and multiplies them in the same nesting, and a caller may keep only
    those columns of each factor.
    """
    single = _single_entries(rows, shape)
    if single is None:
        return None
    index, coef = single
    cols, local = zip(*(np.unique(i, return_inverse=True) for i in index))
    read_shape = tuple(c.size for c in cols)
    read_rows = np.zeros((rows.shape[0], math.prod(read_shape)))
    read_rows[np.arange(rows.shape[0]), np.ravel_multi_index(local, read_shape)] = coef
    return cols, read_rows, read_shape


def _single_entries(rows: np.ndarray, shape: tuple[int, ...]):
    """Multi-index and value of each row's only nonzero, or None if a row has
    none or several."""
    nonzero = rows != 0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None
    flat = np.argmax(nonzero, axis=1)
    return np.unravel_index(flat, shape), rows[np.arange(rows.shape[0]), flat]


def _split(shape: tuple[int, ...], m: int) -> int:
    """The mode ``1 <= t < l`` whose split holds the fewest entries per
    trial: the trailing product ``prod n[t:]``, the ``m * prod n[:t]`` partial
    sums and the leading product ``prod n[:t]``."""
    return min(range(1, len(shape)), key=lambda t: math.prod(shape[t:]) + (m + 1) * math.prod(shape[:t]))


def _contract_dense(rows: np.ndarray, shape: tuple[int, ...], xs, out: np.ndarray) -> np.ndarray:
    m = rows.shape[0]
    if len(shape) == 1:
        # no intermediate to block: the one factor is its own product
        return np.matmul(xs[0], rows.T, out=out)
    t = _split(shape, m)
    lead, trail = math.prod(shape[:t]), math.prod(shape[t:])
    # (prod n[t:], m * prod n[:t]): for C-ordered rows a Fortran-ordered
    # view, which BLAS reads transposed, so no copy is made
    right = rows.reshape(m * lead, trail).T
    size = xs[0].shape[0]
    most = max(2, _block_rows(trail + (m + 1) * lead))
    # equal blocks, as few as the bound allows; the last one ends at ``size``
    # and repeats (with the same bits) fewer trials than there are blocks.
    # So every gemm has ``block`` rows: numpy sends one row to gemv, and
    # OpenBLAS a few rows to a small-matrix kernel, both rounding unlike a
    # gemm of many rows.
    block = -(-size // -(-size // most)) if size else 0
    trail_buf, sums_buf = _blocks.array("trail", (block, trail, 1)), _blocks.array("sums", (block, m * lead))
    for s in range(0, size, max(block, 1)):
        s = min(s, size - block)
        tail = kron([x[s : s + block, :, None] for x in xs[t:]], out=trail_buf)[:, :, 0]
        sums = np.dot(tail, right, out=sums_buf).reshape(block, m, lead)
        head = kron([x[s : s + block, :, None] for x in xs[:t]])[:, :, 0]
        np.einsum("bmk,bk->bm", sums, head, out=out[s : s + block])
    return out


def _block_rows(width: int) -> int:
    """Rows of ``width`` floats that fit in one block of ``_BLOCK_BYTES`` (at least one)."""
    return max(1, _BLOCK_BYTES // (8 * width))


class _Scratch(threading.local):
    """Arrays reused from call to call, kept per thread and per name.

    A fresh array past the allocator's mmap threshold is mapped and
    page-faulted anew on every call.  Instead each thread keeps, by name, the
    flat array of the name's largest request so far, and every request gets
    its leading ``prod(shape)`` entries as a C-contiguous array of that
    shape.  A request of more than ``cap`` bytes is allocated for its call
    alone and not kept; the cap holds for each name alone.  Callers overwrite what they take before they read
    it, so no bit changes, and return no view of it.
    """

    def __init__(self, cap: float = math.inf):
        self.cap = cap
        self.kept = {}

    def array(self, name: str, shape) -> np.ndarray:
        """An uninitialised float array of ``shape``, backed by the kept array when that is large enough."""
        flat = self.kept.get(name)
        size = math.prod(shape)
        if flat is None or flat.size < size:
            flat = np.empty(size)
            if 8 * size <= self.cap:
                self.kept[name] = flat
        return flat[:size].reshape(shape)


# the blocks of ``_contract_dense`` ("trail", "sums") and ``Rank1Terms.reconstruct``
# ("reconstruct"), kept for the thread's life.  The cap applies to each name
# alone and is read from ``_BLOCK_BYTES`` once, here, so a thread that runs both
# users keeps about two blocks: the dense pair fits one block together unless
# its two-trial floor makes it larger, and the reconstruct block fits another.
_blocks = _Scratch(_BLOCK_BYTES)

