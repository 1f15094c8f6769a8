"""Flattening, Kronecker products and inner products of simple tensors.

Flattening is row-major throughout (last index fastest), matching
``numpy.reshape`` order and columnwise Kronecker products.  Multi-index
``(i_1, ..., i_l)`` maps to flat position ``i_l + n_l * (i_{l-1} + ...)``.
Two primitives own that order: ``kron`` builds flattened (Khatri-Rao)
products, and ``contract_blocks`` takes inner products of row sets of one
row count with simple tensors a block of trials at a time, without building
the whole products; ``contract`` is its one-set loop.  Every other module
goes through these, and every Monte-Carlo kernel reduces each block as it
comes, so no kernel holds a ``(size, m)`` products array.  This module also
owns the reuse of working arrays (``_Scratch``, whose holders belong to a
run or a call, never to the process) and the byte budget of one block
(``_block_rows``).  It is the contraction layer alone: it opens no file and
draws no random number.

The dense path (``_dense_blocks``) computes in the dtype of the arrays it
is given.  ``contract_blocks`` gives it float64; the small-ball screen of
``montecarlo`` gives it float32 copies of the rows and of each block's
factors, bounds each trial's rounding error a priori, and rechecks the
trials it cannot place in float64 through ``_dense_blocks`` again, at the
batch's own block row count (see ``contract_blocks``).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ValidationError

# bytes of intermediates one block holds: of trials in the dense path of
# ``contract``, of factor rows in a Monte-Carlo chunk
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
    if len(mats) == 0:
        raise ValidationError("kron needs at least one factor")
    if out is not None and not out.flags.c_contiguous:
        raise ValidationError("kron needs a C-contiguous out= array")
    res = mats[0]
    for j in range(1, len(mats)):
        left, right = res[..., :, None, :], mats[j][..., None, :, :]
        dest = None
        if out is not None and j == len(mats) - 1:
            dest = out.reshape(np.broadcast_shapes(left.shape, right.shape))
        if res.shape[-1] == mats[j].shape[-1] == 1:
            # one column: einsum's outer-product loop forms the same products
            # in about 60% of the time of the broadcast multiply (numpy 2.4.6)
            column = None if dest is None else dest[..., 0]
            prod = np.einsum("...i,...j->...ij", res[..., 0], mats[j][..., 0], out=column)[..., None]
        else:
            prod = np.multiply(left, right, out=dest)
        *batch, rows, cols, r = prod.shape
        res = prod.reshape(*batch, rows * cols, r)
    if out is None:
        return res
    if len(mats) == 1:
        np.copyto(out, res)
    return out


def contract(rows: np.ndarray, shape: tuple[int, ...], xs) -> np.ndarray:
    """Inner products of every basis row with every trial's simple tensor.

    rows: (m, D); xs: one (size, n_j) array per mode; both are read as
    float arrays.  Returns (size, m): the blocks of ``contract_blocks`` for
    this one row set, in order.
    """
    (rows,), xs, size = _arrays([rows], shape, xs)
    out = np.empty((size, rows.shape[0]))
    for start, (block,) in contract_blocks([rows], shape, xs):
        out[start : start + len(block)] = block
    return out


def contract_blocks(row_sets, shape: tuple[int, ...], xs, scratch=None):
    """Inner products of row sets of one row count with every trial's simple
    tensor, one block of trials at a time.

    row_sets: one or more (m, D) arrays, all of the same ``m``; xs: one
    (size, n_j) array per mode; both are read as float arrays, and float64
    arrays are used as they are.  Returns an iterator of ``(start, products)``
    over consecutive, non-overlapping trial ranges that cover the ``size``
    trials.  ``products[k]``, of shape ``(len, m)``, holds row set ``k``'s
    inner products with trials ``start : start + len``, which the one-set
    ``contract`` gives bit for bit.  Every array of the call comes from
    ``scratch`` (a ``_Scratch``, or one made for the call): the products are
    views of its ``"products"`` array, which the next step overwrites, and
    so may the caller.  Memory is one block per row set.

    When every row of a set has exactly one nonzero ``c`` at
    ``(i_1, ..., i_l)`` (the coordinate-line and diagonal constructions), its
    inner product is the gathered product ``x_1[i_1] * (... * (x_l[i_l] * c))``,
    O(len * m * l).  For finite factors it is bitwise what contracting the
    last mode first gives: there every other term of each sum is an exact
    zero, and the surviving products nest in this order.  The work is
    elementwise, so every block partition gives the same bits.

    Every other set takes the dense path (``_dense_blocks``).  With one mode
    it is one gemm over every trial.  With more it splits the modes at the
    ``t`` that holds the fewest entries per trial (``_split``), forms the
    trailing factors' product ``x_{t+1} x ... x x_l`` with ``kron``,
    multiplies it by the rows, viewed as ``(m * prod n[:t], prod n[t:])``, in
    one gemm, and finishes with one batched dot against the leading factors'
    product ``x_1 x ... x x_t``.  That sums in another order than the
    last-mode-first chain, so the two agree up to rounding only.  Trials go
    through in equal blocks that fit in ``_BLOCK_BYTES``, so memory is
    O(size * sum n_j) plus one block instead of O(size * prod n_j).  Every
    gemm of a set has the same row count, so its products are bitwise those
    of a single block holding every trial wherever BLAS rounds a row alike in
    products of that many rows and more, as it does for every shape the
    tests check.  The split and the blocks depend on the shape and the row
    count alone, so the dense sets share each block's two Kronecker products
    and each still takes the gemm and the batched dot of a one-set call.
    Gather sets follow the dense blocks, or blocks of
    ``_block_rows(len(row_sets) * m)`` trials when no set is dense; the
    trials that the last dense block repeats are yielded once.

    ``montecarlo.estimate_smallball`` screens large dense projections (more
    than 4096 multiply-adds per trial) in float32 before it calls on this
    function's float64 path.  The screen runs the same split, blocks and
    steps through ``_dense_blocks`` on float32 copies, sums each trial's
    norm in float64, and bounds its distance from the exact norm by
    ``gamma_K * ||F||_F * prod_j ||x_j||`` (Higham 2002, section 3.1), with
    ``K = (l + 1) + (l - 2) + prod n[t:] + prod n[:t] + m`` roundings of
    u = 2^-24 on a product's path (the casts, the Kronecker products, the
    gemm, the batched dot, the norm), plus the float64 path's own
    ``gamma_K`` at 2^-53 and a term for underflow.  A trial whose norm is
    farther than that from every threshold is counted from it: the exact
    and the float64 norm lie on its side of each.  The others are gathered,
    padded with repeats to one block of the batch, and go through
    ``_dense_blocks`` in float64 on blocks of the batch's row count, so each
    gets the bits this function gives it.  ``montecarlo._membership_counts``
    likewise decides most slab tests from one float64 gemm of every body's
    directions against the full Kronecker block, with an a-priori band, and
    gives the trials it cannot place, through the same recheck, the bits of
    this function.
    """
    row_sets, xs, size = _arrays(row_sets, shape, xs)
    counts = [rows.shape[0] for rows in row_sets]
    if len(set(counts)) != 1:
        raise ValidationError(f"contract needs one or more row sets of one row count, got counts {counts}")
    m = counts[0]
    singles = [_single_entries(rows, shape) for rows in row_sets]
    dense = [k for k, single in enumerate(singles) if single is None]
    if size == 0:
        return iter(())
    block = _dense_block(shape, m, size) if dense else min(size, _block_rows(max(1, len(row_sets) * m)))
    scratch = _Scratch() if scratch is None else scratch
    outs = list(scratch.array("products", (len(row_sets), block, m)))
    dense_rows, dense_outs = [row_sets[k] for k in dense], [outs[k] for k in dense]
    starts = _dense_blocks(dense_rows, shape, xs, dense_outs, scratch) if dense else range(0, size, block)
    gathered = [(k, [_columns(x, i) for x, i in zip(xs, g[0])], g[1]) for k, g in enumerate(singles) if g is not None]

    def steps():
        cur = 0
        for s in starts:
            end = min(s + block, size)
            products = [out[cur - s : end - s] for out in outs]
            for k, cols, coef in gathered:
                np.multiply(cols[-1][cur:end], coef, out=products[k])
                for c in cols[-2::-1]:
                    np.multiply(c[cur:end], products[k], out=products[k])
            yield cur, products
            cur = end

    return steps()


def _arrays(row_sets, shape: tuple[int, ...], xs):
    """``row_sets`` and ``xs`` as lists of float arrays (float64 arrays pass
    through uncopied) and their trial count, once every factor is
    ``(size, n_j)`` for its mode of ``shape`` and every row set
    ``(m_k, prod shape)``."""
    row_sets = list(row_sets)
    try:
        arrays = [np.asarray(a) for a in (*row_sets, *xs)]
    except ValueError as exc:
        raise ValidationError(f"contract needs rows and factors that are arrays: {exc}") from None
    if not all(np.can_cast(a.dtype, float, casting="same_kind") for a in arrays):
        raise ValidationError(f"contract needs real numeric rows and factors, got {sorted({str(a.dtype) for a in arrays})}")
    arrays = [a.astype(float, copy=False) for a in arrays]
    row_sets, xs = arrays[: len(row_sets)], arrays[len(row_sets) :]
    dims = [x.shape for x in xs]
    if not dims or len(dims) != len(shape) or any(len(d) != 2 or d[1] != n for d, n in zip(dims, shape)):
        raise ValidationError(f"contract needs one (size, n_j) factor per mode of shape {tuple(shape)}, got {dims}")
    if any(d[0] != dims[0][0] for d in dims):
        raise ValidationError(f"contract needs factors of one trial count, got shapes {dims}")
    width = math.prod(shape)
    for rows in row_sets:
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValidationError(f"contract needs rows of width prod{tuple(shape)} = {width}, got shape {rows.shape}")
    return row_sets, xs, dims[0][0]


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


def _entries(shape: tuple[int, ...], m: int, t: int) -> int:
    """Entries per trial of the split at mode ``t`` with ``m`` rows: the
    trailing product ``prod n[t:]``, the ``m * prod n[:t]`` partial sums and
    the leading product ``prod n[:t]``."""
    return math.prod(shape[t:]) + (m + 1) * math.prod(shape[:t])


def _split(shape: tuple[int, ...], m: int) -> int:
    """The mode ``1 <= t < l`` whose split holds the fewest entries per trial (``_entries``)."""
    return min(range(1, len(shape)), key=lambda t: _entries(shape, m, t))


def _dense_block(shape: tuple[int, ...], m: int, size: int) -> int:
    """Trials per block of the dense path with ``m`` rows: ``size`` with one
    mode, else equal blocks, as few as ``_BLOCK_BYTES`` allows."""
    if len(shape) == 1:
        # no intermediate to block: the one factor is its own product
        return size
    most = max(2, _block_rows(_entries(shape, m, _split(shape, m))))
    # the last block ends at ``size`` and repeats (with the same bits) fewer
    # trials than there are blocks.  So every gemm has ``block`` rows: numpy
    # sends one row to gemv, and OpenBLAS a few rows to a small-matrix
    # kernel, both rounding unlike a gemm of many rows.
    return -(-size // -(-size // most))


def _dense_blocks(row_sets, shape: tuple[int, ...], xs, outs, scratch):
    """Per block of the dense path, in order: write each row set's products
    with the block's trials into its ``outs`` array, of the block's length,
    and yield the block's first trial.  The sets share the row count ``m``,
    so the split, the block and the two Kronecker products of a block;
    ``scratch`` holds the trailing one and the sums (``"trail"``, ``"sums"``).
    Every step computes in the dtype of the arrays it is given: ``outs``
    sets that of the kept ones."""
    size = xs[0].shape[0]
    block, m = outs[0].shape
    if len(shape) == 1:
        for rows, out in zip(row_sets, outs):
            np.matmul(xs[0], rows.T, out=out)
        yield 0
        return
    t = _split(shape, m)
    lead, trail = math.prod(shape[:t]), math.prod(shape[t:])
    # (prod n[t:], m * prod n[:t]): for C-ordered rows a Fortran-ordered
    # view, which BLAS reads transposed, so no copy is made
    rights = [rows.reshape(m * lead, trail).T for rows in row_sets]
    tail_out = scratch.array("trail", (block, trail, 1), outs[0].dtype)
    sums_out = scratch.array("sums", (block, m * lead), outs[0].dtype)
    for s in range(0, size, block):
        s = min(s, size - block)
        tail = kron([x[s : s + block, :, None] for x in xs[t:]], out=tail_out)[:, :, 0]
        head = kron([x[s : s + block, :, None] for x in xs[:t]])[:, :, 0]
        for right, out in zip(rights, outs):
            sums = np.dot(tail, right, out=sums_out).reshape(block, m, lead)
            # fastest at (block, m, lead) = (2520, 8, 4): median 120 us; matmul 147, k-loop 144 (numpy 2.4.6, 2 vCPU)
            np.einsum("bmk,bk->bm", sums, head, out=out)
        yield s


def _block_rows(width: int) -> int:
    """Rows of ``width`` floats that fit in one block of ``_BLOCK_BYTES`` (at least one)."""
    return max(1, _BLOCK_BYTES // (8 * width))


class _Scratch(threading.local):
    """Arrays reused from call to call, kept per thread and per name.

    A fresh array past the allocator's mmap threshold is mapped and
    page-faulted anew on every call.  Instead each thread keeps, by name, a
    flat float64 array as large as the name's largest request so far in
    bytes, and every request gets its leading bytes as a C-contiguous array
    of its shape and dtype, so one name may serve float32 and float64 in
    turn.  A holder belongs to one run or one ``contract_blocks`` call, and
    what it keeps goes with it.  Callers overwrite what they take before they
    read it, so no bit changes, and return no view of it.
    """

    def __init__(self):
        self.kept = {}

    def array(self, name: str, shape, dtype=float) -> np.ndarray:
        """An uninitialised array of ``shape`` and ``dtype`` (float64 by default), backed by the kept
        array when that holds enough bytes."""
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        # the kept array is float64 whatever the request: a name's bytes serve every dtype in turn
        words = -(-size * dtype.itemsize // 8)
        flat = self.kept.get(name)
        if flat is None or flat.size < words:
            flat = self.kept[name] = np.empty(words)
        return flat[:words].view(dtype)[:size].reshape(shape)
