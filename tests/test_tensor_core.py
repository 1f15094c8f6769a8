import math
import threading
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorball import (
    ValidationError,
    contract,
    kron,
)
from tensorball import tensor_core


# Flattenings, inner products and norms of simple tensors, worked by hand,
# through the two primitives that compute them.


def flat(*factors):
    """Row-major flattening of the simple tensor with these factors."""
    return kron([np.asarray(f, dtype=float)[:, None] for f in factors])[:, 0]


def inner(rows, *factors):
    """Inner products of ``rows`` with one simple tensor, by ``contract``."""
    fs = [np.asarray(f, dtype=float) for f in factors]
    return contract(np.atleast_2d(rows), tuple(f.size for f in fs), [f[None, :] for f in fs])[0]


def test_flatten_2x2():
    assert np.array_equal(flat([1, 2], [3, 4]), [3.0, 4.0, 6.0, 8.0])


def test_flatten_all_ones():
    assert np.array_equal(flat([1], [1], [1]), [1.0])


def test_flatten_entry_is_product():
    # entry (2,1,2), 1-based, last index fastest
    idx = (2 - 1) * 4 + (1 - 1) * 2 + (2 - 1)
    assert flat([1, 2], [3, 4], [5, 6])[idx] == 2 * 3 * 6 == 36


def test_inner_simple_self():
    t = ([1, 2], [3, 4])
    assert inner(flat(*t), *t) == 125


def test_inner_simple_matches_flatten_dot():
    a = ([1, 2], [3, 4])
    b = ([1, 0], [0, 1])
    assert inner(flat(*b), *a) == 4
    assert np.dot(flat(*a), flat(*b)) == 4


def test_inner_simple_zero_factor():
    assert inner(flat([5, 5], [5, 5]), [1, 2], [0, 0]) == 0


def test_inner_flat_coordinate():
    e11 = np.array([1.0, 0.0, 0.0, 0.0])
    assert inner(e11, [1, 2], [3, 4]) == 3.0


def test_inner_flat_self_direction():
    t = ([1, 2], [3, 4], [1, 1])
    f = flat(*t)
    assert abs(inner(f / np.linalg.norm(f), *t) - np.linalg.norm(f)) < 1e-12


def test_inner_flat_zero_factor():
    assert inner(np.ones(4), [0, 0], [3, 4]) == 0


vectors = st.lists(st.floats(-3, 3), min_size=2, max_size=3)


@given(st.lists(vectors, min_size=2, max_size=3), st.lists(vectors, min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_inner_flat_consistent_with_inner_simple(fa, fb):
    order = min(len(fa), len(fb))
    fa, fb = fa[:order], fb[:order]
    fb = [b[: len(a)] + [1.0] * (len(a) - len(b)) for a, b in zip(fa, fb)]
    lhs = inner(flat(*fb), *fa)[0]
    rhs = math.prod(float(np.dot(a, b)) for a, b in zip(fa, fb))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_projection_norm_full_space_is_frobenius():
    t = ([1, 2], [3, 4])
    assert abs(np.linalg.norm(inner(np.eye(4), *t)) - math.sqrt(5) * 5) < 1e-12


def test_projection_norm_two_coordinates():
    rows = np.zeros((2, 4))
    rows[0, 0] = 1.0  # e_(1,1)
    rows[1, 3] = 1.0  # e_(2,2)
    assert abs(np.linalg.norm(inner(rows, [1, 2], [3, 4])) - math.sqrt(73)) < 1e-12


def test_projection_norm_empty_basis():
    assert np.linalg.norm(inner(np.zeros((0, 4)), [1, 2], [3, 4])) == 0.0


def test_frobenius_norm_values():
    assert np.linalg.norm(flat([3, 4], [1, 0])) == 5
    assert abs(np.linalg.norm(flat([1, 1], [1, 1], [1, 1])) - 2 * math.sqrt(2)) < 1e-12
    assert np.linalg.norm(flat([0, 0], [1, 2])) == 0


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.data())
@settings(max_examples=20, deadline=None)
def test_kron_matches_numpy_kron_bitwise(seed, ell, data):
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal(data.draw(st.integers(1, 4))) for _ in range(ell)]
    got = kron([f[:, None] for f in factors])[:, 0]
    assert np.array_equal(got, reduce(np.kron, factors))


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_kron_batched_matches_per_trial_loop_bitwise(seed, dims, r):
    rng = np.random.default_rng(seed)
    size = 5
    mats = [rng.standard_normal((size, n, r)) for n in dims]
    got = kron(mats)
    assert got.shape == (size, math.prod(dims), r)
    for b in range(size):
        for c in range(r):
            assert np.array_equal(got[b, :, c], reduce(np.kron, [a[b, :, c] for a in mats]))


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_contract_matches_per_row_loop(seed, dims, m):
    rng = np.random.default_rng(seed)
    shape = tuple(dims)
    size = 3
    rows = rng.standard_normal((m, math.prod(shape)))
    xs = [rng.standard_normal((size, n)) for n in shape]
    got = contract(rows, shape, xs)
    assert got.shape == (size, m)
    for b in range(size):
        flat = reduce(np.kron, [x[b] for x in xs])
        for k in range(m):
            want = float(np.dot(rows[k], flat))
            assert abs(got[b, k] - want) <= 1e-12 * max(1.0, np.linalg.norm(rows[k]) * np.linalg.norm(flat))


def last_mode_first_contract(rows, shape, xs):
    """The dense chain before the Kronecker split: contract the last mode
    first, in one block.  The one-nonzero gather must match its bits."""
    m = rows.shape[0]
    ell = len(shape)
    if ell == 1:
        return xs[0] @ rows.T
    cur = np.tensordot(xs[-1], rows.reshape((m,) + shape), axes=(1, ell))
    rest = math.prod(shape[:-1])
    size = xs[0].shape[0]
    for j in range(ell - 2, 0, -1):
        nj = shape[j]
        cur = cur.reshape(size, m * (rest // nj), nj)
        cur = np.einsum("bkj,bj->bk", cur, xs[j])
        rest //= nj
        cur = cur.reshape(size, m, rest)
    return np.einsum("bmj,bj->bm", cur.reshape(size, m, rest), xs[0])


def unblocked_contract(rows, shape, xs):
    """The dense path in one block holding every trial: the reference its bits must match."""
    m = rows.shape[0]
    if len(shape) == 1:
        return xs[0] @ rows.T
    t = tensor_core._split(shape, m)
    lead, trail = math.prod(shape[:t]), math.prod(shape[t:])
    sums = kron([x[:, :, None] for x in xs[t:]])[:, :, 0] @ rows.reshape(m * lead, trail).T
    head = kron([x[:, :, None] for x in xs[:t]])[:, :, 0]
    return np.einsum("bmk,bk->bm", sums.reshape(len(sums), m, lead), head)


def dense_block(shape, m):
    """Most trials per block of the dense path (one mode is not blocked)."""
    if len(shape) == 1:
        return 2
    t = tensor_core._split(shape, m)
    lead, trail = math.prod(shape[:t]), math.prod(shape[t:])
    return max(2, tensor_core._BLOCK_BYTES // (8 * (trail + (m + 1) * lead)))


DENSE_SHAPES = [((5,), 3), ((7, 9), 5), ((16, 16, 16), 16), ((8, 8, 8), 8), ((8, 8, 8), 1), ((8, 8, 8), 0), ((3, 5, 2, 4), 3)]


@pytest.mark.parametrize("shape, m", DENSE_SHAPES)
def test_contract_blocks_match_unblocked_bitwise(shape, m):
    rng = np.random.default_rng(math.prod(shape) + m)
    rows = rng.standard_normal((m, math.prod(shape)))
    block = dense_block(shape, m)
    for size in (1, block - 1, block, block + 1, 3 * block + 5):
        xs = [rng.standard_normal((size, n)) for n in shape]
        got = contract(rows, shape, xs)
        assert got.shape == (size, m)
        assert np.array_equal(got, unblocked_contract(rows, shape, xs)), size


@pytest.mark.parametrize("shape, m", DENSE_SHAPES)
def test_contract_dense_matches_last_mode_first_chain(shape, m):
    # the Kronecker split sums in another order: equal up to rounding
    rng = np.random.default_rng(math.prod(shape) + m)
    rows = rng.standard_normal((m, math.prod(shape)))
    size = 3 * dense_block(shape, m) + 5
    xs = [rng.standard_normal((size, n)) for n in shape]
    scale = np.linalg.norm(rows, axis=1) * math.prod(np.linalg.norm(x, axis=1) for x in xs)[:, None]
    err = np.abs(contract(rows, shape, xs) - last_mode_first_contract(rows, shape, xs))
    assert np.all(err <= 1e-12 * scale)


def test_contract_memory_stays_within_blocks():
    # the unblocked chain peaks at about 143 MB here
    rng = np.random.default_rng(0)
    shape, m, size = (16, 16, 16), 16, 4096
    rows = rng.standard_normal((m, math.prod(shape)))
    xs = [rng.standard_normal((size, n)) for n in shape]
    tracemalloc.start()
    try:
        contract(rows, shape, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def in_thread(run):
    """``run()``'s result, computed on a fresh thread."""
    results = []
    worker = threading.Thread(target=lambda: results.append(run()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return results[0]


def test_scratch_keeps_one_array_per_name_and_thread():
    scratch = tensor_core._Scratch()
    first = scratch.array("x", (100, 4))
    assert first.shape == (100, 4) and first.flags.c_contiguous
    # shrinking shapes are views of the one allocation, shaped as asked
    for shape in ((100, 3), (37, 4), (400,), (1, 1)):
        view = scratch.array("x", shape)
        assert view.shape == shape and view.flags.c_contiguous
        assert view.ctypes.data == first.ctypes.data and view.base is first.base
    # other names get their own arrays
    assert not np.shares_memory(scratch.array("y", (100, 4)), first)
    # a larger shape allocates anew, and that array is kept
    larger = scratch.array("x", (101, 4))
    assert not np.shares_memory(larger, first)
    assert larger.base is scratch.kept["x"] and scratch.array("x", (100, 4)).ctypes.data == larger.ctypes.data
    # another thread keeps its own arrays under the same name
    other = in_thread(lambda: (scratch.array("x", (10, 4)), dict(scratch.kept)))
    assert not np.shares_memory(other[0], larger)
    assert set(other[1]) == {"x"} and other[1]["x"].size == 40
    assert scratch.array("x", (10, 4)).ctypes.data == larger.ctypes.data


def blocks_into(rows, shape, xs, scratch):
    """The one-set products of ``contract_blocks`` with ``scratch``, copied into one array."""
    return np.concatenate([block.copy() for _, (block,) in tensor_core.contract_blocks([rows], shape, xs, scratch)])


def test_dense_blocks_reuse_one_kept_array_per_thread(monkeypatch):
    rng = np.random.default_rng(4)
    shape, m = (8, 8, 8), 8
    rows = rng.standard_normal((m, math.prod(shape)))
    xs = [rng.standard_normal((3 * dense_block(shape, m) + 5, n)) for n in shape]

    def twice(scratch):
        first = blocks_into(rows, shape, xs, scratch)
        kept = dict(scratch.kept)
        return first, kept, blocks_into(rows, shape, xs, scratch), dict(scratch.kept)

    scratch = tensor_core._Scratch()
    first, kept, second, again = in_thread(lambda: twice(scratch))
    assert np.array_equal(first, second) and np.array_equal(first, unblocked_contract(rows, shape, xs))
    assert set(kept) == {"products", "trail", "sums"} and all(again[k] is kept[k] for k in kept)
    assert 0 < kept["trail"].nbytes + kept["sums"].nbytes <= tensor_core._BLOCK_BYTES
    # this thread's arrays under the same names are its own
    mine = twice(scratch)[1]
    assert not any(np.shares_memory(a, b) for a in kept.values() for b in mine.values())
    # at a 64-byte budget the blocks fall to two trials each, kept by the
    # holder like any others (two-trial gemms round unlike long ones, so
    # only the values agree)
    monkeypatch.setattr(tensor_core, "_BLOCK_BYTES", 64)
    got, kept, _, _ = in_thread(lambda: twice(tensor_core._Scratch()))
    assert np.allclose(got, first) and kept["sums"].size == 2 * m * math.prod(shape[: tensor_core._split(shape, m)])


def test_contract_keeps_no_array_once_it_returns():
    # without a holder, ``contract_blocks`` makes one for the call: nothing
    # of it outlives the call on the calling thread, here a fresh one
    rng = np.random.default_rng(5)
    shape, m = (8, 8, 8), 8
    rows = rng.standard_normal((m, math.prod(shape)))
    xs = [rng.standard_normal((3 * dense_block(shape, m) + 5, n)) for n in shape]

    def traced():
        tracemalloc.start()
        try:
            return contract(rows, shape, xs), tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    got, held = in_thread(traced)
    assert np.array_equal(got, unblocked_contract(rows, shape, xs))
    assert held < got.nbytes + 4096


def single_entry_rows(rng, shape, m, coefs):
    """m rows with one nonzero each, at random positions, cycling through ``coefs``."""
    rows = np.zeros((m, math.prod(shape)))
    cols = rng.integers(0, rows.shape[1], size=m)
    rows[np.arange(m), cols] = [coefs[k % len(coefs)] for k in range(m)]
    return rows


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [0, 1, 4, 9])
def test_contract_single_entry_rows_match_unblocked_bitwise(ell, m):
    rng = np.random.default_rng(10 * ell + m)
    shape = tuple(int(n) for n in rng.integers(2, 6, size=ell))
    rows = single_entry_rows(rng, shape, m, (1.0, -1.0, -3.7, 0.1, 1e-300, 1e300, 2.5e-310))
    block = max(2, tensor_core._BLOCK_BYTES // (8 * max(1, m * math.prod(shape[:-1]))))
    for size in (1, 2, 3, block - 1, block + 1, 3 * block + 5):
        xs = [rng.standard_normal((size, n)) for n in shape]
        got = contract(rows, shape, xs)
        assert got.shape == (size, m)
        assert np.array_equal(got, last_mode_first_contract(rows, shape, xs)), size


def rows_at(shape, indices, coefs):
    """One row per multi-index, holding its coefficient there."""
    rows = np.zeros((len(indices), math.prod(shape)))
    rows[np.arange(len(indices)), np.ravel_multi_index(tuple(np.array(indices).T), shape)] = coefs
    return rows


# the coordinate line and the diagonal (every mode's columns step evenly, so
# they are read as views), a stepped and a shuffled column order
GATHER_ROWS = {
    "line": ((6, 6, 6), [(k, 0, 0) for k in range(5)]),
    "diagonal": ((6, 6, 6), [(0, 0, 0)]),
    "stepped": ((7, 5, 4), [(2 * k, 3, 3 - k) for k in range(4)]),
    "shuffled": ((7, 5, 4), [(3, 1, 2), (0, 4, 2), (6, 0, 1), (3, 2, 0)]),
}


@pytest.mark.parametrize("name", sorted(GATHER_ROWS))
def test_contract_into_out_gathers_bitwise(name):
    shape, indices = GATHER_ROWS[name]
    rows = rows_at(shape, indices, [(-1.0) ** k * (1 + k / 3) for k in range(len(indices))])
    rng = np.random.default_rng(len(name))
    xs = [rng.standard_normal((50, n)) for n in shape]
    assert np.array_equal(contract(rows, shape, xs), last_mode_first_contract(rows, shape, xs))


@pytest.mark.parametrize("name", sorted(GATHER_ROWS))
def test_read_columns_restate_the_gather_bitwise(name):
    shape, indices = GATHER_ROWS[name]
    rows = rows_at(shape, indices, [(-1.0) ** k * (1 + k / 3) for k in range(len(indices))])
    cols, read_rows, read_shape = tensor_core.read_columns(rows, shape)
    assert [c.tolist() for c in cols] == [sorted({i[j] for i in indices}) for j in range(len(shape))]
    assert read_shape == tuple(c.size for c in cols) and read_rows.shape == (len(indices), math.prod(read_shape))
    rng = np.random.default_rng(len(name))
    xs = [rng.standard_normal((50, n)) for n in shape]
    got = contract(read_rows, read_shape, [x[:, c] for x, c in zip(xs, cols)])
    assert np.array_equal(got, contract(rows, shape, xs))


@pytest.mark.parametrize("shape, m", [((5,), 3), ((8, 8, 8), 8)])
def test_contract_into_out_dense_bitwise(shape, m):
    rng = np.random.default_rng(m)
    rows = rng.standard_normal((m, math.prod(shape)))
    xs = [rng.standard_normal((3 * dense_block(shape, m) + 5, n)) for n in shape]
    assert np.array_equal(contract(rows, shape, xs), unblocked_contract(rows, shape, xs))


def test_contract_gathers_only_when_every_row_has_one_nonzero(monkeypatch):
    dense_calls = []
    dense = tensor_core._dense_blocks
    monkeypatch.setattr(tensor_core, "_dense_blocks", lambda *args: dense_calls.append(1) or dense(*args))
    rng = np.random.default_rng(3)
    shape = (3, 4, 2)
    xs = [rng.standard_normal((7, n)) for n in shape]
    single = single_entry_rows(rng, shape, 3, (1.0, -2.0))
    contract(single, shape, xs)
    assert dense_calls == []
    two = single.copy()
    two[1, (np.flatnonzero(two[1])[0] + 1) % two.shape[1]] = 0.5
    empty = single.copy()
    empty[2] = 0.0
    for rows in (two, empty):
        got = contract(rows, shape, xs)
        assert np.array_equal(got, unblocked_contract(rows, shape, xs))
        assert tensor_core.read_columns(rows, shape) is None
    assert dense_calls == [1, 1]


def _one_nonzero_rows(shape):
    """Two rows on ``shape`` with one nonzero each."""
    return rows_at(shape, [(0,) * len(shape), (1,) + (0,) * (len(shape) - 1)], [1.0, -2.0])


# (rows, factors) on shape (2, 2) that do not fit each other
MISFITS = {
    "gather-wide-factors": (_one_nonzero_rows((2, 2)), [np.ones((5, 3))] * 2),
    "dense-wide-factors": (np.ones((2, 4)), [np.ones((5, 3))] * 2),
    "gather-unequal-trials": (_one_nonzero_rows((2, 2)), [np.ones((5, 2)), np.ones((4, 2))]),
    "dense-unequal-trials": (np.ones((2, 4)), [np.ones((5, 2)), np.ones((4, 2))]),
    "rows-too-wide": (np.ones((2, 5)), [np.ones((5, 2))] * 2),
    "rows-too-narrow": (np.ones((2, 3)), [np.ones((5, 2))] * 2),
    "one-dim-rows": (np.ones(4), [np.ones((5, 2))] * 2),
    "too-few-factors": (np.ones((2, 4)), [np.ones((5, 2))]),
    "too-many-factors": (np.ones((2, 4)), [np.ones((5, 2))] * 3),
    "one-dim-factors": (np.ones((2, 4)), [np.ones(2)] * 2),
    "list-rows-wide-factors": ([[1.0, 0.0, 0.0, 0.0]], [np.ones((3, 3))] * 2),
    "list-factors-unequal-trials": (np.ones((2, 4)), [np.ones((5, 2)).tolist(), np.ones((4, 2)).tolist()]),
    "ragged-rows": ([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0]], [np.ones((5, 2))] * 2),
    "text-rows": ([["1", "0", "x", "0"]], [np.ones((5, 2))] * 2),
    "text-factors": (np.ones((2, 4)), [[["a", "b"]]] * 2),
    "complex-rows": (np.ones((2, 4)) * 1j, [np.ones((5, 2))] * 2),
    "complex-factors": (_one_nonzero_rows((2, 2)), [np.ones((5, 2)) + 0j] * 2),
    "object-factors": (np.ones((2, 4)), [np.full((5, 2), None)] * 2),
}


@pytest.mark.parametrize("name", sorted(MISFITS))
def test_contract_refuses_rows_and_factors_that_do_not_fit(name):
    rows, xs = MISFITS[name]
    with pytest.raises(ValidationError, match="contract needs"):
        contract(rows, (2, 2), xs)
    # the iterator checks before its first block
    with pytest.raises(ValidationError, match="contract needs"):
        tensor_core.contract_blocks([rows, rows], (2, 2), xs)


@pytest.mark.parametrize("gather", [True, False])
def test_contract_reads_lists_and_integers_as_float_arrays(gather):
    # list rows on the gather path ended in an AxisError, list factors in a TypeError
    rng = np.random.default_rng(6)
    shape = (3, 4)
    rows = _one_nonzero_rows(shape) if gather else rng.integers(-3, 4, (2, 12)).astype(float)
    xs = [rng.integers(-5, 6, (7, n)).astype(float) for n in shape]
    want = contract(rows, shape, xs)
    for got_rows, got_xs in [
        (rows.tolist(), [x.tolist() for x in xs]),
        (rows.astype(np.int64), [x.astype(np.int32) for x in xs]),
        (rows, tuple(xs)),
    ]:
        assert np.array_equal(contract(got_rows, shape, got_xs).view(np.int64), want.view(np.int64))
        [(_, (block,))] = tensor_core.contract_blocks([got_rows], shape, got_xs)
        assert np.array_equal(block, want)
    assert np.array_equal(contract([[1.0, 0, 0, 0]], (2, 2), [np.ones((3, 2))] * 2), np.ones((3, 1)))


def body_rows(shape, counts, seed):
    """Dense Gaussian rows, one set per count (a count of 0 is a set of no rows, which gathers)."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((c, math.prod(shape))) for c in counts]


# row sets on one shape, contracted in one call per row count: dense sets of
# one count share their partition, and one-nonzero sets gather, alongside
# dense sets of their count (mixed) or alone
BLOCK_CASES = {
    "bodies-0-3-8": ((16, 16, 16), body_rows((16, 16, 16), (0, 3, 8), 1)),
    "mixed": (
        (7, 5, 4),
        [
            *body_rows((7, 5, 4), (4,), 2),
            rows_at((7, 5, 4), GATHER_ROWS["stepped"][1], [1.0, -2.0, 0.5, 3.0]),
            *body_rows((7, 5, 4), (4, 2), 3),
            rows_at((7, 5, 4), GATHER_ROWS["shuffled"][1], -1.5),
        ],
    ),
    "one-mode": ((5,), [*body_rows((5,), (3,), 4), rows_at((5,), [(4,), (1,)], 2.0), *body_rows((5,), (3,), 5)]),
}


def by_count(row_sets):
    """``row_sets`` grouped by row count, in order of first appearance."""
    groups = {}
    for rows in row_sets:
        groups.setdefault(rows.shape[0], []).append(rows)
    return list(groups.values())


def block_sizes(shape, row_sets):
    """Trial counts that end every dense set's partition in an overlapping last block, and 0."""
    sizes = {0, 1, 2}
    for rows in row_sets:
        if tensor_core.read_columns(rows, shape) is None:
            block = dense_block(shape, rows.shape[0])
            sizes |= {block - 1, block + 1, 3 * block + 5}
    return sorted(sizes)


def blocks_match_contract(row_sets, shape, xs, scratch=None):
    """Whether ``contract_blocks``, called once per row count, covers the
    trials in consecutive ranges and gives each set the bits of its own
    ``contract`` call."""
    return all(one_call_matches_contract(sets, shape, xs, scratch) for sets in by_count(row_sets))


def one_call_matches_contract(row_sets, shape, xs, scratch):
    want = [contract(rows, shape, xs) for rows in row_sets]
    got = [np.full_like(w, np.nan) for w in want]
    end = 0
    for start, products in tensor_core.contract_blocks(row_sets, shape, xs, scratch):
        assert start == end and len(products) == len(row_sets)
        end = start + len(products[0])
        assert end > start or len(xs[0]) == 0
        for g, p, rows in zip(got, products, row_sets):
            assert p.shape == (end - start, rows.shape[0])
            g[start:end] = p
    assert end == len(xs[0])
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_iterator_matches_one_contract_per_row_set(name):
    shape, row_sets = BLOCK_CASES[name]
    rng = np.random.default_rng(len(name))
    for size in block_sizes(shape, row_sets):
        xs = [rng.standard_normal((size, n)) for n in shape]
        assert blocks_match_contract(row_sets, shape, xs), size
        # each set alone partitions as the one-set call does
        assert all(blocks_match_contract([rows], shape, xs) for rows in row_sets), size


@pytest.mark.parametrize("counts", [(), (3, 2), (0, 1, 1), (2, 2, 0)], ids=["none", "3-2", "0-1-1", "2-2-0"])
def test_block_iterator_refuses_row_sets_of_unequal_counts(counts):
    shape = (2, 2)
    row_sets = body_rows(shape, counts, 0)
    with pytest.raises(ValidationError, match="contract needs one or more row sets of one row count"):
        tensor_core.contract_blocks(row_sets, shape, [np.ones((5, 2))] * 2)


def test_block_iterator_draws_its_blocks_from_the_scratch_holder():
    shape, row_sets = BLOCK_CASES["bodies-0-3-8"]
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal((1000, n)) for n in shape]
    scratch = tensor_core._Scratch()
    assert blocks_match_contract(row_sets, shape, xs, scratch)
    kept = dict(scratch.kept)
    assert set(kept) == {"products", "trail", "sums"}
    for sets in by_count(row_sets):
        for _, arrays in tensor_core.contract_blocks(sets, shape, xs, scratch):
            assert all(a.size == 0 or np.shares_memory(a, kept["products"]) for a in arrays)
        assert list(tensor_core.contract_blocks(sets, shape, [x[:0] for x in xs], scratch)) == []
    # the second round takes the arrays of the first
    assert all(scratch.kept[name] is a for name, a in kept.items())


@pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 17])
def test_row_norms_are_the_same_on_any_block_partition(m):
    # a kernel reduces each block to row norms: on any partition, and from
    # any base offset of the block in memory, the bits are the whole array's
    rng = np.random.default_rng(m)
    size = 1000
    a = rng.standard_normal((size, m)) * np.exp(rng.uniform(-30, 30, (size, m)))
    whole = np.einsum("bm,bm->b", a, a)
    for offset in range(4):
        b = np.empty(size * m + offset)[offset:].reshape(size, m)
        b[...] = a
        for step in (1, 2, 3, 7, 64, 333, size):
            got = np.empty(size)
            for s in range(0, size, step):
                np.einsum("bm,bm->b", b[s : s + step], b[s : s + step], out=got[s : s + step])
            assert got.tobytes() == whole.tobytes(), (offset, step)


@pytest.mark.parametrize("dims, r", [([3], 2), ([2, 3], 1), ([4, 4, 4], 1), ([3, 2, 4], 3)])
def test_kron_out_matches_fresh_bitwise(dims, r):
    rng = np.random.default_rng(sum(dims) + r)
    mats = [rng.standard_normal((6, n, r)) for n in dims]
    buf = np.empty((9, math.prod(dims), r))
    got = kron(mats, out=buf[:6])
    assert got.base is buf
    assert np.array_equal(got, kron(mats))
    with pytest.raises(ValidationError):
        kron(mats, out=np.empty((6, 2 * math.prod(dims), r))[:, ::2])


def test_kron_refuses_an_empty_list():
    # mats[0] raised an IndexError
    with pytest.raises(ValidationError, match="at least one factor"):
        kron([])


def test_scratch_serves_every_dtype_from_one_kept_array():
    scratch = tensor_core._Scratch()
    single = scratch.array("x", (10, 4), np.float32)
    kept = scratch.kept["x"]
    # the kept array is float64 and as large as the request's bytes
    assert single.dtype == np.float32 and single.shape == (10, 4) and single.flags.c_contiguous
    assert kept.dtype == np.float64 and kept.size == 20 and single.base is kept
    # a float64 request of as many bytes, and a bool one, take the same array
    double = scratch.array("x", (5, 4))
    flags = scratch.array("x", (160,), bool)
    assert scratch.kept["x"] is kept and double.ctypes.data == single.ctypes.data == flags.ctypes.data
    # an odd float32 count rounds up to whole float64 entries
    assert scratch.array("y", (7,), np.float32).size == 7 and scratch.kept["y"].size == 4


def test_dense_blocks_compute_in_the_dtype_they_are_given():
    rng = np.random.default_rng(8)
    shape, m = (5, 6, 4), 7
    rows = rng.standard_normal((m, math.prod(shape)))
    # two blocks of 1501 trials, the second repeating one
    xs = [rng.standard_normal((3_001, n)) for n in shape]
    block = tensor_core._dense_block(shape, m, 3_001)
    want = unblocked_contract(rows, shape, xs)
    scratch = tensor_core._Scratch()
    out = np.empty((block, m), np.float32)
    single = [x.astype(np.float32) for x in xs]
    for s in tensor_core._dense_blocks([rows.astype(np.float32)], shape, single, [out], scratch):
        np.testing.assert_allclose(out, want[s : s + block], rtol=1e-4, atol=1e-4)
    assert {name: a.dtype for name, a in scratch.kept.items()} == {"trail": np.float64, "sums": np.float64}
    # the float32 sums took half the bytes of float64 ones, in whole float64 words
    assert scratch.kept["sums"].size == -(-block * m * math.prod(shape[: tensor_core._split(shape, m)]) // 2)


def test_kron_of_single_columns_keeps_the_dtype_and_the_bits():
    rng = np.random.default_rng(9)
    mats = [rng.standard_normal((6, n, 1)).astype(np.float32) for n in (3, 4, 2)]
    out = np.empty((6, 24, 1), np.float32)
    got = kron(mats, out=out)
    assert got is out and got.dtype == np.float32
    for b in range(6):
        assert np.array_equal(got[b, :, 0], reduce(np.kron, [a[b, :, 0] for a in mats]))
