import math
import tracemalloc
import types
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorball import (
    FlatTensor,
    ResourceError,
    SimpleTensor,
    SubspaceBasis,
    ValidationError,
    contract,
    flatten,
    frobenius_norm,
    inner_flat,
    inner_simple,
    kron,
    projection_norm,
)
from tensorball import tensor_core
from tensorball.tensor_core import read_basis_payload


def t_of(*factors):
    return SimpleTensor(factors=tuple(np.asarray(f, dtype=float) for f in factors))


def test_flatten_2x2():
    f = flatten(t_of([1, 2], [3, 4]))
    assert f.shape == (2, 2)
    assert np.array_equal(f.data, [3.0, 4.0, 6.0, 8.0])


def test_flatten_all_ones():
    f = flatten(t_of([1], [1], [1]))
    assert f.shape == (1, 1, 1)
    assert np.array_equal(f.data, [1.0])


def test_flatten_entry_is_product():
    # entry (2,1,2), 1-based, last index fastest
    f = flatten(t_of([1, 2], [3, 4], [5, 6]))
    idx = (2 - 1) * 4 + (1 - 1) * 2 + (2 - 1)
    assert f.data[idx] == 2 * 3 * 6 == 36


def test_flatten_cap():
    t = t_of(*[[1.0] * 8 for _ in range(9)])
    with pytest.raises(ResourceError):
        flatten(t)


def test_inner_simple_self():
    t = t_of([1, 2], [3, 4])
    assert inner_simple(t, t) == 125


def test_inner_simple_matches_flatten_dot():
    a = t_of([1, 2], [3, 4])
    b = t_of([1, 0], [0, 1])
    assert inner_simple(a, b) == 4
    assert np.dot(flatten(a).data, flatten(b).data) == 4


def test_inner_simple_zero_factor():
    a = t_of([1, 2], [0, 0])
    b = t_of([5, 5], [5, 5])
    assert inner_simple(a, b) == 0


def test_inner_simple_shape_mismatch():
    with pytest.raises(ValidationError):
        inner_simple(t_of([1, 2], [3, 4]), t_of([1, 2, 3], [4, 5, 6]))


def test_inner_flat_coordinate():
    t = t_of([1, 2], [3, 4])
    e11 = FlatTensor(shape=(2, 2), data=np.array([1.0, 0.0, 0.0, 0.0]))
    assert inner_flat(t, e11) == 3.0


def test_inner_flat_self_direction():
    t = t_of([1, 2], [3, 4], [1, 1])
    f = flatten(t)
    unit = FlatTensor(shape=f.shape, data=f.data / np.linalg.norm(f.data))
    assert abs(inner_flat(t, unit) - np.linalg.norm(f.data)) < 1e-12


def test_inner_flat_zero_factor():
    t = t_of([0, 0], [3, 4])
    f = FlatTensor(shape=(2, 2), data=np.ones(4))
    assert inner_flat(t, f) == 0


vectors = st.lists(st.floats(-3, 3), min_size=2, max_size=3)


@given(st.lists(vectors, min_size=2, max_size=3), st.lists(vectors, min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_inner_flat_consistent_with_inner_simple(fa, fb):
    order = min(len(fa), len(fb))
    fa, fb = fa[:order], fb[:order]
    fb = [b[: len(a)] + [1.0] * (len(a) - len(b)) for a, b in zip(fa, fb)]
    a, b = t_of(*fa), t_of(*fb)
    lhs = inner_flat(a, flatten(b))
    rhs = inner_simple(a, b)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_projection_norm_full_space_is_frobenius():
    t = t_of([1, 2], [3, 4])
    basis = SubspaceBasis(shape=(2, 2), rows=np.eye(4))
    assert abs(projection_norm(t, basis) - frobenius_norm(t)) < 1e-12


def test_projection_norm_two_coordinates():
    t = t_of([1, 2], [3, 4])
    rows = np.zeros((2, 4))
    rows[0, 0] = 1.0  # e_(1,1)
    rows[1, 3] = 1.0  # e_(2,2)
    basis = SubspaceBasis(shape=(2, 2), rows=rows)
    assert abs(projection_norm(t, basis) - math.sqrt(73)) < 1e-12


def test_projection_norm_empty_basis():
    # SubspaceBasis requires m >= 1, so the degenerate case goes through a stub
    t = t_of([1, 2], [3, 4])
    stub = types.SimpleNamespace(shape=(2, 2), rows=np.zeros((0, 4)), m=0)
    assert projection_norm(t, stub) == 0.0


def test_frobenius_norm_values():
    assert frobenius_norm(t_of([3, 4], [1, 0])) == 5
    assert abs(frobenius_norm(t_of([1, 1], [1, 1], [1, 1])) - 2 * math.sqrt(2)) < 1e-12
    assert frobenius_norm(t_of([0, 0], [1, 2])) == 0


def test_basis_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a tensor at all")
    with pytest.raises(ValidationError):
        read_basis_payload(p)


def test_basis_file_round_trip(tmp_path):
    basis = SubspaceBasis(shape=(2, 3), rows=np.eye(6)[[1, 4]])
    p = tmp_path / "basis.bin"
    basis.save(p)
    assert p.stat().st_size == 4 + 4 + 2 * 4 + 4 + 2 * 6 * 8
    back = SubspaceBasis.load(p)
    assert back.shape == (2, 3)
    assert np.array_equal(back.rows, basis.rows)


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
        flat = flatten(t_of(*(x[b] for x in xs))).data
        for k in range(m):
            want = float(np.dot(rows[k], flat))
            assert abs(got[b, k] - want) <= 1e-12 * max(1.0, np.linalg.norm(rows[k]) * np.linalg.norm(flat))


def unblocked_contract(rows, shape, xs):
    """``contract`` before it worked in blocks: the reference its bits must match."""
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


@pytest.mark.parametrize(
    "shape, m",
    [((5,), 3), ((7, 9), 5), ((16, 16, 16), 16), ((8, 8, 8), 8), ((8, 8, 8), 1), ((8, 8, 8), 0), ((3, 5, 2, 4), 3)],
)
def test_contract_blocks_match_unblocked_bitwise(shape, m):
    rng = np.random.default_rng(math.prod(shape) + m)
    rows = rng.standard_normal((m, math.prod(shape)))
    block = max(2, tensor_core._BLOCK_BYTES // (8 * max(1, m * math.prod(shape[:-1]))))
    for size in (1, block - 1, block, block + 1, 3 * block + 5):
        xs = [rng.standard_normal((size, n)) for n in shape]
        got = contract(rows, shape, xs)
        assert got.shape == (size, m)
        assert np.array_equal(got, unblocked_contract(rows, shape, xs)), size


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
        assert np.array_equal(got, unblocked_contract(rows, shape, xs)), size


def test_contract_gathers_only_when_every_row_has_one_nonzero(monkeypatch):
    dense_calls = []
    dense = tensor_core._contract_dense
    monkeypatch.setattr(
        tensor_core, "_contract_dense", lambda *args: dense_calls.append(1) or dense(*args)
    )
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
    assert dense_calls == [1, 1]


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
