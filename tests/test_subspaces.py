import math
import struct

import numpy as np
import pytest
from scipy import stats

from tensorball import (
    DistributionSpec,
    ExperimentConfig,
    Rank1Terms,
    SlabBody,
    SmallBallCurve,
    SmoothedEnsemble,
    SubspaceBasis,
    ValidationError,
    bound_carbery_wright,
    bound_concentration_subgaussian,
    bound_fixed_subspace,
    bound_generic_subspace,
    bound_nondeterministic,
    bound_single_direction,
    bound_smin_tail,
    clopper_pearson,
    contract,
    coordinate_line_subspace,
    diagonal_direction,
    haar_subspace,
    product_uniform_cdf,
    product_uniform_smallball,
    sharpness_lower_bound,
    simultaneous_diagonalize,
)
from tensorball.decomposition import folding_plan
from tensorball.montecarlo import _aux_rng
from tensorball.subspaces import resolve


def projections(rows, shape, *factors):
    """Inner products of ``rows`` with one simple tensor: a ``contract`` over one trial."""
    return contract(rows, shape, [f[None, :] for f in factors])[0]


def test_basis_invariant_rejects_non_orthonormal():
    with pytest.raises(ValidationError):
        SubspaceBasis(shape=(2, 2), rows=np.array([[1.0, 1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e200], ids=["nan", "inf", "-inf", "overflow"])
def test_basis_rejects_non_finite_rows(entry):
    # an otherwise orthonormal basis; 1e200 is finite, but its Gram entry is not
    rows = coordinate_line_subspace(3, 2, 2).rows.copy()
    rows[1, 4] = entry
    with pytest.raises(ValidationError, match="not orthonormal"):
        SubspaceBasis(shape=(3, 3), rows=rows)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SubspaceBasis(shape=(-2, -2), rows=np.eye(4)),
        lambda: SubspaceBasis(shape=(2, 0), rows=np.eye(1)),
        lambda: SubspaceBasis(shape=(), rows=[[1.0]]),
        lambda: haar_subspace((-2, -2), 2, 0),
        lambda: haar_subspace((), 1, 0),
        lambda: coordinate_line_subspace(3, 0, 1),
        lambda: coordinate_line_subspace(3, -1, 1),
    ],
    ids=["negative-dims", "zero-dim", "no-mode", "haar-negative-dims", "haar-no-mode", "line-ell-0", "line-ell-negative"],
)
def test_bad_shapes_are_refused(build):
    # an even count of negative dims has a positive product, and () has product 1
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: SubspaceBasis(shape=(2.5, 2), rows=np.eye(4)),
        lambda: SubspaceBasis(shape=(2.0, 2), rows=np.eye(4)),
        lambda: SubspaceBasis(shape=(True, 4), rows=np.eye(4)),
        lambda: haar_subspace((2, 2), 2.5, 0),
        lambda: haar_subspace((2, 2), True, 0),
        lambda: haar_subspace((2, 2.0), 2, 0),
        lambda: coordinate_line_subspace(3, 2, 1.5),
        lambda: coordinate_line_subspace(3, 2.0, 1),
        lambda: coordinate_line_subspace(3.0, 2, 1),
        lambda: diagonal_direction(2.5, 2),
        lambda: diagonal_direction(2, True),
    ],
    ids=[
        "basis-fractional-dim", "basis-float-dim", "basis-bool-dim", "haar-fractional-m", "haar-bool-m",
        "haar-float-dim", "line-fractional-m", "line-float-ell", "line-float-n", "direction-fractional-n",
        "direction-bool-ell",
    ],
)
def test_non_integral_sizes_are_refused(build):
    # a fractional dim was once truncated, and a fractional m or n ended in a raw TypeError
    with pytest.raises(ValidationError):
        build()


def test_numpy_integer_sizes_are_accepted():
    # 16**3 overflows a uint8, so n**ell must be taken in Python integers
    two, sixteen = np.int64(2), np.uint8(16)
    assert SubspaceBasis(shape=(two, two), rows=np.eye(4)).shape == (2, 2)
    assert haar_subspace((two, sixteen), two, 0).m == 2
    line = coordinate_line_subspace(sixteen, 3, two)
    assert line.shape == (16, 16, 16) and line.rows[1, 256] == 1.0
    assert diagonal_direction(sixteen, 3).rows.shape == (1, 4096)


def test_basis_rejects_m_above_dim():
    with pytest.raises(ValidationError):
        haar_subspace((2, 2), 5, np.random.default_rng(0))


def test_haar_orthonormality():
    b = haar_subspace((3, 4), 5, np.random.default_rng(0))
    gram = b.rows @ b.rows.T
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-10


def test_haar_circle_angle_uniform():
    """For D=2, m=1 the single row is a uniform point on the circle."""
    rng = np.random.default_rng(42)
    angles = np.empty(30_000)
    for i in range(angles.size):
        row = haar_subspace((2,), 1, rng).rows[0]
        angles[i] = math.atan2(row[1], row[0])
    p = stats.kstest(angles, "uniform", args=(-math.pi, 2 * math.pi)).pvalue
    assert p > 0.01


def test_haar_second_moments():
    # E[U_ij^2] = 1/D and off-diagonal products average to zero
    rng = np.random.default_rng(7)
    draws = 30_000
    sq = 0.0
    cross = 0.0
    for _ in range(draws):
        rows = haar_subspace((4, 4), 3, rng).rows
        sq += rows[0, 0] ** 2
        cross += rows[0, 0] * rows[1, 0]
    assert abs(sq / draws - 1.0 / 16.0) < 5e-3
    assert abs(cross / draws) < 4 * math.sqrt(1.0 / 16.0 / draws)


def test_haar_deterministic_per_seed():
    a = haar_subspace((3, 3), 2, np.random.default_rng(5)).rows
    b = haar_subspace((3, 3), 2, np.random.default_rng(5)).rows
    assert np.array_equal(a, b)


def test_diagonal_direction_small():
    f = diagonal_direction(2, 2)
    assert f.shape == (2, 2) and f.m == 1
    assert np.array_equal(f.rows, [[1.0, 0.0, 0.0, 0.0]])


def test_diagonal_direction_picks_first_coordinates():
    f = diagonal_direction(2, 2)
    assert projections(f.rows, f.shape, np.array([2.0, 7.0]), np.array([3.0, -1.0])) == 6.0
    assert abs(np.linalg.norm(f.rows) - 1.0) < 1e-15


@pytest.mark.parametrize("n, ell", [(8, 3), (4, 2), (3, 5), (1, 1)])
def test_diagonal_direction_is_the_one_row_line_basis(n, ell):
    f = diagonal_direction(n, ell)
    line = coordinate_line_subspace(n, ell, 1)
    assert f.shape == line.shape and np.array_equal(f.rows, line.rows)


def test_coordinate_line_rows():
    b = coordinate_line_subspace(3, 2, 2)
    # indicator vectors of multi-indices (1,1) and (2,1), row-major
    assert b.rows[0, 0] == 1.0 and np.sum(b.rows[0] != 0) == 1
    assert b.rows[1, 3] == 1.0 and np.sum(b.rows[1] != 0) == 1


def test_coordinate_line_projection_formula():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    b = coordinate_line_subspace(3, 2, 2)
    want = math.sqrt((x[0] ** 2 + x[1] ** 2) * y[0] ** 2)
    assert abs(np.linalg.norm(projections(b.rows, b.shape, x, y)) - want) < 1e-12


def test_coordinate_line_full_first_mode():
    rng = np.random.default_rng(4)
    x, y, z = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)
    b = coordinate_line_subspace(4, 3, 4)
    want = np.linalg.norm(x) * abs(y[0] * z[0])
    assert abs(np.linalg.norm(projections(b.rows, b.shape, x, y, z)) - want) < 1e-12


def test_coordinate_line_m_above_n():
    with pytest.raises(ValidationError):
        coordinate_line_subspace(3, 2, 4)


def test_basis_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a tensor at all")
    with pytest.raises(ValidationError):
        SubspaceBasis.load(p)


def test_basis_file_bytes_follow_the_readme_table(tmp_path):
    """The layout README's basis-file table gives: magic, order, dims, row count, then the
    rows as row-major float64, every field little-endian."""
    basis = haar_subspace((3, 4, 2), 5, np.random.default_rng(1))
    want = (
        b"TBSB"
        + struct.pack("<I", 3)
        + struct.pack("<3I", 3, 4, 2)
        + struct.pack("<I", 5)
        + struct.pack(f"<{5 * 24}d", *basis.rows.ravel())
    )
    p = tmp_path / "basis.bin"
    basis.save(p)
    assert p.read_bytes() == want
    back = SubspaceBasis.load(p)
    assert back.shape == (3, 4, 2)
    assert np.array_equal(back.rows, basis.rows)


def test_basis_save_load(tmp_path):
    b = haar_subspace((2, 2, 2), 3, np.random.default_rng(11))
    p = tmp_path / "basis.bin"
    b.save(p)
    c = SubspaceBasis.load(p)
    assert c.shape == b.shape
    assert np.array_equal(c.rows, b.rows)


@pytest.mark.parametrize("seed", range(4))
def test_resolve_gives_each_spelling_its_constructor_bits(tmp_path, seed):
    """``haar`` is ``haar_subspace`` on ``_aux_rng(seed, 0)``, the CLI's stream; ``line`` and a saved
    ``file:`` basis are their rows as built."""
    haar = haar_subspace((4, 3, 3), 5, _aux_rng(seed, 0))
    assert resolve("haar", (4, 3, 3), 5, _aux_rng(seed, 0)).rows.tobytes() == haar.rows.tobytes()
    line = coordinate_line_subspace(3, 4, 2)
    assert resolve("line", (3,) * 4, 2, _aux_rng(seed, 0)).rows.tobytes() == line.rows.tobytes()
    haar.save(tmp_path / "basis.bin")
    loaded = resolve(f"file:{tmp_path / 'basis.bin'}", (4, 3, 3), 5, None)
    assert loaded.shape == (4, 3, 3) and loaded.rows.tobytes() == haar.rows.tobytes()


@pytest.mark.parametrize("choice", ["bogus", "", "HAAR", "line:2", "file", 3])
def test_resolve_refuses_an_unknown_spelling(choice):
    with pytest.raises(ValidationError, match=r"unknown subspace .* \(want haar, line, or file:<path>\)"):
        resolve(choice, (3, 3), 2, np.random.default_rng(0))


@pytest.mark.parametrize("shape, m", [((4, 4), 2), ((3, 3, 3), 2), ((3, 3), 1), ((3, 3), 3)])
def test_resolve_refuses_a_basis_file_of_another_shape_or_m(tmp_path, shape, m):
    coordinate_line_subspace(3, 2, 2).save(tmp_path / "basis.bin")
    with pytest.raises(ValidationError, match=r"basis has shape \(3, 3\), m = 2; want"):
        resolve(f"file:{tmp_path / 'basis.bin'}", shape, m, None)


def test_permuted_haar_rows_stay_orthonormal():
    b = haar_subspace((3, 3), 4, np.random.default_rng(2))
    perm = np.random.default_rng(3).permutation(9)
    again = SubspaceBasis(shape=(3, 3), rows=b.rows[:, perm])
    assert again.m == 4


def _basis(b):
    return (*b.shape, b.m), b.rows.tobytes()


_TERMS = Rank1Terms.from_raw([np.random.default_rng(5).standard_normal((5, 2)) for _ in range(3)])

# entry point: size -> (every size it stores, everything else it returns).  n = 16 and l = 5 make
# n**(l-1) and n**l wrap to 0 in both uint8 and int16, which a size kept in its own type computes
SIZED_CALLS = {
    "product_uniform_cdf": lambda c: ((), product_uniform_cdf(c(5), 0.3)),
    "product_uniform_smallball": lambda c: ((), product_uniform_smallball(c(5), 1.0, 1e-3)),
    "bound_fixed_subspace": lambda c: ((), bound_fixed_subspace(1e-3, c(200), c(5))),
    "bound_single_direction": lambda c: ((), bound_single_direction(1e-3, c(5))),
    "bound_generic_subspace": lambda c: ((), bound_generic_subspace(0.5, c(200), c(16), c(5))),
    "bound_carbery_wright": lambda c: ((), bound_carbery_wright(0.5, c(5))),
    "bound_nondeterministic": lambda c: ((), bound_nondeterministic(0.1, c(16), c(5), c(200))),
    "bound_concentration_subgaussian": lambda c: ((), bound_concentration_subgaussian(0.5, c(200), c(16), c(5))),
    "sharpness_lower_bound": lambda c: ((), sharpness_lower_bound(1e-3, c(5))),
    "bound_smin_tail": lambda c: ((), bound_smin_tail(1e-3, c(20), c(16), c(5), 1.0)),
    "coordinate_line_subspace": lambda c: _basis(coordinate_line_subspace(c(4), c(3), c(2))),
    "haar_subspace": lambda c: _basis(haar_subspace((c(3), c(4)), c(5), 0)),
    "SubspaceBasis": lambda c: _basis(SubspaceBasis(shape=(c(2), c(3)), rows=np.eye(6)[:2])),
    "folding_plan": lambda c: ((p := folding_plan((c(2), c(3), c(4), c(5)))).shape + p.grouped_shape, p.groups),
    "simultaneous_diagonalize": lambda c: (
        ((t := simultaneous_diagonalize(_TERMS.reconstruct(), c(2), rng=0)).r,),
        t.weights.tobytes(),
    ),
    "SmoothedEnsemble": lambda c: (
        ((e := SmoothedEnsemble(r=c(3), n=c(4), ell=c(2), rho=0.5, base=(np.eye(4)[:, :3],) * 2)).r, e.n, e.ell),
        e.rho,
    ),
    "SmoothedEnsemble.random": lambda c: (
        ((e := SmoothedEnsemble.random(c(3), c(4), c(2), 0.5, 0)).r, e.n, e.ell),
        b"".join(b.tobytes() for b in e.base),
    ),
    "SlabBody.random": lambda c: ((b := SlabBody.random(c(6), c(3), 1.0, 0)).directions.shape, b.directions.tobytes()),
    "DistributionSpec": lambda c: ((DistributionSpec("gaussian-std", c(3)).dim,), None),
    "ExperimentConfig": lambda c: (
        ((g := ExperimentConfig(seed=c(3), trials=c(200), batch_size=c(100), threads=c(2))).seed, g.trials, g.batch_size, g.threads),
        g.confidence,
    ),
    "SmallBallCurve": lambda c: (
        ((v := SmallBallCurve((0.5, 0.1), (c(7), c(2)), c(200), 0.9)).trials, *v.hit_counts),
        (v.ci_low, v.ci_high),
    ),
    "clopper_pearson": lambda c: ((), [b.tobytes() for b in clopper_pearson([c(0), c(7), c(200)], c(200), 0.9)]),
}


@pytest.mark.parametrize("dtype", [np.uint8, np.int16])
@pytest.mark.parametrize("call", sorted(SIZED_CALLS))
def test_numpy_integer_sizes_give_the_python_int_result(call, dtype):
    # a size was kept in its numpy type, so n**ell wrapped: bound_smin_tail and bound_nondeterministic
    # refused valid sizes, and bound_concentration_subgaussian divided by zero
    want_sizes, want = SIZED_CALLS[call](int)
    sizes, got = SIZED_CALLS[call](dtype)
    assert sizes == want_sizes and got == want
    assert all(type(v) is int for v in sizes)


@pytest.mark.parametrize("call", sorted(SIZED_CALLS))
def test_bool_sizes_are_refused(call):
    with pytest.raises(ValidationError):
        SIZED_CALLS[call](lambda v: True)
