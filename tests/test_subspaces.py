import math

import numpy as np
import pytest
from scipy import stats

from tensorball import (
    SubspaceBasis,
    ValidationError,
    contract,
    coordinate_line_subspace,
    diagonal_direction,
    haar_subspace,
)


def projections(rows, shape, *factors):
    """Inner products of ``rows`` with one simple tensor: a ``contract`` over one trial."""
    return contract(rows, shape, [f[None, :] for f in factors])[0]


def test_basis_invariant_rejects_non_orthonormal():
    with pytest.raises(ValidationError):
        SubspaceBasis(shape=(2, 2), rows=np.array([[1.0, 1.0, 0.0, 0.0]]))


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


def test_basis_save_load(tmp_path):
    b = haar_subspace((2, 2, 2), 3, np.random.default_rng(11))
    p = tmp_path / "basis.bin"
    b.save(p)
    c = SubspaceBasis.load(p)
    assert c.shape == b.shape
    assert np.array_equal(c.rows, b.rows)


def test_permuted_haar_rows_stay_orthonormal():
    b = haar_subspace((3, 3), 4, np.random.default_rng(2))
    perm = np.random.default_rng(3).permutation(9)
    again = SubspaceBasis(shape=(3, 3), rows=b.rows[:, perm])
    assert again.m == 4
