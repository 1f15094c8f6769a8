import math

import numpy as np
import pytest

from tensorball import (
    ConfigurationError,
    DistributionSpec,
    HistogramDensity,
    ValidationError,
    matched_cube,
    sample_matrix,
)

SQRT3 = math.sqrt(3.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        DistributionSpec(kind="cauchy", dim=3)


def test_histogram_must_be_normalized():
    with pytest.raises(ValidationError):
        HistogramDensity(bin_edges=(0.0, 1.0), heights=(0.7,))


def test_density_sup_builtins():
    assert DistributionSpec(kind="uniform-cube-unit", dim=1).density_bound == 0.5
    got = DistributionSpec(kind="gaussian-std", dim=1).density_bound
    assert abs(got - 0.3989423) < 1e-7
    assert abs(DistributionSpec(kind="symmetric-exponential-unitvar", dim=1).density_bound - 1 / math.sqrt(2)) < 1e-12


def test_density_sup_histogram_is_max_height():
    h = HistogramDensity(bin_edges=(-1.0, 0.0, 1.0), heights=(0.2, 0.8))
    assert DistributionSpec(kind="histogram", dim=1, histogram=h).density_bound == 0.8


def test_cube_sqrt3_support_and_moments():
    spec = DistributionSpec(kind="uniform-cube-sqrt3", dim=2)
    x = sample_matrix(spec, np.random.default_rng(0), 200_000)
    assert x.shape == (200_000, 2)
    assert np.all(np.abs(x) <= SQRT3)
    assert abs(x.var() - 1.0) < 6e-3


def test_gaussian_mean_near_zero():
    spec = DistributionSpec(kind="gaussian-std", dim=3)
    x = sample_matrix(spec, np.random.default_rng(1), 1_000_000)
    assert np.all(np.abs(x.mean(axis=0)) < 4e-3)


def test_unit_variance_kinds():
    # cube-unit is on [-1, 1], variance 1/3 by construction; the others are unit
    for kind, var in [("uniform-cube-sqrt3", 1.0), ("gaussian-std", 1.0),
                      ("symmetric-exponential-unitvar", 1.0), ("uniform-cube-unit", 1.0 / 3.0)]:
        x = sample_matrix(DistributionSpec(kind=kind, dim=1), np.random.default_rng(2), 400_000)
        assert abs(x.var() - var) < 0.02, kind


def test_histogram_sampling_respects_bins():
    h = HistogramDensity(bin_edges=(-2.0, 0.0, 2.0), heights=(0.1, 0.4))
    spec = DistributionSpec(kind="histogram", dim=1, histogram=h)
    x = sample_matrix(spec, np.random.default_rng(4), 1)[0]
    assert -2.0 <= x[0] <= 2.0
    xs = sample_matrix(spec, np.random.default_rng(4), 100_000).ravel()
    frac_right = (xs >= 0).mean()
    assert abs(frac_right - 0.8) < 0.01


def test_point_mass_histogram_samples_constant():
    h = HistogramDensity(bin_edges=(0.7, 0.7), heights=(0.0,))
    assert h.is_point_mass
    spec = DistributionSpec(kind="histogram", dim=3, histogram=h)
    xs = sample_matrix(spec, np.random.default_rng(5), 50)
    assert np.all(xs == 0.7)


def test_matched_cube_density_exactly_the_bound():
    spec = DistributionSpec(kind="gaussian-std", dim=2)
    cube = matched_cube(spec)
    m = spec.density_bound
    assert cube.dim == 2
    hist = cube.histogram
    assert hist.heights == (m,)
    width = hist.bin_edges[1] - hist.bin_edges[0]
    assert abs(width - 1.0 / m) < 1e-12
    assert abs(hist.bin_edges[0] + hist.bin_edges[1]) < 1e-12


def test_sampling_is_deterministic_per_seed():
    spec = DistributionSpec(kind="symmetric-exponential-unitvar", dim=3)
    a = sample_matrix(spec, np.random.default_rng(9), 100)
    b = sample_matrix(spec, np.random.default_rng(9), 100)
    assert np.array_equal(a, b)


def searchsorted_histogram(h, rng, shape):
    """The general histogram route, which a one-bin histogram skips."""
    edges = np.asarray(h.bin_edges)
    widths = np.diff(edges)
    cum = np.cumsum(np.asarray(h.heights) * widths)
    cum = cum / cum[-1]
    u = rng.random(shape)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(widths) - 1)
    return edges[idx] + rng.random(shape) * widths[idx]


@pytest.mark.parametrize("kind", ["gaussian-std", "symmetric-exponential-unitvar", "uniform-cube-unit"])
def test_one_bin_histogram_draws_match_searchsorted_route(kind):
    cube = matched_cube(DistributionSpec(kind=kind, dim=5))
    for n in (1, 2, 1000):
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        got = sample_matrix(cube, ours, n)
        assert np.array_equal(got, searchsorted_histogram(cube.histogram, theirs, (n, 5)))
        assert ours.random() == theirs.random()
