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
from tensorball.distributions import KINDS, sample_chunks

SQRT3 = math.sqrt(3.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        DistributionSpec(kind="cauchy", dim=3)


def test_histogram_must_be_normalized():
    with pytest.raises(ValidationError):
        HistogramDensity(bin_edges=(0.0, 1.0), heights=(0.7,))


@pytest.mark.parametrize(
    "edges, heights",
    [
        ((0.7, 0.7), (0.0,)),
        ((0.0, 1.0), (math.nan,)),
        ((0.0, 1.0, 2.0), (math.nan, 1.0)),
        ((0.0, 1.0, 2.0), (0.5, math.nan)),
        ((0.0, math.nan), (1.0,)),
    ],
    ids=["point-mass", "nan-one-bin", "nan-first-bin", "nan-second-bin", "nan-edge"],
)
def test_histogram_refuses_what_is_not_a_bounded_density(edges, heights):
    """A point mass has no bounded density, and NaN fails every check, as it does in ``exact_laws``."""
    with pytest.raises(ValidationError):
        HistogramDensity(bin_edges=edges, heights=heights)


def test_density_sup_builtins():
    assert DistributionSpec(kind="uniform-cube-unit", dim=1).density_bound == 0.5
    got = DistributionSpec(kind="gaussian-std", dim=1).density_bound
    assert abs(got - 0.3989423) < 1e-7
    assert abs(DistributionSpec(kind="symmetric-exponential-unitvar", dim=1).density_bound - 1 / math.sqrt(2)) < 1e-12
    # a law uniform on [-s, s] has density 1/(2s), bit for bit
    halves = {}
    for kind in KINDS[:-1]:
        spec = DistributionSpec(kind=kind, dim=1)
        if spec.uniform_half_width is not None:
            halves[kind] = spec.uniform_half_width
            assert spec.density_bound == 1 / (2 * spec.uniform_half_width), kind
    assert halves == {"uniform-cube-sqrt3": SQRT3, "uniform-cube-unit": 1.0}


def test_density_sup_histogram_is_max_height():
    h = HistogramDensity(bin_edges=(-1.0, 0.0, 1.0), heights=(0.2, 0.8))
    spec = DistributionSpec(kind="histogram", dim=1, histogram=h)
    assert spec.density_bound == 0.8
    # histograms report neither fact, not even the one-bin uniform law matched_cube builds
    assert spec.uniform_half_width is None and spec.isotropic is False
    cube = matched_cube(DistributionSpec(kind="uniform-cube-unit", dim=1))
    assert cube.uniform_half_width is None and cube.isotropic is False


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
    # cube-unit is on [-1, 1], variance 1/3 by construction; the others are unit,
    # and exactly those are marked isotropic
    variances = {"uniform-cube-sqrt3": 1.0, "gaussian-std": 1.0,
                 "symmetric-exponential-unitvar": 1.0, "uniform-cube-unit": 1.0 / 3.0}
    assert sorted(variances) == sorted(KINDS[:-1])
    for kind, var in variances.items():
        spec = DistributionSpec(kind=kind, dim=1)
        x = sample_matrix(spec, np.random.default_rng(2), 400_000)
        assert abs(x.var() - var) < 0.02, kind
        assert spec.isotropic is (var == 1.0), kind


def test_histogram_sampling_respects_bins():
    h = HistogramDensity(bin_edges=(-2.0, 0.0, 2.0), heights=(0.1, 0.4))
    spec = DistributionSpec(kind="histogram", dim=1, histogram=h)
    x = sample_matrix(spec, np.random.default_rng(4), 1)[0]
    assert -2.0 <= x[0] <= 2.0
    xs = sample_matrix(spec, np.random.default_rng(4), 100_000).ravel()
    frac_right = (xs >= 0).mean()
    assert abs(frac_right - 0.8) < 0.01


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


OUT_SPECS = {
    **{kind: DistributionSpec(kind=kind, dim=7) for kind in KINDS if kind != "histogram"},
    "one-bin": matched_cube(DistributionSpec(kind="gaussian-std", dim=7)),
    "multi-bin": DistributionSpec(
        kind="histogram", dim=7, histogram=HistogramDensity(bin_edges=(-1.0, 0.0, 0.5, 2.0), heights=(0.5, 0.4, 0.2))
    ),
}


@pytest.mark.parametrize("name", sorted(OUT_SPECS))
def test_sample_into_out_matches_fresh_draw(name):
    """``out=`` changes where the draws go, not their bits or the generator's state."""
    spec = OUT_SPECS[name]
    for n in (1, 3, 1000):
        fresh_rng, out_rng = np.random.default_rng(n), np.random.default_rng(n)
        fresh = sample_matrix(spec, fresh_rng, n)
        # a slice of a larger used array, as a batch reusing an earlier batch's array gets
        buf = np.full(9 * n + 5, np.nan)[: 7 * n].reshape(n, 7)
        got = sample_matrix(spec, out_rng, n, out=buf)
        assert got.shape == (n, 7) and np.array_equal(got, fresh)
        # Generator.laplace has no out=, so that kind alone returns a fresh array
        assert (got is buf) == (spec.kind != "symmetric-exponential-unitvar")
        assert out_rng.random() == fresh_rng.random()


@pytest.mark.parametrize("name", sorted(OUT_SPECS))
def test_chunks_cut_one_draw_into_rows(name):
    """``sample_chunks`` draws ``sample_matrix``'s bits and stream in row chunks; a histogram comes whole."""
    spec, n = OUT_SPECS[name], 300
    assert {s.kind for s in OUT_SPECS.values()} == set(KINDS)
    for rows in (1, 7, n - 1, n, n + 1):
        step = n if spec.histogram is not None else rows
        # fresh arrays, and one array every chunk draws into, as a kernel's kept array is
        buf = np.full(7 * max(rows, n), np.nan)
        for buffer in (np.empty, lambda shape: buf[: math.prod(shape)].reshape(shape)):
            whole_rng, chunk_rng = np.random.default_rng(rows), np.random.default_rng(rows)
            whole = sample_matrix(spec, whole_rng, n)
            starts, parts = [], []
            for start, x in sample_chunks(spec, chunk_rng, n, rows, buffer):
                starts.append(start)
                parts.append(x.copy())
            assert starts == list(range(0, n, step))
            assert np.array_equal(np.concatenate(parts), whole)
            assert chunk_rng.random() == whole_rng.random()


@pytest.mark.parametrize("kind, low", [("uniform-cube-sqrt3", -SQRT3), ("uniform-cube-unit", -1.0)])
def test_uniform_kinds_draw_the_bits_of_generator_uniform(kind, low):
    spec = DistributionSpec(kind=kind, dim=7)
    assert spec.uniform_half_width == -low
    for out in (None, np.empty((1000, 7))):
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_matrix(spec, ours, 1000, out=out)
        assert np.array_equal(got, theirs.uniform(low, -low, size=(1000, 7)))
        assert ours.random() == theirs.random()


def test_multi_bin_histogram_matches_searchsorted_route():
    spec = OUT_SPECS["multi-bin"]
    ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(sample_matrix(spec, ours, 500), searchsorted_histogram(spec.histogram, theirs, (500, 7)))
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("out", [np.empty((10, 6)), np.empty((7, 10)).T, np.empty((10, 7), dtype=np.float32)])
def test_sample_refuses_an_out_of_another_layout(out):
    with pytest.raises(ValidationError):
        sample_matrix(OUT_SPECS["gaussian-std"], np.random.default_rng(0), 10, out=out)
