import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorball import (
    ConfigurationError,
    DistributionSpec,
    HistogramDensity,
    ValidationError,
    density_sup,
    matched_cube,
    rearrange_histogram,
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
    assert density_sup(DistributionSpec(kind="uniform-cube-unit", dim=1)) == 0.5
    got = density_sup(DistributionSpec(kind="gaussian-std", dim=1))
    assert abs(got - 0.3989423) < 1e-7
    assert abs(density_sup(DistributionSpec(kind="symmetric-exponential-unitvar", dim=1)) - 1 / math.sqrt(2)) < 1e-12


def test_density_sup_histogram_is_max_height():
    h = HistogramDensity(bin_edges=(-1.0, 0.0, 1.0), heights=(0.2, 0.8))
    assert density_sup(DistributionSpec(kind="histogram", dim=1, histogram=h)) == 0.8


def test_density_bound_below_sup_rejected():
    with pytest.raises(ValidationError):
        DistributionSpec(kind="gaussian-std", dim=1, density_bound=0.1)


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


def test_shift_moves_the_law():
    spec = DistributionSpec(kind="gaussian-std", dim=2, shift=(5.0, -3.0))
    x = sample_matrix(spec, np.random.default_rng(3), 100_000)
    assert np.allclose(x.mean(axis=0), [5.0, -3.0], atol=0.02)


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


def test_rearrange_translates_single_bin():
    h = HistogramDensity(bin_edges=(0.0, 1.0), heights=(1.0,))
    out = rearrange_histogram(h)
    assert out.bin_edges == (-0.5, 0.5)
    assert out.heights == (1.0,)


def test_rearrange_two_bins():
    """Level sets sorted by height and placed symmetrically around zero."""
    h = HistogramDensity(bin_edges=(-1.0, 0.0, 1.0), heights=(0.2, 0.8))
    out = rearrange_histogram(h)
    assert out.bin_edges == (-1.0, -0.5, 0.5, 1.0)
    assert out.heights == (0.2, 0.8, 0.2)


def test_rearrange_leaves_symmetric_decreasing_unchanged():
    h = HistogramDensity(bin_edges=(-1.0, -0.5, 0.5, 1.0), heights=(0.2, 0.8, 0.2))
    assert rearrange_histogram(h) == h


@st.composite
def histograms(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    widths = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    mass = sum(w * r for w, r in zip(widths, raw))
    heights = tuple(r / mass for r in raw)
    start = draw(st.floats(-5.0, 5.0))
    edges = [start]
    for w in widths:
        edges.append(edges[-1] + w)
    return HistogramDensity(bin_edges=tuple(edges), heights=heights)


@given(histograms())
@settings(max_examples=60, deadline=None)
def test_rearrange_idempotent(h):
    once = rearrange_histogram(h)
    assert rearrange_histogram(once) == once


@given(histograms())
@settings(max_examples=60, deadline=None)
def test_rearrange_preserves_sup_and_mass(h):
    out = rearrange_histogram(h)
    assert abs(out.sup() - h.sup()) < 1e-9
    mass = sum((b - a) * v for a, b, v in zip(out.bin_edges, out.bin_edges[1:], out.heights))
    assert abs(mass - 1.0) < 1e-9


def test_matched_cube_density_exactly_the_bound():
    spec = DistributionSpec(kind="gaussian-std", dim=2)
    cube = matched_cube(spec)
    m = density_sup(spec)
    assert cube.dim == 2
    hist = cube.histogram
    assert hist.heights == (m,)
    width = hist.bin_edges[1] - hist.bin_edges[0]
    assert abs(width - 1.0 / m) < 1e-12
    assert abs(hist.bin_edges[0] + hist.bin_edges[1]) < 1e-12


def test_spec_json_roundtrip():
    h = HistogramDensity(bin_edges=(-1.0, 0.0, 2.0), heights=(0.4, 0.3))
    spec = DistributionSpec(kind="histogram", dim=4, shift=(1.0, 0.0, 0.0, -2.0), histogram=h)
    again = DistributionSpec.from_json_dict(spec.to_json_dict())
    assert again == spec


def test_sampling_is_deterministic_per_seed():
    spec = DistributionSpec(kind="symmetric-exponential-unitvar", dim=3)
    a = sample_matrix(spec, np.random.default_rng(9), 100)
    b = sample_matrix(spec, np.random.default_rng(9), 100)
    assert np.array_equal(a, b)
