import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorball import (
    BoundConfig,
    HypothesisViolationError,
    RangeError,
    ValidationError,
    bound_carbery_wright,
    bound_concentration_subgaussian,
    bound_fixed_subspace,
    bound_generic_subspace,
    bound_nondeterministic,
    bound_single_direction,
    bound_smin_tail,
    product_uniform_cdf,
    product_uniform_smallball,
    sharpness_lower_bound,
)


def test_cdf_endpoints():
    assert product_uniform_cdf(2, 1.0) == 1.0
    assert product_uniform_cdf(3, 0.0) == 0.5
    assert product_uniform_cdf(2, -1.0) == 0.0


def test_cdf_frozen_point():
    # Monte Carlo oracle, 10^7 product-of-two-uniforms samples: 0.923287 +- 4e-4
    assert abs(product_uniform_cdf(2, 0.5) - 0.923287) < 4e-4


def test_cdf_against_fresh_mc():
    rng = np.random.default_rng(123)
    prods = rng.uniform(-1, 1, size=(1_000_000, 2)).prod(axis=1)
    emp = (prods <= 0.5).mean()
    assert abs(product_uniform_cdf(2, 0.5) - emp) < 1.5e-3


def test_cdf_domain():
    with pytest.raises(RangeError):
        product_uniform_cdf(2, 1.5)


@given(st.integers(1, 6), st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=80, deadline=None)
def test_cdf_monotone_and_symmetric(ell, a, b):
    lo, hi = min(a, b), max(a, b)
    assert product_uniform_cdf(ell, lo) <= product_uniform_cdf(ell, hi) + 1e-12
    assert abs(product_uniform_cdf(ell, a) + product_uniform_cdf(ell, -a) - 1.0) < 1e-12


def test_smallball_frozen_point():
    assert abs(product_uniform_smallball(2, 1.0, 0.5) - 0.846574) < 8e-4


def test_smallball_full_support():
    assert product_uniform_smallball(1, math.sqrt(3), math.sqrt(3)) == 1.0


def test_smallball_at_zero():
    assert product_uniform_smallball(4, 1.0, 0.0) == 0.0


def test_smallball_clamps_with_warning():
    with pytest.warns(UserWarning):
        v = product_uniform_smallball(2, 1.0, 2.0)
    assert v == 1.0


def test_bound_fixed_subspace_examples():
    assert abs(bound_fixed_subspace(0.01, 10, 2) - 0.21208) < 5e-5
    assert abs(bound_fixed_subspace(0.01, 1, 2) - 0.0460517) < 1e-6


def test_bound_fixed_subspace_validity_window():
    with pytest.raises(RangeError, match="exp"):
        bound_fixed_subspace(0.2, 10, 2)


def test_bound_fixed_vanishes_with_eps():
    small = bound_fixed_subspace(1e-12, 10, 3)
    smaller = bound_fixed_subspace(1e-13, 10, 3)
    assert 0 < smaller < small < 1e-7


def test_bound_single_direction_examples():
    assert abs(bound_single_direction(0.01, 2) - 0.0460517) < 1e-6
    assert abs(bound_single_direction(0.01, 3) - 0.106038) < 1e-5


def test_fixed_equals_min_factor_times_single_direction():
    """With C'' = C_main the two bounds share their polylog factor exactly."""
    cfg = BoundConfig()
    for eps in (1e-3, 1e-5, 1e-8):
        for ell in (2, 3, 4):
            m = 1000
            minf = min(m, cfg.C_prime**ell * math.log(1 / eps))
            lhs = bound_fixed_subspace(eps, m, ell, cfg)
            rhs = minf * bound_single_direction(eps, ell, cfg)
            if lhs < 1.0 and rhs < 1.0:
                assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs)


def test_bound_generic_subspace_example():
    assert abs(bound_generic_subspace(0.1, 4, 8, 2) - 4.355e-4) < 1e-6


def test_bound_generic_caps_at_one():
    assert bound_generic_subspace(0.999999, 4, 8, 2) <= 1.0


def test_bound_generic_monotone_in_dimension():
    a = bound_generic_subspace(0.1, 4, 8, 2)
    b = bound_generic_subspace(0.1, 6, 8, 2)
    assert b < a


def test_carbery_wright_examples():
    assert abs(bound_carbery_wright(0.01, 2) - 0.2) < 1e-12
    assert bound_carbery_wright(1.0, 2) == 1.0
    assert abs(bound_carbery_wright(0.25, 1) - 0.25) < 1e-12


def test_carbery_wright_domain():
    with pytest.raises(RangeError):
        bound_carbery_wright(1.5, 2)


def test_nondeterministic_exponent():
    assert bound_nondeterministic(0.01, 4, 2, 16).exponent == pytest.approx(2.0)
    assert bound_nondeterministic(0.01, 4, 2, 7).exponent == pytest.approx(0.5)


def test_nondeterministic_vanishes():
    tiny = bound_nondeterministic(1e-30, 4, 2, 7).value
    assert tiny < 1e-10


def test_concentration_examples():
    assert bound_concentration_subgaussian(1.0, 64, 4, 2, variant="vershynin") == 1.0
    got = bound_concentration_subgaussian(0.0, 64, 4, 2, variant="vershynin")
    assert abs(got - 2 * math.exp(-8)) < 1e-9
    a = bound_concentration_subgaussian(0.5, 1000, 4, 2, variant="bamberger")
    b = bound_concentration_subgaussian(0.5, 4000, 4, 2, variant="bamberger")
    assert b < a


def test_concentration_unknown_variant():
    with pytest.raises(ValidationError):
        bound_concentration_subgaussian(0.5, 10, 4, 2, variant="unknown")


def test_sharpness_examples():
    assert abs(sharpness_lower_bound(0.01, 2) - 0.01) < 1e-15
    assert abs(sharpness_lower_bound(0.01, 3) - 0.0460517) < 1e-6


@given(st.integers(2, 5), st.floats(1e-9, 1e-3))
@settings(max_examples=60, deadline=None)
def test_sharpness_below_single_direction(ell, eps):
    if eps < math.exp(-ell):
        assert sharpness_lower_bound(eps, ell) <= bound_single_direction(eps, ell) + 1e-15


def test_smin_tail_example():
    threshold, bound = bound_smin_tail(0.01, 8, 6, 2, 1.0)
    assert abs(threshold - 0.008819) < 2e-6
    assert bound == 1.0  # 1.6966 pre-cap


def test_smin_tail_halfspace_threshold():
    threshold, _ = bound_smin_tail(0.01, 18, 6, 2, 0.5)
    want = math.sqrt(0.5) * 0.5**2 * 0.01
    assert abs(threshold - want) < 1e-12


def test_smin_tail_rank_hypothesis():
    with pytest.raises(HypothesisViolationError):
        bound_smin_tail(0.01, 19, 6, 2, 1.0)


def test_smin_tail_validity():
    with pytest.raises(RangeError):
        bound_smin_tail(0.5, 8, 6, 2, 1.0)


def test_smin_tail_vanishes():
    _, b1 = bound_smin_tail(1e-6, 8, 6, 2, 1.0)
    _, b2 = bound_smin_tail(1e-8, 8, 6, 2, 1.0)
    assert 0 < b2 < b1 < 1


def test_bounds_monotone_in_eps():
    grid = np.geomspace(1e-8, 1e-2, 12)
    for fn in (
        lambda e: bound_fixed_subspace(e, 5, 2),
        lambda e: bound_single_direction(e, 3),
        lambda e: bound_carbery_wright(e, 3),
        lambda e: bound_generic_subspace(e, 4, 8, 2),
    ):
        vals = [fn(e) for e in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_bound_config_validation_and_json():
    with pytest.raises(ValidationError):
        BoundConfig(C_main=-1.0)
