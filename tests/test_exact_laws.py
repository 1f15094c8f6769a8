import math
import timeit
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorball import (
    BoundConfig,
    DistributionSpec,
    HypothesisViolationError,
    RangeError,
    SubspaceBasis,
    ValidationError,
    bound_carbery_wright,
    bound_concentration_subgaussian,
    bound_fixed_subspace,
    bound_generic_subspace,
    bound_nondeterministic,
    bound_single_direction,
    bound_smin_tail,
    coordinate_line_subspace,
    exact_smallball,
    haar_subspace,
    product_uniform_cdf,
    product_uniform_smallball,
    sharpness_lower_bound,
)
from tensorball.exact_laws import bilinear_gaussian_smallball


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


def test_smallball_beyond_support_is_one_without_warning():
    # the value there is exact, not a clamped extrapolation, so nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert product_uniform_smallball(2, 1.0, 2.0) == 1.0
        assert product_uniform_smallball(2, 1.0, np.array([0.5, 1.0, 2.0]))[2] == 1.0


def test_smallball_refuses_a_support_radius_beyond_float_range():
    with pytest.raises(RangeError, match="overflows a float"):
        product_uniform_smallball(3, 1e200, 0.5)
    with pytest.raises(RangeError, match="overflows a float"):
        product_uniform_smallball(3, np.float64(1e200), 0.5)
    # a radius near the top of the float range still gives a value
    assert product_uniform_smallball(1, 1e300, 0.5) == pytest.approx(0.5e-300)


@pytest.mark.parametrize("s", [1.0, 2.0])
@pytest.mark.parametrize("ell", range(1, 7))
def test_smallball_keeps_its_digits_in_the_far_tail(ell, s):
    """Against a 40-digit oracle from 1e-300 up to the support. Taken as F(z) - F(-z), with F near 1/2, the
    leading digits cancel: 0.0 at eps = 1e-18 for l = 2, 28% off at eps = 1e-20 for l = 4."""
    mpmath = pytest.importorskip("mpmath")
    support = s**ell
    eps = np.geomspace(1e-300, support, 301)
    got = product_uniform_smallball(ell, s, eps)
    with mpmath.workdps(40):
        for e, value in zip(eps, got):
            z = mpmath.mpf(float(e)) / support
            want = z * mpmath.fsum(mpmath.log(1 / z) ** j / mpmath.factorial(j) for j in range(ell))
            assert abs(value - want) <= 1e-14 * want, (e, value, want)


UNIT, SQRT3, GAUSS = (DistributionSpec(kind=k, dim=4) for k in ("uniform-cube-unit", "uniform-cube-sqrt3", "gaussian-std"))


LINE = coordinate_line_subspace(4, 3, 1)


def _one_row(entries):
    rows = np.zeros((1, 64))
    for index, value in entries.items():
        rows[0, index] = value
    return SubspaceBasis(shape=(4, 4, 4), rows=rows)


@pytest.mark.parametrize("kind, s", [("uniform-cube-unit", 1.0), ("uniform-cube-sqrt3", math.sqrt(3))])
@pytest.mark.parametrize(
    "basis",
    [LINE, _one_row({63: -1.0}), haar_subspace((1, 1, 1), 1, 0)],
    ids=["line", "negative-coordinate", "haar-on-one-point"],
)
def test_exact_smallball_on_a_coordinate_direction_is_the_product_law_per_point(kind, s, basis):
    grid = [0.5, 0.1, 1e-3]
    want = [float(product_uniform_smallball(3, s, eps)) for eps in grid]
    specs = (DistributionSpec(kind=kind, dim=basis.shape[0]),) * 3
    assert exact_smallball(specs, basis, grid) == want


@pytest.mark.parametrize(
    "specs, basis",
    [
        ((UNIT,) * 3, haar_subspace((4, 4, 4), 1, 0)),
        ((UNIT,) * 3, coordinate_line_subspace(4, 3, 2)),
        ((UNIT,) * 3, _one_row({0: 0.6, 1: 0.8})),
        ((GAUSS,) * 3, LINE),
        ((UNIT, SQRT3, UNIT), LINE),
    ],
    ids=["haar", "line-m2", "two-entries", "gauss", "mixed-widths"],
)
def test_exact_smallball_is_none_without_a_closed_form(specs, basis):
    assert exact_smallball(specs, basis, [0.5, 0.1]) is None


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


@pytest.mark.parametrize(
    "n, ell, m, exponent",
    [(2**100 + 2**47 + 1, 2, (2**100 + 2**47 + 1) ** 2, pytest.approx((2**100 + 2**47 + 1) / 2, rel=1e-15))],
    ids=["sqrt(n)^(l e*)"],
)
def test_nondeterministic_past_the_float_range_caps_at_one(n, ell, m, exponent):
    # the prefactor passed the float range and raised a builtins OverflowError
    got = bound_nondeterministic(0.1, n, ell, m)
    assert got.value == 1.0 and got.exponent == exponent
    # with e* > 0, eps = 0 gives 0
    assert np.array_equal(bound_nondeterministic(np.array([0.0, 0.1]), n, ell, m).value, [0.0, 1.0])


def test_nondeterministic_log_space_sums_past_the_float_range():
    # n = m = 2^1020, l = 1: e* = 2^1020, and (l - 1 + l e*/2) log n overflowed before e* log eps was added,
    # so eps = 1e-300 and 1e-100 gave NaN; the log of the bound is e* (log n / 2 + log eps), decided by its sign
    got = bound_nondeterministic(np.array([1e-300, 1e-100, 0.5]), 2**1020, 1, 2**1020)
    assert got.value.tolist() == [0.0, 1.0, 1.0] and got.exponent == 2.0**1020


@pytest.mark.parametrize("m", [10**300 // 3, 10**300 - 10**295], ids=["m/n^l=1/3", "1-m/n^l=1e-5"])
def test_nondeterministic_in_log_space_matches_mpmath(m):
    """n = 1e10, ell = 30: the prefactor is past the float range; e* and a value below the cap against 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    n, ell = 10**10, 30
    with mpmath.workdps(50):
        e_star = (n - mpmath.root(mpmath.mpf(n) ** ell - m, ell)) / ell
        # the eps at which the bound is e^-5
        log_eps = (-5 - mpmath.log(2) - (ell - 1) * mpmath.log(n)) / e_star - ell * mpmath.log(n) / 2
        eps = float(mpmath.exp(log_eps))
    # the log of the prefactor sqrt(n)^(l e*) is past 710, so the log-space branch runs
    assert ell * float(e_star) / 2 * math.log(n) > 710
    got = bound_nondeterministic(eps, n, ell, m)
    assert got.exponent == pytest.approx(float(e_star), rel=1e-12)
    assert got.value == pytest.approx(math.exp(-5), rel=1e-3)


def test_concentration_examples():
    assert bound_concentration_subgaussian(1.0, 64, 4, 2, variant="vershynin") == 1.0
    got = bound_concentration_subgaussian(0.0, 64, 4, 2, variant="vershynin")
    assert abs(got - 2 * math.exp(-8)) < 1e-9
    a = bound_concentration_subgaussian(0.5, 1000, 4, 2, variant="bamberger")
    b = bound_concentration_subgaussian(0.5, 4000, 4, 2, variant="bamberger")
    assert b < a


@pytest.mark.parametrize("variant", ["vershynin", "bamberger"])
def test_concentration_rate_past_the_float_range(variant):
    """C_main * m past the float range below the size ceiling: the rate divides by n^(l-1) first, and a
    rate that still overflows gives the tail exp(-inf) = 0 (numpy's overflow warning used to escape)."""
    cfg = BoundConfig(C_main=4.0)
    assert bound_concentration_subgaussian(0.1, 2**1023, 2, 1, cfg, variant) == 0.0
    # m / n^(l-1) = 2, so the rate is 4 * 0.9^2 * 2 = 6.48
    want = 2 * math.exp(-6.48 / 1023) if variant == "vershynin" else math.e**2 * math.exp(-6.48)
    assert bound_concentration_subgaussian(0.1, 2**1023, 2, 1023, cfg, variant) == pytest.approx(min(want, 1.0))


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
    # a scale past the float range is inf, as the experiment's is, and the bound does not read rho
    threshold, bound = bound_smin_tail(0.01, 2, 4, 2, 1e200)
    assert threshold == math.inf and bound == pytest.approx(0.02 * math.log(100) ** 2)
    # the hypothesis r <= n^ell/2 is checked on integers, however large n^ell is
    assert bound_smin_tail(0.01, 2, 10**200, 2, 1.0)[0] == pytest.approx(0.01)


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


def test_smin_tail_array_matches_scalar_calls():
    eps = [1e-12, 1e-8, 1e-5, 1e-3, 0.01]
    thresholds, bounds = bound_smin_tail(np.array(eps), 8, 6, 2, 1.0)
    assert isinstance(thresholds, np.ndarray) and isinstance(bounds, np.ndarray)
    assert thresholds.tolist() == [bound_smin_tail(e, 8, 6, 2, 1.0)[0] for e in eps]
    assert bounds.tolist() == [bound_smin_tail(e, 8, 6, 2, 1.0)[1] for e in eps]


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


# every evaluator at a point inside its range, with eps (or z) as the one argument
IN_RANGE = {
    "product_uniform_cdf": (lambda x: product_uniform_cdf(2, x), 0.5),
    "product_uniform_smallball": (lambda x: product_uniform_smallball(2, 1.0, x), 0.1),
    "bound_fixed_subspace": (lambda x: bound_fixed_subspace(x, 4, 2), 0.01),
    "bound_single_direction": (lambda x: bound_single_direction(x, 3), 0.01),
    "bound_generic_subspace": (lambda x: bound_generic_subspace(x, 4, 8, 2), 0.01),
    "bound_carbery_wright": (lambda x: bound_carbery_wright(x, 3), 0.01),
    "bound_nondeterministic": (lambda x: bound_nondeterministic(x, 4, 2, 3).value, 0.01),
    "bound_concentration_subgaussian": (lambda x: bound_concentration_subgaussian(x, 4, 8, 2), 0.5),
    "sharpness_lower_bound": (lambda x: sharpness_lower_bound(x, 3), 0.01),
    "bound_smin_tail": (lambda x: bound_smin_tail(x, 8, 6, 2, 1.0)[1], 0.01),
}


@pytest.mark.parametrize("name", sorted(IN_RANGE))
def test_evaluators_refuse_nan(name):
    # a check written ``eps < 0`` or ``eps >= thr`` is False for NaN and lets it through
    fn, inside = IN_RANGE[name]
    assert math.isfinite(fn(inside))
    with pytest.raises(ValidationError):
        fn(math.nan)
    with pytest.raises(ValidationError):
        fn(np.array([inside, math.nan]))


def test_smin_tail_refuses_nan_rho():
    with pytest.raises(ValidationError, match="rho"):
        bound_smin_tail(0.01, 8, 6, 2, math.nan)


def test_bound_config_validation_and_json():
    with pytest.raises(ValidationError):
        BoundConfig(C_main=-1.0)


NOT_AN_INTEGER = [2.5, np.float64(3.0), math.nan, True, "3"]

# one call per evaluator and size argument; ``bad`` stands in for that size
SIZE_CALLS = {
    "product_uniform_cdf ell": lambda bad: product_uniform_cdf(bad, 0.3),
    "product_uniform_smallball ell": lambda bad: product_uniform_smallball(bad, 1.0, 0.1),
    "bound_fixed_subspace m": lambda bad: bound_fixed_subspace(0.01, bad, 3),
    "bound_fixed_subspace ell": lambda bad: bound_fixed_subspace(0.01, 3, bad),
    "bound_single_direction ell": lambda bad: bound_single_direction(0.01, bad),
    "bound_generic_subspace m": lambda bad: bound_generic_subspace(0.01, bad, 3, 2),
    "bound_generic_subspace n": lambda bad: bound_generic_subspace(0.01, 3, bad, 2),
    "bound_generic_subspace ell": lambda bad: bound_generic_subspace(0.01, 3, 3, bad),
    "bound_carbery_wright ell": lambda bad: bound_carbery_wright(0.01, bad),
    "bound_nondeterministic n": lambda bad: bound_nondeterministic(0.01, bad, 2, 1),
    "bound_nondeterministic ell": lambda bad: bound_nondeterministic(0.01, 3, bad, 1),
    "bound_nondeterministic m": lambda bad: bound_nondeterministic(0.01, 3, 2, bad),
    "bound_concentration_subgaussian m": lambda bad: bound_concentration_subgaussian(0.5, bad, 3, 2),
    "bound_concentration_subgaussian n": lambda bad: bound_concentration_subgaussian(0.5, 4, bad, 2),
    "bound_concentration_subgaussian ell": lambda bad: bound_concentration_subgaussian(0.5, 4, 3, bad),
    "sharpness_lower_bound ell": lambda bad: sharpness_lower_bound(0.01, bad),
    "bound_smin_tail r": lambda bad: bound_smin_tail(0.01, bad, 4, 2, 1.0),
    "bound_smin_tail n": lambda bad: bound_smin_tail(0.01, 2, bad, 2, 1.0),
    "bound_smin_tail ell": lambda bad: bound_smin_tail(0.01, 2, 4, bad, 1.0),
}


@pytest.mark.parametrize("bad", NOT_AN_INTEGER, ids=repr)
@pytest.mark.parametrize("call", sorted(SIZE_CALLS))
def test_evaluators_refuse_sizes_that_are_not_integers(call, bad):
    # 2.5 used to end in a TypeError of ``math.factorial`` or ``range``, or
    # return a number; a NaN m or n returned NaN
    name = call.split()[-1]
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        SIZE_CALLS[call](bad)


@pytest.mark.parametrize("call", sorted(SIZE_CALLS))
def test_evaluators_take_numpy_integer_sizes(call):
    assert np.all(np.isfinite(np.asarray(SIZE_CALLS[call](np.int64(3)), dtype=float)))


HUGE_N = 2**1024 + 1

# n^l or m above 2^1023, the float ceiling of the bounds that take sizes: each size argument of the three at
# 2^1023 + 1 (an order that large with n = 3), then the runs that once took a float-range fallback
CEILING_CALLS = [
    pytest.param(SIZE_CALLS[call], (2**1023 + 1,), id=f"{call} 2^1023+1")
    for call in sorted(SIZE_CALLS)
    if call.split()[0] in ("bound_generic_subspace", "bound_nondeterministic", "bound_concentration_subgaussian")
] + [
    pytest.param(bound_nondeterministic, (0.1, 10**10, 32, 1), id="nondeterministic n^l=10^320"),
    pytest.param(bound_nondeterministic, (0.1, HUGE_N, 1, 1), id="nondeterministic n=2^1024+1"),
    pytest.param(bound_nondeterministic, (1e-300, HUGE_N, 1, 1), id="nondeterministic n=2^1024+1 below 1"),
    pytest.param(bound_nondeterministic, (0.1, 2**1100, 2, 2**1200), id="nondeterministic m/n^l=2^-1000"),
    pytest.param(bound_nondeterministic, (0.1, 2**1100, 1, 0), id="nondeterministic m=0"),
    pytest.param(bound_nondeterministic, (0.1, HUGE_N, 1, 2**1024), id="nondeterministic e*=2^1024"),
    pytest.param(bound_nondeterministic, (0.1, 2**1100, 1, 2**1100), id="nondeterministic e*=2^1100"),
    pytest.param(bound_generic_subspace, (0.1, 1, HUGE_N, 1), id="generic n=2^1024+1"),
    pytest.param(bound_generic_subspace, (0.1, 2**1030, HUGE_N, 1), id="generic min(m,n)=2^1024+1"),
    pytest.param(bound_generic_subspace, (0.01, 1, HUGE_N, 1, BoundConfig(C_main=1e-310)), id="generic C_main n<1"),
    *(
        pytest.param(bound_concentration_subgaussian, args, id=f"concentration {name} {variant}")
        for variant in ("vershynin", "bamberger")
        for name, args in [
            ("m/n^(l-1)=2^1024", (np.array([0.0, 0.1, 1.0]), 2**1024, HUGE_N, 1, BoundConfig(), variant)),
            ("m=2^2000", (0.1, 2**2000, 2**100, 3, BoundConfig(), variant)),
            ("C_main m<1", (0.0, 2**1025, 2, 1, BoundConfig(C_main=5e-324), variant)),
            ("m/n^(l-1)=2^10", (0.5, 2**1100, 2**1090, 2, BoundConfig(), variant)),
        ]
    ),
]


@pytest.mark.parametrize("fn, args", CEILING_CALLS)
def test_bounds_refuse_sizes_above_the_float_ceiling(fn, args):
    with pytest.raises(RangeError, match=r"float ceiling of the closed-form bounds; got (n\^ell|m) > 2\^1023"):
        fn(*args)


BILINEAR_EPS = [1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]


@pytest.mark.parametrize("sigma", [(0.9, 0.3), (1.0, 1e-3)], ids=["0.9,0.3", "1,1e-3"])
def test_bilinear_rank_two_is_a_laplace_mixture(sigma):
    """An independent route: given h, the sum is N(0, a^2 R^2) with h = R (cos t, sin t) and
    a(t)^2 = sigma_1^2 cos^2 t + sigma_2^2 sin^2 t; a Gaussian times a Rayleigh R is Laplace, so
    P = (2/pi) int_0^(pi/2) (1 - exp(-eps / a(t))) dt, here at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    s1, s2 = sigma
    for eps in BILINEAR_EPS:
        with mpmath.workdps(30):
            e = mpmath.mpf(eps)
            width = lambda t: mpmath.sqrt((s1 * mpmath.cos(t)) ** 2 + (s2 * mpmath.sin(t)) ** 2)
            want = 2 / mpmath.pi * mpmath.quad(lambda t: -mpmath.expm1(-e / width(t)), [0, mpmath.pi / 2])
        assert bilinear_gaussian_smallball(sigma, eps) == pytest.approx(float(want), rel=1e-10, abs=0)


@pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-12])
@pytest.mark.parametrize(
    "sigma", [(0.826, 0.460, 0.315, 0.087), (0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01)], ids=["rank4", "rank8"]
)
def test_bilinear_matches_mpmath_gil_pelaez(sigma, eps):
    """The Gil-Pelaez integral at 30 digits.  From 50/eps on, |phi(t)| <= t^-r / prod(sigma) leaves
    under 1e-12 of the whole at these ranks for eps <= 1e-2, so the reference stops there."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s, e = [mpmath.mpf(x) for x in sigma], mpmath.mpf(eps)
        top = 50 / e
        edges = [0, *(mpmath.mpf(10) ** k for k in range(-1, 15) if mpmath.mpf(10) ** k < top), top]
        phi = lambda t: mpmath.fprod(1 / mpmath.sqrt(1 + (x * t) ** 2) for x in s)
        want = 2 / mpmath.pi * mpmath.quad(lambda t: mpmath.sin(e * t) / t * phi(t), edges)
    assert bilinear_gaussian_smallball(sigma, eps) == pytest.approx(float(want), rel=1e-10, abs=0)


@pytest.mark.parametrize("eps", BILINEAR_EPS)
def test_bilinear_rank_one_is_the_k0_integral(eps):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = 2 / mpmath.pi * mpmath.quad(lambda x: mpmath.besselk(0, x), [0, mpmath.mpf(eps) / mpmath.mpf(0.7)])
    assert bilinear_gaussian_smallball([0.7], eps) == pytest.approx(float(want), rel=1e-10, abs=0)


@pytest.mark.parametrize("eps", BILINEAR_EPS)
def test_bilinear_equal_rank_two_is_laplace(eps):
    """sigma = (1, 1)/sqrt(2): phi(t) = 1/(1 + t^2/2), the Laplace law of scale 1/sqrt(2), so
    P = 1 - exp(-sqrt(2) eps) and p/eps tends to sqrt(2)."""
    p = bilinear_gaussian_smallball([2**-0.5] * 2, eps)
    assert p == pytest.approx(-math.expm1(-math.sqrt(2) * eps), rel=1e-10, abs=0)
    if eps <= 1e-10:
        assert p / eps == pytest.approx(math.sqrt(2), rel=1e-9)


def test_bilinear_point_costs_at_most_20_ms():
    for sigma in ([0.826, 0.460, 0.315, 0.087], [0.9, 0.3], [1.0, 1e-3], [0.7]):
        for eps in BILINEAR_EPS:
            best = min(timeit.repeat(lambda: bilinear_gaussian_smallball(sigma, eps), number=1, repeat=5))
            assert best <= 0.02, (sigma, eps, best)


@pytest.mark.parametrize(
    "sigma, eps",
    [([], 0.1), ([0.5, 0.0], 0.1), ([0.5, -1.0], 0.1), ([math.nan], 0.1), ([math.inf, 1.0], 0.1),
     ([[0.5, 0.5]], 0.1), ([0.5], 0.0), ([0.5], -1.0), ([0.5], math.nan), ([0.5], math.inf)],
)
def test_bilinear_refuses_bad_input(sigma, eps):
    with pytest.raises(ValidationError):
        bilinear_gaussian_smallball(sigma, eps)
