"""Closed-form laws and parameterized bound evaluators.

The anti-concentration bounds carry universal constants that are never
pinned down; they are exposed as ``BoundConfig`` fields defaulting to 1 so
curves can be overlaid on empirical data.  Every evaluator that bounds a
probability caps its value at 1.  Every range check is written so that NaN
fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import HypothesisViolationError, RangeError, ValidationError
from .subspaces import _check_sizes
from .tensor_core import _single_entries


@dataclass(frozen=True)
class BoundConfig:
    """Universal constants of the bound family, all defaulting to 1.

    ``C_main`` is the generic leading constant, ``C_prime``/``C_dprime``
    the primed pair of the fixed-subspace bound, ``c_small`` the small
    constant in the validity threshold exp(-c_small * l).
    """

    C_main: float = 1.0
    C_prime: float = 1.0
    C_dprime: float = 1.0
    c_small: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValidationError(f"BoundConfig.{f.name} must be a positive real, got {v!r}")


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(values, scalar):
    return float(values) if scalar else values


def _cap(values):
    return np.minimum(values, 1.0)


def _odd_part(ell: int, z: np.ndarray) -> np.ndarray:
    """2 F(z) - 1 = z * sum_{j<ell} log(1/|z|)^j / j!, 0 at z = 0: a sum of terms of one sign, so it keeps
    its relative accuracy (within a few ulps) however small z is, where F(z) - F(-z) cancels to 0."""
    az = np.abs(z)
    with np.errstate(divide="ignore"):
        log_inv = np.where(az > 0, -np.log(az), 0.0)
    series = np.ones_like(az)
    term = np.ones_like(az)
    for j in range(1, ell):
        term = term * log_inv / j
        series += term
    return z * np.where(az > 0, series, 0.0)


def product_uniform_cdf(ell: int, z):
    """CDF of a product of ``ell`` independent uniform [-1, 1] variables.

    F(z) = 1/2 + (z/2) * sum_{j=0}^{ell-1} log(1/|z|)^j / j!, with F(0) = 1/2;
    F - 1/2 is odd.  The summation stops at ell - 1: the inductive proof and
    the ell = 2 base case fix that limit (see the package docs on the
    statement-vs-proof discrepancy).
    """
    (ell,) = _check_sizes(1, ell=ell)
    z, scalar = _as_array(z)
    if not np.all(np.abs(z) <= 1):
        raise RangeError("product_uniform_cdf requires |z| <= 1 (the product lives in [-1, 1])")
    return _ret(0.5 + 0.5 * _odd_part(ell, z), scalar)


def product_uniform_smallball(ell: int, s: float, eps):
    """Exact P(|U_1 ... U_ell| <= eps) for U_j uniform on [-s, s].

    Uses the substitution Z = s^ell * Z' with Z' a product of uniform [-1, 1]
    variables, i.e. F(z) - F(-z) = 2 F(z) - 1 at z = eps / s^ell, summed as
    ``_odd_part`` so that it keeps its digits far in the tail (eps down to
    1e-300).  Beyond the support radius s^ell the probability is exactly 1.
    A radius that overflows a float raises ``RangeError``.
    """
    (ell,) = _check_sizes(1, ell=ell)
    if not s > 0:
        raise ValidationError(f"half-width s must be positive, got {s}")
    eps, scalar = _as_array(eps)
    if not np.all(eps >= 0):
        raise ValidationError("eps must be nonnegative")
    try:
        with np.errstate(over="ignore"):
            support = s**ell
        finite = math.isfinite(support)
    except OverflowError:
        finite = False
    if not finite:
        raise RangeError(f"support radius s^ell overflows a float at s = {s:g}, ell = {ell}")
    clipped = eps > support
    z = np.minimum(eps, support) / support
    out = np.asarray(_odd_part(ell, z))
    out[np.asarray(clipped)] = 1.0
    return _ret(out, scalar)


def bilinear_gaussian_smallball(sigma, eps: float) -> float:
    """Exact P(|sum_i sigma_i g_i h_i| <= eps) for independent standard Gaussians g_i and h_i.

    This is the small-ball law of <F, x (x) y> for x, y ~ N(0, I) and a row F
    of singular values ``sigma``.  The sum has characteristic function
    phi(t) = prod_i (1 + sigma_i^2 t^2)^(-1/2), so by Gil-Pelaez
    P = (2/pi) int_0^inf sin(eps t)/t phi(t) dt.  At rank 1 that is
    (2/pi) int_0^(eps/sigma) K_0 (scipy's ``iti0k0``); otherwise, with sigma
    scaled to a largest entry of 1, ``scipy.integrate.quad`` integrates up to
    50/eps split at the powers of ten, and the rest as a sine transform
    (QUADPACK's QAWF).  ``sigma`` must be positive and finite, ``eps`` > 0.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if sigma.ndim != 1 or sigma.size == 0 or not np.all((sigma > 0) & (sigma < math.inf)):
        raise ValidationError(f"sigma must be a nonempty list of positive finite values, got {sigma}")
    if not 0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    # imported here so that importing the package does not load scipy
    from scipy import integrate, special

    if sigma.size == 1:
        return 2 / math.pi * float(special.iti0k0(eps / sigma[0])[1])
    scale = sigma.max()
    sigma, eps = sigma / scale, eps / scale

    def phi(t):
        return math.exp(-0.5 * float(np.sum(np.log1p((sigma * t) ** 2))))

    top = 50.0 / eps
    edges = [0.0, *(10.0**k for k in range(-1, math.ceil(math.log10(top))) if 10.0**k < top), top]
    body = sum(
        integrate.quad(lambda t: math.sin(eps * t) / t * phi(t), a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )
    # QAWF takes an absolute tolerance only
    tail = integrate.quad(lambda t: phi(t) / t, top, math.inf, weight="sin", wvar=eps, epsabs=1e-13 * body)[0]
    return min(1.0, 2 / math.pi * (body + tail))


def exact_smallball(specs, basis, eps_grid) -> list[float] | None:
    """Exact P(||proj of X_1 x ... x X_l|| <= eps*sqrt(m)) onto ``basis`` per point of ``eps_grid``, or None
    where no closed form is known. Known: every factor uniform on one [-s, s] and a coordinate direction
    (one row, one nonzero entry +-1), where each point is ``product_uniform_smallball(l, s, eps)``."""
    widths = {spec.uniform_half_width for spec in specs}
    single = _single_entries(basis.rows, basis.shape) if basis.m == 1 else None
    if single is not None and abs(single[1][0]) == 1.0 and len(widths) == 1 and None not in widths:
        return [float(product_uniform_smallball(len(specs), *widths, eps)) for eps in eps_grid]
    return None


def _check_eps_validity(eps, ell, c_small, what):
    thr = math.exp(-c_small * ell)
    if not np.all((eps > 0) & (eps < thr)):
        raise RangeError(
            f"{what} is valid for 0 < eps < exp(-c_small*ell) = {thr:.6g} "
            f"(anti-concentration validity range); got eps outside it"
        )


def _single_direction_term(eps, ell, c):
    log_inv = np.log(1.0 / eps)
    return eps / math.factorial(ell - 1) * (c * log_inv) ** (ell - 1)


def bound_fixed_subspace(eps, m: int, ell: int, cfg: BoundConfig = BoundConfig()):
    """Small-ball bound for projection onto a fixed m-dimensional subspace.

    min{m, C'^ell log(1/eps)} * eps/(ell-1)! * (C'' log(1/eps))^(ell-1),
    capped at 1.  Valid for 0 < eps < exp(-c_small * ell), ell >= 2.
    """
    (ell,) = _check_sizes(2, ell=ell)
    (m,) = _check_sizes(1, m=m)
    eps, scalar = _as_array(eps)
    _check_eps_validity(eps, ell, cfg.c_small, "bound_fixed_subspace")
    direction_factor = np.minimum(m, cfg.C_prime**ell * np.log(1.0 / eps))
    out = _cap(direction_factor * _single_direction_term(eps, ell, cfg.C_dprime))
    return _ret(out, scalar)


def bound_single_direction(eps, ell: int, cfg: BoundConfig = BoundConfig()):
    """Single-direction small-ball bound eps/(ell-1)! * (C log(1/eps))^(ell-1), capped at 1."""
    (ell,) = _check_sizes(2, ell=ell)
    eps, scalar = _as_array(eps)
    _check_eps_validity(eps, ell, cfg.c_small, "bound_single_direction")
    out = _cap(_single_direction_term(eps, ell, cfg.C_main))
    return _ret(out, scalar)


def _float_sizes(n: int, ell: int, m: int) -> None:
    """The size ceiling of the closed-form bounds: n^ell and m at most 2^1023, compared as integers, so that
    every size and every ratio of two sizes is a float.  Raises ``RangeError`` above it; n >= 2 with
    ell > 1023 is refused without forming n^ell."""
    if n > 1 and (ell > 1023 or n**ell > 2**1023):
        raise RangeError(
            "need n^ell <= 2^1023, the float ceiling of the closed-form bounds;"
            f" got n^ell > 2^1023 (ell = {ell}, log2 n = {math.log2(n):.6g})"
        )
    if m > 2**1023:
        raise RangeError(
            "need m <= 2^1023, the float ceiling of the closed-form bounds;"
            f" got m > 2^1023 (log2 m = {math.log2(m):.6g})"
        )


def bound_generic_subspace(eps, m: int, n: int, ell: int, cfg: BoundConfig = BoundConfig()):
    """Haar-generic subspace bound (C' eps)^(C'' min{m, n}) + exp(-C_main n), capped at 1.

    Sizes past the float ceiling of ``_float_sizes`` raise ``RangeError``.
    """
    m, n, ell = _check_sizes(1, m=m, n=n, ell=ell)
    _float_sizes(n, ell, m)
    eps, scalar = _as_array(eps)
    if not np.all((eps > 0) & (eps < 1)):
        raise RangeError("bound_generic_subspace requires 0 < eps < 1")
    out = _cap((cfg.C_prime * eps) ** (cfg.C_dprime * min(m, n)) + math.exp(-cfg.C_main * n))
    return _ret(out, scalar)


def bound_carbery_wright(eps, ell: int, cfg: BoundConfig = BoundConfig()):
    """Polynomial anti-concentration comparison bound C * ell * eps^(1/ell), capped at 1."""
    (ell,) = _check_sizes(1, ell=ell)
    eps, scalar = _as_array(eps)
    if not np.all((eps >= 0) & (eps <= 1)):
        raise RangeError("bound_carbery_wright requires 0 <= eps <= 1")
    out = _cap(cfg.C_main * ell * eps ** (1.0 / ell))
    return _ret(out, scalar)


class NondeterministicBound(NamedTuple):
    value: "float | np.ndarray"
    exponent: float


def bound_nondeterministic(eps, n: int, ell: int, m: int) -> NondeterministicBound:
    """Counting-argument bound 2 n^(ell-1) sqrt(n)^(ell e*) eps^(e*), capped at 1.

    Returns the pair (value, exponent) where the exponent
    e* = (n - (n^ell - m)^(1/ell)) / ell governs the decay rate.  Sizes past
    the float ceiling of ``_float_sizes`` raise ``RangeError``.  Where the
    prefactor is past the float range, the bound is taken in log space, so
    the value is still capped at 1.
    """
    n, ell = _check_sizes(1, n=n, ell=ell)
    (m,) = _check_sizes(0, m=m)
    _float_sizes(n, ell, m)
    if m > n**ell:
        raise ValidationError(f"need 0 <= m <= n^ell = {n ** ell}, got m = {m}")
    eps, scalar = _as_array(eps)
    if not np.all(eps >= 0):
        raise ValidationError("eps must be nonnegative")
    e_star = (n - (n**ell - m) ** (1.0 / ell)) / ell
    try:
        prefactor = 2.0 * n ** (ell - 1) * math.sqrt(n) ** (ell * e_star)
    except OverflowError:
        prefactor = math.inf
    if prefactor < math.inf:
        out = _cap(prefactor * eps**e_star)
    else:
        # e* > 0 here, as at e* = 0 the prefactor is 2 n^(ell-1) <= 2^1023; e* multiplies the sum of
        # its two logs, so that no partial sum overflows first, and a log of +-inf (overflow, or eps = 0)
        # is the decided value 1 or 0
        with np.errstate(over="ignore", divide="ignore"):
            log_value = math.log(2.0) + (ell - 1) * math.log(n) + e_star * (ell / 2 * math.log(n) + np.log(eps))
        out = np.exp(np.minimum(log_value, 0.0))
    return NondeterministicBound(_ret(out, scalar), e_star)


def bound_concentration_subgaussian(
    eps, m: int, n: int, ell: int, cfg: BoundConfig = BoundConfig(), variant: str = "vershynin"
):
    """Failure probability that a random projection shrinks norms below (1 - eps).

    vershynin: 2 exp(-C (1-eps)^2 m / (ell n^(ell-1)));
    bamberger: e^2 exp(-C_ell (1-eps)^2 m / n^(ell-1)), with C_ell taken from
    cfg.C_main.  Both capped at 1.  Sizes past the float ceiling of
    ``_float_sizes`` raise ``RangeError``.
    """
    if variant not in ("vershynin", "bamberger"):
        raise ValidationError(f"variant must be 'vershynin' or 'bamberger', got {variant!r}")
    m, n, ell = _check_sizes(1, m=m, n=n, ell=ell)
    _float_sizes(n, ell, m)
    eps, scalar = _as_array(eps)
    if not np.all((eps >= 0) & (eps <= 1)):
        raise RangeError("bound_concentration_subgaussian requires 0 <= eps <= 1")
    # the size ratio first, a float under the ceiling; a rate past the float range is inf, whose
    # tail exp(-inf) = 0 is the bound's value there
    with np.errstate(over="ignore"):
        rate = cfg.C_main * (1.0 - eps) ** 2 * (m / n ** (ell - 1))
    if variant == "vershynin":
        out = 2.0 * np.exp(-rate / ell)
    else:
        out = math.e**2 * np.exp(-rate)
    return _ret(_cap(out), scalar)


def sharpness_lower_bound(eps, ell: int, cfg: BoundConfig = BoundConfig()):
    """Lower bound C eps/(ell-2)! * log(1/eps)^(ell-2) for the adversarial subspace, capped at 1.

    Not a matching bound: it sits one log(1/eps) factor below the exact
    product-of-uniforms law, whose ratio to it grows without bound as
    eps -> 0 (28.6 at eps = 1e-12 for ell = 2, C = 1; ROADMAP.md item 4).
    """
    (ell,) = _check_sizes(2, ell=ell)
    eps, scalar = _as_array(eps)
    if not np.all((eps > 0) & (eps < 1)):
        raise RangeError("sharpness_lower_bound requires 0 < eps < 1")
    log_inv = np.log(1.0 / eps)
    out = _cap(cfg.C_main * eps / math.factorial(ell - 2) * log_inv ** (ell - 2))
    return _ret(out, scalar)


def _smin_scale(r: int, n: int, ell: int, rho: float, c_small: float) -> float:
    """The s_min threshold per unit eps, sqrt(1 - r/n^ell) * (c_small * rho)^ell, or inf past the
    float range.  Refuses rho <= 0, then r > n^ell / 2, the smoothed tail's hypothesis."""
    if not rho > 0:
        raise ValidationError(f"rho must be > 0, got {rho}")
    # integers, so that no n^ell is too large to compare
    if 2 * r > n**ell:
        raise HypothesisViolationError(f"need r <= n^ell/2 = {n ** ell / 2}, got r = {r}")
    try:
        return math.sqrt(1.0 - r / n**ell) * (c_small * rho) ** ell
    except OverflowError:
        return math.inf


def bound_smin_tail(eps, r: int, n: int, ell: int, rho: float, cfg: BoundConfig = BoundConfig()):
    """Threshold and tail bound for the least singular value of a smoothed Khatri-Rao matrix.

    Returns the pair (threshold, bound) with
    threshold = sqrt(1 - r/n^ell) * (c_small * rho)^ell * eps, inf past the float range, and
    bound = eps * r / (ell-1)! * (C' log(1/eps))^ell, capped at 1.
    Requires rho > 0, r <= n^ell / 2 and 0 < eps < exp(-C_main * ell).
    """
    r, n, ell = _check_sizes(1, r=r, n=n, ell=ell)
    scale = _smin_scale(r, n, ell, rho, cfg.c_small)
    eps, scalar = _as_array(eps)
    thr_limit = math.exp(-cfg.C_main * ell)
    if not np.all((eps > 0) & (eps < thr_limit)):
        raise RangeError(
            f"bound_smin_tail is valid for 0 < eps < exp(-C_main*ell) = {thr_limit:.6g}"
        )
    threshold = scale * eps
    log_inv = np.log(1.0 / eps)
    bound = _cap(eps * r / math.factorial(ell - 1) * (cfg.C_prime * log_inv) ** ell)
    if scalar:
        return float(threshold), float(bound)
    return threshold, bound
