"""Closed-form laws and parameterized bound evaluators.

The anti-concentration bounds carry universal constants that are never
pinned down; they are exposed as ``BoundConfig`` fields defaulting to 1 so
curves can be overlaid on empirical data.  Every evaluator that bounds a
probability caps its value at 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import RangeError, ValidationError


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


def product_uniform_cdf(ell: int, z):
    """CDF of a product of ``ell`` independent uniform [-1, 1] variables.

    F(z) = 1/2 + (z/2) * sum_{j=0}^{ell-1} log(1/|z|)^j / j!, with F(0) = 1/2;
    F - 1/2 is odd.  The summation stops at ell - 1: the inductive proof and
    the ell = 2 base case fix that limit (see the package docs on the
    statement-vs-proof discrepancy).
    """
    if ell < 1:
        raise ValidationError(f"ell must be >= 1, got {ell}")
    z, scalar = _as_array(z)
    az = np.abs(z)
    if np.any(az > 1):
        raise RangeError("product_uniform_cdf requires |z| <= 1 (the product lives in [-1, 1])")
    with np.errstate(divide="ignore"):
        log_inv = np.where(az > 0, -np.log(az), 0.0)
    series = np.ones_like(az)
    term = np.ones_like(az)
    for j in range(1, ell):
        term = term * log_inv / j
        series += term
    out = 0.5 + 0.5 * z * np.where(az > 0, series, 0.0)
    return _ret(out, scalar)


def product_uniform_smallball(ell: int, s: float, eps):
    """Exact P(|U_1 ... U_ell| <= eps) for U_j uniform on [-s, s].

    Uses the substitution Z = s^ell * Z' with Z' a product of uniform [-1, 1]
    variables, i.e. F(eps / s^ell) - F(-eps / s^ell).  Values of ``eps``
    beyond the support clamp to 1 with a warning.
    """
    if s <= 0:
        raise ValidationError(f"half-width s must be positive, got {s}")
    eps, scalar = _as_array(eps)
    if np.any(eps < 0):
        raise ValidationError("eps must be nonnegative")
    support = s**ell
    clipped = eps > support
    if np.any(clipped):
        warnings.warn(
            f"eps beyond the support radius {support:.6g}; probability clamped to 1",
            stacklevel=2,
        )
    z = np.minimum(eps, support) / support
    out = np.asarray(product_uniform_cdf(ell, z) - product_uniform_cdf(ell, -z))
    out[np.asarray(clipped)] = 1.0
    return _ret(out, scalar)


def _check_eps_validity(eps, ell, c_small, what):
    thr = math.exp(-c_small * ell)
    if np.any(eps <= 0) or np.any(eps >= thr):
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
    if ell < 2:
        raise ValidationError(f"ell must be >= 2, got {ell}")
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    eps, scalar = _as_array(eps)
    _check_eps_validity(eps, ell, cfg.c_small, "bound_fixed_subspace")
    direction_factor = np.minimum(m, cfg.C_prime**ell * np.log(1.0 / eps))
    out = _cap(direction_factor * _single_direction_term(eps, ell, cfg.C_dprime))
    return _ret(out, scalar)


def bound_single_direction(eps, ell: int, cfg: BoundConfig = BoundConfig()):
    """Single-direction small-ball bound eps/(ell-1)! * (C log(1/eps))^(ell-1), capped at 1."""
    if ell < 2:
        raise ValidationError(f"ell must be >= 2, got {ell}")
    eps, scalar = _as_array(eps)
    _check_eps_validity(eps, ell, cfg.c_small, "bound_single_direction")
    out = _cap(_single_direction_term(eps, ell, cfg.C_main))
    return _ret(out, scalar)


def bound_generic_subspace(eps, m: int, n: int, ell: int, cfg: BoundConfig = BoundConfig()):
    """Haar-generic subspace bound (C' eps)^(C'' min{m, n}) + exp(-C_main n), capped at 1."""
    if m < 1 or n < 1 or ell < 1:
        raise ValidationError("m, n and ell must be positive")
    eps, scalar = _as_array(eps)
    if np.any(eps <= 0) or np.any(eps >= 1):
        raise RangeError("bound_generic_subspace requires 0 < eps < 1")
    out = _cap((cfg.C_prime * eps) ** (cfg.C_dprime * min(m, n)) + math.exp(-cfg.C_main * n))
    return _ret(out, scalar)


def bound_carbery_wright(eps, ell: int, cfg: BoundConfig = BoundConfig()):
    """Polynomial anti-concentration comparison bound C * ell * eps^(1/ell), capped at 1."""
    if ell < 1:
        raise ValidationError(f"ell must be >= 1, got {ell}")
    eps, scalar = _as_array(eps)
    if np.any(eps < 0) or np.any(eps > 1):
        raise RangeError("bound_carbery_wright requires 0 <= eps <= 1")
    out = _cap(cfg.C_main * ell * eps ** (1.0 / ell))
    return _ret(out, scalar)


class NondeterministicBound(NamedTuple):
    value: "float | np.ndarray"
    exponent: float


def bound_nondeterministic(eps, n: int, ell: int, m: int) -> NondeterministicBound:
    """Counting-argument bound 2 n^(ell-1) sqrt(n)^(ell e*) eps^(e*), capped at 1.

    Returns the pair (value, exponent) where the exponent
    e* = (n - (n^ell - m)^(1/ell)) / ell governs the decay rate.
    """
    if not 0 <= m <= n**ell:
        raise ValidationError(f"need 0 <= m <= n^ell = {n ** ell}, got m = {m}")
    eps, scalar = _as_array(eps)
    if np.any(eps < 0):
        raise ValidationError("eps must be nonnegative")
    e_star = (n - (n**ell - m) ** (1.0 / ell)) / ell
    prefactor = 2.0 * n ** (ell - 1) * math.sqrt(n) ** (ell * e_star)
    out = _cap(prefactor * eps**e_star)
    return NondeterministicBound(_ret(out, scalar), e_star)


def bound_concentration_subgaussian(
    eps, m: int, n: int, ell: int, cfg: BoundConfig = BoundConfig(), variant: str = "vershynin"
):
    """Failure probability that a random projection shrinks norms below (1 - eps).

    vershynin: 2 exp(-C (1-eps)^2 m / (ell n^(ell-1)));
    bamberger: e^2 exp(-C_ell (1-eps)^2 m / n^(ell-1)), with C_ell taken from
    cfg.C_main.  Both capped at 1.
    """
    if variant not in ("vershynin", "bamberger"):
        raise ValidationError(f"variant must be 'vershynin' or 'bamberger', got {variant!r}")
    if m < 1 or n < 1 or ell < 1:
        raise ValidationError("m, n and ell must be positive")
    eps, scalar = _as_array(eps)
    if np.any(eps < 0) or np.any(eps > 1):
        raise RangeError("bound_concentration_subgaussian requires 0 <= eps <= 1")
    rate = cfg.C_main * (1.0 - eps) ** 2 * m / n ** (ell - 1)
    if variant == "vershynin":
        out = 2.0 * np.exp(-rate / ell)
    else:
        out = math.e**2 * np.exp(-rate)
    return _ret(_cap(out), scalar)


def sharpness_lower_bound(eps, ell: int, cfg: BoundConfig = BoundConfig()):
    """Matching lower bound C eps/(ell-2)! * log(1/eps)^(ell-2) for the adversarial subspace."""
    if ell < 2:
        raise ValidationError(f"ell must be >= 2, got {ell}")
    eps, scalar = _as_array(eps)
    if np.any(eps <= 0) or np.any(eps >= 1):
        raise RangeError("sharpness_lower_bound requires 0 < eps < 1")
    log_inv = np.log(1.0 / eps)
    out = _cap(cfg.C_main * eps / math.factorial(ell - 2) * log_inv ** (ell - 2))
    return _ret(out, scalar)


def bound_smin_tail(eps, r: int, n: int, ell: int, rho: float, cfg: BoundConfig = BoundConfig()):
    """Threshold and tail bound for the least singular value of a smoothed Khatri-Rao matrix.

    Returns the pair (threshold, bound) with
    threshold = sqrt(1 - r/n^ell) * (c_small * rho)^ell * eps and
    bound = eps * r / (ell-1)! * (C' log(1/eps))^ell, capped at 1.
    Requires r <= n^ell / 2 and 0 < eps < exp(-C_main * ell).
    """
    from .errors import HypothesisViolationError

    if r < 1 or n < 1 or ell < 1 or rho <= 0:
        raise ValidationError("r, n, ell must be positive and rho > 0")
    if r > n**ell / 2:
        raise HypothesisViolationError(f"need r <= n^ell/2 = {n ** ell / 2}, got r = {r}")
    eps, scalar = _as_array(eps)
    thr_limit = math.exp(-cfg.C_main * ell)
    if np.any(eps <= 0) or np.any(eps >= thr_limit):
        raise RangeError(
            f"bound_smin_tail is valid for 0 < eps < exp(-C_main*ell) = {thr_limit:.6g}"
        )
    threshold = math.sqrt(1.0 - r / n**ell) * (cfg.c_small * rho) ** ell * eps
    log_inv = np.log(1.0 / eps)
    bound = _cap(eps * r / math.factorial(ell - 1) * (cfg.C_prime * log_inv) ** ell)
    if scalar:
        return float(threshold), float(bound)
    return threshold, bound
