"""Coordinate distributions for tensor factors.

Every factor vector is sampled with i.i.d. coordinates from a symmetric
one-dimensional law.  Cube conventions used throughout the package:

* ``uniform-cube-sqrt3``: uniform on ``[-sqrt(3), sqrt(3)]``, variance 1,
  density ``1/(2*sqrt(3))``.
* ``uniform-cube-unit``: uniform on ``[-1, 1]``, variance 1/3, density 1/2.
* ``gaussian-std``: standard normal, density sup ``1/sqrt(2*pi)``.
* ``symmetric-exponential-unitvar``: Laplace with scale ``1/sqrt(2)``
  (variance 1), density sup ``1/sqrt(2)``.
* ``histogram``: user-supplied piecewise-constant density.

A histogram with two equal bin edges is accepted as a point mass at that
value; it is the one degenerate form allowed (its mass constraint is vacuous
and its density sup is infinite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError

KINDS = (
    "uniform-cube-sqrt3",
    "uniform-cube-unit",
    "gaussian-std",
    "symmetric-exponential-unitvar",
    "histogram",
)

_SQRT3 = math.sqrt(3.0)
_LAPLACE_SCALE = 1.0 / math.sqrt(2.0)

_BUILTIN_SUP = {
    "uniform-cube-sqrt3": 1.0 / (2.0 * _SQRT3),
    "uniform-cube-unit": 0.5,
    "gaussian-std": 1.0 / math.sqrt(2.0 * math.pi),
    "symmetric-exponential-unitvar": 1.0 / math.sqrt(2.0),
}

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class HistogramDensity:
    """Piecewise-constant density given by bin edges and bin heights.

    ``bin_edges`` must be strictly increasing with ``len(heights) ==
    len(bin_edges) - 1``, heights nonnegative and total mass 1 within
    1e-12.  The degenerate form ``bin_edges == [c, c]`` is a point mass
    at ``c``.
    """

    bin_edges: tuple[float, ...]
    heights: tuple[float, ...]

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        heights = np.asarray(self.heights, dtype=float)
        object.__setattr__(self, "bin_edges", tuple(edges.tolist()))
        object.__setattr__(self, "heights", tuple(heights.tolist()))
        if edges.ndim != 1 or heights.ndim != 1 or edges.size != heights.size + 1:
            raise ValidationError(
                "histogram needs 1-d edges and heights with len(edges) == len(heights) + 1"
            )
        if self.is_point_mass:
            return
        if not np.all(np.diff(edges) > 0):
            raise ValidationError("histogram bin edges must be strictly increasing")
        if np.any(heights < 0):
            raise ValidationError("histogram heights must be nonnegative")
        mass = float(np.sum(heights * np.diff(edges)))
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValidationError(f"histogram mass {mass!r} differs from 1 by more than {_MASS_TOL}")

    @property
    def is_point_mass(self) -> bool:
        return len(self.bin_edges) == 2 and self.bin_edges[0] == self.bin_edges[1]

    def sup(self) -> float:
        if self.is_point_mass:
            return math.inf
        return float(np.max(self.heights))


@dataclass(frozen=True)
class DistributionSpec:
    """One factor's coordinate law.

    Parameters
    ----------
    kind : str
        One of ``KINDS``.
    dim : int
        Length of the factor vector, at least 1.
    density_bound : float, optional
        Declared upper bound on the coordinate density.  Defaults to the
        exact sup for the kind; an explicit value below the true sup is
        rejected.
    histogram : HistogramDensity, optional
        Required when ``kind == "histogram"``.
    """

    kind: str
    dim: int
    density_bound: float | None = None
    histogram: HistogramDensity | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown distribution kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValidationError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if self.kind == "histogram":
            if self.histogram is None:
                raise ConfigurationError("kind 'histogram' requires a HistogramDensity")
        elif self.histogram is not None:
            raise ConfigurationError(f"kind {self.kind!r} does not take a histogram")
        sup = self._exact_sup()
        if self.density_bound is None:
            object.__setattr__(self, "density_bound", sup)
        elif self.density_bound < sup - 1e-12:
            raise ValidationError(
                f"density_bound {self.density_bound} is below the true density sup {sup}"
            )

    def _exact_sup(self) -> float:
        if self.kind == "histogram":
            return self.histogram.sup()
        return _BUILTIN_SUP[self.kind]


def sample_matrix(spec: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` factor vectors as the rows of an ``(n, dim)`` array.

    Coordinates are i.i.d. from the spec's law.  Deterministic given the
    generator state.
    """
    d = spec.dim
    if spec.kind == "uniform-cube-sqrt3":
        return rng.uniform(-_SQRT3, _SQRT3, size=(n, d))
    if spec.kind == "uniform-cube-unit":
        return rng.uniform(-1.0, 1.0, size=(n, d))
    if spec.kind == "gaussian-std":
        return rng.standard_normal((n, d))
    if spec.kind == "symmetric-exponential-unitvar":
        return rng.laplace(0.0, _LAPLACE_SCALE, size=(n, d))
    return _sample_histogram(spec.histogram, rng, (n, d))


def _sample_histogram(h: HistogramDensity, rng: np.random.Generator, shape) -> np.ndarray:
    if h.is_point_mass:
        return np.full(shape, h.bin_edges[0], dtype=float)
    edges = np.asarray(h.bin_edges)
    widths = np.diff(edges)
    u = rng.random(shape)
    if widths.size == 1:
        # every draw falls in the one bin; u was still drawn, so the stream
        # and the values are those of the general route below
        out = rng.random(shape, out=u)
        out *= widths[0]
        out += edges[0]
        return out
    cum = np.cumsum(np.asarray(h.heights) * widths)
    cum = cum / cum[-1]
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(widths) - 1)
    return edges[idx] + rng.random(shape) * widths[idx]


def matched_cube(spec: DistributionSpec) -> DistributionSpec:
    """Uniform cube law with density exactly ``spec.density_bound``.

    A coordinate law with density bounded by M is stochastically dominated
    (for symmetric convex bodies, factor by factor) by the uniform law on
    ``[-1/(2M), 1/(2M)]``; this builds that comparison law as a one-bin
    histogram.
    """
    m = spec.density_bound
    if not math.isfinite(m) or m <= 0:
        raise ValidationError(f"matched cube needs a finite positive density bound, got {m!r}")
    half = 1.0 / (2.0 * m)
    hist = HistogramDensity((-half, half), (m,))
    return DistributionSpec(kind="histogram", dim=spec.dim, histogram=hist)
