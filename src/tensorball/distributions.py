"""Coordinate distributions for tensor factors.

Every factor vector is sampled with i.i.d. coordinates from a symmetric
one-dimensional law.  The built-in laws and their facts live in one table,
``_LAWS``; ``KINDS`` lists its keys, then ``histogram``:

* ``uniform-cube-sqrt3``: uniform on ``[-sqrt(3), sqrt(3)]``, variance 1,
  density ``1/(2*sqrt(3))``.
* ``uniform-cube-unit``: uniform on ``[-1, 1]``, variance 1/3, density 1/2.
* ``gaussian-std``: standard normal, density sup ``1/sqrt(2*pi)``.
* ``symmetric-exponential-unitvar``: Laplace with scale ``1/sqrt(2)``
  (variance 1), density sup ``1/sqrt(2)``.
* ``histogram``: user-supplied piecewise-constant density.

``sample_matrix`` draws a batch of factor vectors at once, and
``sample_chunks`` draws the same batch as consecutive row chunks, so a
kernel that keeps only a reduction or a few columns of each factor holds
one chunk at a time.  The built-in laws fill their rows in order, one value
after another, so chunks move no value and no generator state; a histogram
draws in two passes over the whole batch and arrives in one piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from .subspaces import _check_sizes

_SQRT3 = math.sqrt(3.0)
_LAPLACE_SCALE = 1.0 / math.sqrt(2.0)


class _Law(NamedTuple):
    sup: float  # exact sup of the density
    half_width: float | None  # s for a law uniform on [-s, s], else None
    isotropic: bool  # mean 0 and variance 1


_LAWS = {
    "uniform-cube-sqrt3": _Law(1.0 / (2.0 * _SQRT3), _SQRT3, True),
    "uniform-cube-unit": _Law(0.5, 1.0, False),
    "gaussian-std": _Law(1.0 / math.sqrt(2.0 * math.pi), None, True),
    "symmetric-exponential-unitvar": _Law(1.0 / math.sqrt(2.0), None, True),
}

KINDS = (*_LAWS, "histogram")

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class HistogramDensity:
    """Piecewise-constant density given by bin edges and bin heights.

    ``bin_edges`` must be strictly increasing with ``len(heights) ==
    len(bin_edges) - 1``, heights nonnegative and total mass 1 within
    1e-12.
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
        # each check is written so that NaN fails it
        if not np.all(np.diff(edges) > 0):
            raise ValidationError("histogram bin edges must be strictly increasing")
        if not np.all(heights >= 0):
            raise ValidationError("histogram heights must be nonnegative")
        mass = float(np.sum(heights * np.diff(edges)))
        if not abs(mass - 1.0) <= _MASS_TOL:
            raise ValidationError(f"histogram mass {mass!r} differs from 1 by more than {_MASS_TOL}")

    def sup(self) -> float:
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
    histogram : HistogramDensity, optional
        Required when ``kind == "histogram"``.
    """

    kind: str
    dim: int
    histogram: HistogramDensity | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown distribution kind {self.kind!r}; expected one of {KINDS}")
        (dim,) = _check_sizes(1, dim=self.dim)
        object.__setattr__(self, "dim", dim)
        if self.kind == "histogram":
            if self.histogram is None:
                raise ConfigurationError("kind 'histogram' requires a HistogramDensity")
        elif self.histogram is not None:
            raise ConfigurationError(f"kind {self.kind!r} does not take a histogram")

    @property
    def density_bound(self) -> float:
        """The exact sup of the coordinate density."""
        if self.kind == "histogram":
            return self.histogram.sup()
        return _LAWS[self.kind].sup

    @property
    def uniform_half_width(self) -> float | None:
        """``s`` when the law is uniform on ``[-s, s]``, else None (histograms included)."""
        law = _LAWS.get(self.kind)
        return law.half_width if law else None

    @property
    def isotropic(self) -> bool:
        """Whether the law is centered with unit variance; False for histograms."""
        law = _LAWS.get(self.kind)
        return law.isotropic if law else False


def sample_matrix(spec: DistributionSpec, rng: np.random.Generator, n: int, out=None) -> np.ndarray:
    """Draw ``n`` factor vectors as the rows of an ``(n, dim)`` array.

    Coordinates are i.i.d. from the spec's law.  Deterministic given the
    generator state.

    ``out``, a C-contiguous float64 array of shape ``(n, dim)``, receives the
    draws in place of a fresh allocation and is returned, with the same bits
    and the generator left where the call without it leaves it.  The Laplace
    kind ignores it and returns a fresh array: ``Generator.laplace`` has no
    ``out=``.
    """
    d = spec.dim
    if out is not None and (out.shape != (n, d) or out.dtype != np.float64 or not out.flags.c_contiguous):
        raise ValidationError(f"sample_matrix needs a C-contiguous float64 out= of shape {(n, d)}")
    s = spec.uniform_half_width
    if s is not None:
        return _sample_uniform(rng, -s, s, (n, d), out)
    if spec.kind == "gaussian-std":
        return rng.standard_normal((n, d), out=out)
    if spec.kind == "symmetric-exponential-unitvar":
        return rng.laplace(0.0, _LAPLACE_SCALE, size=(n, d))
    return _sample_histogram(spec.histogram, rng, (n, d), out)


def sample_chunks(spec: DistributionSpec, rng: np.random.Generator, n: int, rows: int, buffer):
    """Yield ``(start, x)``: rows ``start:start + len(x)`` of ``sample_matrix(spec, rng, n)``,
    drawn as consecutive chunks of at most ``rows`` rows, each when it is asked for.

    Every chunk is one ``sample_matrix`` call, looked up when it is made, with
    ``out=buffer((len(x), spec.dim))``: ``buffer`` returns an array that call
    accepts, such as a fresh one or a kept one the next chunk overwrites.
    The built-in laws fill their output in C order, one value after another,
    so the chunks together are that call's array bit for bit, and the
    generator ends where that call leaves it.  A histogram draws in two
    passes over the whole array (bins, then positions), so it comes as one
    chunk of ``n`` rows, with that call's memory.
    """
    if spec.histogram is not None:
        rows = n
    for start in range(0, n, rows):
        cur = min(rows, n - start)
        yield start, sample_matrix(spec, rng, cur, out=buffer((cur, spec.dim)))


def _sample_uniform(rng: np.random.Generator, low: float, high: float, shape, out) -> np.ndarray:
    # ``Generator.uniform(low, high)`` computes ``low + (high - low) * U`` per
    # value; the same two roundings in place give its bits and stream
    x = rng.random(shape, out=out)
    x *= high - low
    x += low
    return x


def _sample_histogram(h: HistogramDensity, rng: np.random.Generator, shape, out) -> np.ndarray:
    edges = np.asarray(h.bin_edges)
    widths = np.diff(edges)
    u = rng.random(shape, out=out)
    if widths.size == 1:
        # every draw falls in the one bin; u was still drawn, so the stream
        # and the values are those of the general route below
        out = rng.random(out=u)
        out *= widths[0]
        out += edges[0]
        return out
    cum = np.cumsum(np.asarray(h.heights) * widths)
    cum = cum / cum[-1]
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(widths) - 1)
    # u is spent: the positions within the bins go where it was,
    # ``edges[idx] + U * widths[idx]`` with the same roundings
    pos = rng.random(out=u)
    pos *= widths[idx]
    pos += edges[idx]
    return pos


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
