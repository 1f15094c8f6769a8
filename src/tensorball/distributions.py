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

import json
import math
from dataclasses import dataclass, field

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
    shift : tuple of float, optional
        Additive offset applied after sampling (defaults to zero).  The
        centered-at-arbitrary-point experiments subtract their own shift at
        the consumer side; samplers stay centered unless this is set.
    density_bound : float, optional
        Declared upper bound on the coordinate density.  Defaults to the
        exact sup for the kind; an explicit value below the true sup is
        rejected.
    histogram : HistogramDensity, optional
        Required when ``kind == "histogram"``.
    """

    kind: str
    dim: int
    shift: tuple[float, ...] | None = None
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
        if self.shift is not None:
            shift = np.asarray(self.shift, dtype=float)
            if shift.shape != (self.dim,):
                raise ValidationError(f"shift must have length dim={self.dim}, got shape {shift.shape}")
            object.__setattr__(self, "shift", tuple(shift.tolist()))
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

    def shift_array(self) -> np.ndarray:
        if self.shift is None:
            return np.zeros(self.dim)
        return np.asarray(self.shift, dtype=float)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim, "shift": list(self.shift_array())}
        out["density_bound"] = None if math.isinf(self.density_bound) else self.density_bound
        if self.histogram is not None:
            out["bins"] = {
                "edges": list(self.histogram.bin_edges),
                "heights": list(self.histogram.heights),
            }
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "DistributionSpec":
        hist = None
        if "bins" in d and d["bins"] is not None:
            hist = HistogramDensity(tuple(d["bins"]["edges"]), tuple(d["bins"]["heights"]))
        return cls(
            kind=d["kind"],
            dim=int(d["dim"]),
            shift=tuple(d["shift"]) if d.get("shift") is not None else None,
            density_bound=d.get("density_bound"),
            histogram=hist,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s: str) -> "DistributionSpec":
        return cls.from_json_dict(json.loads(s))


def density_sup(spec: DistributionSpec) -> float:
    """Exact coordinate density sup-norm of ``spec`` (ignores the declared bound)."""
    return spec._exact_sup()


def sample_matrix(spec: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` factor vectors as the rows of an ``(n, dim)`` array.

    Coordinates are i.i.d. from the spec's law, then shifted by
    ``spec.shift`` componentwise.  Deterministic given the generator state.
    """
    d = spec.dim
    if spec.kind == "uniform-cube-sqrt3":
        out = rng.uniform(-_SQRT3, _SQRT3, size=(n, d))
    elif spec.kind == "uniform-cube-unit":
        out = rng.uniform(-1.0, 1.0, size=(n, d))
    elif spec.kind == "gaussian-std":
        out = rng.standard_normal((n, d))
    elif spec.kind == "symmetric-exponential-unitvar":
        out = rng.laplace(0.0, _LAPLACE_SCALE, size=(n, d))
    else:
        out = _sample_histogram(spec.histogram, rng, (n, d))
    if spec.shift is not None:
        out = out + spec.shift_array()
    return out


def _sample_histogram(h: HistogramDensity, rng: np.random.Generator, shape) -> np.ndarray:
    if h.is_point_mass:
        return np.full(shape, h.bin_edges[0], dtype=float)
    edges = np.asarray(h.bin_edges)
    widths = np.diff(edges)
    cum = np.cumsum(np.asarray(h.heights) * widths)
    cum = cum / cum[-1]
    u = rng.random(shape)
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(widths) - 1)
    return edges[idx] + rng.random(shape) * widths[idx]


def _is_symmetric_decreasing(h: HistogramDensity) -> bool:
    if h.is_point_mass:
        return h.bin_edges[0] == 0.0
    edges = np.asarray(h.bin_edges)
    heights = np.asarray(h.heights)
    if not np.array_equal(edges, -edges[::-1]):
        return False
    if not np.array_equal(heights, heights[::-1]):
        return False
    k = (len(heights) + 1) // 2
    return bool(np.all(np.diff(heights[:k]) >= 0))


def rearrange_histogram(h: HistogramDensity) -> HistogramDensity:
    """Symmetric decreasing rearrangement of a piecewise-constant density.

    Level sets keep their measure: bins are sorted by height and laid out
    around the origin, tallest innermost.  A histogram that is already even
    and nonincreasing in ``|x|`` is returned unchanged, which makes the map
    idempotent.
    """
    if _is_symmetric_decreasing(h):
        return h
    if h.is_point_mass:
        return HistogramDensity((0.0, 0.0), h.heights)
    edges = np.asarray(h.bin_edges)
    heights = np.asarray(h.heights)
    widths = np.diff(edges)
    order = np.argsort(-heights, kind="stable")
    hs = heights[order]
    ws = widths[order]
    r = np.cumsum(ws) / 2.0
    out_edges = np.concatenate([-r[::-1], r])
    out_heights = np.concatenate([hs[::-1], hs[1:]])
    # merge adjacent equal heights so repeated application is stable
    keep = np.ones(len(out_heights), dtype=bool)
    keep[1:] = out_heights[1:] != out_heights[:-1]
    merged_heights = out_heights[keep]
    edge_keep = np.ones(len(out_edges), dtype=bool)
    edge_keep[1:-1] = keep[1:]
    merged_edges = out_edges[edge_keep]
    return HistogramDensity(tuple(merged_edges.tolist()), tuple(merged_heights.tolist()))


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
