"""Points, the quotient metric, and lattices on the circle and 2-torus.

Phase space is the quotient [0,1)^n with n in {1, 2}.  Distances are Euclidean
on the flat quotient: the minimum over integer translates of a lift.  Because
the lattice is a product of unit lattices, the minimum decomposes per axis,
which is what the array kernels below implement; the three-translates-per-axis
enumeration is kept as the reference in the test suite.  This module is the
only place that knows the per-axis wrap formulas: ``v - floor(v)`` for points
and ``d - rint(d)`` for differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusPoint",
    "torus_dist",
    "reduce_to_unit",
    "wrap_to_half",
    "sq_dist_array",
    "dist_array",
    "lattice_points",
]


def reduce_to_unit(values):
    """Map lift coordinates into the fundamental domain [0, 1).

    Idempotent.  ``v - floor(v)`` rounds to exactly ``1.0`` for tiny negative
    ``v``; the fix-up maps that to ``0.0`` in place.  It tests ``== 1.0`` so that
    NaN stays NaN instead of passing for a valid coordinate.
    """
    v = np.asarray(values, dtype=float)
    r = np.asarray(v - np.floor(v))  # an array even for one coordinate, so putmask can write to it
    np.putmask(r, r == 1.0, 0.0)
    return r


def _check_finite(arr: np.ndarray, role: str) -> None:
    """ValueError naming the first non-finite point of ``arr`` (one point, or one per row).

    Runs before any reduction, which would turn an infinite coordinate into NaN.
    """
    if not np.isfinite(arr).all():
        rows = np.atleast_2d(arr)
        i = int(np.flatnonzero(~np.isfinite(rows).all(axis=-1))[0])
        where = f" in row {i}" if arr.ndim == 2 else ""
        raise ValueError(f"{role} coordinates must be finite, got {rows[i].tolist()}{where}")


def wrap_to_half(values):
    """Wrap lift displacements to the symmetric window [-1/2, 1/2)."""
    return reduce_to_unit(np.asarray(values, dtype=float) + 0.5) - 0.5


def sq_dist_array(a, b):
    """Squared quotient distance between coordinate arrays; last axis holds components.

    Broadcasts like an elementwise operation, so ``a`` of shape (m, 1, d) against
    ``b`` of shape (t, d) yields the full (m, t) matrix; two single points give a
    ``numpy.float64``.  The objectives reduce squared distances and take one
    square root at the end.

    Works one axis at a time.  ``d - rint(d)`` is the signed distance from the
    lift difference d to the nearest integer and is exact in float for every
    finite d, so the operands need no reduction and the (m, t) matrix no
    remainder.  The squares are summed in axis order.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sq = None
    for k in range(a.shape[-1]):
        d = a[..., k] - b[..., k]
        d -= np.rint(d)
        d *= d
        if sq is None:
            sq = d
        else:
            sq += d
    return sq


def dist_array(a, b):
    """Quotient distance between coordinate arrays: the square root of :func:`sq_dist_array`."""
    return np.sqrt(sq_dist_array(a, b))


def lattice_points(G: int, dim: int, offset: float = 0.0, idx=None) -> np.ndarray:
    """Points of the lattice with coordinates (k + offset) / G, k = 0..G-1 per axis.

    Points are numbered by flat index in ij order: on the torus, index i sits
    at k = i // G on the first axis and k = i % G on the second.  ``idx``
    selects some of them; the default is the whole lattice.  Returns shape
    (number of points, dim).
    """
    idx = np.arange(G ** dim) if idx is None else np.asarray(idx)
    if dim == 1:
        return ((idx + offset) / G)[:, None]
    return np.stack([(idx // G + offset) / G, (idx % G + offset) / G], axis=1)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the circle (dim 1) or the 2-torus (dim 2).

    Coordinates are reduced to [0,1) at construction, so two representations of
    the same point compare equal as long as their reductions agree bitwise.
    Non-finite coordinates are rejected.
    """

    coords: tuple[float, ...]

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coords, dtype=float))
        _check_finite(arr, "point")
        arr = reduce_to_unit(arr)
        if arr.ndim != 1 or arr.size not in (1, 2):
            raise ValueError(f"phase space is 1- or 2-dimensional, got coords of shape {arr.shape}")
        object.__setattr__(self, "coords", tuple(float(v) for v in arr))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    @classmethod
    def from_array(cls, arr) -> "TorusPoint":
        return cls(tuple(np.atleast_1d(np.asarray(arr, dtype=float))))

    def __str__(self):
        return "(" + ", ".join(f"{c:.12g}" for c in self.coords) + ")"


def torus_dist(p: TorusPoint, q: TorusPoint) -> float:
    """Quotient distance d(p, q); at most 1/2 on the circle, sqrt(2)/2 on the torus."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return float(dist_array(p.as_array(), q.as_array()))
