"""Points, the quotient metric, and lattices on the n-torus.

Phase space is [0,1)^n, n read off the input's last axis (n = 1 is the
circle).  Distances are Euclidean on the flat quotient: the minimum over
integer translates of a lift.  Because the lattice is a product of unit lattices, the minimum decomposes per axis,
which is what the array kernels below implement; the three-translates-per-axis
enumeration is kept as the reference in the test suite.  This module is the
only place that knows the per-axis wrap formulas: ``v - floor(v)`` for points
and ``d - rint(d)`` for differences.

Kernels: ``reduce_to_unit`` and ``wrap_to_half`` for coordinate arrays,
``reduce_coord`` for one Python float,
``sq_dist_array`` and ``dist_array`` for distances, ``sq_dist_bounds`` and
``bound_cells`` for a table that encloses the squared distance from any point
of a cell to a target set, and ``lattice_points`` for lattices.  The table
groups the targets by exact first coordinate: rounded addition is monotone,
so a group's bounds on the other axes can be reduced before they are added,
with the per-target table's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusPoint",
    "torus_dist",
    "reduce_to_unit",
    "reduce_coord",
    "wrap_to_half",
    "sq_dist_array",
    "dist_array",
    "sq_dist_bounds",
    "bound_cells",
    "lattice_points",
]

# Cells per axis of a ``sq_dist_bounds`` table up to two axes, fewer above
# (``_per_axis``); a power of two, so that a coordinate times it is exact and
# so is the cell it falls in.
BOUND_CELLS = 128
# Outward rounding of the table: an absolute term per axis, in units of
# (1 + |target coordinate|), and a relative factor on each squared sum.
_BOUND_ABS = 2.0 ** -50
_BOUND_REL = 2.0 ** -50


def reduce_to_unit(values):
    """Map lift coordinates into the fundamental domain [0, 1).

    Idempotent.  ``v - floor(v)`` rounds to exactly ``1.0`` for tiny negative
    ``v``; the fix-up maps that to ``0.0`` in place.  It tests ``== 1.0`` so that
    NaN stays NaN instead of passing for a valid coordinate, and it runs only
    when the largest value is not below 1.0, which a NaN also fails.
    """
    v = np.asarray(values, dtype=float)
    r = np.floor(v, out=np.empty_like(v))  # an array even for one coordinate, so putmask can write to it
    np.subtract(v, r, out=r)
    if r.size and not r.max() < 1.0:
        np.putmask(r, r == 1.0, 0.0)
    return r


def reduce_coord(v: float) -> float:
    """``reduce_to_unit`` of one Python float, bit for bit.

    ``v % 1.0`` is the exact fmod(v, 1), plus 1.0 when that is negative, so
    it rounds the real number v - floor(v) once, as ``v - floor(v)`` does.
    It gives +0.0 for an integer v and NaN for a non-finite one, as the
    array kernel does, and the same fix-up follows.
    """
    r = v % 1.0
    return 0.0 if r == 1.0 else r


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
    remainder.  The squares are summed in axis order.  ``rint`` rounds into
    one buffer that every axis reuses.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sq = buf = None
    for k in range(a.shape[-1]):
        d = a[..., k] - b[..., k]
        if buf is None:
            buf = np.empty_like(d)
        d -= np.rint(d, out=buf)
        d *= d
        if sq is None:
            sq = d
        else:
            sq += d
    return sq


def dist_array(a, b):
    """Quotient distance between coordinate arrays: the square root of :func:`sq_dist_array`."""
    return np.sqrt(sq_dist_array(a, b))


def _per_axis(G: int, dim: int) -> int:
    """Points per axis of a dyadic lattice on [0,1)^dim: the power of two G, halved until there are <= G ** 2."""
    n = G
    while n ** dim > G * G:
        n //= 2
    return n


def sq_dist_bounds(targets, block: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) enclosing min over ``targets`` of ``sq_dist_array`` on every cell.

    [0,1)^n is cut into H = _per_axis(BOUND_CELLS, n) cells per axis,
    numbered as ``bound_cells`` numbers them.  For every point x of cell c,
    lo[c] <= min over t of sq_dist_array(x, t) <= hi[c], with the float value
    the kernel computes.  One more entry, lo = 0 and hi = inf, stands for points
    outside [0, 1).

    Per axis, the wrapped distance w is 1-Lipschitz, so on a cell [a, b] of
    width h it lies within (w(a) + w(b) -+ h) / 2, and below 1/2.  Each axis
    bound is widened by _BOUND_ABS (1 + |t|), which covers the rounding of
    the kernel's difference and of the bound's own arithmetic; each squared
    sum is then scaled by 1 -+ _BOUND_REL (times n // 2 above three axes),
    which covers the rounding of the squares and the sum.

    The targets are grouped by their exact first coordinate, which alone
    fixes a target's first-axis bounds a.  Rounded addition is monotone, so
    within a group min over t of fl(a + b_t) = fl(a + min b_t), b_t the sum
    of the other axes' bounds (0 on the circle): b is reduced per group
    first, bit for bit the per-target table at a cost of groups * cells.  A
    shear orbit, whose map fixes the first coordinate, is one group.  Cells
    are filled in blocks of first-axis rows, at most ``block`` cells where a
    row allows, so no temporary holds more than that times the groups.
    """
    T = np.asarray(targets, dtype=float)
    H, dim = _per_axis(BOUND_CELLS, T.shape[-1]), T.shape[-1]
    edges = np.arange(H + 1)[:, None] / H

    def axis_bounds(t):
        """(lo, hi) of shape (H, len(t)): squared bounds of one axis per target coordinate t."""
        w = edges - t
        w = np.abs(w - np.rint(w))  # (H + 1, targets): the wrapped distance at each cell edge
        mid, pad = (w[:-1] + w[1:]) / 2, 1.0 / (2 * H) + _BOUND_ABS * (1.0 + np.abs(t))
        return np.square(np.maximum(mid - pad, 0.0)), np.square(np.minimum(mid + pad, 0.5))

    T = T[np.argsort(T[:, 0])]
    starts = np.flatnonzero(np.r_[True, T[1:, 0] != T[:-1, 0]])  # the first target of each group
    ax0 = axis_bounds(T[starts, 0])
    rest = (np.zeros((1, len(T))),) * 2  # (cells of the other axes, targets)
    for k in range(1, dim):
        rest = [(r[:, None, :] + b[None, :, :]).reshape(-1, len(T)) for r, b in zip(rest, axis_bounds(T[:, k]))]
    rest = [np.minimum.reduceat(b, starts, axis=1) for b in rest]
    R = len(rest[0])  # cells per first-axis row
    lo, hi = np.empty(H * R), np.empty(H * R)
    rows = max(1, block // R)
    for r in range(0, H, rows):
        cells = slice(r * R, min(r + rows, H) * R)
        for out, a, b in zip((lo, hi), ax0, rest):
            out[cells] = (a[r:r + rows, None, :] + b[None, :, :]).min(axis=2).ravel()
    rel = _BOUND_REL * max(1, dim // 2)
    return np.append(lo * (1.0 - rel), 0.0), np.append(hi * (1.0 + rel), np.inf)


def bound_cells(points) -> np.ndarray:
    """Flat ``sq_dist_bounds`` cell of each point; the last axis holds components.

    With H cells per axis, cell (i_0, ..., i_{n-1}) is (i_0 * H + i_1) * H +
    ..., i_k = floor(x_k * H).  A point outside [0, 1) (or not finite) gets
    the extra cell H ** n.
    """
    H = _per_axis(BOUND_CELLS, np.shape(points)[-1])
    P = np.asarray(points, dtype=float) * H
    inside = None
    if not (P.min(initial=0.0) >= 0 and P.max(initial=0.0) < H):  # NaN fails both tests
        inside = ((P >= 0) & (P < H)).all(axis=-1)
        P = np.where(inside[..., None], P, 0.0)
    c = P.astype(np.int32)  # truncation is floor here, and int32 casts fastest
    flat = c[..., 0]
    for k in range(1, P.shape[-1]):
        flat *= H
        flat += c[..., k]
    return flat if inside is None else np.where(inside, flat, H ** P.shape[-1])


def lattice_points(G: int, dim: int, offset: float = 0.0, idx=None) -> np.ndarray:
    """Points of the lattice with coordinates (k + offset) / G, k = 0..G-1 per axis.

    Points are numbered by flat index in ij order: index i sits at its base-G
    digits, the first axis most significant.  ``idx`` selects some of them
    (default: all).  Returns shape (number of points, dim).
    """
    idx = np.arange(G ** dim) if idx is None else np.asarray(idx)
    out = np.empty(idx.shape + (dim,))
    for k in range(dim - 1, 0, -1):
        idx, out[..., k] = np.divmod(idx, G)
    out[..., 0] = idx
    return np.divide(out + offset, G, out=out)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the n-torus; n = 1 is the circle.

    Coordinates are reduced to [0,1) at construction, so two representations of
    the same point compare equal as long as their reductions agree bitwise.
    Non-finite coordinates are rejected.
    """

    coords: tuple[float, ...]

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coords, dtype=float))
        _check_finite(arr, "point")
        arr = reduce_to_unit(arr)
        if arr.ndim != 1 or not arr.size:
            raise ValueError(f"a point has one or more coordinates in a flat sequence, got coords of shape {arr.shape}")
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
    """Quotient distance d(p, q); at most sqrt(n)/2 on the n-torus."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return float(dist_array(p.as_array(), q.as_array()))
