"""Finite orbit segments, pseudo-orbits, step methods, and the orbit dump.

A pseudo-orbit is a two-sided finite sequence indexed -N..N whose consecutive
gaps d(f(x_i), x_{i+1}) stay strictly below a bound delta;
``PseudoOrbit.checked`` is the one gap test.  A "method" assigns to every
point an anchored pseudo-orbit (entry 0 is the point itself); the operative
class consists of methods induced by iterating a nearby map g.  Raw callable
methods have no such map and serve only as the pseudo-orbits of direct
checks.  An orbit dump is the CSV text of ``orbit_csv_text``.

Bi-infinite sequences are truncated at an explicit horizon N.  Every verdict
built on top of these objects is a finite-horizon statement and says so.

Orbits are walked one map step at a time by ``_orbit_steps``.  A batch of
points steps as a numpy array; one point steps as a tuple of Python floats
when its map has one-point actions (``SystemMap.point_forward``), which
repeat the array actions' roundings and so give the same positions bit for
bit, at about a tenth of the cost of a one-row array step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import TorusPoint, _check_finite, dist_array, reduce_to_unit
from .systems import ConstructionError, SystemMap, _method_gap

__all__ = [
    "PseudoOrbit",
    "MethodSpec",
    "orbit_segment",
    "method_from_map",
    "random_method",
    "orbit_csv_text",
    "TRUE_ORBIT_DELTA",
]

# Gap bound assigned to exact orbit segments: far above float roundtrip noise
# (constructors gate that at 1e-9), far below any delta used by a method.
TRUE_ORBIT_DELTA = 1e-8


def _as_coords(x, dim: int, role: str = "anchor") -> np.ndarray:
    """One point as a 1-D array of length dim, reduced to the unit cube.

    ``role`` names the point in the error messages; non-finite coordinates are rejected.
    """
    arr = x.as_array() if isinstance(x, TorusPoint) else np.asarray(x, dtype=float)
    _check_finite(arr, role)
    arr = np.atleast_1d(reduce_to_unit(arr))
    if arr.shape != (dim,):
        raise ValueError(f"{role} has shape {arr.shape}, expected ({dim},)")
    return arr


def _orbit_steps(g: SystemMap, y: np.ndarray, N: int):
    """(i, g^(i-N)(y)) for every orbit index i, one map step at a time.

    ``y`` is one point, of shape (dim,) or (1, dim), or a batch (n, dim).
    One point of a map with one-point actions walks as a tuple of Python
    floats through ``point_forward`` / ``point_backward``, whose steps equal
    the array steps bit for bit and cost about a tenth as much; everything
    else walks as arrays of y's shape through ``forward`` / ``backward``.
    """
    fwd, bwd = g.forward, g.backward
    if y.size == g.dim and g.point_forward is not None:
        fwd, bwd, y = g.point_forward, g.point_backward, tuple(y.ravel().tolist())
    yield N, y
    z = y
    for k in range(1, N + 1):
        z = fwd(z)
        yield N + k, z
    z = y
    for k in range(1, N + 1):
        z = bwd(z)
        yield N - k, z


def _orbit_array(g: SystemMap, y: np.ndarray, N: int) -> np.ndarray:
    """The positions of ``_orbit_steps`` by orbit index, as an array of shape (2N+1,) + y.shape."""
    out = np.empty((2 * N + 1,) + y.shape)
    for i, z in _orbit_steps(g, y, N):
        out[i] = z
    return out


def _as_points_array(seq, dim: int) -> np.ndarray:
    """Points as (m, dim) floats; a 1-D input is one coordinate per point."""
    arr = np.asarray(seq, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[1] != dim:
        raise ValueError(f"points have dim {arr.shape[1]}, expected {dim}")
    return arr


@dataclass(frozen=True, eq=False)
class PseudoOrbit:
    """Points indexed -N..N (row i holds index i - N) with a validated gap bound."""

    points: np.ndarray = field(repr=False)
    horizon: int
    delta_bound: float

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim != 2:
            raise ValueError("points must be a 2-D array (index, coordinate)")
        if len(arr) != 2 * self.horizon + 1:
            raise ValueError(f"expected {2 * self.horizon + 1} points for horizon {self.horizon}, got {len(arr)}")
        _check_finite(arr, "pseudo-orbit")
        object.__setattr__(self, "points", reduce_to_unit(arr))

    @classmethod
    def checked(cls, f: SystemMap, points, delta_bound: float) -> "PseudoOrbit":
        """Validating constructor: every consecutive gap under f must be < delta_bound."""
        arr = _as_points_array(points, f.dim)
        _check_finite(arr, "pseudo-orbit")
        if len(arr) % 2 != 1:
            raise ValueError("a two-sided pseudo-orbit needs an odd number of points")
        horizon = (len(arr) - 1) // 2
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        worst = float(dist_array(f.forward(arr[:-1]), arr[1:]).max())
        if not worst < delta_bound:
            raise ValueError(
                f"gap {worst:.6e} is not < delta_bound {delta_bound:.6e} under {f.label}"
            )
        return cls(points=arr, horizon=horizon, delta_bound=float(delta_bound))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def as_array(self) -> np.ndarray:
        return self.points.copy()

    def point(self, k: int) -> TorusPoint:
        """Entry at signed index k, -N <= k <= N."""
        if not -self.horizon <= k <= self.horizon:
            raise IndexError(f"index {k} outside horizon {self.horizon}")
        return TorusPoint.from_array(self.points[self.horizon + k])

    @property
    def anchor(self) -> TorusPoint:
        return self.point(0)

    def __len__(self):
        return len(self.points)


def orbit_segment(f: SystemMap, x, N: int) -> PseudoOrbit:
    """True orbit f^k(x) for -N <= k <= N, packaged as a (roundoff-level) pseudo-orbit."""
    if N < 1:
        raise ValueError("N must be at least 1")
    return PseudoOrbit.checked(f, _orbit_array(f, _as_coords(x, f.dim), N), TRUE_ORBIT_DELTA)


@dataclass(frozen=True, eq=False)
class MethodSpec:
    """A delta-method for ``target``: point -> anchored pseudo-orbit.

    kind "induced": the output at x is the orbit segment of ``source`` (a map
    within delta of the target in the C1 estimate), the driver map through
    which the inverse, weak and orbital checkers evaluate candidates.  kind
    "raw": ``producer(x_array, N)`` returns the points array; a raw method has
    no driver map, so it serves direct checks only, as the pseudo-orbit to
    track.
    """

    kind: str
    target: SystemMap = field(repr=False)
    delta: float
    horizon: int
    label: str
    source: SystemMap | None = field(repr=False, default=None)
    producer: Callable[[np.ndarray, int], np.ndarray] | None = field(repr=False, default=None)

    def __post_init__(self):
        if self.kind not in ("induced", "raw"):
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.kind == "induced" and self.source is None:
            raise ValueError("induced methods need a source map")
        if self.kind == "raw" and self.producer is None:
            raise ValueError("raw methods need a producer callable")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def is_induced(self) -> bool:
        return self.kind == "induced"

    def evaluate(self, x, N: int | None = None) -> PseudoOrbit:
        """Pseudo-orbit through x, validated against the target map at this method's delta."""
        n = self.horizon if N is None else int(N)
        if n < 1:
            raise ValueError("N must be at least 1")
        x0 = _as_coords(x, self.target.dim)
        if self.is_induced:
            pts = orbit_segment(self.source, x0, n).as_array()
        else:
            pts = _as_points_array(self.producer(x0, n), self.target.dim)
            if len(pts) != 2 * n + 1:
                raise ValueError("producer returned the wrong number of points")
        po = PseudoOrbit.checked(self.target, pts, self.delta)
        if float(dist_array(po.points[po.horizon], x0)) > 1e-12:
            raise ValueError("method output is not anchored at the requested point")
        return po


def method_from_map(f: SystemMap, g: SystemMap, N: int) -> MethodSpec:
    """Method induced by iterating g, with delta = the C1 gap from f plus a 5% margin.

    The gap comes from how g was built (``systems._method_gap``): in closed
    form for f itself, drifts, rotations and perturbations of an affine f,
    where float evaluation exceeds it only by roundoff.  Other pairs fall back
    to a grid estimate, a lower bound.  The margin (and an absolute floor of
    1e-9 for the g = f case, where only roundtrip roundoff remains) keeps
    every evaluation validating strictly.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if N < 1:
        raise ValueError("N must be at least 1")
    delta = max(_method_gap(f, g) * 1.05, 1e-9)
    return MethodSpec(
        kind="induced",
        target=f,
        delta=delta,
        horizon=N,
        label=f"induced[{g.label}]",
        source=g,
    )


def random_method(f: SystemMap, delta: float, seed: int) -> MethodSpec:
    """Raw method: the true orbit with independent per-step offsets of norm < delta.

    Deterministic in (seed, x, N).  Offsets are drawn uniformly from a cube of
    half-width 0.9*delta/sqrt(dim), so every gap is below delta with slack for
    the inverse-roundtrip roundoff on the backward side.
    """
    if not math.isfinite(delta):
        raise ConstructionError(f"delta must be finite, got {delta}")
    if delta < 1e-8:
        raise ConstructionError("delta below 1e-8 would drown in roundtrip roundoff")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    half = 0.9 * float(delta) / math.sqrt(f.dim)

    def producer(x0: np.ndarray, n: int) -> np.ndarray:
        bits = [int(b) for b in np.asarray(x0, dtype=np.float64).view(np.uint64)]
        rng = np.random.default_rng([int(seed), int(n), *bits])
        offs = rng.uniform(-half, half, size=(2 * n, f.dim))
        arr = np.empty((2 * n + 1, f.dim))
        arr[n] = x0
        z = x0
        for i in range(n):
            z = reduce_to_unit(f.forward(z) + offs[i])
            arr[n + 1 + i] = z
        z = x0
        for i in range(n):
            z = f.backward(reduce_to_unit(z + offs[n + i]))
            arr[n - 1 - i] = z
        return arr

    return MethodSpec(
        kind="raw",
        target=f,
        delta=float(delta),
        horizon=1,
        label=f"random({delta:.3g},seed={seed})",
        producer=producer,
    )


# ---------------------------------------------------------------------------
# Orbit dump format: CSV with columns k, coord_0[, coord_1], k ascending.
# ---------------------------------------------------------------------------

def orbit_csv_text(po: PseudoOrbit) -> str:
    """Orbit dump as a string (the CLI writes exactly this); cells are repr() floats."""
    lines = [",".join(["k"] + [f"coord_{i}" for i in range(po.dim)])]
    lines += [",".join([str(k)] + [repr(float(v)) for v in row])
              for k, row in zip(range(-po.horizon, po.horizon + 1), po.points)]
    return "\n".join(lines) + "\n"
