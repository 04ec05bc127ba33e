"""Invertible volume-preserving maps of the n-torus; n = 1 is the circle.

Every map is packaged as a :class:`SystemMap`: vectorized forward/backward
actions on reduced coordinates, a Jacobian field, declared Lipschitz bounds,
and a JSON-serializable descriptor.  Constructors run a self-check (inverse
roundtrip and volume defect on a probe grid) so that an object that exists is
also a valid conservative system.

Three primitives write out their own actions: toral automorphisms, the
translation x -> x + v (a circle rotation is one), and a sine shear.  Each
also acts on one reduced point given as a tuple of Python floats, with the
same roundings as its array action, so a one-point orbit walks without
numpy's per-call cost and with the array walk's bits.  An automorphism
has that action only when every row of its matrix and of the inverse has
at most two nonzero entries, each +-2^k: then every product a*x is exact,
and a row rounds once, as ``x @ M.T`` does, fused multiply-add or not.
Every other map is built by ``_compose``, the one place that knows how maps
compose: forward is outer after inner, backward runs the inverses in
reverse order, the differential follows the chain rule, the Lipschitz
bounds and linear parts multiply, and a one-point action exists when both
parts have one.  A drift is
``translate(delta) o f`` and a perturbation is ``f o tau``.  Either is one
composition away from f, so its descriptor fixes its C0/C1 gap
to f in closed form: a drift moves every point by delta and keeps the
differential, and a perturbation of an affine f with linear part A moves f(x)
by A(tau(x) - x).  ``_method_gap`` reads that gap off the descriptors and
samples with ``c1_distance`` only for pairs it cannot read.

Volume preservation is measured as ``| |det Df| - 1 |`` so that
orientation-reversing automorphisms (det = -1) count as measure-preserving.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .geometry import _per_axis, dist_array, lattice_points, reduce_coord, reduce_to_unit

__all__ = [
    "ConstructionError",
    "SystemMap",
    "LinearAutomorphism",
    "make_linear",
    "make_rotation",
    "make_translation_method_map",
    "make_conservative_perturbation",
    "cat_map",
    "shear_map",
    "torus_identity",
    "circle_identity",
    "c1_distance",
    "volume_defect",
    "map_to_descriptor",
    "map_from_descriptor",
    "library_maps",
    "spectral_norm",
    "GOLDEN_ROTATION",
    "CAT_MATRIX",
    "SHEAR_MATRIX",
]

GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0

CAT_MATRIX = ((2, 1), (1, 1))
SHEAR_MATRIX = ((1, 0), (1, 1))

# Largest inverse-roundtrip and volume defects a constructed map may show on the probe grid.
_ROUNDTRIP_TOL = 1e-9
_VOLUME_TOL = 1e-9
# Deepest nesting of objects and arrays a map descriptor may use: building a
# map recurses through it, two frames a level where it is copied.
_DESCRIPTOR_DEPTH = 200
_TOO_DEEP = f"JSON descriptor is nested too deeply: at most {_DESCRIPTOR_DEPTH} levels of objects and arrays"


class ConstructionError(ValueError):
    """A map constructor received parameters outside its validity gate."""


def spectral_norm(M) -> float:
    """Spectral norm of a square matrix: a closed form from the singular values up to 2x2."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return float(_spectral_norm_batch(M))


def _spectral_norm_batch(M) -> np.ndarray:
    """Spectral norms over a stack (..., n, n): closed forms for n <= 2, an SVD above."""
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    if n == 1:
        return np.abs(M[..., 0, 0])
    if n > 2:
        return np.linalg.norm(M, 2, axis=(-2, -1))
    # Where a largest entry lies outside [2**-200, 2**200], s * s could over- or underflow:
    # there the stack is scaled exactly by 2**-e to a largest entry in [1/2, 1).  Bits
    # move only where the unscaled or the scaled form over- or underflows.
    top = np.abs(M).max(axis=(-2, -1))
    lo, hi = (top.min(), top.max()) if top.ndim else (float(top),) * 2  # a 0-d reduction costs microseconds
    scale = not (2.0 ** -200 <= lo and hi <= 2.0 ** 200)
    if scale:
        e = np.frexp(top)[1]
        M = np.ldexp(M, -e[..., None, None])
    a, b = M[..., 0, 0], M[..., 0, 1]
    c, d = M[..., 1, 0], M[..., 1, 1]
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = np.maximum(s * s - 4.0 * det * det, 0.0)
    norm = np.sqrt(0.5 * (s + np.sqrt(disc)))
    return np.ldexp(norm, e) if scale else norm


def _check_int64(v, role: str) -> None:
    if not -2**63 <= v < 2**63:
        raise ConstructionError(f"{role} entry {v} does not fit a 64-bit integer")


def _bareiss(M: list, ncols: int) -> tuple[list, int, int]:
    """Fraction-free Gauss-Jordan (Bareiss) on the integer rows M over its first ncols columns, in place.

    Each update is divided exactly by the last pivot, and a column with no
    nonzero entry left below the pivot rows is skipped.  Returns (pivot
    columns, sign of the row swaps, last pivot d): each pivot row then holds
    d at its own pivot column and 0 at the other pivot columns.
    """
    pivots, sign, prev = [], 1, 1
    for k in range(ncols):
        r = len(pivots)
        p = next((p for p in range(r, len(M)) if M[p][k]), None)
        if p is None:
            continue
        if p != r:
            M[r], M[p], sign = M[p], M[r], -sign
        row = M[r]
        pivot = row[k]
        for i in range(len(M)):
            a = M[i][k]
            if i != r and (a or pivot != prev):  # a row that neither term changes stays as it is
                M[i] = [(pivot * x - a * y) // prev for x, y in zip(M[i], row)]
        prev = pivot
        pivots.append(k)
    return pivots, sign, prev


def _det_and_inverse(rows: list) -> tuple[int, list | None]:
    """(det A, A^-1 if |det A| = 1 else None) of a square integer matrix, in Python integers.

    ``_bareiss`` on [A | I] ends with d * I | d * A^-1, d = +-det A by the row swaps.
    """
    n = len(rows)
    M = [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    pivots, sign, d = _bareiss(M, n)
    if len(pivots) < n:
        return 0, None
    return sign * d, [r[n:] if d == 1 else [-v for v in r[n:]] for r in M] if abs(d) == 1 else None


def _integer_kernel(rows: list) -> list[list[int]]:
    """Primitive integer vectors spanning the kernel of an integer matrix, one per column without a pivot.

    From ``_bareiss``: free column f gives d at f and minus each pivot row's
    entry at f at that row's pivot column, divided by the entries' gcd and
    signed so that its first nonzero entry is positive.
    """
    M = [list(r) for r in rows]
    n = len(M[0])
    pivots, _, d = _bareiss(M, n)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = d
        for r, p in enumerate(pivots):
            v[p] = -M[r][f]
        g = math.gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
        basis.append([x // g for x in v])
    return basis


@dataclass(frozen=True, eq=False)
class LinearAutomorphism:
    """An integer n x n matrix with |det| = 1, acting on the n-torus; ``det`` and the inverse are exact."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=object)  # exact entries, before any cast can wrap one
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise ConstructionError(f"expected a square matrix, got shape {arr.shape}")
        for v in arr.flat:
            if v != v // 1:
                raise ConstructionError("matrix entries must be integers")
            _check_int64(v, "matrix")
        object.__setattr__(self, "matrix", arr.astype(np.int64))
        det, inverse = _det_and_inverse(self.matrix.tolist())
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "_inverse", inverse)
        if abs(det) != 1:
            raise ConstructionError(f"|det| must be 1 for an invertible torus map, got det = {det}")

    def inverse_matrix(self) -> np.ndarray:
        for row in self._inverse:
            for v in row:
                _check_int64(v, "inverse")
        return np.array(self._inverse, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class SystemMap:
    """An invertible volume-preserving map of [0,1)^dim.

    ``forward`` and ``backward`` act on coordinate arrays of shape (..., dim)
    and return reduced coordinates; ``differential`` returns the Jacobian stack
    of shape (..., dim, dim).  ``lip_forward`` / ``lip_backward`` are declared
    upper bounds for the Lipschitz constant of a single application (exact for
    affine maps).  ``linear_part`` is the constant integer linear part when the
    map is affine, else None.  ``point_forward`` / ``point_backward`` act on
    one point of [0,1)^dim given as a tuple of Python floats and return a
    tuple equal bit for bit to the array action's row, or are None where
    float arithmetic on one point could round differently from the array
    action.  One-point walks use them in place of ``forward`` /
    ``backward``, so a copy that replaces the array actions must replace or
    clear them too.
    """

    label: str
    dim: int
    forward: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    backward: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    differential: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    lip_forward: float = field(repr=False, default=1.0)
    lip_backward: float = field(repr=False, default=1.0)
    descriptor: dict = field(repr=False, default_factory=dict)
    linear_part: np.ndarray | None = field(repr=False, default=None)
    point_forward: Callable[[tuple], tuple] | None = field(repr=False, default=None)
    point_backward: Callable[[tuple], tuple] | None = field(repr=False, default=None)

    def __repr__(self):
        return f"SystemMap({self.label!r}, dim={self.dim})"


def _volume_defect_at(f: SystemMap, pts: np.ndarray):
    """Largest deviation of |det Df| from 1 at the points ``pts``: closed forms up to dim 2, LU above."""
    M = np.asarray(f.differential(pts), dtype=float)
    det = np.linalg.det(M) if M.shape[-1] > 2 else M[..., 0, 0] if M.shape[-1] == 1 else \
        M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return np.max(np.abs(np.abs(det) - 1.0))


def _construction_check(m: SystemMap):
    # offset lattice so probes avoid the special orbits sitting on rationals;
    # every test is "not <= tol" so that a NaN defect fails it
    pts = lattice_points(17, m.dim, offset=0.37)
    for name, first, second in (("inverse", m.forward, m.backward), ("forward", m.backward, m.forward)):
        rt = dist_array(second(first(pts)), pts).max()
        if not rt <= _ROUNDTRIP_TOL:
            raise ConstructionError(f"{m.label}: {name} roundtrip defect {rt:.3e} exceeds {_ROUNDTRIP_TOL:.0e}")
    defect = _volume_defect_at(m, pts)
    if not defect <= _VOLUME_TOL:
        raise ConstructionError(f"{m.label}: volume defect {defect:.3e} exceeds {_VOLUME_TOL:.0e}")
    return m


def _constant_differential(x, M: np.ndarray):
    """The Jacobian stack of an affine map with linear part ``M`` at the points ``x``."""
    return np.broadcast_to(M, np.shape(x)[:-1] + M.shape)


def _row_terms(M) -> list | None:
    """(i, a, j, b) per row of the integer matrix M, row . x = a*x_i + b*x_j, or None.

    None unless every row has at most two nonzero entries, each +-2^k: then
    each product a*x is exact, and ``x @ M.T`` rounds once per output, in any order.
    """
    terms = []
    for row in M.tolist():
        nz = [(k, float(v)) for k, v in enumerate(row) if v]
        if len(nz) > 2 or any(v & (v - 1) for v in map(abs, row)):
            return None
        (i, a), (j, b) = (nz + [(0, 0.0)])[:2]
        terms.append((i, a, j, b))
    return terms


def _point_act(terms: list):
    """One-point ``x @ M.T`` reduced, from M's ``_row_terms``: 0.0 + a*x_i + b*x_j per row.

    Two rows are written out: a loop would take most of a 2-torus step's time.
    """
    if len(terms) == 2:
        (i, a, j, b), (k, c, l, d) = terms
        return lambda p: (reduce_coord(0.0 + a * p[i] + b * p[j]), reduce_coord(0.0 + c * p[k] + d * p[l]))
    return lambda p: tuple([reduce_coord(0.0 + a * p[i] + b * p[j]) for i, a, j, b in terms])


def make_linear(A, label: str | None = None) -> SystemMap:
    """Toral automorphism x -> A x (mod 1) for an integer n x n matrix with |det| = 1."""
    aut = A if isinstance(A, LinearAutomorphism) else LinearAutomorphism(A)
    inv = aut.inverse_matrix()
    Af, Ainv = aut.matrix.astype(float), inv.astype(float)

    def act(x, MT):
        return reduce_to_unit(np.asarray(x, dtype=float) @ MT)

    terms = _row_terms(aut.matrix), _row_terms(inv)
    exact = None not in terms  # one-point walks step both ways

    def transposed(M):
        # A matmul on the view M.T takes about three times as long as on a
        # contiguous copy.  With ``_row_terms`` each output rounds once, so
        # the order BLAS sums in cannot matter but for the sign of a zero,
        # which reduce_to_unit clears.  Other matrices keep the view: their
        # batch bits depend on the BLAS kernel.
        return np.ascontiguousarray(M.T) if exact else M.T

    if label is None:
        label = "linear[" + ";".join(",".join(map(str, row)) for row in aut.matrix.tolist()) + "]"
    m = SystemMap(
        label=label,
        dim=len(Af),
        forward=partial(act, MT=transposed(Af)),
        backward=partial(act, MT=transposed(Ainv)),
        differential=partial(_constant_differential, M=Af),
        lip_forward=spectral_norm(Af),
        lip_backward=spectral_norm(Ainv),
        descriptor={"kind": "linear", "matrix": aut.matrix.tolist()},
        linear_part=aut.matrix.copy(),
        point_forward=_point_act(terms[0]) if exact else None,
        point_backward=_point_act(terms[1]) if exact else None,
    )
    return _construction_check(m)


def _translation(v) -> SystemMap:
    """The translation x -> x + v (mod 1): linear part I and a unit differential."""
    v = np.asarray(v, dtype=float)

    def actions(sign):
        """The array and one-point actions of x -> x + sign*v."""
        sv = (sign * v).tolist()

        def shift(x):
            # Column by column, the same addition as x + sign*v per element: a
            # broadcast (n, dim) + (dim,) add runs a length-dim inner loop n times.
            out = np.array(x, dtype=float)
            for k, s in enumerate(sv):
                out[..., k] += s
            return reduce_to_unit(out)

        def shift_point(p):
            return tuple([reduce_coord(c + s) for c, s in zip(p, sv)])

        return shift, shift_point

    (fwd, point_fwd), (bwd, point_bwd) = actions(1.0), actions(-1.0)
    return SystemMap(
        label="translation",
        dim=v.size,
        forward=fwd,
        backward=bwd,
        differential=partial(_constant_differential, M=np.eye(v.size)),
        linear_part=np.eye(v.size, dtype=np.int64),
        point_forward=point_fwd,
        point_backward=point_bwd,
    )


def _sine_shear(delta: float, axis: int, phase: float, dim: int) -> SystemMap:
    """Shift coordinate ``axis`` by delta*sin(2*pi*(x_other + phase)), other the next axis; unit det.

    Not affine, so it has no linear part, and neither has any composition
    with it.  The one-point action reduces only the coordinate it changes.
    """
    other = (axis + 1) % dim
    c = 2.0 * math.pi * delta

    def shift(x, sign):
        out = np.array(x, dtype=float)
        out[..., axis] += sign * delta * np.sin(2.0 * math.pi * (out[..., other] + phase))
        return reduce_to_unit(out)

    def shift_point(sign):
        step, two_pi = sign * delta, 2.0 * math.pi

        def act(p):  # numpy's sin, so that its bits are the array action's
            q = list(p)
            q[axis] = reduce_coord(q[axis] + step * float(np.sin(two_pi * (q[other] + phase))))
            return tuple(q)

        return act

    def diff(x):
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(np.eye(dim), x.shape[:-1] + (dim, dim)).copy()
        out[..., axis, other] = c * np.cos(2.0 * math.pi * (x[..., other] + phase))
        return out

    factor = (c + math.sqrt(c * c + 4.0)) / 2.0  # spectral norm of I + c e_axis e_other^T, c >= 0
    return SystemMap(
        label="shear-sin",
        dim=dim,
        forward=partial(shift, sign=1.0),
        backward=partial(shift, sign=-1.0),
        differential=diff,
        lip_forward=factor,
        lip_backward=factor,
        point_forward=shift_point(1.0),
        point_backward=shift_point(-1.0),
    )


def _compose(outer: SystemMap, inner: SystemMap, label: str, descriptor: dict) -> SystemMap:
    """The checked composition ``outer o inner``: the only place that composes maps.

    The parts' array actions are looked up at call time, so a wrapper
    installed on a part's ``forward`` or ``backward`` after construction is
    still used by array steps.  The one-point actions are bound here, and
    exist only when both parts have them.
    """
    pf = pb = None
    if outer.point_forward is not None and inner.point_forward is not None:
        out_f, out_b = outer.point_forward, outer.point_backward
        in_f, in_b = inner.point_forward, inner.point_backward
        pf, pb = (lambda p: out_f(in_f(p))), (lambda p: in_b(out_b(p)))

    def fwd(x):
        return outer.forward(inner.forward(x))

    def bwd(x):
        return inner.backward(outer.backward(x))

    def diff(x):
        return outer.differential(inner.forward(x)) @ inner.differential(x)

    m = SystemMap(
        label=label,
        dim=inner.dim,
        forward=fwd,
        backward=bwd,
        differential=diff,
        lip_forward=outer.lip_forward * inner.lip_forward,
        lip_backward=outer.lip_backward * inner.lip_backward,
        descriptor=descriptor,
        linear_part=(None if outer.linear_part is None or inner.linear_part is None
                     else outer.linear_part @ inner.linear_part),
        point_forward=pf,
        point_backward=pb,
    )
    return _construction_check(m)


def make_rotation(theta: float, label: str | None = None) -> SystemMap:
    """Circle rotation x -> x + theta (mod 1); an isometry with unit differential."""
    th = float(theta)
    if not math.isfinite(th):
        raise ConstructionError(f"theta must be finite, got {th}")
    m = replace(
        _translation([th]),
        label=label if label is not None else f"rotation({th:.12g})",
        descriptor={"kind": "rotation", "theta": th},
    )
    return _construction_check(m)


def cat_map() -> SystemMap:
    return make_linear(CAT_MATRIX, label="cat")


def shear_map() -> SystemMap:
    return make_linear(SHEAR_MATRIX, label="shear")


def torus_identity() -> SystemMap:
    return make_linear(np.eye(2, dtype=int), label="identity2")


def circle_identity() -> SystemMap:
    return make_rotation(0.0, label="identity1")


def make_translation_method_map(base: SystemMap, delta: float) -> SystemMap:
    """Compose ``base`` with a translation by ``delta`` in the first coordinate.

    The result stays at C0 distance exactly ``delta`` from ``base`` while its
    differential is unchanged: the canonical drifting method map.
    """
    delta = float(delta)
    if not (0.0 < delta < 0.5):
        raise ConstructionError(f"delta must lie in (0, 1/2), got {delta}")
    off = np.zeros(base.dim)
    off[0] = delta
    descriptor = {"kind": "translate", "delta": delta, "base": copy.deepcopy(base.descriptor)}
    return _compose(_translation(off), base, f"translate({delta:.12g})*{base.label}", descriptor)


def _shift_vector(delta: float, angle: float | None) -> np.ndarray:
    """The shift of a translation perturbation: delta along ``angle``, or along the circle (None)."""
    return np.array([delta]) if angle is None else delta * np.array([math.cos(angle), math.sin(angle)])


def make_conservative_perturbation(base: SystemMap, delta: float, mode: str, seed: int | None = None) -> SystemMap:
    """Perturb ``base`` by an exactly volume-preserving pre-composition.

    mode "shear-sin" (two or more coordinates): tau shifts coordinate a by
    delta*sin(2*pi*(x_b + phase)), b = (a + 1) mod dim; the Jacobian of tau is
    unit-determinant by construction.  mode "translation" (circle and
    2-torus, whose shift has an angle): tau is a rigid translation.  A ``seed``
    randomizes the free parameters (phase and sheared axis, or the translation
    direction) so that families of distinct perturbations are reproducible.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0):
        raise ConstructionError(f"delta must be finite and nonnegative, got {delta}")
    rng = np.random.default_rng(seed) if seed is not None else None
    descriptor = {"kind": "perturbation", "mode": mode, "delta": delta, "seed": seed}
    if mode == "shear-sin":
        if base.dim < 2:
            raise ConstructionError("shear-sin perturbation needs two or more coordinates")
        if 2.0 * math.pi * delta >= 1.0:
            raise ConstructionError(f"|2*pi*delta| must stay below 1, got delta = {delta}")
        phase = float(rng.random()) if rng is not None else 0.0
        axis = int(rng.integers(base.dim)) if rng is not None else 0
        tau = _sine_shear(delta, axis, phase, base.dim)
        descriptor.update(phase=phase, axis=axis)
    elif mode == "translation":
        if base.dim > 2:
            raise ConstructionError("translation perturbation is defined on the circle and the 2-torus only")
        angle = None if base.dim == 1 else float(rng.random()) * 2.0 * math.pi if rng is not None else 0.0
        tau = _translation(_shift_vector(delta, angle))
        descriptor["angle"] = angle
    else:
        raise ConstructionError(f"unknown perturbation mode {mode!r}")
    descriptor["base"] = copy.deepcopy(base.descriptor)
    return _compose(base, tau, f"{base.label}*{mode}({delta:.12g})", descriptor)


def _dyadic(samples: int) -> int:
    """Per-axis lattice size: ``samples`` rounded up to a power of two.

    Coarser dyadic lattices are subsets of finer ones, so grid suprema are
    monotone nondecreasing in ``samples``.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    return 1 << max(0, (samples - 1).bit_length())


def c1_distance(f: SystemMap, g: SystemMap, samples: int = 256) -> float:
    """Grid estimate (a lower bound) of the C1 gap between two maps.

    The gap is the larger of the sup of pointwise quotient distances and the
    sup of spectral norms of the Jacobian difference; both sups are taken over
    a per-axis lattice of at least ``samples`` points (dyadically rounded, so
    the estimate is monotone in ``samples``), fewer above two axes
    (``geometry._per_axis``).  Methods built by this module get their gap from
    ``_method_gap`` instead; sampling is the fallback for pairs whose
    descriptors do not fix it.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    pts = lattice_points(_per_axis(_dyadic(samples), f.dim), f.dim)
    c0 = float(dist_array(f.forward(pts), g.forward(pts)).max())
    dd = np.asarray(f.differential(pts), dtype=float) - np.asarray(g.differential(pts), dtype=float)
    c1 = float(_spectral_norm_batch(dd).max())
    return max(c0, c1)


def _method_gap(f: SystemMap, g: SystemMap) -> float:
    """The C1 gap between ``f`` and a method map ``g``, from how g was built.

    Read off the descriptors, for the maps this module builds from f:
    0 for f itself; delta for the drift translate(delta) o f, which keeps the
    differential; the wrapped angle difference between two rotations; and
    for a perturbation f o tau of an affine f with linear part A, 2*pi*delta
    * |A e_a| for the sine shear on axis a (the C0 part is delta * |A e_a|)
    and the torus norm of A v for the translation by v.  Wrapping only
    shortens a torus distance, so each value is an upper bound, and each is
    attained.  Every other pair, and any map without a descriptor, gets the
    grid estimate ``c1_distance(f, g, samples=128)``.
    """
    if g is f:
        return 0.0
    fd, gd = f.descriptor, g.descriptor
    if fd:
        if gd == fd:
            return 0.0
        kind = gd.get("kind")
        if kind == "rotation" and fd.get("kind") == "rotation":
            return float(dist_array([gd["theta"]], [fd["theta"]]))
        if gd.get("base") == fd:
            if kind == "translate":
                return gd["delta"]
            if kind == "perturbation" and f.linear_part is not None:
                A = f.linear_part.astype(float)
                if gd["mode"] == "shear-sin":
                    return 2.0 * math.pi * gd["delta"] * math.hypot(*A[:, gd["axis"]])
                shift = A @ _shift_vector(gd["delta"], gd["angle"])
                return float(dist_array(shift, np.zeros_like(shift)))
    return c1_distance(f, g, samples=128)


def volume_defect(f: SystemMap, samples: int = 128) -> float:
    """Largest deviation of |det Df| from 1 over the sample lattice ``c1_distance`` takes."""
    return float(_volume_defect_at(f, lattice_points(_per_axis(_dyadic(samples), f.dim), f.dim)))


def map_to_descriptor(m: SystemMap) -> dict:
    """JSON-ready description of how the map was built."""
    return copy.deepcopy(m.descriptor)


def map_from_descriptor(d: dict) -> SystemMap:
    """Rebuild a map from its descriptor.  Inverse of :func:`map_to_descriptor`.

    A descriptor nested deeper than _DESCRIPTOR_DEPTH levels of objects and
    arrays raises ValueError before any map is built.  One that lacks a key
    its kind needs, or holds a value of the wrong type, raises ValueError
    naming the kind; a descriptor that is not a dict raises TypeError.
    """
    depth, level = 0, [d]
    while level := [c for c in level if isinstance(c, (dict, list))]:
        depth, level = depth + 1, [v for c in level for v in (c.values() if isinstance(c, dict) else c)]
    if depth > _DESCRIPTOR_DEPTH:
        raise ValueError(f"{_TOO_DEEP}, got {depth}")
    if not isinstance(d, dict):
        raise TypeError(f"a map descriptor is a JSON object, got {d!r}")
    kind = d.get("kind")
    try:
        if kind == "linear":
            return make_linear(d["matrix"])
        if kind == "rotation":
            return make_rotation(float(d["theta"]))
        if kind == "translate":
            return make_translation_method_map(map_from_descriptor(d["base"]), float(d["delta"]))
        if kind == "perturbation":
            base = map_from_descriptor(d["base"])
            return make_conservative_perturbation(base, float(d["delta"]), d["mode"], seed=d.get("seed"))
    except KeyError as exc:
        raise ValueError(f"{kind} descriptor lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{kind} descriptor holds a value of the wrong type: {exc}") from None
    raise ValueError(f"unknown map kind {kind!r}")


def library_maps() -> list[SystemMap]:
    """The stock of maps exercised by the construction-gate tests."""
    cat = cat_map()
    shear = shear_map()
    golden = make_rotation(GOLDEN_ROTATION, label="golden-rotation")
    return [
        cat,
        shear,
        torus_identity(),
        circle_identity(),
        golden,
        make_linear([[1, 1], [1, 0]], label="fibonacci"),
        make_translation_method_map(shear, 0.01),
        make_translation_method_map(torus_identity(), 0.01),
        make_translation_method_map(cat, 1e-3),
        make_translation_method_map(golden, 0.01),
        make_conservative_perturbation(cat, 1e-3, "shear-sin"),
        make_conservative_perturbation(cat, 1e-3, "shear-sin", seed=7),
        make_conservative_perturbation(cat, 1e-3, "translation", seed=3),
        make_conservative_perturbation(golden, 0.01, "translation"),
    ]
