"""Invertible volume-preserving maps of the circle and 2-torus.

Every map is packaged as a :class:`SystemMap`: vectorized forward/backward
actions on reduced coordinates, a Jacobian field, declared Lipschitz bounds,
and a JSON-serializable descriptor.  Constructors run a self-check (inverse
roundtrip and volume defect on a probe grid) so that an object that exists is
also a valid conservative system.

Three primitives write out their own actions: toral automorphisms, the
translation x -> x + v (a circle rotation is one), and a sine shear.  Every
other map is built by ``_compose``, the one place that knows how maps compose:
forward is outer after inner, backward runs the inverses in reverse order, the
differential follows the chain rule, and the Lipschitz bounds, linear parts and
reference matrices multiply.  A drift is ``translate(delta) o f`` and a
perturbation is ``f o tau``.

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

from .geometry import TorusPoint, dist_array, lattice_points, reduce_to_unit

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
    "spectral_norm_batch",
    "det_batch",
    "GOLDEN_ROTATION",
]

GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0

CAT_MATRIX = ((2, 1), (1, 1))
SHEAR_MATRIX = ((1, 0), (1, 1))


class ConstructionError(ValueError):
    """A map constructor received parameters outside its validity gate."""


def spectral_norm(M) -> float:
    """Spectral norm of a 1x1 or 2x2 matrix, closed form from the singular values."""
    M = np.asarray(M, dtype=float)
    if M.shape not in ((1, 1), (2, 2)):
        raise ValueError(f"expected a 1x1 or 2x2 matrix, got shape {M.shape}")
    return float(spectral_norm_batch(M))


def spectral_norm_batch(M) -> np.ndarray:
    """Spectral norms over a stack (..., n, n) with n = 1 or 2."""
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    if n == 1:
        return np.abs(M[..., 0, 0])
    a, b = M[..., 0, 0], M[..., 0, 1]
    c, d = M[..., 1, 0], M[..., 1, 1]
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = np.maximum(s * s - 4.0 * det * det, 0.0)
    return np.sqrt(0.5 * (s + np.sqrt(disc)))


def det_batch(M) -> np.ndarray:
    """Determinants over a stack (..., n, n) with n = 1 or 2."""
    M = np.asarray(M, dtype=float)
    if M.shape[-1] == 1:
        return M[..., 0, 0]
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def _hyperbolic_eigen(B: np.ndarray):
    """(V, Vinv, lam_u, lam_s) with unit columns (unstable first), or None."""
    B = np.asarray(B, dtype=float)
    if B.shape != (2, 2):
        return None
    w, V = np.linalg.eig(B)
    if np.iscomplexobj(w) and np.abs(w.imag).max() > 1e-12:
        return None
    w = w.real
    V = V.real
    order = np.argsort(-np.abs(w))
    w = w[order]
    V = V[:, order]
    if abs(abs(w[0]) - 1.0) <= 1e-12 or abs(abs(w[1]) - 1.0) <= 1e-12:
        return None
    for j in range(2):
        col = V[:, j]
        col = col / np.linalg.norm(col)
        lead = col[np.nonzero(np.abs(col) > 1e-14)[0][0]]
        V[:, j] = col if lead > 0 else -col
    return V, np.linalg.inv(V), float(w[0]), float(w[1])


@dataclass(frozen=True, eq=False)
class LinearAutomorphism:
    """An integer 2x2 matrix with |det| = 1, acting on the 2-torus."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrix)
        if arr.shape != (2, 2):
            raise ConstructionError(f"expected a 2x2 matrix, got shape {arr.shape}")
        if not np.all(arr == np.round(arr)):
            raise ConstructionError("matrix entries must be integers")
        object.__setattr__(self, "matrix", np.array(np.round(arr), dtype=np.int64))
        if abs(self.det) != 1:
            raise ConstructionError(f"|det| must be 1 for an invertible torus map, got det = {self.det}")

    @property
    def det(self) -> int:
        m = self.matrix
        return int(m[0, 0]) * int(m[1, 1]) - int(m[0, 1]) * int(m[1, 0])

    def inverse_matrix(self) -> np.ndarray:
        """Exact integer inverse: adj(A) * det(A), valid because det = +-1."""
        m = self.matrix
        adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=np.int64)
        return adj * self.det

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix.astype(float))

    def is_hyperbolic(self, tol: float = 1e-9) -> bool:
        """No eigenvalue modulus inside the band [1 - tol, 1 + tol]."""
        return bool(np.all(np.abs(np.abs(self.eigenvalues()) - 1.0) > tol))


@dataclass(frozen=True, eq=False)
class SystemMap:
    """An invertible volume-preserving map of [0,1)^dim.

    ``forward`` and ``backward`` act on coordinate arrays of shape (..., dim)
    and return reduced coordinates; ``differential`` returns the Jacobian stack
    of shape (..., dim, dim).  ``lip_forward`` / ``lip_backward`` are declared
    upper bounds for the Lipschitz constant of a single application (exact for
    affine maps).  ``linear_part`` is the constant integer linear part when the
    map is affine, else None; ``reference_matrix`` is the underlying linear
    model, kept across compositions, for cone constructions.
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
    reference_matrix: np.ndarray | None = field(repr=False, default=None)

    def apply(self, p: TorusPoint) -> TorusPoint:
        return TorusPoint.from_array(self.forward(p.as_array()))

    def __repr__(self):
        return f"SystemMap({self.label!r}, dim={self.dim})"


def _construction_check(m: SystemMap, roundtrip_tol: float = 1e-9, volume_tol: float = 1e-9):
    # offset lattice so probes avoid the special orbits sitting on rationals;
    # every test is "not <= tol" so that a NaN defect fails it
    pts = lattice_points(17, m.dim, offset=0.37)
    for name, first, second in (("inverse", m.forward, m.backward), ("forward", m.backward, m.forward)):
        rt = dist_array(second(first(pts)), pts).max()
        if not rt <= roundtrip_tol:
            raise ConstructionError(f"{m.label}: {name} roundtrip defect {rt:.3e} exceeds {roundtrip_tol:.0e}")
    defect = np.max(np.abs(np.abs(det_batch(m.differential(pts))) - 1.0))
    if not defect <= volume_tol:
        raise ConstructionError(f"{m.label}: volume defect {defect:.3e} exceeds {volume_tol:.0e}")
    return m


def _constant_differential(x, M: np.ndarray):
    """The Jacobian stack of an affine map with linear part ``M`` at the points ``x``."""
    return np.broadcast_to(M, np.shape(x)[:-1] + M.shape)


def make_linear(A, label: str | None = None) -> SystemMap:
    """Toral automorphism x -> A x (mod 1) for an integer 2x2 matrix with |det| = 1."""
    aut = A if isinstance(A, LinearAutomorphism) else LinearAutomorphism(A)
    Af = aut.matrix.astype(float)
    Ainv = aut.inverse_matrix().astype(float)

    def act(x, M):
        return reduce_to_unit(np.asarray(x, dtype=float) @ M.T)

    if label is None:
        r = aut.matrix
        label = f"linear[{r[0,0]},{r[0,1]};{r[1,0]},{r[1,1]}]"
    m = SystemMap(
        label=label,
        dim=2,
        forward=partial(act, M=Af),
        backward=partial(act, M=Ainv),
        differential=partial(_constant_differential, M=Af),
        lip_forward=spectral_norm(Af),
        lip_backward=spectral_norm(Ainv),
        descriptor={"kind": "linear", "matrix": [[int(v) for v in row] for row in aut.matrix]},
        linear_part=aut.matrix.copy(),
        reference_matrix=aut.matrix.copy(),
    )
    return _construction_check(m)


def _translation(v) -> SystemMap:
    """The translation x -> x + v (mod 1): linear part I and a unit differential."""
    v = np.asarray(v, dtype=float)
    eye = np.eye(v.size, dtype=np.int64)

    def shift(x, sign):
        return reduce_to_unit(np.asarray(x, dtype=float) + sign * v)

    return SystemMap(
        label="translation",
        dim=v.size,
        forward=partial(shift, sign=1.0),
        backward=partial(shift, sign=-1.0),
        differential=partial(_constant_differential, M=np.eye(v.size)),
        linear_part=eye,
        reference_matrix=eye,
    )


def _sine_shear(delta: float, axis: int, phase: float) -> SystemMap:
    """Shift coordinate ``axis`` by delta*sin(2*pi*(other + phase)); unit determinant.

    Not affine, so it has no linear part; its reference matrix is I, so a
    composition keeps the reference matrix of the other part.
    """
    other = 1 - axis
    c = 2.0 * math.pi * delta

    def shift(x, sign):
        out = np.array(x, dtype=float)
        out[..., axis] += sign * delta * np.sin(2.0 * math.pi * (out[..., other] + phase))
        return reduce_to_unit(out)

    def diff(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., axis, other] = c * np.cos(2.0 * math.pi * (x[..., other] + phase))
        return out

    factor = (c + math.sqrt(c * c + 4.0)) / 2.0  # spectral norm of [[1, c], [0, 1]], c >= 0
    return SystemMap(
        label="shear-sin",
        dim=2,
        forward=partial(shift, sign=1.0),
        backward=partial(shift, sign=-1.0),
        differential=diff,
        lip_forward=factor,
        lip_backward=factor,
        reference_matrix=np.eye(2, dtype=np.int64),
    )


def _compose(outer: SystemMap, inner: SystemMap, label: str, descriptor: dict) -> SystemMap:
    """The checked composition ``outer o inner``: the only place that composes maps.

    The parts' actions are looked up at call time, so a wrapper installed on
    a part's ``forward`` or ``backward`` after construction is still used.
    """

    def fwd(x):
        return outer.forward(inner.forward(x))

    def bwd(x):
        return inner.backward(outer.backward(x))

    def diff(x):
        return outer.differential(inner.forward(x)) @ inner.differential(x)

    def product(a, b):
        return None if a is None or b is None else a @ b

    m = SystemMap(
        label=label,
        dim=inner.dim,
        forward=fwd,
        backward=bwd,
        differential=diff,
        lip_forward=outer.lip_forward * inner.lip_forward,
        lip_backward=outer.lip_backward * inner.lip_backward,
        descriptor=descriptor,
        linear_part=product(outer.linear_part, inner.linear_part),
        reference_matrix=product(outer.reference_matrix, inner.reference_matrix),
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


def make_translation_method_map(base: SystemMap, delta: float, block=None) -> SystemMap:
    """Compose ``base`` with a translation by ``delta`` in the first coordinate.

    The result stays at C0 distance exactly ``delta`` from ``base`` while its
    differential is unchanged, which makes it the canonical drifting method
    map.  With ``block`` given (2-D only, an integer with |block| = 1), the
    standalone product map (x0 + delta, block * x1) is built instead and the
    dynamics of ``base`` are ignored; ``base`` then only fixes the dimension.
    """
    delta = float(delta)
    if not (0.0 < delta < 0.5):
        raise ConstructionError(f"delta must lie in (0, 1/2), got {delta}")
    off = np.zeros(base.dim)
    off[0] = delta
    if block is None:
        descriptor = {"kind": "translate", "delta": delta, "base": copy.deepcopy(base.descriptor)}
        return _compose(_translation(off), base, f"translate({delta:.12g})*{base.label}", descriptor)

    if base.dim != 2:
        raise ConstructionError("block form is defined on the 2-torus only")
    b = int(np.asarray(block).reshape(-1)[0])
    if abs(b) != 1:
        raise ConstructionError(f"block must have |det| = 1, got {b}")
    descriptor = {"kind": "translate-block", "delta": delta, "block": b}
    return _compose(_translation(off), make_linear([[1, 0], [0, b]]), f"translate-block({delta:.12g},{b})", descriptor)


def make_conservative_perturbation(base: SystemMap, delta: float, mode: str, seed: int | None = None) -> SystemMap:
    """Perturb ``base`` by an exactly volume-preserving pre-composition.

    mode "shear-sin" (2-D only): tau shifts one coordinate by
    delta*sin(2*pi*(other + phase)); the Jacobian of tau is unit-determinant by
    construction.  mode "translation": tau is a rigid translation.  A ``seed``
    randomizes the free parameters (phase and sheared axis, or the translation
    direction) so that families of distinct perturbations are reproducible.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0):
        raise ConstructionError(f"delta must be finite and nonnegative, got {delta}")
    rng = np.random.default_rng(seed) if seed is not None else None
    descriptor = {"kind": "perturbation", "mode": mode, "delta": delta, "seed": seed}
    if mode == "shear-sin":
        if base.dim != 2:
            raise ConstructionError("shear-sin perturbation is defined on the 2-torus only")
        if 2.0 * math.pi * delta >= 1.0:
            raise ConstructionError(f"|2*pi*delta| must stay below 1, got delta = {delta}")
        phase = float(rng.random()) if rng is not None else 0.0
        axis = int(rng.integers(2)) if rng is not None else 0
        tau = _sine_shear(delta, axis, phase)
        descriptor.update(phase=phase, axis=axis)
    elif mode == "translation":
        if base.dim == 2:
            angle = float(rng.random()) * 2.0 * math.pi if rng is not None else 0.0
            v = delta * np.array([math.cos(angle), math.sin(angle)])
        else:
            angle = None
            v = np.array([delta])
        tau = _translation(v)
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
    the estimate is monotone in ``samples``).
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    pts = lattice_points(_dyadic(samples), f.dim)
    c0 = float(dist_array(f.forward(pts), g.forward(pts)).max())
    dd = np.asarray(f.differential(pts), dtype=float) - np.asarray(g.differential(pts), dtype=float)
    c1 = float(spectral_norm_batch(dd).max())
    return max(c0, c1)


def volume_defect(f: SystemMap, samples: int = 128) -> float:
    """Largest deviation of |det Df| from 1 over a per-axis sample lattice."""
    pts = lattice_points(_dyadic(samples), f.dim)
    return float(np.max(np.abs(np.abs(det_batch(f.differential(pts))) - 1.0)))


def map_to_descriptor(m: SystemMap) -> dict:
    """JSON-ready description of how the map was built."""
    return copy.deepcopy(m.descriptor)


def map_from_descriptor(d: dict) -> SystemMap:
    """Rebuild a map from its descriptor.  Inverse of :func:`map_to_descriptor`.

    A descriptor that lacks a key its kind needs, or holds a value of the
    wrong type, raises ValueError naming the kind; a descriptor that is not a
    dict raises TypeError.
    """
    if not isinstance(d, dict):
        raise TypeError(f"a map descriptor is a JSON object, got {d!r}")
    kind = d.get("kind")
    try:
        if kind == "linear":
            return make_linear(np.asarray(d["matrix"]))
        if kind == "rotation":
            return make_rotation(float(d["theta"]))
        if kind == "translate":
            return make_translation_method_map(map_from_descriptor(d["base"]), float(d["delta"]))
        if kind == "translate-block":
            block = d["block"]
            if not isinstance(block, int) or isinstance(block, bool):
                raise ValueError(f"translate-block descriptor needs an integer block, got {block!r}")
            return make_translation_method_map(torus_identity(), float(d["delta"]), block=block)
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
