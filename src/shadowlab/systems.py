"""Invertible volume-preserving maps of the circle and 2-torus.

Every map is packaged as a :class:`SystemMap`: vectorized forward/backward
actions on reduced coordinates, a Jacobian field, declared Lipschitz bounds,
and a JSON-serializable descriptor.  Constructors run a self-check (inverse
roundtrip and volume defect on a probe grid) so that an object that exists is
also a valid conservative system.

Volume preservation is measured as ``| |det Df| - 1 |`` so that
orientation-reversing automorphisms (det = -1) count as measure-preserving.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
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
    if M.shape == (1, 1):
        return abs(float(M[0, 0]))
    if M.shape != (2, 2):
        raise ValueError(f"expected a 1x1 or 2x2 matrix, got shape {M.shape}")
    a, b, c, d = M.ravel()
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = max(s * s - 4.0 * det * det, 0.0)
    return math.sqrt(0.5 * (s + math.sqrt(disc)))


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
        ints = np.array(np.round(arr), dtype=np.int64)
        det = int(ints[0, 0]) * int(ints[1, 1]) - int(ints[0, 1]) * int(ints[1, 0])
        if abs(det) != 1:
            raise ConstructionError(f"|det| must be 1 for an invertible torus map, got det = {det}")
        object.__setattr__(self, "matrix", ints)

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

    def as_map(self) -> "SystemMap":
        return make_linear(self)


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

    def apply_inverse(self, p: TorusPoint) -> TorusPoint:
        return TorusPoint.from_array(self.backward(p.as_array()))

    def jacobian(self, p: TorusPoint) -> np.ndarray:
        return np.asarray(self.differential(p.as_array()), dtype=float)

    def __repr__(self):
        return f"SystemMap({self.label!r}, dim={self.dim})"


def _construction_check(m: SystemMap, roundtrip_tol: float = 1e-9, volume_tol: float = 1e-9):
    # offset lattice so probes avoid the special orbits sitting on rationals
    pts = lattice_points(17, m.dim, offset=0.37)
    back = m.backward(m.forward(pts))
    rt = dist_array(back, pts).max()
    if rt > roundtrip_tol:
        raise ConstructionError(f"{m.label}: inverse roundtrip defect {rt:.3e} exceeds {roundtrip_tol:.0e}")
    fwd_then_back = m.forward(m.backward(pts))
    rt2 = dist_array(fwd_then_back, pts).max()
    if rt2 > roundtrip_tol:
        raise ConstructionError(f"{m.label}: forward roundtrip defect {rt2:.3e} exceeds {roundtrip_tol:.0e}")
    defect = np.max(np.abs(np.abs(det_batch(m.differential(pts))) - 1.0))
    if defect > volume_tol:
        raise ConstructionError(f"{m.label}: volume defect {defect:.3e} exceeds {volume_tol:.0e}")
    return m


def _constant_differential(M: np.ndarray):
    M = np.asarray(M, dtype=float)

    def diff(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(M, x.shape[:-1] + M.shape)

    return diff


def make_linear(A, label: str | None = None) -> SystemMap:
    """Toral automorphism x -> A x (mod 1) for an integer 2x2 matrix with |det| = 1."""
    aut = A if isinstance(A, LinearAutomorphism) else LinearAutomorphism(A)
    Af = aut.matrix.astype(float)
    Ainv = aut.inverse_matrix().astype(float)

    def fwd(x):
        return reduce_to_unit(np.asarray(x, dtype=float) @ Af.T)

    def bwd(x):
        return reduce_to_unit(np.asarray(x, dtype=float) @ Ainv.T)

    if label is None:
        r = aut.matrix
        label = f"linear[{r[0,0]},{r[0,1]};{r[1,0]},{r[1,1]}]"
    m = SystemMap(
        label=label,
        dim=2,
        forward=fwd,
        backward=bwd,
        differential=_constant_differential(Af),
        lip_forward=spectral_norm(Af),
        lip_backward=spectral_norm(Ainv),
        descriptor={"kind": "linear", "matrix": [[int(v) for v in row] for row in aut.matrix]},
        linear_part=aut.matrix.copy(),
        reference_matrix=aut.matrix.copy(),
    )
    return _construction_check(m)


def make_rotation(theta: float, label: str | None = None) -> SystemMap:
    """Circle rotation x -> x + theta (mod 1); an isometry with unit differential."""
    th = float(theta)

    def fwd(x):
        return reduce_to_unit(np.asarray(x, dtype=float) + th)

    def bwd(x):
        return reduce_to_unit(np.asarray(x, dtype=float) - th)

    one = np.eye(1, dtype=np.int64)
    m = SystemMap(
        label=label if label is not None else f"rotation({th:.12g})",
        dim=1,
        forward=fwd,
        backward=bwd,
        differential=_constant_differential(np.eye(1)),
        lip_forward=1.0,
        lip_backward=1.0,
        descriptor={"kind": "rotation", "theta": th},
        linear_part=one,
        reference_matrix=one,
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

    if block is None:
        off = np.zeros(base.dim)
        off[0] = delta

        def fwd(x):
            return reduce_to_unit(base.forward(x) + off)

        def bwd(x):
            return base.backward(reduce_to_unit(np.asarray(x, dtype=float) - off))

        m = SystemMap(
            label=f"translate({delta:.12g})*{base.label}",
            dim=base.dim,
            forward=fwd,
            backward=bwd,
            differential=base.differential,
            lip_forward=base.lip_forward,
            lip_backward=base.lip_backward,
            descriptor={"kind": "translate", "delta": delta, "base": copy.deepcopy(base.descriptor)},
            linear_part=None if base.linear_part is None else base.linear_part.copy(),
            reference_matrix=None if base.reference_matrix is None else base.reference_matrix.copy(),
        )
        return _construction_check(m)

    if base.dim != 2:
        raise ConstructionError("block form is defined on the 2-torus only")
    b = int(np.asarray(block).reshape(-1)[0])
    if abs(b) != 1:
        raise ConstructionError(f"block must have |det| = 1, got {b}")
    B = np.array([[1, 0], [0, b]], dtype=np.int64)

    def fwd(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = x[..., 0] + delta
        out[..., 1] = b * x[..., 1]
        return reduce_to_unit(out)

    def bwd(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = x[..., 0] - delta
        out[..., 1] = b * x[..., 1]
        return reduce_to_unit(out)

    m = SystemMap(
        label=f"translate-block({delta:.12g},{b})",
        dim=2,
        forward=fwd,
        backward=bwd,
        differential=_constant_differential(B.astype(float)),
        lip_forward=1.0,
        lip_backward=1.0,
        descriptor={"kind": "translate-block", "delta": delta, "block": b},
        linear_part=B,
        reference_matrix=B,
    )
    return _construction_check(m)


def _shear_factor_norm(c: float) -> float:
    # spectral norm of [[1, c], [0, 1]]
    return (abs(c) + math.sqrt(c * c + 4.0)) / 2.0


def make_conservative_perturbation(base: SystemMap, delta: float, mode: str, seed: int | None = None) -> SystemMap:
    """Perturb ``base`` by an exactly volume-preserving pre-composition.

    mode "shear-sin" (2-D only): tau shifts one coordinate by
    delta*sin(2*pi*(other + phase)); the Jacobian of tau is unit-determinant by
    construction.  mode "translation": tau is a rigid translation.  A ``seed``
    randomizes the free parameters (phase and sheared axis, or the translation
    direction) so that families of distinct perturbations are reproducible.
    """
    delta = float(delta)
    if delta < 0:
        raise ConstructionError("delta must be nonnegative")
    rng = np.random.default_rng(seed) if seed is not None else None

    if mode == "shear-sin":
        if base.dim != 2:
            raise ConstructionError("shear-sin perturbation is defined on the 2-torus only")
        if 2.0 * math.pi * delta >= 1.0:
            raise ConstructionError(f"|2*pi*delta| must stay below 1, got delta = {delta}")
        phase = float(rng.random()) if rng is not None else 0.0
        axis = int(rng.integers(2)) if rng is not None else 0
        other = 1 - axis

        def tau(x):
            x = np.asarray(x, dtype=float)
            out = x.copy()
            out[..., axis] = out[..., axis] + delta * np.sin(2.0 * math.pi * (x[..., other] + phase))
            return reduce_to_unit(out)

        def tau_inv(x):
            x = np.asarray(x, dtype=float)
            out = x.copy()
            out[..., axis] = out[..., axis] - delta * np.sin(2.0 * math.pi * (x[..., other] + phase))
            return reduce_to_unit(out)

        def dtau(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = 1.0
            out[..., axis, other] = 2.0 * math.pi * delta * np.cos(2.0 * math.pi * (x[..., other] + phase))
            return out

        def fwd(x):
            return base.forward(tau(x))

        def bwd(x):
            return tau_inv(base.backward(x))

        def diff(x):
            return base.differential(tau(x)) @ dtau(x)

        factor = _shear_factor_norm(2.0 * math.pi * delta)
        m = SystemMap(
            label=f"{base.label}*shear-sin({delta:.12g})",
            dim=2,
            forward=fwd,
            backward=bwd,
            differential=diff,
            lip_forward=base.lip_forward * factor,
            lip_backward=base.lip_backward * factor,
            descriptor={
                "kind": "perturbation",
                "mode": "shear-sin",
                "delta": delta,
                "seed": seed,
                "phase": phase,
                "axis": axis,
                "base": copy.deepcopy(base.descriptor),
            },
            linear_part=None,
            reference_matrix=None if base.reference_matrix is None else base.reference_matrix.copy(),
        )
        return _construction_check(m)

    if mode == "translation":
        if base.dim == 2:
            angle = float(rng.random()) * 2.0 * math.pi if rng is not None else 0.0
            v = delta * np.array([math.cos(angle), math.sin(angle)])
        else:
            angle = None
            v = np.array([delta])

        def fwd(x):
            return base.forward(reduce_to_unit(np.asarray(x, dtype=float) + v))

        def bwd(x):
            return reduce_to_unit(base.backward(x) - v)

        def diff(x):
            return base.differential(reduce_to_unit(np.asarray(x, dtype=float) + v))

        m = SystemMap(
            label=f"{base.label}*translation({delta:.12g})",
            dim=base.dim,
            forward=fwd,
            backward=bwd,
            differential=diff,
            lip_forward=base.lip_forward,
            lip_backward=base.lip_backward,
            descriptor={
                "kind": "perturbation",
                "mode": "translation",
                "delta": delta,
                "seed": seed,
                "angle": angle,
                "base": copy.deepcopy(base.descriptor),
            },
            linear_part=None if base.linear_part is None else base.linear_part.copy(),
            reference_matrix=None if base.reference_matrix is None else base.reference_matrix.copy(),
        )
        return _construction_check(m)

    raise ConstructionError(f"unknown perturbation mode {mode!r}")


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

    A descriptor that lacks a key its kind needs raises ValueError.
    """
    kind = d.get("kind")
    try:
        if kind == "linear":
            return make_linear(np.asarray(d["matrix"]))
        if kind == "rotation":
            return make_rotation(float(d["theta"]))
        if kind == "translate":
            return make_translation_method_map(map_from_descriptor(d["base"]), float(d["delta"]))
        if kind == "translate-block":
            base = torus_identity()
            return make_translation_method_map(base, float(d["delta"]), block=d["block"])
        if kind == "perturbation":
            base = map_from_descriptor(d["base"])
            mode = d["mode"]
            rebuilt = make_conservative_perturbation(base, float(d["delta"]), mode, seed=d.get("seed"))
            return rebuilt
    except KeyError as exc:
        raise ValueError(f"{kind} descriptor lacks the key {exc}") from None
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
