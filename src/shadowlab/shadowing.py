"""Finite-horizon checkers and solvers for tracking properties.

Four properties are checked, all at an explicit horizon N and tolerance eps:
direct shadowing (a pseudo-orbit is tracked by a true orbit), inverse
shadowing (the true orbit of x is tracked by some method orbit), weak inverse
shadowing (some method orbit lies in the eps-neighborhood of the orbit of x),
and orbital inverse shadowing (both one-sided inclusions).

The existential quantifier "there is y" is realized as: explicit candidates
(the anchor, caller-provided seeds, a solver output), then a full grid sweep
with local refinement, and finally a Lipschitz covering certificate when no
candidate tracks.  A certificate means: the grid minimum of the objective
minus lipschitz_bound * grid_step / 2 still exceeds eps, so *no* point of the
continuum tracks at this horizon — failure is a finite proof, not sampling
evidence.  ``grid_step`` in a verdict is the covering diameter of the search
lattice (per-axis spacing times sqrt(dim)), which is what makes the covering
inequality sound on the torus.

Grid sweeps are chunked with a fixed chunk size and combined by index order,
so verdicts are byte-identical for any worker count.  Tracked witnesses found
on the grid are the lexicographically smallest qualifying lattice point.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import TorusPoint, dist_array, lattice_points, reduce_to_unit, sq_dist_array, wrap_to_half
from .orbits import TRUE_ORBIT_DELTA, MethodSpec, PseudoOrbit, orbit_segment
from .systems import LinearAutomorphism, SystemMap, _hyperbolic_eigen, spectral_norm

__all__ = [
    "NonHyperbolicError",
    "ShadowVerdict",
    "NewtonShadowResult",
    "shadow_solve_linear",
    "shadow_solve_newton",
    "solve_tracking_constant",
    "check_direct_shadowing",
    "check_inverse_shadowing",
    "check_weak_inverse",
    "check_orbital_inverse",
    "tracking_objective",
    "weak_objective",
    "orbital_objective",
    "horizon_lipschitz_bound",
    "resolve_threads",
]

GRID_CHUNK = 65536
# Generic (non-affine) Lipschitz horizon bounds grow like lip^N; past this cap
# on N*log(lip) the bound is useless for certification and is not computed.
LIP_CAP = 25.0
# Raw (callable) methods are evaluated point by point in Python; grids are
# deterministically coarsened to at most this many points for them.
RAW_GRID_CAP = 20000
# Local refinement around the grid minimum: REFINE_LEVELS nested grids of
# 2 * REFINE_FACTOR + 1 points per axis, each REFINE_FACTOR times finer.
REFINE_LEVELS = 2
REFINE_FACTOR = 8


class NonHyperbolicError(ValueError):
    """The linear shadowing solver needs eigenvalues off the unit circle."""


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument, else SHADOWLAB_THREADS, else available parallelism."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("SHADOWLAB_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShadowVerdict:
    """Outcome of one tracking search at a fixed horizon.

    outcome "tracked" carries a witness and its achieved distance (< epsilon,
    strictly).  outcome "failed" carries the coarse-grid minimum, the covering
    diameter of the lattice, the Lipschitz bound if one was computed, and
    whether the covering certificate holds.  "inconclusive" means a bound was
    available but the grid was too coarse to certify, and nothing tracked.
    """

    property_name: str
    outcome: str
    epsilon: float
    horizon: int
    system_label: str
    method_label: str
    anchor: TorusPoint
    witness: TorusPoint | None = None
    achieved: float | None = None
    min_over_grid: float | None = None
    grid_step: float | None = None
    lipschitz_bound: float | None = None
    certified: bool | None = None
    note: str = ""

    def __post_init__(self):
        if self.outcome not in ("tracked", "failed", "inconclusive"):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.outcome == "tracked" and not (self.achieved < self.epsilon):
            raise ValueError("tracked verdicts require achieved < epsilon")
        if self.outcome == "failed" and self.certified:
            slack = self.lipschitz_bound * self.grid_step / 2.0
            if not (math.isfinite(self.min_over_grid) and self.min_over_grid - slack > self.epsilon):
                raise ValueError("certificate inequality does not hold")

    def to_record(self) -> dict:
        """JSON-ready record with the wire keys."""
        rec = {
            "property": self.property_name,
            "system": self.system_label,
            "method": self.method_label,
            "x": [float(v) for v in self.anchor.coords],
            "eps": self.epsilon,
            "N": self.horizon,
            "outcome": self.outcome,
        }
        if self.witness is not None:
            rec["witness"] = [float(v) for v in self.witness.coords]
        if self.achieved is not None:
            rec["achieved"] = self.achieved
        if self.min_over_grid is not None:
            rec["min_over_grid"] = self.min_over_grid
        if self.grid_step is not None:
            rec["grid_step"] = self.grid_step
        if self.lipschitz_bound is not None:
            rec["lipschitz_bound"] = self.lipschitz_bound
        if self.certified is not None:
            rec["certified"] = self.certified
        if self.note:
            rec["note"] = self.note
        return rec


# ---------------------------------------------------------------------------
# Exact solver for hyperbolic affine maps
# ---------------------------------------------------------------------------

def solve_tracking_constant(A) -> float:
    """K with achieved <= K * delta for the affine solver: cond(V) * geometric-series factor."""
    aut = A if isinstance(A, LinearAutomorphism) else LinearAutomorphism(A)
    eigen = _hyperbolic_eigen(aut.matrix.astype(float))
    if eigen is None:
        raise NonHyperbolicError(f"matrix {aut.matrix.tolist()} has an eigenvalue of modulus 1")
    V, _, lu, ls = eigen
    cond = float(np.linalg.cond(V))
    return cond * max(1.0 / (1.0 - abs(ls)), 1.0 / (1.0 - 1.0 / abs(lu)))


def _affine_correct(B: np.ndarray, c: np.ndarray, targets: np.ndarray, eigen):
    """Corrected true-orbit sequence of x -> Bx + c near the target points.

    One-step errors are split into eigencomponents; the stable component is
    summed forward and the unstable component backward, which is the bounded
    solution of the correction recursion and is numerically stable (only
    multiplications by |lambda| < 1 and divisions by |lambda| > 1 occur).
    """
    V, Vinv, lu, ls = eigen
    T = np.asarray(targets, dtype=float)
    m = len(T)
    e = wrap_to_half(T[1:] - (T[:-1] @ B.T + c))
    ehat = e @ Vinv.T
    uu = np.zeros(m)
    us = np.zeros(m)
    for i in range(m - 1):
        us[i + 1] = ls * us[i] - ehat[i, 1]
    for i in range(m - 2, -1, -1):
        uu[i] = (uu[i + 1] + ehat[i, 0]) / lu
    u = np.stack([uu, us], axis=1) @ V.T
    z = reduce_to_unit(T + u)
    achieved = float(dist_array(z, T).max())
    return z, achieved


def shadow_solve_linear(A, po: PseudoOrbit) -> tuple[TorusPoint, float]:
    """Exact shadowing point for a hyperbolic toral automorphism.

    Returns (y, achieved) where the orbit of y under A stays within
    ``achieved`` of the pseudo-orbit, and achieved <= K * delta_bound with
    K = solve_tracking_constant(A).  The achieved value is measured along the
    corrected sequence, which is what keeps it meaningful at horizons where
    naive re-iteration of A would amplify float roundoff past the answer.
    """
    aut = A if isinstance(A, LinearAutomorphism) else LinearAutomorphism(A)
    eigen = _hyperbolic_eigen(aut.matrix.astype(float))
    if eigen is None:
        raise NonHyperbolicError(f"matrix {aut.matrix.tolist()} has an eigenvalue of modulus 1")
    z, achieved = _affine_correct(aut.matrix.astype(float), np.zeros(2), po.as_array(), eigen)
    return TorusPoint.from_array(z[po.horizon]), achieved


@dataclass(frozen=True)
class NewtonShadowResult:
    """Sequence-space Newton output: a near-true orbit and how far it sits from the input."""

    points: np.ndarray
    achieved: float
    residual: float
    iterations: int
    converged: bool

    def point(self, k: int, horizon: int) -> TorusPoint:
        return TorusPoint.from_array(self.points[horizon + k])


def shadow_solve_newton(f: SystemMap, po: PseudoOrbit, tol: float = 1e-10, max_iter: int = 20) -> NewtonShadowResult:
    """Newton iteration on the orbit-sequence space.

    Variables are lifts of the whole sequence; the residual r_i = z_{i+1} - f(z_i)
    is computed through the torus wrap, and the block-banded linearization
    (rows [-Df(z_i), I]) is solved dense in minimum-norm least squares, which
    for an underdetermined system picks the bounded correction.  Failure to
    converge is reported, not raised: the caller treats it as inconclusive.
    """
    pts = po.as_array()
    m, d = pts.shape
    zhat = np.empty_like(pts)
    zhat[0] = pts[0]
    steps = wrap_to_half(pts[1:] - pts[:-1])
    zhat[1:] = pts[0] + np.cumsum(steps, axis=0)

    residual = math.inf
    iterations = 0
    for _ in range(max_iter):
        z = reduce_to_unit(zhat)
        r = wrap_to_half(z[1:] - f.forward(z[:-1]))
        residual = float(np.sqrt((r * r).sum(axis=1)).max())
        if residual <= tol:
            break
        jac = np.asarray(f.differential(z[:-1]), dtype=float)
        J = np.zeros(((m - 1) * d, m * d))
        for i in range(m - 1):
            J[i * d:(i + 1) * d, i * d:(i + 1) * d] = -jac[i]
            J[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = np.eye(d)
        delta, *_ = np.linalg.lstsq(J, -r.ravel(), rcond=None)
        zhat = zhat + delta.reshape(m, d)
        iterations += 1
    else:
        z = reduce_to_unit(zhat)
        r = wrap_to_half(z[1:] - f.forward(z[:-1]))
        residual = float(np.sqrt((r * r).sum(axis=1)).max())

    z = reduce_to_unit(zhat)
    achieved = float(dist_array(z, pts).max())
    return NewtonShadowResult(
        points=z,
        achieved=achieved,
        residual=residual,
        iterations=iterations,
        converged=residual <= tol,
    )


# ---------------------------------------------------------------------------
# Tracking objectives (vectorized over candidate points y)
# ---------------------------------------------------------------------------

def _fold_objective(targets: np.ndarray, steps, n: int, mode: str) -> np.ndarray:
    """Squared objective of n candidates, folded over their orbit positions.

    ``steps`` yields (i, z): z holds the candidates' positions (n, dim) at
    orbit index i, where index N is the anchor and targets[i] the matching
    target.  "pointwise" compares z with targets[i]; "weak" compares it with
    the set of distinct targets, and "orbital" also folds the reverse
    inclusion.  max and min are exact, so the order of the steps is free.
    """
    uniq = np.unique(targets, axis=0) if mode != "pointwise" else None
    acc = np.zeros(n)
    rmin = np.full((n, len(uniq)), np.inf) if mode == "orbital" else None
    for i, z in steps:
        if mode == "pointwise":
            np.maximum(acc, sq_dist_array(z, targets[i]), out=acc)
            continue
        D = sq_dist_array(z[:, None, :], uniq[None, :, :])
        np.maximum(acc, D.min(axis=1), out=acc)
        if rmin is not None:
            np.minimum(rmin, D, out=rmin)
        del D  # free the (n, len(uniq)) matrix before the next step builds its own
    if rmin is not None:
        np.maximum(acc, rmin.max(axis=1), out=acc)
    return acc


def _map_steps(g: SystemMap, Y: np.ndarray, N: int):
    """(i, g^(i-N)(Y)) for every orbit index i, one map step at a time."""
    yield N, Y
    z = Y
    for k in range(1, N + 1):
        z = g.forward(z)
        yield N + k, z
    z = Y
    for k in range(1, N + 1):
        z = g.backward(z)
        yield N - k, z


def _objective_core(g: SystemMap, targets: np.ndarray, ys: np.ndarray, N: int, mode: str) -> np.ndarray:
    T = np.asarray(targets, dtype=float)
    if len(T) != 2 * N + 1:
        raise ValueError("targets must cover indices -N..N")
    scalar = ys.ndim == 1
    Y = ys[None, :] if scalar else ys
    out = np.sqrt(_fold_objective(T, _map_steps(g, Y, N), len(Y), mode))
    return float(out[0]) if scalar else out


def tracking_objective(g: SystemMap, targets, ys, N: int):
    """max over |k| <= N of d(g^k(y), t_k): the index-matched tracking error."""
    return _objective_core(g, targets, np.asarray(ys, dtype=float), N, "pointwise")


def weak_objective(g: SystemMap, targets, ys, N: int):
    """max over |k| <= N of d(g^k(y), {targets}): one-sided inclusion error."""
    return _objective_core(g, targets, np.asarray(ys, dtype=float), N, "weak")


def orbital_objective(g: SystemMap, targets, ys, N: int):
    """Larger of the two one-sided inclusion errors between {g^k(y)} and {targets}."""
    return _objective_core(g, targets, np.asarray(ys, dtype=float), N, "orbital")


def horizon_lipschitz_bound(g: SystemMap, N: int, cap: float = LIP_CAP) -> float | None:
    """Lipschitz constant of y -> max_{|k|<=N} d(g^k(y), .) on the torus.

    Affine maps (integer linear part) get the exact bound max_k ||B^k||_2 over
    both iteration directions — integer matrices commute with the quotient, so
    the operator norm of the power really is a torus Lipschitz constant.  For
    everything else the crude max(lip_f, lip_b)^N is returned, or None past
    the cap where it could not certify anything anyway.
    """
    if g.linear_part is not None:
        B = np.asarray(g.linear_part, dtype=float)
        if B.shape == (1, 1):
            return 1.0  # |entry| = 1 for an invertible circle translation model
        Binv = LinearAutomorphism(g.linear_part).inverse_matrix().astype(float)
        L = 1.0
        M = np.eye(2)
        Mi = np.eye(2)
        for _ in range(N):
            M = M @ B
            Mi = Mi @ Binv
            L = max(L, spectral_norm(M), spectral_norm(Mi))
        return L
    lip = max(g.lip_forward, g.lip_backward, 1.0)
    if lip == 1.0:
        return 1.0
    if N * math.log(lip) > cap:
        return None
    return lip ** N


# ---------------------------------------------------------------------------
# Certified grid search
# ---------------------------------------------------------------------------

def _refine(objective, center: np.ndarray, step: float):
    """Best (value, point) from nested local grids around center, spanning +-step."""
    best_v = math.inf
    best_p = center
    c = center
    s = step
    for _ in range(REFINE_LEVELS):
        offs = np.arange(-REFINE_FACTOR, REFINE_FACTOR + 1) * (s / REFINE_FACTOR)
        if len(c) == 1:
            local = c[None, :] + offs[:, None]
        else:
            g0, g1 = np.meshgrid(offs, offs, indexing="ij")
            local = c[None, :] + np.stack([g0.ravel(), g1.ravel()], axis=1)
        local = reduce_to_unit(local)
        vals = objective(local)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v = float(vals[i])
            best_p = local[i]
        c = local[i]
        s = s / REFINE_FACTOR
    return best_v, best_p


def _sweep(objective, dim: int, G: int, eps: float, threads: int):
    """Full-lattice sweep; returns (first qualifying flat index or None, min, argmin index).

    Chunks are combined in index order, so the result is independent of the
    worker count and of completion order.
    """
    total = G ** dim

    def eval_chunk(start: int):
        idx = np.arange(start, min(start + GRID_CHUNK, total))
        vals = objective(lattice_points(G, dim, idx=idx))
        qual = np.nonzero(vals < eps)[0]
        first = int(idx[qual[0]]) if len(qual) else None
        a = int(np.argmin(vals))
        return first, float(vals[a]), int(idx[a])

    starts = list(range(0, total, GRID_CHUNK))
    if threads <= 1 or len(starts) == 1:
        results = [eval_chunk(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(eval_chunk, starts))

    first_qual = None
    gmin, gargmin = math.inf, -1
    for first, mn, am in results:
        if first is not None and (first_qual is None or first < first_qual):
            first_qual = first
        if mn < gmin or (mn == gmin and am < gargmin):
            gmin, gargmin = mn, am
    return first_qual, gmin, gargmin


def _search(objective, dim: int, eps: float, grid_step: float, candidates, lip_bound,
            threads: int, counters: dict, raw: bool = False):
    """Candidate pass, lattice sweep, refinement, then certificate. Returns verdict fields."""
    note_parts = []
    for name, pt in candidates:
        v = float(objective(pt[None, :])[0])
        counters["candidate_evaluations"] = counters.get("candidate_evaluations", 0) + 1
        if v < eps:
            return {
                "outcome": "tracked",
                "witness": TorusPoint.from_array(pt),
                "achieved": v,
                "note": f"witness from {name}",
            }

    G = max(1, int(round(1.0 / grid_step)))
    if raw:
        cap = int(RAW_GRID_CAP ** (1.0 / dim))
        if G > cap:
            G = cap
            note_parts.append(f"grid coarsened to {G} per axis for a raw method")
    cover = math.sqrt(dim) / G

    first_qual, gmin, gargmin = _sweep(objective, dim, G, eps, threads)
    counters["grid_points"] = counters.get("grid_points", 0) + G ** dim

    if first_qual is not None:
        pt = lattice_points(G, dim, idx=[first_qual])[0]
        v = float(objective(pt[None, :])[0])
        return {
            "outcome": "tracked",
            "witness": TorusPoint.from_array(pt),
            "achieved": v,
            "min_over_grid": gmin,
            "grid_step": cover,
            "note": "witness from grid (lexicographically first qualifying point)",
        }

    center = lattice_points(G, dim, idx=[gargmin])[0]
    rv, rp = _refine(objective, center, 1.0 / G)
    refined = REFINE_LEVELS * (2 * REFINE_FACTOR + 1) ** dim
    counters["refinement_points"] = counters.get("refinement_points", 0) + refined
    if rv < eps:
        return {
            "outcome": "tracked",
            "witness": TorusPoint.from_array(rp),
            "achieved": rv,
            "min_over_grid": gmin,
            "grid_step": cover,
            "note": "witness from refinement around the grid minimum",
        }

    common = {
        "min_over_grid": gmin,
        "grid_step": cover,
        "lipschitz_bound": lip_bound,
    }
    if lip_bound is not None and gmin - lip_bound * cover / 2.0 > eps:
        note_parts.append("covering certificate holds")
        return {"outcome": "failed", "certified": True, "note": "; ".join(note_parts), **common}
    if lip_bound is not None:
        note_parts.append("grid too coarse to certify at this Lipschitz bound")
        return {"outcome": "inconclusive", "certified": False, "note": "; ".join(note_parts), **common}
    note_parts.append("no usable Lipschitz bound at this horizon")
    return {"outcome": "failed", "certified": False, "note": "; ".join(note_parts), **common}


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _as_coords(x, dim: int) -> np.ndarray:
    arr = x.as_array() if isinstance(x, TorusPoint) else reduce_to_unit(np.asarray(x, dtype=float))
    if arr.ndim == 0:
        arr = arr[None]
    if arr.shape != (dim,):
        raise ValueError(f"anchor has shape {arr.shape}, expected ({dim},)")
    return arr


def _solver_candidate(driver: SystemMap, targets: np.ndarray, delta_hint: float, counters: dict):
    """(name, point) tracking the target sequence under driver's dynamics, if a solver applies."""
    try:
        po = PseudoOrbit.checked(driver, targets, max(delta_hint * 1.01 + 1e-12, 2 * TRUE_ORBIT_DELTA))
    except ValueError:
        return None
    if driver.linear_part is not None and driver.dim == 2:
        eigen = _hyperbolic_eigen(driver.linear_part.astype(float))
        if eigen is not None:
            c = driver.forward(np.zeros(2))
            z, _ = _affine_correct(driver.linear_part.astype(float), c, po.as_array(), eigen)
            return "affine solver", z[po.horizon]
    res = shadow_solve_newton(driver, po, tol=1e-9, max_iter=30)
    counters["newton_iterations"] = counters.get("newton_iterations", 0) + res.iterations
    if res.converged:
        return "newton solver", res.points[po.horizon]
    return None


def _run_check(property_name: str, mode: str, f: SystemMap, m: MethodSpec, x, eps: float,
               N: int, grid_step: float, seeds, threads, counters):
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if N < 1:
        raise ValueError("N must be at least 1")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if f.dim != m.target.dim:
        raise ValueError("method was built for a map of a different dimension")
    counters = counters if counters is not None else {}
    workers = resolve_threads(threads)
    x0 = _as_coords(x, f.dim)

    if mode == "direct":
        po = m.evaluate(x0, N)
        targets = po.as_array()
        driver = f
    else:
        targets = orbit_segment(f, x0, N).as_array()
        driver = m.source if m.is_induced else None

    if driver is not None:
        def objective(ys):
            return _objective_core(driver, targets, ys, N, mode if mode != "direct" else "pointwise")
    else:
        def objective(ys):
            orbits = np.stack([m.evaluate(y, N).as_array() for y in ys], axis=1)
            return np.sqrt(_fold_objective(targets, enumerate(orbits), len(ys), mode))

    candidates = [("anchor", x0)]
    for s in seeds:
        candidates.append(("seed", _as_coords(s, f.dim)))
    if driver is not None:
        cand = _solver_candidate(driver, targets, m.delta, counters)
        if cand is not None:
            candidates.append(cand)

    lip = horizon_lipschitz_bound(driver, N) if driver is not None else None
    fields = _search(objective, f.dim, eps, grid_step, candidates, lip,
                     workers, counters, raw=driver is None)
    return ShadowVerdict(
        property_name=property_name,
        epsilon=float(eps),
        horizon=int(N),
        system_label=f.label,
        method_label=m.label,
        anchor=TorusPoint.from_array(x0),
        **fields,
    )


def check_direct_shadowing(f: SystemMap, m: MethodSpec, x, eps: float, N: int,
                           grid_step: float = 1.0 / 512, *, seeds=(), threads=None,
                           counters=None) -> ShadowVerdict:
    """Is the method's pseudo-orbit through x eps-tracked by a true orbit of f?"""
    return _run_check("direct", "direct", f, m, x, eps, N, grid_step, seeds, threads, counters)


def check_inverse_shadowing(f: SystemMap, m: MethodSpec, x, eps: float, N: int,
                            grid_step: float = 1.0 / 512, *, seeds=(), threads=None,
                            counters=None) -> ShadowVerdict:
    """Does some y's method orbit eps-track the true orbit of x, index by index?"""
    return _run_check("inverse", "pointwise", f, m, x, eps, N, grid_step, seeds, threads, counters)


def check_weak_inverse(f: SystemMap, m: MethodSpec, x, eps: float, N: int,
                       grid_step: float = 1.0 / 512, *, seeds=(), threads=None,
                       counters=None) -> ShadowVerdict:
    """Does some y's method orbit stay inside the eps-neighborhood of the orbit of x?"""
    return _run_check("weak", "weak", f, m, x, eps, N, grid_step, seeds, threads, counters)


def check_orbital_inverse(f: SystemMap, m: MethodSpec, x, eps: float, N: int,
                          grid_step: float = 1.0 / 512, *, seeds=(), threads=None,
                          counters=None) -> ShadowVerdict:
    """Do both one-sided eps-inclusions hold between the orbit of x and some method orbit?"""
    return _run_check("orbital", "orbital", f, m, x, eps, N, grid_step, seeds, threads, counters)
