"""Finite-horizon checkers and solvers for tracking properties.

Four properties are checked, all at an explicit horizon N and tolerance eps:
direct shadowing (a pseudo-orbit is tracked by a true orbit), inverse
shadowing (the true orbit of x is tracked by some method orbit), weak inverse
shadowing (some method orbit lies in the eps-neighborhood of the orbit of x),
and orbital inverse shadowing (both one-sided inclusions).

The existential quantifier "there is y" is realized in three stages, which
``_search`` sequences: a candidate pass over explicit points (the anchor,
caller-provided seeds, then the Newton solver's output, computed only if
those miss, then, for a non-affine driver, that output polished by further
Newton steps), a covering, and a certifier that, when nothing tracked,
issues a Lipschitz covering certificate or says why none holds.  Every
objective takes a stop: a value at or below it is exact, and one above it
may be a lower bound.  Two folds compute them: ``_fold_objective`` the
pointwise objective, ``_set_fold`` the weak and orbital ones.  A candidate
is evaluated with stop = eps: a hit gets its exact value, and a pointwise
candidate that misses quits its lazy, orbit-order walk within one step block
past eps, since a lower bound above eps settles it.  The covering walks
nested dyadic lattices from coarse to fine (branch and bound after Piyavskii
and Shubert): a lattice point's cell is settled once its value minus
lipschitz_bound * (cell diameter) / 2 exceeds eps, and every other cell is
split, down to the requested lattice; local refinement around the least
unsettled value follows.  A certificate means every cell is settled, so *no*
point of the continuum tracks at this horizon — failure is a finite proof,
not sampling evidence.  Lattice points are evaluated with stop =
max(eps, b) + slack, b the binding margin so far (infinite without a
Lipschitz bound): a value above it already settles its cell and can never
bind (the cut-off test of interval branch and bound, after Hansen and
Walster).  A pointwise block
of lattice points ends its walk once every point has passed stop.  In the
weak and orbital modes a check builds, on its first call with several
points, a table of lower and upper bounds on the squared distance from each
cell of the phase space to the targets (``geometry.sq_dist_bounds``).  A
point whose largest lower bound over its orbit steps passes stop is settled
by that bound; the others fold the weak value exactly over only the steps
whose upper bound reaches their running max, and in orbital mode those still
at or below stop then fold the reverse inclusion, each only until every
target lies within its weak value of some position, as from then on its weak
value is its value.  One point builds no table and folds every step of its
weak value.  Only the level that sets the first binding cell evaluates its
leaves above stop again, in one batch of those whose value could still
undercut that level's least exact leaf value, with that value as stop, so
the binding cell is chosen among exact values.

On failed and inconclusive records, ``min_over_grid`` and ``grid_step`` are
the value and covering diameter (per-axis spacing times sqrt(dim)) of the
binding cell, the final cell of least margin, so the record alone restates
the certificate inequality or shows where it fails.  The ``grid_points``
counter counts lattice points evaluated.  A missing Lipschitz bound is
math.inf: no covering level fits, so the covering is one sweep of the
requested lattice, coarsened to at most UNBOUNDED_GRID_CAP points, with a
note.  Candidates are evaluated through the check's driver map: f for
direct shadowing, else the method's source map, so a raw method, which has
none, serves direct checks only.

Objectives fold consecutive orbit steps in blocks, with one distance call
per block and exact max/min reductions, so neither the blocking nor the
steps the bound table skips change a value.  Levels are evaluated in chunks
of fixed size combined by index order, so verdicts are byte-identical for
any worker count.  A tracked witness found on a lattice is the
lexicographically smallest qualifying point of the coarsest level that has
one.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import (TorusPoint, bound_cells, dist_array, lattice_points, reduce_to_unit, sq_dist_array,
                       sq_dist_bounds, wrap_to_half)
from .orbits import TRUE_ORBIT_DELTA, MethodSpec, PseudoOrbit, _as_coords, _orbit_steps, orbit_segment
from .systems import LinearAutomorphism, SystemMap, _spectral_norm_batch

__all__ = [
    "ShadowVerdict",
    "NewtonShadowResult",
    "shadow_solve_newton",
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
# Without a Lipschitz bound the covering is one sweep of the whole lattice,
# which no finer grid can turn into a certificate; it is coarsened to at most
# this many points (1024 per axis on the torus) so that its arrays stay small.
# A bounded covering whose first level would exceed it is refused.
UNBOUNDED_GRID_CAP = 1024 ** 2
# Local refinement around the grid minimum: REFINE_LEVELS nested grids of
# 2 * REFINE_FACTOR + 1 points per axis, each REFINE_FACTOR times finer.
REFINE_LEVELS = 2
REFINE_FACTOR = 8
# Set-mode objectives hold all 2N+1 positions of the points they fold; folding
# blocks of this many points bounds that memory (1.7 MB at N = 25).  A fold
# takes up to STEP_BLOCK consecutive steps at once, fewer where they would
# pass this many point-steps (point-step-targets in the set modes); the exact
# steps of a bounded set fold and the rows of its bound table are taken in
# blocks of at most this many pairs or cells against all targets.
FOLD_BLOCK = 2048
STEP_BLOCK = 32


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument, else SHADOWLAB_THREADS, else available parallelism."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("SHADOWLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"SHADOWLAB_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on, not the host's
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShadowVerdict:
    """Outcome of one tracking search at a fixed horizon: tracked, failed or inconclusive.

    "tracked" carries a witness with achieved < epsilon.  "failed" is a proof:
    its binding cell and Lipschitz bound satisfy the covering inequality.
    ``certified`` and ``reason`` are derived from these fields, never stored.
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
    note: str = ""

    def __post_init__(self):
        if self.outcome not in ("tracked", "failed", "inconclusive"):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if (self.witness is not None) != (self.outcome == "tracked"):
            raise ValueError("a verdict carries a witness exactly when it is tracked")
        if self.outcome == "tracked" and not (self.achieved is not None and self.achieved < self.epsilon):
            raise ValueError("tracked verdicts require achieved < epsilon")
        if self.outcome == "failed" and (
                None in (self.min_over_grid, self.grid_step, self.lipschitz_bound)
                or _certify(self.min_over_grid, self.grid_step, self.lipschitz_bound, self.epsilon)[0] != "failed"):
            raise ValueError("failed verdicts require a holding covering certificate")

    @property
    def certified(self) -> bool | None:
        """None when tracked; else True exactly when failed, since failed always certifies."""
        return None if self.outcome == "tracked" else self.outcome == "failed"

    @property
    def reason(self) -> str | None:
        """Why an inconclusive search did not certify: "no-lipschitz" or "grid"; None otherwise."""
        if self.outcome != "inconclusive":
            return None
        return "no-lipschitz" if self.lipschitz_bound is None else "grid"

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
        for key in ("achieved", "min_over_grid", "grid_step", "lipschitz_bound", "certified", "reason"):
            if getattr(self, key) is not None:
                rec[key] = getattr(self, key)
        if self.note:
            rec["note"] = self.note
        return rec


# ---------------------------------------------------------------------------
# Sequence-space Newton solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonShadowResult:
    """Sequence-space Newton output: a near-true orbit and how far it sits from the input."""

    points: np.ndarray
    achieved: float
    residual: float
    iterations: int
    converged: bool


def _spd_block_tridiagonal_solve(D: np.ndarray, L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite block-tridiagonal system by cyclic reduction.

    D (n, d, d) holds the diagonal blocks and L[i] the block at (i, i-1), so
    the block at (i, i+1) is L[i+1]^T (L[0] is ignored); b is (n, d, k).  Each
    level eliminates the odd block rows with one batched inverse and recurses
    on the even ones: about log2(n) vectorised levels and no loop over blocks.
    Odd-even elimination is Gaussian elimination on a symmetric permutation,
    which needs no pivoting on a positive definite matrix.
    """
    n, d = len(b), b.shape[1]
    if n == 1:
        return np.linalg.inv(D) @ b
    U = np.zeros_like(D)
    U[:-1] = L[1:].transpose(0, 2, 1)
    ne, no = (n + 1) // 2, n // 2
    # odd row 2k+1 couples to even row 2k through L and to even row 2k+2 through U
    X = np.linalg.inv(D[1::2]) @ np.concatenate([L[1::2], U[1::2], b[1::2]], axis=2)
    DiL, DiU, Dib = X[:, :, :d], X[:, :, d:2 * d], X[:, :, 2 * d:]
    Le, Ue = L[2::2], U[0:2 * no:2]
    D2, b2 = D[0::2].copy(), b[0::2].copy()
    D2[:no] -= Ue @ DiL
    D2[1:] -= Le @ DiU[:ne - 1]
    b2[:no] -= Ue @ Dib
    b2[1:] -= Le @ Dib[:ne - 1]
    L2 = np.zeros_like(D2)
    L2[1:] = -(Le @ DiL[:ne - 1])
    xe = np.zeros((ne + 1,) + b.shape[1:])
    xe[:ne] = _spd_block_tridiagonal_solve(D2, L2, b2)
    x = np.empty_like(b)
    x[0::2] = xe[:ne]
    x[1::2] = Dib - DiL @ xe[:no] - DiU @ xe[1:no + 1]
    return x


def _min_norm_newton_step(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm delta with delta_{i+1} - A_i delta_i = -r_i for every i.

    J has block rows [-A_i, I], so J J^T is block-tridiagonal with diagonal
    A_i A_i^T + I and sub-diagonal -A_i; the step is delta = J^T lambda with
    (J J^T) lambda = -r, i.e. delta_j = -A_j^T lambda_j + lambda_{j-1}.
    """
    At = A.transpose(0, 2, 1)
    lam = _spd_block_tridiagonal_solve(A @ At + np.eye(A.shape[1]), -A, -r[:, :, None])
    delta = np.zeros((len(r) + 1, r.shape[1], 1))
    delta[:-1] -= At @ lam
    delta[1:] += lam
    return delta[:, :, 0]


def _newton_iterates(f: SystemMap, pts: np.ndarray):
    """Yield (z, residual) for the Newton iterates from pts, pts itself (reduced) first.

    Variables are a lift of the sequence, built from its wrapped consecutive
    differences; each step is computed only when the next iterate is drawn.
    """
    m, d = pts.shape
    zhat = np.empty_like(pts)
    zhat[0] = pts[0]
    zhat[1:] = pts[0] + np.cumsum(wrap_to_half(pts[1:] - pts[:-1]), axis=0)
    while True:
        z = reduce_to_unit(zhat)
        r = wrap_to_half(z[1:] - f.forward(z[:-1]))
        yield z, float(np.sqrt((r * r).sum(axis=1)).max())
        A = np.asarray(f.differential(z[:-1]), dtype=float).reshape(m - 1, d, d)
        zhat = zhat + _min_norm_newton_step(A, r)


def shadow_solve_newton(f: SystemMap, po: PseudoOrbit, tol: float = 1e-10, max_iter: int = 20) -> NewtonShadowResult:
    """Newton iteration on the orbit-sequence space.

    Variables are lifts of the whole sequence; the residual r_i = z_{i+1} - f(z_i)
    is computed through the torus wrap, and the linearization (block rows
    [-Df(z_i), I]) gets its minimum-norm solution, which for an underdetermined
    system picks the bounded correction.  That step is J^T (J J^T)^{-1} applied
    to the residual, with the block-tridiagonal J J^T solved in O(N) by cyclic
    reduction.  Failure to converge is reported, not raised: the caller treats
    it as inconclusive.
    """
    pts = po.as_array()
    for iterations, (z, residual) in enumerate(_newton_iterates(f, pts)):
        if residual <= tol or iterations >= max_iter:
            break

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

def _fold_targets(targets, N: int, mode: str) -> np.ndarray:
    """What the folds compare positions with: the 2N+1 targets (pointwise), or their distinct points."""
    T = np.asarray(targets, dtype=float)
    if len(T) != 2 * N + 1:
        raise ValueError("targets must cover indices -N..N")
    return T if mode == "pointwise" else np.unique(T, axis=0)


def _fold_objective(targets: np.ndarray, steps, n: int, stop: float = math.inf) -> np.ndarray:
    """Squared pointwise objective of n candidates, folded over their orbit positions.

    ``steps`` yields (i, z): z holds the candidates' positions at orbit
    index i, where index N is the anchor, as an (n, dim) array or, for one
    candidate, a tuple (``_orbit_steps``), and is compared with targets[i],
    the index-matched target.  Consecutive steps are folded in blocks of up
    to STEP_BLOCK steps, fewer where the block would pass FOLD_BLOCK
    point-steps, but at least one: one ``sq_dist_array`` call per block,
    reduced by max.  max is exact and the distance is elementwise, so
    neither the blocks nor the order of the steps change a value.

    A value at or below ``stop`` is exact; one above it may be a lower bound.
    The fold ends at the end of the first block after which every
    candidate's running max exceeds stop (compared as a distance), and a lazy
    ``steps`` computes no further positions: the results are those running
    maxes, lower bounds of the values.  Otherwise every step is folded and
    every value is exact.
    """
    size = max(1, min(STEP_BLOCK, FOLD_BLOCK // n))
    steps = iter(steps)
    run = np.zeros(n)
    while block := list(itertools.islice(steps, size)):
        Z = np.array([z for _, z in block], dtype=float).reshape(len(block), n, -1)  # (steps, candidates, dim)
        T = targets[[i for i, _ in block]]
        np.maximum(run, sq_dist_array(Z, T[:, None, :]).max(axis=0), out=run)
        if math.sqrt(run.min()) > stop:
            return run
    return run


def _objective_core(g: SystemMap, targets: np.ndarray, ys: np.ndarray, N: int, mode: str,
                    stop: float = math.inf, bounds=None) -> np.ndarray:
    """The objective of ys: a value at or below ``stop`` is exact, one above it may be a lower bound.

    ``targets`` is ``_fold_targets``' output for this N and mode.  Pointwise
    mode walks the orbits lazily in orbit order (index N, then forward, then
    backward) with ``_fold_objective``, one point in Python floats where its
    map allows (``_orbit_steps``).  The weak and orbital modes fold blocks of
    FOLD_BLOCK points with ``_set_fold``: several points with the
    ``sq_dist_bounds`` table, which ``bounds`` returns (built here when
    None), and one point with none.
    """
    scalar = ys.ndim == 1
    Y = ys[None, :] if scalar else ys
    if mode == "pointwise":
        sq = _fold_objective(targets, _orbit_steps(g, Y, N), len(Y), stop)
    else:
        table = None if len(Y) == 1 else bounds() if bounds is not None else sq_dist_bounds(targets, FOLD_BLOCK)
        sq = np.concatenate([_set_fold(g, targets, B, N, mode, stop, table)
                             for B in np.split(Y, range(FOLD_BLOCK, len(Y), FOLD_BLOCK))])
    out = np.sqrt(sq)
    return float(out[0]) if scalar else out


def _set_fold(g: SystemMap, targets: np.ndarray, Y: np.ndarray, N: int, mode: str,
              stop: float, table) -> np.ndarray:
    """Squared weak or orbital objective of the points Y; a value at or below stop is exact.

    Every position is computed first and looked up in ``table`` = (lo, hi):
    step k's squared distance m_k to the targets lies in [lo_k, hi_k], so
    L = max_k lo_k is a lower bound of the weak value max_k m_k.  A point
    with sqrt(L) > stop is settled and its result is L.  The others fold the
    weak value exactly, one step block at a time, only over the steps with
    hi_k >= r, r their running max (at least L): a skipped step has m_k <=
    hi_k < r, so it cannot set the max, and the result is bit for bit the
    full fold's.  ``table`` None is for one point, whose whole fold costs
    less than a table: one distance call over every step gives its weak
    value.  In orbital mode the points whose weak value is still at most
    stop then fold the reverse inclusion: a running minimum of each target's
    distance, whose max over the targets joins their value.  A point leaves
    after the step block where every minimum is at or below its weak value,
    which is then its value bit for bit, as minima only fall.  A block takes
    up to STEP_BLOCK steps, fewer past FOLD_BLOCK point-step-targets, so the
    fold holds the (points, targets) minimum, shrunk in place to the live
    rows, and one block's distances.
    """
    pos = np.empty((2 * N + 1,) + Y.shape)
    for i, z in _orbit_steps(g, Y, N):
        pos[i] = z
    todo = np.arange(len(Y))
    if table is None:
        out = sq_dist_array(pos[:, :, None, :], targets).min(axis=2).max(axis=0)
    else:
        lo, hi = table
        cells = np.empty(pos.shape[:2], dtype=np.int32)
        for s in range(0, 2 * N + 1, STEP_BLOCK):
            cells[s:s + STEP_BLOCK] = bound_cells(pos[s:s + STEP_BLOCK])
        out = np.take(lo, cells).max(axis=0)
        todo = np.flatnonzero(np.sqrt(out) <= stop)
        for s in range(0, 2 * N + 1, STEP_BLOCK):
            # this block's steps that can still set a max, as (point, step) pairs grouped by point
            points, steps = np.nonzero((np.take(hi, cells[s:s + STEP_BLOCK, todo]) >= out[todo]).T)
            if not len(points):
                continue
            Z = pos[s + steps, todo[points]]
            m = np.concatenate([sq_dist_array(Z[c:c + FOLD_BLOCK, None, :], targets).min(axis=1)
                                for c in range(0, len(Z), FOLD_BLOCK)])
            first = np.flatnonzero(np.r_[True, points[1:] != points[:-1]])
            rows = todo[points[first]]
            out[rows] = np.maximum(out[rows], np.maximum.reduceat(m, first))
        del cells  # free them before the reverse inclusion
    todo = todo[np.sqrt(out[todo]) <= stop]
    if mode == "weak" or not len(todo):
        return out
    rmin = np.full((len(todo), len(targets)), np.inf)
    size = max(1, min(STEP_BLOCK, FOLD_BLOCK // rmin.size))
    for s in range(0, 2 * N + 1, size):
        np.minimum(rmin, sq_dist_array(pos[s:s + size, todo][:, :, None, :], targets).min(axis=0), out=rmin)
        live = rmin.max(axis=1) > out[todo]
        todo = todo[live]
        if not len(todo):
            return out
        if len(todo) < len(live):  # shrink in place: no second (points, targets) array outlives the step
            rmin[:len(todo)] = rmin[live]
            rmin = rmin[:len(todo)]
    out[todo] = np.maximum(out[todo], rmin.max(axis=1))
    return out


def _once(build):
    """A function returning build(), called on its first call only and shared by every thread."""
    lock, built = threading.Lock(), []

    def get():
        with lock:
            if not built:
                built.append(build())
        return built[0]

    return get


def tracking_objective(g: SystemMap, targets, ys, N: int):
    """max over |k| <= N of d(g^k(y), t_k): the index-matched tracking error."""
    T = _fold_targets(targets, N, "pointwise")
    return _objective_core(g, T, np.asarray(ys, dtype=float), N, "pointwise")


def weak_objective(g: SystemMap, targets, ys, N: int):
    """max over |k| <= N of d(g^k(y), {targets}): one-sided inclusion error."""
    T = _fold_targets(targets, N, "weak")
    return _objective_core(g, T, np.asarray(ys, dtype=float), N, "weak")


def orbital_objective(g: SystemMap, targets, ys, N: int):
    """Larger of the two one-sided inclusion errors between {g^k(y)} and {targets}."""
    T = _fold_targets(targets, N, "orbital")
    return _objective_core(g, T, np.asarray(ys, dtype=float), N, "orbital")


def horizon_lipschitz_bound(g: SystemMap, N: int) -> float:
    """Lipschitz constant of y -> max_{|k|<=N} d(g^k(y), .) on the torus.

    Affine maps (integer linear part) get the exact bound max_k ||B^k||_2 over
    both iteration directions — integer matrices commute with the quotient, so
    the operator norm of the power really is a torus Lipschitz constant.  For
    everything else the crude max(lip_f, lip_b)^N is returned, or math.inf
    past the cap where it could not certify anything anyway.  A power past
    float range (from N = 738 on the cat) makes the bound math.inf too.
    """
    if g.linear_part is not None:
        B = np.asarray(g.linear_part, dtype=float)
        Binv = LinearAutomorphism(g.linear_part).inverse_matrix().astype(float)
        powers = np.empty((2, N) + B.shape)
        M = Mi = np.eye(len(B))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(N):
                M = powers[0, k] = M @ B
                Mi = powers[1, k] = Mi @ Binv
            L = float(_spectral_norm_batch(powers).max(initial=1.0))
        return L if math.isfinite(L) else math.inf
    lip = max(g.lip_forward, g.lip_backward, 1.0)
    if lip == 1.0:
        return 1.0
    if N * math.log(lip) > LIP_CAP:
        return math.inf
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
        axes = np.meshgrid(*[offs] * len(c), indexing="ij")
        local = reduce_to_unit(c + np.stack([a.ravel() for a in axes], axis=1))
        vals = objective(local)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v = float(vals[i])
            best_p = local[i]
        c = local[i]
        s = s / REFINE_FACTOR
    return best_v, best_p


def _candidate_pass(objective, candidates, eps: float, counters: dict):
    """(point, value, note) of the first candidate below eps, or None; draws no candidate past the hit.

    Each candidate is evaluated with stop = eps: a miss only needs a value
    above eps, which may be a lower bound, and a hit's value is exact.
    """
    for name, pt in candidates:
        v = float(objective(pt[None, :], stop=eps)[0])
        counters["candidate_evaluations"] = counters.get("candidate_evaluations", 0) + 1
        if v < eps:
            return pt, v, f"witness from {name}"
    return None


def _cover(objective, dim: int, G: int, eps: float, lip, threads: int, counters: dict):
    """Coarse-to-fine covering over nested dyadic lattices, then refinement.

    Returns (hit or None, binding value, binding covering diameter).  With
    G = g0 * 2**k (g0 odd) the levels are g0, 2*g0, ..., G, starting at the
    coarsest whose cells could certify at all (at G if none could, as under
    an infinite bound, which leaves every point unresolved).  A lattice
    point whose margin value - lip * cover / 2 exceeds eps is a certified
    leaf; every other point sends its 3**dim children 2k + {-1,0,1} per axis
    to the next level, whose cells cover its own.  Point k/g is point
    2k/(2g) exactly, so its value is carried, not recomputed.  A hit is
    (point, value, note): the first qualifying point of the first level that
    has one, else the refinement's best point around the least unresolved
    value at level G.  The binding cell is the leaf of least margin (ties go
    to the coarser level, then the lower index); the points of the last level
    evaluated are all leaves.  A first level of more than UNBOUNDED_GRID_CAP
    points raises ValueError before anything is allocated: a grid is refused
    only when a covering would walk it, never by a check a candidate settles.

    The objective takes ``stop``: a value at or below stop is exact, one
    above it may be a lower bound (``_objective_core``).  Lattice points are
    evaluated with stop = max(eps, b) + slack, b the binding margin of the
    coarser levels (eps before there is one); an infinite bound makes slack
    and stop infinite, as every point of its one sweep is a leaf that could
    bind.  A value above stop is still a certified leaf, since its margin
    exceeds eps, and once there is a binding cell it can never bind, since
    its margin exceeds b.  So only the level that sets the first binding
    cell re-evaluates: one call with stop = Uv on its leaves above stop
    whose value is at most Uv, the least value at or below stop of that
    level's leaves.  If it has none, its leaf of least value is evaluated
    exactly first and that value is Uv.  A leaf still above Uv after that
    call cannot bind, and every value at or below Uv is exact, so the
    binding cell is chosen among exact values.  Qualifying, unresolved and
    carried values are exact.
    """
    levels = [G]
    while levels[0] % 2 == 0:
        levels.insert(0, levels[0] // 2)
    # The fitting test is monotone in g, so the fitting levels are a suffix of the list.
    fits = [g for g in levels if lip * (math.sqrt(dim) / g) / 2.0 < math.sqrt(dim) / 2.0 - eps]
    levels = fits or [G]
    if levels[0] ** dim > UNBOUNDED_GRID_CAP:
        raise ValueError(f"grid {G} per axis is too fine: its first covering level has "
                         f"{levels[0]}**{dim} points, more than {UNBOUNDED_GRID_CAP}")
    offs = np.stack(np.meshgrid(*[[-1, 0, 1]] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    idx = np.arange(levels[0] ** dim)
    vals, new = np.empty(len(idx)), np.ones(len(idx), dtype=bool)
    binding = None  # (margin, value, covering diameter, flat index in its level)
    for g in levels:
        todo = idx[new]
        cover = math.sqrt(dim) / g
        slack = lip * cover / 2.0
        stop = (eps if binding is None else max(eps, binding[0])) + slack

        def eval_chunk(start: int):
            return objective(lattice_points(g, dim, idx=todo[start:start + GRID_CHUNK]), stop=stop)

        starts = range(0, len(todo), GRID_CHUNK)
        if threads <= 1 or len(starts) <= 1:
            parts = [eval_chunk(s) for s in starts]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(eval_chunk, starts))
        vals[new] = np.concatenate(parts)
        counters["grid_points"] = counters.get("grid_points", 0) + len(todo)
        low = new & (vals > stop)  # values that may be lower bounds
        unresolved = vals - slack <= eps
        qual = np.flatnonzero(vals < eps)
        last = len(qual) > 0 or g == G or not unresolved.any()
        leaf = np.ones(len(idx), dtype=bool) if last else ~unresolved
        if leaf.any():
            if binding is None and low.any():  # stopped points are all leaves
                if not (leaf & ~low).any():
                    j = int(np.argmin(np.where(low, vals, np.inf)))
                    vals[j] = objective(lattice_points(g, dim, idx=idx[j:j + 1]))[0]
                    low[j] = False
                Uv = float(vals[leaf & ~low].min())
                redo = np.flatnonzero(low & (vals <= Uv))
                if len(redo):
                    vals[redo] = objective(lattice_points(g, dim, idx=idx[redo]), stop=Uv)
            i = int(np.argmin(np.where(leaf, vals, np.inf)))
            if binding is None or vals[i] - slack < binding[0]:
                binding = (vals[i] - slack, float(vals[i]), cover, int(idx[i]))
        if len(qual):
            pt = lattice_points(g, dim, idx=idx[qual[:1]])[0]
            note = "witness from grid (lexicographically first qualifying point)"
            return (pt, float(vals[qual[0]]), note), binding[1], binding[2]
        if last:
            break
        pvals = vals[unresolved]
        kids = 2 * np.stack(np.unravel_index(idx[unresolved], (g,) * dim), axis=-1)[:, None, :] + offs
        fine = (2 * g,) * dim
        idx = np.sort(np.ravel_multi_index(tuple(np.moveaxis(kids % (2 * g), -1, 0)), fine), axis=None)
        idx = idx[np.r_[True, idx[1:] != idx[:-1]]]  # np.unique's result; its hash table costs more
        new = (np.stack(np.unravel_index(idx, fine), axis=-1) % 2 == 1).any(axis=1)
        vals = np.empty(len(idx))
        # The even children are exactly 2k for the unresolved parents k, one each
        # and in flat-index order, so the carried values line up by position.
        vals[~new] = pvals
    hit = None
    if unresolved.any():
        rv, rp = _refine(objective, lattice_points(G, dim, idx=[binding[3]])[0], 1.0 / G)
        refined = REFINE_LEVELS * (2 * REFINE_FACTOR + 1) ** dim
        counters["refinement_points"] = counters.get("refinement_points", 0) + refined
        if rv < eps:
            hit = (rp, rv, "witness from refinement around the grid minimum")
    return hit, binding[1], binding[2]


def _certify(gmin: float, cover: float, lip, eps: float):
    """(outcome, note) when nothing tracked: "failed" exactly when the covering certificate holds."""
    if math.isinf(lip):
        return "inconclusive", "no usable Lipschitz bound at this horizon"
    if math.isfinite(gmin) and gmin - lip * cover / 2.0 > eps:
        return "failed", "covering certificate holds"
    return "inconclusive", "grid too coarse to certify at this Lipschitz bound"


def _search(objective, dim: int, eps: float, grid_step: float, candidates, lip_bound: float,
            threads: int, counters: dict):
    """Candidate pass, then covering, then certificate. Returns verdict fields.

    A grid too fine for ``_cover`` is refused only if no candidate tracks.
    An infinite ``lip_bound`` is recorded as None: no usable bound.
    """
    hit = _candidate_pass(objective, candidates, eps, counters)
    grid = {}
    if hit is None:
        G = max(1, int(round(1.0 / grid_step)))
        cap = G if math.isfinite(lip_bound) else int(UNBOUNDED_GRID_CAP ** (1.0 / dim))
        coarsened = f"grid coarsened to {cap} per axis without a Lipschitz bound; " if G > cap else ""
        G = min(G, cap)
        hit, gmin, cover = _cover(objective, dim, G, eps, lip_bound, threads, counters)
        grid = {"min_over_grid": gmin, "grid_step": cover}
        if hit is None:
            outcome, note = _certify(gmin, cover, lip_bound, eps)
            return {"outcome": outcome, "note": coarsened + note,
                    "lipschitz_bound": lip_bound if math.isfinite(lip_bound) else None, **grid}
    pt, v, note = hit
    return {"outcome": "tracked", "witness": TorusPoint.from_array(pt), "achieved": v,
            "note": note, **grid}


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _solver_candidate(driver: SystemMap, targets: np.ndarray, delta_hint: float, counters: dict):
    """Yield ("newton solver", point) when Newton finds a driver orbit near the targets.

    A generator, so Newton runs only if the candidate pass gets this far, and
    the polish (("newton polish", point), non-affine drivers only) only if
    the solver's point misses.
    """
    try:
        po = PseudoOrbit.checked(driver, targets, max(delta_hint * 1.01 + 1e-12, 2 * TRUE_ORBIT_DELTA))
    except ValueError:
        return
    res = shadow_solve_newton(driver, po, tol=1e-9, max_iter=30)
    counters["newton_iterations"] = counters.get("newton_iterations", 0) + res.iterations
    if not res.converged:
        return
    yield "newton solver", res.points[po.horizon]
    if driver.linear_part is not None:
        return  # an affine driver's Newton step is exact, so there is nothing to polish
    polished = _polish(driver, res, counters)
    if polished is not None:
        yield "newton polish", polished[po.horizon]


def _polish(driver: SystemMap, res: NewtonShadowResult, counters: dict):
    """The last further Newton iterate while the residual at least halves, or None if none does.

    The solver ends at its tolerance, but a hyperbolic driver stretches the
    residual left at the middle index over N steps each way, so a witness
    can miss eps that a residual nearer roundoff would carry.
    """
    iterates = _newton_iterates(driver, res.points)
    next(iterates)  # res.points themselves
    best, last = None, res.residual
    for z, residual in iterates:
        counters["newton_iterations"] += 1
        if not (last > 0 and residual <= last / 2):
            return best
        best, last = z, residual


def _run_check(property_name: str, f: SystemMap, m: MethodSpec, x, eps: float,
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
    mode = property_name if property_name in ("weak", "orbital") else "pointwise"

    if property_name == "direct":
        targets = m.evaluate(x0, N).as_array()
        driver = f
    elif m.is_induced:
        targets = orbit_segment(f, x0, N).as_array()
        driver = m.source
    else:
        raise ValueError(f"{property_name} checks need a method with a driver map; the raw method "
                         f"{m.label} has none, and raw methods serve direct checks only")

    candidates = itertools.chain([("anchor", x0)], [("seed", _as_coords(s, f.dim, "seed")) for s in seeds],
                                 _solver_candidate(driver, targets, m.delta, counters))
    T = _fold_targets(targets, N, mode)
    objective = partial(_objective_core, driver, T, N=N, mode=mode,
                        bounds=_once(partial(sq_dist_bounds, T, FOLD_BLOCK)))
    fields = _search(objective, f.dim, eps, grid_step, candidates, horizon_lipschitz_bound(driver, N),
                     workers, counters)
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
    return _run_check("direct", f, m, x, eps, N, grid_step, seeds, threads, counters)


def check_inverse_shadowing(f: SystemMap, m: MethodSpec, x, eps: float, N: int,
                            grid_step: float = 1.0 / 512, *, seeds=(), threads=None,
                            counters=None) -> ShadowVerdict:
    """Does some y's method orbit eps-track the true orbit of x, index by index?"""
    return _run_check("inverse", f, m, x, eps, N, grid_step, seeds, threads, counters)


def check_weak_inverse(f: SystemMap, m: MethodSpec, x, eps: float, N: int,
                       grid_step: float = 1.0 / 512, *, seeds=(), threads=None,
                       counters=None) -> ShadowVerdict:
    """Does some y's method orbit stay inside the eps-neighborhood of the orbit of x?"""
    return _run_check("weak", f, m, x, eps, N, grid_step, seeds, threads, counters)


def check_orbital_inverse(f: SystemMap, m: MethodSpec, x, eps: float, N: int,
                          grid_step: float = 1.0 / 512, *, seeds=(), threads=None,
                          counters=None) -> ShadowVerdict:
    """Do both one-sided eps-inclusions hold between the orbit of x and some method orbit?"""
    return _run_check("orbital", f, m, x, eps, N, grid_step, seeds, threads, counters)
