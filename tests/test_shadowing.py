"""Solvers, tracking objectives, Lipschitz bounds, and the certified checkers.

Oracles here are deliberately dumb: python loops over explicit orbit lists
with the scalar metric, checked against the vectorized objectives.  Frozen
constants in the verdict tests were produced by those oracles and by hand
calculations on the affine drift construction.
"""

import itertools
import json
import math
import os
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowlab import (
    GOLDEN_ROTATION,
    TRUE_ORBIT_DELTA,
    PseudoOrbit,
    ShadowVerdict,
    TorusPoint,
    anosov_certificate_linear,
    cat_map,
    check_direct_shadowing,
    check_inverse_shadowing,
    check_orbital_inverse,
    check_weak_inverse,
    circle_identity,
    dist_array,
    horizon_lipschitz_bound,
    make_conservative_perturbation,
    make_rotation,
    make_translation_method_map,
    method_from_map,
    orbit_segment,
    orbital_objective,
    random_method,
    resolve_threads,
    shadow_solve_newton,
    shear_map,
    torus_identity,
    tracking_objective,
    weak_objective,
)
from shadowlab import cli, shadowing
from shadowlab.geometry import lattice_points, reduce_to_unit, sq_dist_array, sq_dist_bounds
from shadowlab.orbits import _orbit_steps
from shadowlab.shadowing import _cover, _min_norm_newton_step
from shadowlab.systems import _shift_vector

K_CAT = 1.618033988749895  # C / (1 - rate) of the Anosov certificate of [[2,1],[1,1]]


def drift_method(base, delta, N):
    """Method induced by a small conservative translation of the base map."""
    return method_from_map(base, make_translation_method_map(base, delta), N)


# ---------------------------------------------------------------------------
# tracking constant from the Anosov certificate
# ---------------------------------------------------------------------------


def test_tracking_constant_for_cat_matrix():
    cert = anosov_certificate_linear(cat_map().linear_part)
    assert cert.C / (1.0 - cert.rate) == K_CAT
    # orthonormal eigenbasis (symmetric matrix), so K is the golden ratio
    assert K_CAT == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_affine_solver_respects_tracking_bound(seed):
    """Newton on the affine cat map: achieved <= K * delta at a horizon where
    naive re-iteration is useless."""
    f = cat_map()
    po = random_method(f, 1e-3, seed).evaluate((0.2, 0.3), 50)
    res = shadow_solve_newton(f, po)
    y = res.points[po.horizon]
    assert 0.0 < res.achieved <= K_CAT * 1e-3
    # independent re-check on the central window, where float iteration of the
    # cat map is still trustworthy (growth 2.618^8 * eps_mach << achieved)
    window = tracking_objective(f, po.as_array()[42:59], y, 8)
    assert window <= res.achieved + 1e-9


# ---------------------------------------------------------------------------
# sequence-space newton solver
# ---------------------------------------------------------------------------


def test_newton_converges_immediately_on_true_orbit():
    f = cat_map()
    pts = orbit_segment(f, np.array([0.2, 0.3]), 12).as_array()
    po = PseudoOrbit.checked(f, pts, TRUE_ORBIT_DELTA)
    res = shadow_solve_newton(f, po)
    assert res.converged
    assert res.iterations == 0
    assert res.residual <= 1e-12
    assert res.achieved <= 1e-12


def test_newton_tracks_random_noise():
    f = cat_map()
    po = random_method(f, 1e-3, 7).evaluate((0.1, 0.6), 20)
    res = shadow_solve_newton(f, po)
    assert res.converged
    assert res.iterations == 1
    assert res.achieved == pytest.approx(0.0008505908192623728, rel=1e-9)
    assert res.achieved <= K_CAT * 1e-3
    # the output really is a true orbit: one-step gaps at roundoff scale
    gaps = dist_array(f.forward(res.points[:-1]), res.points[1:])
    assert float(gaps.max()) <= 1e-12


def test_newton_tracks_perturbed_map_orbit():
    f = cat_map()
    g = make_conservative_perturbation(f, 1e-3, "shear-sin", seed=3)
    m = method_from_map(f, g, 10)
    res = shadow_solve_newton(f, m.evaluate((0.3, 0.8), 10))
    assert res.converged
    assert res.achieved == pytest.approx(0.0011098947252237016, rel=1e-9)
    assert res.achieved <= K_CAT * m.delta
    gaps = dist_array(f.forward(res.points[:-1]), res.points[1:])
    assert float(gaps.max()) <= 1e-12


def test_newton_zero_budget_reports_nonconvergence():
    f = cat_map()
    po = random_method(f, 1e-3, 7).evaluate((0.1, 0.6), 20)
    res = shadow_solve_newton(f, po, max_iter=0)
    assert not res.converged
    assert res.iterations == 0
    assert res.residual > 1e-10


def _dense_min_norm_step(A, r):
    """Reference step: the dense (n*d) x ((n+1)*d) Jacobian with rows [-A_i, I], by lstsq."""
    n, d, _ = A.shape
    J = np.zeros((n * d, (n + 1) * d))
    for i in range(n):
        J[i * d:(i + 1) * d, i * d:(i + 1) * d] = -A[i]
        J[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = np.eye(d)
    delta, *_ = np.linalg.lstsq(J, -r.ravel(), rcond=None)
    return delta.reshape(n + 1, d)


@pytest.mark.parametrize(
    "g",
    [
        cat_map(),
        shear_map(),
        make_conservative_perturbation(cat_map(), 1e-3, "shear-sin", seed=3),
        make_rotation(GOLDEN_ROTATION),
    ],
    ids=["cat", "shear", "cat-shear-sin", "circle"],
)
def test_newton_step_matches_dense_least_squares(g):
    rng = np.random.default_rng(11)
    for n in range(1, 41):
        z = rng.random((n, g.dim))
        A = np.asarray(g.differential(z), dtype=float).reshape(n, g.dim, g.dim)
        r = rng.normal(scale=1e-3, size=(n, g.dim))
        ref = _dense_min_norm_step(A, r)
        step = _min_norm_newton_step(A, r)
        assert step.shape == (n + 1, g.dim)
        # J J^T squares the conditioning of J; 1e-10 relative covers the shear at n = 40
        assert np.abs(step - ref).max() <= 1e-10 * np.abs(ref).max(), n
        assert np.abs(step[1:] - (A @ step[:-1, :, None])[:, :, 0] + r).max() <= 1e-15 + 1e-12 * np.abs(r).max()


@pytest.mark.parametrize("d", [1, 2])
def test_newton_step_matches_dense_least_squares_on_random_blocks(d):
    rng = np.random.default_rng(d)
    for n in range(1, 41):
        A = rng.normal(size=(n, d, d))
        r = rng.normal(size=(n, d))
        ref = _dense_min_norm_step(A, r)
        assert np.abs(_min_norm_newton_step(A, r) - ref).max() <= 1e-10 * np.abs(ref).max(), n


def test_newton_long_horizon_converges_in_two_iterations():
    # shear with perturb:shear-sin:0.001:0 at N = 300; the anchor puts |sin| = 1
    f = shear_map()
    g = make_conservative_perturbation(f, 0.001, "shear-sin", seed=0)
    assert g.descriptor["axis"] == 1
    x = np.array([(0.25 - g.descriptor["phase"]) % 1.0, 0.3])
    N = 300
    m = method_from_map(f, g, N)
    po = PseudoOrbit.checked(g, orbit_segment(f, x, N).as_array(), m.delta * 1.01 + 1e-12)
    res = shadow_solve_newton(g, po, tol=1e-9, max_iter=30)
    assert res.converged
    assert res.iterations == 2
    assert res.achieved < 0.1
    gaps = dist_array(g.forward(res.points[:-1]), res.points[1:])
    assert float(gaps.max()) <= 1e-9


# ---------------------------------------------------------------------------
# objectives vs a loop-and-scalar oracle
# ---------------------------------------------------------------------------


def _brute_orbit(g, y, N):
    fwd = [np.asarray(y, dtype=float)]
    for _ in range(N):
        fwd.append(g.forward(fwd[-1]) % 1.0)
    bwd = []
    z = fwd[0]
    for _ in range(N):
        z = g.backward(z) % 1.0
        bwd.append(z)
    return bwd[::-1] + fwd


def _brute_tracking(g, targets, y, N):
    orb = _brute_orbit(g, y, N)
    return max(float(dist_array(p, t)) for p, t in zip(orb, targets))


def _brute_weak(g, targets, y, N):
    orb = _brute_orbit(g, y, N)
    return max(min(float(dist_array(p, t)) for t in targets) for p in orb)


def _brute_orbital(g, targets, y, N):
    orb = _brute_orbit(g, y, N)
    rev = max(min(float(dist_array(p, t)) for p in orb) for t in targets)
    return max(_brute_weak(g, targets, y, N), rev)


def test_objectives_hand_case_quarter_rotation():
    rot = make_rotation(0.25)
    targets = orbit_segment(rot, np.array([0.5]), 2).as_array()
    y = np.array([0.6])
    assert tracking_objective(rot, targets, y, 2) == pytest.approx(0.1, abs=1e-12)
    assert weak_objective(rot, targets, y, 2) == pytest.approx(0.1, abs=1e-12)
    assert orbital_objective(rot, targets, y, 2) == pytest.approx(0.1, abs=1e-12)


def _objective_systems():
    return [
        (cat_map(), np.array([0.2, 0.3]), 4),
        (make_rotation(GOLDEN_ROTATION), np.array([0.1]), 6),
        (make_conservative_perturbation(cat_map(), 1e-2, "shear-sin", seed=1),
         np.array([0.4, 0.7]), 3),
    ]


@pytest.mark.parametrize("g,x,N", _objective_systems())
def test_objectives_match_brute_force(g, x, N):
    targets = orbit_segment(g, x, N).as_array()
    rng = np.random.default_rng(11)
    for y in rng.random((8, g.dim)):
        assert tracking_objective(g, targets, y, N) == pytest.approx(
            _brute_tracking(g, targets, y, N), abs=1e-12)
        assert weak_objective(g, targets, y, N) == pytest.approx(
            _brute_weak(g, targets, y, N), abs=1e-12)
        assert orbital_objective(g, targets, y, N) == pytest.approx(
            _brute_orbital(g, targets, y, N), abs=1e-12)


def test_objective_batch_matches_scalar_calls():
    f = cat_map()
    targets = orbit_segment(f, np.array([0.2, 0.3]), 5).as_array()
    ys = np.random.default_rng(2).random((6, 2))
    batch = tracking_objective(f, targets, ys, 5)
    assert batch.shape == (6,)
    for i in range(6):
        assert batch[i] == pytest.approx(tracking_objective(f, targets, ys[i], 5), abs=0)


def test_objective_rejects_wrong_target_count():
    f = cat_map()
    targets = orbit_segment(f, np.array([0.2, 0.3]), 5).as_array()
    with pytest.raises(ValueError):
        tracking_objective(f, targets, np.array([0.1, 0.1]), 4)


_CHAIN_TARGETS = orbit_segment(cat_map(), np.array([0.2, 0.3]), 6).as_array()


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True))
def test_objective_domination_chain(a, b):
    """weak <= orbital <= tracking, pointwise in the candidate."""
    f = cat_map()
    y = np.array([a, b])
    w = weak_objective(f, _CHAIN_TARGETS, y, 6)
    o = orbital_objective(f, _CHAIN_TARGETS, y, 6)
    t = tracking_objective(f, _CHAIN_TARGETS, y, 6)
    assert w <= o + 1e-12
    assert o <= t + 1e-12


def test_objective_monotone_in_horizon():
    sh = shear_map()
    g = make_translation_method_map(sh, 0.01)
    targets = {N: orbit_segment(sh, np.zeros(2), N).as_array() for N in (5, 15, 25)}
    for y in np.random.default_rng(3).random((20, 2)):
        o5 = tracking_objective(g, targets[5], y, 5)
        o15 = tracking_objective(g, targets[15], y, 15)
        o25 = tracking_objective(g, targets[25], y, 25)
        assert o5 <= o15 + 1e-12 <= o25 + 2e-12


@pytest.mark.parametrize("mode", ["pointwise", "weak", "orbital"])
def test_objective_with_stop_is_exact_or_a_lower_bound_above_stop(mode):
    sh = shear_map()
    g = make_translation_method_map(sh, 0.01)
    targets = shadowing._fold_targets(orbit_segment(sh, np.array([0.2, 0.3]), 25).as_array(), 25, mode)
    ys = lattice_points(64, 2)
    exact = shadowing._objective_core(g, targets, ys, 25, mode)
    assert np.array_equal(exact, shadowing._objective_core(g, targets, ys, 25, mode, stop=math.inf))

    def lowered_by(stop, value, exact):
        kept = value <= stop
        assert np.array_equal(value[kept], exact[kept])
        assert (value[~kept] <= exact[~kept]).all()
        assert np.array_equal(kept, exact <= stop)
        return int((value < exact).sum())

    lowered = 0
    for stop in np.quantile(exact, [0.05, 0.3, 0.6, 0.95]):
        lowered += lowered_by(stop, shadowing._objective_core(g, targets, ys, 25, mode, stop=stop), exact)
        # one point, which in the set modes folds with no table
        one = np.array([shadowing._objective_core(g, targets, y, 25, mode, stop=stop) for y in ys[::16]])
        lowered += lowered_by(stop, one, exact[::16])
    assert lowered > 0


def test_fold_ends_only_once_every_candidate_has_passed_stop():
    """All or nothing: a pointwise fold with one candidate at or below stop is exact for every candidate.

    With a stop below every candidate's max over the first step block, the
    fold returns those maxes and draws no step past that block.
    """
    N = 25
    sh = shear_map()
    g = make_translation_method_map(sh, 0.01)
    x = np.array([0.2, 0.3])
    T = shadowing._fold_targets(orbit_segment(sh, x, N).as_array(), N, "pointwise")
    ys = np.concatenate([x[None, :], np.random.default_rng(5).random((7, 2))])
    drawn = []

    def steps():
        for i, z in _orbit_steps(g, ys, N):
            drawn.append(i)
            yield i, z

    exact = shadowing._fold_objective(T, steps(), len(ys))
    assert len(drawn) == 2 * N + 1
    stop = float(np.sqrt(exact[0]))  # the anchor never passes it; the others do
    assert (np.sqrt(exact[1:]) > stop).all()
    assert np.array_equal(shadowing._fold_objective(T, _orbit_steps(g, ys, N), len(ys), stop), exact)
    size = max(1, min(shadowing.STEP_BLOCK, shadowing.FOLD_BLOCK // len(ys)))
    assert size < 2 * N + 1
    first = list(itertools.islice(_orbit_steps(g, ys, N), size))
    reached = shadowing._fold_objective(T, first, len(ys))
    drawn.clear()
    low = shadowing._fold_objective(T, steps(), len(ys), float(np.sqrt(reached.min())) / 2)
    assert len(drawn) == size
    assert np.array_equal(low, reached) and (low <= exact).all()


def _newton_long_method(N):
    """The shear and its pinned shear-sin method, whose driver is not affine."""
    f = shear_map()
    return f, cli.parse_method_spec("perturb:shear-sin:0.001:0", f, N, 0)


def _array_steps(g, ys, N):
    """(i, positions of ys) in orbit order, by the array actions alone, for any number of points."""
    yield N, ys
    for act, sign in ((g.forward, 1), (g.backward, -1)):
        z = ys
        for k in range(1, N + 1):
            z = act(z)
            yield N + sign * k, z


def _reference_fold(g, targets, ys, N, mode):
    """The objective with one sq_dist_array call per orbit step, in orbit order.

    It walks by the array actions, so for one point it checks the one-point walk as well.
    """
    uniq = np.unique(targets, axis=0)
    run = np.zeros(len(ys))
    rmin = np.full((len(ys), len(uniq)), np.inf)
    for i, z in _array_steps(g, ys, N):
        if mode == "pointwise":
            run = np.maximum(run, sq_dist_array(z, targets[i]))
        else:
            D = sq_dist_array(z[:, None, :], uniq)
            run = np.maximum(run, D.min(axis=1))
            rmin = np.minimum(rmin, D)
    if mode == "orbital":
        run = np.maximum(run, rmin.max(axis=1))
    return np.sqrt(run)


def _assert_matches_reference_fold(g, targets, ys, N, mode, quantiles):
    """_objective_core against _reference_fold: exact with stop None, the stop contract with stops.

    With a stop at each quantile of the exact values, a value at or below stop
    is exact bit for bit and one above it is a lower bound of the exact value.
    """
    exact = _reference_fold(g, targets, ys, N, mode)
    T = shadowing._fold_targets(targets, N, mode)
    assert np.array_equal(shadowing._objective_core(g, T, ys, N, mode), exact)
    for stop in quantiles(exact):
        value = shadowing._objective_core(g, T, ys, N, mode, stop=stop)
        kept = value <= stop
        assert np.array_equal(kept, exact <= stop)
        assert np.array_equal(value[kept], exact[kept])
        assert (value[~kept] <= exact[~kept]).all()


def _quarter_stops(exact):
    return list(np.quantile(exact, [0.05, 0.3, 0.6, 0.95]))


# The targets lie on a shear orbit of period 32, so the set modes compare
# with at most 32 distinct targets and FOLD_BLOCK + 1 points stay cheap at
# N = 300; a step block holds 1, 21 or STEP_BLOCK steps across the cases.
@pytest.mark.parametrize("N", [1, 25, 300])
@pytest.mark.parametrize("n", [1, 3, shadowing.FOLD_BLOCK + 1])
@pytest.mark.parametrize("mode", ["pointwise", "weak", "orbital"])
def test_objective_core_matches_a_per_step_reference_fold(mode, n, N):
    f, m = _newton_long_method(N)
    targets = orbit_segment(f, np.array([1 / 32, 5 / 16]), N).as_array()
    ys = np.random.default_rng(1000 * n + N).random((n, 2))

    def stops(exact):
        q = float(np.quantile(exact, 0.3))
        return [q, q / 2]

    _assert_matches_reference_fold(m.source, targets, ys, N, mode, stops)


# The golden rotation's orbit has 2N + 1 distinct points; half the candidates
# sit on lattice points k/64, which lie on the edges of the bound table's cells.
@pytest.mark.parametrize("N,n", [(1, shadowing.FOLD_BLOCK + 1), (25, 3), (25, shadowing.FOLD_BLOCK + 1),
                                 (300, 1), (300, 64)])
@pytest.mark.parametrize("mode", ["weak", "orbital"])
def test_objective_core_matches_a_per_step_reference_fold_on_the_circle(mode, N, n):
    f = make_rotation(GOLDEN_ROTATION)
    g = make_translation_method_map(f, 0.01)
    targets = orbit_segment(f, np.array([0.3]), N).as_array()
    rng = np.random.default_rng(7 * n + N)
    ys = np.concatenate([rng.random((n - n // 2, 1)), rng.integers(0, 64, (n // 2, 1)) / 64])
    _assert_matches_reference_fold(g, targets, ys, N, mode, _quarter_stops)


# A non-periodic anchor of the shear at N = 300, so the set modes compare with
# 601 distinct targets; both methods' orbits are compared with the shear's.
_LONG_ANCHOR = np.array([0.7621155845848191, 0.7847298237460361])


@pytest.mark.parametrize("method", ["translate:0.01", "perturb:shear-sin:0.001:0"])
@pytest.mark.parametrize("mode", ["weak", "orbital"])
def test_objective_core_matches_a_per_step_reference_fold_with_601_targets(mode, method):
    N = 300
    f = shear_map()
    g = cli.parse_method_spec(method, f, N, 0).source
    targets = orbit_segment(f, _LONG_ANCHOR, N).as_array()
    assert len(shadowing._fold_targets(targets, N, mode)) == 2 * N + 1
    rng = np.random.default_rng(601)
    ys = np.concatenate([rng.random((32, 2)), lattice_points(64, 2, idx=rng.integers(0, 64 ** 2, 32))])
    ys[:4] += [[3.0, -2.0]]  # lifts outside [0, 1): their first position gets no cell bound
    _assert_matches_reference_fold(g, targets, ys, N, mode, _quarter_stops)


def test_objective_core_matches_a_per_step_reference_fold_where_the_reverse_inclusion_sets_the_value():
    """A method orbit spanning 0.05 of the circle against a golden-rotation orbit spread over all of it.

    Some target lies far from every method position, so every point's
    reverse value exceeds its weak value, no point leaves the reverse
    inclusion early, and its fold runs over every step.
    """
    N = 25
    g = make_translation_method_map(circle_identity(), 0.001)
    targets = orbit_segment(make_rotation(GOLDEN_ROTATION), np.array([0.3]), N).as_array()
    ys = np.random.default_rng(26).random((shadowing.FOLD_BLOCK + 1, 1))
    weak, orbital = (_reference_fold(g, targets, ys, N, mode) for mode in ("weak", "orbital"))
    assert (orbital > weak).all()
    _assert_matches_reference_fold(g, targets, ys, N, "orbital", _quarter_stops)


def test_orbital_check_stops_the_reverse_inclusion_once_it_cannot_raise_the_value(monkeypatch):
    """A sweep-set orbital check (seed 0) on the torus, with the reverse inclusion's distance elements counted.

    The circle covering, which would certify this check first, is switched
    off, so the torus covering runs as it does where no circle certifies.
    The points that reach the reverse inclusion are those whose weak value is
    at or below stop, found by folding the same points in weak mode.  Folding
    every step would compute (2N+1) * targets elements for each of them; a
    point leaves once every target lies within its weak value.
    """
    N = 25
    f = shear_map()
    m = method_from_map(f, make_translation_method_map(f, 0.01), N)
    fold, dist = shadowing._set_fold, shadowing.sq_dist_array
    counts = {"points": 0, "elements": 0}
    mode_now = []

    def counted_fold(g, targets, Y, N, mode, stop, table):
        if mode == "orbital":
            weak = fold(g, targets, Y, N, "weak", stop, table)
            counts["points"] += int((np.sqrt(weak) <= stop).sum())
            counts["full"] = (2 * N + 1) * len(targets)
        mode_now.append(mode)
        try:
            return fold(g, targets, Y, N, mode, stop, table)
        finally:
            mode_now.pop()

    def counted_dist(a, b):
        d = dist(a, b)
        if mode_now == ["orbital"] and np.ndim(a) == 4:  # the reverse inclusion's (steps, points, targets)
            counts["elements"] += d.size
        return d

    monkeypatch.setattr(shadowing, "_set_fold", counted_fold)
    monkeypatch.setattr(shadowing, "sq_dist_array", counted_dist)
    monkeypatch.setattr(shadowing, "_circle_covering", lambda *args: {})  # the torus covering's folds
    x = (0.8646777328161376, 0.5735598523880991)
    v = check_orbital_inverse(f, m, x, eps=0.1, N=N, grid_step=1 / 128, threads=1)
    assert v.outcome == "failed"
    assert counts["points"] > 1000 and counts["full"] == (2 * N + 1) ** 2
    assert 5 * counts["elements"] <= counts["points"] * counts["full"]


def test_set_fold_of_one_block_with_601_targets_stays_below_its_memory_bound():
    """Building the table and folding one FOLD_BLOCK block, traced by tracemalloc.

    With B = FOLD_BLOCK points, N = 300 and T = 601 targets the fold holds
    the positions, P = (2N+1) * B * dim * 8 bytes, and their table cells,
    C = (2N+1) * B * 4.  On top of those, a step block of pairs needs at most
    S = STEP_BLOCK * B * 64 bytes (masks, pair indices, gathered positions),
    and ``sq_dist_array`` on one fold block of pairs at most three arrays of
    F = FOLD_BLOCK * T * 8 bytes.  The table is built first, with at most two
    such arrays.  So weak mode stays below P + C + S + 3F, 58.3 MB; a table
    built as one (H, H, T) array alone takes 78.8 MB.  The drifting method
    keeps that fold short: only the farthest steps of each point are folded.
    Orbital mode then frees the cells and folds the reverse inclusion one
    step at a time: a (B, T) running minimum, F bytes, and one step's
    distances, at most 3F.  A point whose targets all lie within its weak
    value drops out, and the live rows move to the front of the minimum
    through one copy of them, at most F, taken after that step's distances
    are freed.  So it stays below P + S + max(C, F) + 3F, 63.3 MB.
    """
    import tracemalloc

    N, B = 300, shadowing.FOLD_BLOCK
    f = shear_map()
    g = make_translation_method_map(f, 0.01)
    ys = np.random.default_rng(2).random((B, 2))
    steps = 2 * N + 1
    for mode, limit in (("weak", 58.4e6), ("orbital", 63.3e6)):
        T = shadowing._fold_targets(orbit_segment(f, _LONG_ANCHOR, N).as_array(), N, mode)
        P, C, S, F = steps * B * 2 * 8, steps * B * 4, shadowing.STEP_BLOCK * B * 64, B * len(T) * 8
        bound = P + S + 3 * F + (C if mode == "weak" else max(C, F))
        tracemalloc.start()
        try:
            shadowing._objective_core(g, T, ys, N, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(T) == 601 and bound < limit
        assert peak < bound, mode


def test_weak_check_whose_anchor_tracks_never_builds_the_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the bound table was built")

    f = shear_map()
    m = method_from_map(f, make_translation_method_map(f, 0.01), 25)
    monkeypatch.setattr(shadowing, "sq_dist_bounds", no_table)
    counters = {}
    v = check_weak_inverse(f, m, (0.2, 0.3), eps=0.5, N=25, grid_step=1 / 128, threads=2, counters=counters)
    assert v.outcome == "tracked" and v.note == "witness from anchor"
    assert counters == {"candidate_evaluations": 1}


@pytest.mark.parametrize("prop", ["direct", "inverse", "weak", "orbital"])
def test_a_set_check_settled_by_a_newton_candidate_never_builds_the_table(monkeypatch, prop):
    """The golden check-orbital-cat-perturbed-newton case, in all four properties.

    The anchor misses and the Newton solver's point tracks, so the covering
    never runs: neither its horizon Lipschitz bound nor, in the set modes,
    its bound table is computed.  There each of the two one-point
    evaluations is one ``_set_fold`` call with no table.
    """
    def covering_only(*args, **kwargs):
        raise AssertionError("a covering input was computed")

    fold, folds = shadowing._set_fold, []

    def counted_fold(g, targets, Y, N, mode, stop, table):
        folds.append((len(Y), mode, stop, table))
        return fold(g, targets, Y, N, mode, stop, table)

    monkeypatch.setattr(shadowing, "sq_dist_bounds", covering_only)
    monkeypatch.setattr(shadowing, "horizon_lipschitz_bound", covering_only)
    monkeypatch.setattr(shadowing, "_set_fold", counted_fold)
    f = cat_map()
    m = cli.parse_method_spec("perturb:shear-sin:0.001", f, 30, 0)
    counters = {}
    v = cli._CHECKERS[prop](f, m, (0.2, 0.3), eps=0.1, N=30, grid_step=1 / 64, threads=1, counters=counters)
    assert v.outcome == "tracked" and v.note == "witness from newton solver"
    assert counters["candidate_evaluations"] == 2 and "grid_points" not in counters
    assert folds == ([(1, prop, 0.1, None)] * 2 if prop in ("weak", "orbital") else [])


@pytest.mark.parametrize("prop", ["weak", "orbital"])
def test_a_covering_check_builds_the_table_once(monkeypatch, prop):
    """A drift of the identity along an angle: no circle factor certifies it, the torus covering does.

    Each axis sees about 0.7 of the drift N * delta = 0.25, below eps = 0.2,
    so both circle coverings find a point under eps and the check falls
    through to the torus covering, which builds its table once.
    """
    built = []

    def counted(*args, **kwargs):
        built.append(len(args[0]))
        return sq_dist_bounds(*args, **kwargs)

    f = torus_identity()
    m = cli.parse_method_spec("perturb:translation:0.01:7", f, 25, 0)
    monkeypatch.setattr(shadowing, "sq_dist_bounds", counted)
    check = check_weak_inverse if prop == "weak" else check_orbital_inverse
    counters = {}
    v = check(f, m, (0.0, 0.0), eps=0.2, N=25, grid_step=1 / 64, threads=2, counters=counters)
    assert v.outcome == "failed" and v.certificate is None and counters["grid_points"] > 0
    assert len(built) == 1


@pytest.mark.parametrize("prop", ["weak", "orbital"])
def test_a_circle_certificate_builds_no_table_and_no_horizon_bound(monkeypatch, prop):
    def torus_only(*args, **kwargs):
        raise AssertionError("a torus covering input was computed")

    f = shear_map()
    m = method_from_map(f, make_translation_method_map(f, 0.01), 25)
    monkeypatch.setattr(shadowing, "sq_dist_bounds", torus_only)
    monkeypatch.setattr(shadowing, "horizon_lipschitz_bound", torus_only)
    check = check_weak_inverse if prop == "weak" else check_orbital_inverse
    counters = {}
    v = check(f, m, (0.2, 0.3), eps=0.1, N=25, grid_step=1 / 128, threads=2, counters=counters)
    assert (v.outcome, v.certificate, v.functional, v.lipschitz_bound) == ("failed", "circle", (1, 0), 1.0)
    assert 0 < counters["grid_points"] < 10


def test_missing_anchor_stops_walking_and_the_newton_witness_walks_its_orbit():
    """The golden check-inverse-shear-sin-long case, with the driver's steps counted.

    One-point walks step through ``point_forward`` / ``point_backward`` and
    batches through ``forward`` / ``backward``, so all four are counted.
    """
    N = 300
    f, m = _newton_long_method(N)
    driver = m.source
    assert driver.point_forward is not None
    points = []  # points per map step, in call order
    for attr in ("forward", "backward"):
        def counted(z, act=getattr(driver, attr)):
            points.append(len(np.atleast_2d(z)))
            return act(z)
        object.__setattr__(driver, attr, counted)
    for attr in ("point_forward", "point_backward"):
        def counted_point(p, act=getattr(driver, attr)):
            points.append(1)
            return act(p)
        object.__setattr__(driver, attr, counted_point)
    counters = {}
    x = (0.7621155845848191, 0.7847298237460361)
    v = check_inverse_shadowing(f, m, x, eps=0.1, N=N, grid_step=1 / 64, threads=1, counters=counters)
    golden = json.loads((Path(__file__).parent / "golden" / "check-inverse-shear-sin-long.json").read_text())
    assert v.to_record() == {k: golden[k] for k in v.to_record()}
    assert counters == golden["timings"]
    # single-point steps: the anchor's walk before Newton, the witness's after it
    anchor = next(k for k, p in enumerate(points) if p > 1)
    witness = next(k for k, p in enumerate(reversed(points)) if p > 1)
    assert set(points[:anchor]) == set(points[len(points) - witness:]) == {1}
    assert anchor < N
    assert witness == 2 * N


@pytest.mark.parametrize("mode", ["pointwise", "weak", "orbital"])
def test_candidate_pass_misses_at_eps_and_hits_just_below_with_the_exact_value(mode):
    N = 300
    f, m = _newton_long_method(N)
    x = np.array([0.7621155845848191, 0.7847298237460361])
    T = shadowing._fold_targets(orbit_segment(f, x, N).as_array(), N, mode)
    objective = partial(shadowing._objective_core, m.source, T, N=N, mode=mode)
    far, y = x + [0.5, 0.0], x + 0.001  # far's orbit keeps 0.5 from every target
    v = float(objective(y[None, :])[0])
    candidates = [("anchor", far), ("seed", y)]
    counters = {}
    assert shadowing._candidate_pass(objective, candidates, v, counters) is None
    hit = shadowing._candidate_pass(objective, candidates, np.nextafter(v, 1.0), counters)
    assert hit[0] is y and hit[1] == v and hit[2] == "witness from seed"
    assert counters == {"candidate_evaluations": 4}


# ---------------------------------------------------------------------------
# horizon lipschitz bounds
# ---------------------------------------------------------------------------


def test_shear_bound_is_exact_matrix_power_norm():
    L = horizon_lipschitz_bound(shear_map(), 25)
    assert L == pytest.approx(25.039936203984453, rel=1e-12)
    oracle = np.linalg.norm(np.linalg.matrix_power(np.array(shear_map().linear_part, dtype=float), 25), 2)
    assert L == pytest.approx(float(oracle), rel=1e-12)


def test_cat_bound_is_top_eigenvalue_power():
    L = horizon_lipschitz_bound(cat_map(), 5)
    assert L == pytest.approx(122.99186938124421, rel=1e-12)
    assert L == pytest.approx(((3.0 + math.sqrt(5.0)) / 2.0) ** 5, rel=1e-10)


def test_affine_bound_never_lapses():
    # useless for certification, but still reported; the checker is the one
    # that decides a certificate cannot be issued
    L = horizon_lipschitz_bound(cat_map(), 30)
    assert math.isfinite(L)
    assert L == pytest.approx(3461452808002.0, rel=1e-9)


@pytest.mark.parametrize("N", [185, 200, 700])
def test_cat_bound_stays_finite_once_its_powers_pass_1e77(N):
    """The exact bound ((3 + sqrt 5) / 2)**N is a finite float up to N = 737, past the closed form's old overflow."""
    L = horizon_lipschitz_bound(cat_map(), N)
    assert L == pytest.approx(((3.0 + math.sqrt(5.0)) / 2.0) ** N, rel=1e-9)


@pytest.mark.parametrize("N", [738, 2000])
def test_cat_bound_past_float_range_is_infinite_without_a_warning(N):
    """From N = 738 the cat's powers themselves overflow: no usable bound, and no RuntimeWarning."""
    assert horizon_lipschitz_bound(cat_map(), N) == math.inf


def test_isometries_have_unit_bound():
    assert horizon_lipschitz_bound(torus_identity(), 40) == 1.0
    assert horizon_lipschitz_bound(make_rotation(GOLDEN_ROTATION), 40) == 1.0
    assert horizon_lipschitz_bound(circle_identity(), 7) == 1.0


def test_generic_bound_grows_and_caps_out():
    p = make_conservative_perturbation(cat_map(), 1e-3, "shear-sin", seed=5)
    lip = max(p.lip_forward, p.lip_backward, 1.0)
    assert horizon_lipschitz_bound(p, 3) == pytest.approx(lip ** 3, rel=1e-12)
    n_cap = int(25.0 / math.log(lip))
    assert math.isfinite(horizon_lipschitz_bound(p, n_cap))
    assert horizon_lipschitz_bound(p, n_cap + 1) == math.inf


# ---------------------------------------------------------------------------
# tracked verdicts: candidate routes in precedence order
# ---------------------------------------------------------------------------


def test_witness_from_anchor_for_the_trivial_method():
    f = cat_map()
    counters = {}
    v = check_inverse_shadowing(f, method_from_map(f, f, 10), (0.2, 0.3), 0.1, 10,
                                counters=counters)
    assert v.outcome == "tracked"
    assert v.achieved == 0.0
    assert v.note == "witness from anchor"
    assert v.witness.coords == (0.2, 0.3)
    assert counters == {"candidate_evaluations": 1}
    assert "min_over_grid" not in v.to_record()  # no sweep ran


def test_witness_from_seed_takes_precedence_over_solver():
    sh = shear_map()
    m = drift_method(sh, 0.01, 5)
    seed_pt = (0.004545454545454529, 0.95)
    v = check_inverse_shadowing(sh, m, (0.0, 0.0), 0.1, 5, seeds=[seed_pt])
    assert v.outcome == "tracked"
    assert v.note == "witness from seed"
    assert v.witness.coords == seed_pt
    assert v.achieved == pytest.approx(0.09090909090909081, rel=1e-12)


def test_witness_from_newton_solver_on_the_shear():
    sh = shear_map()
    v = check_inverse_shadowing(sh, drift_method(sh, 0.01, 5), (0.0, 0.0), 0.1, 5)
    assert v.outcome == "tracked"
    assert v.note == "witness from newton solver"
    assert v.achieved == pytest.approx(0.09090909090909081, rel=1e-9)
    assert v.witness.coords == pytest.approx((0.004545454545454529, 0.95), abs=1e-9)


def test_witness_from_newton_solver_on_the_cat():
    f = cat_map()
    m = drift_method(f, 0.01, 10)
    v = check_inverse_shadowing(f, m, (0.2, 0.3), 0.1, 10)
    assert v.outcome == "tracked"
    assert v.note == "witness from newton solver"
    assert v.achieved == pytest.approx(0.009999086465999457, rel=1e-9)
    assert v.achieved <= K_CAT * m.delta


def test_anchor_wins_when_eps_is_loose():
    # anchor objective for the shear drift at N=5 is hypot(0.05, 0.15)
    sh = shear_map()
    v = check_inverse_shadowing(sh, drift_method(sh, 0.01, 5), (0.0, 0.0), 0.2, 5)
    assert v.outcome == "tracked"
    assert v.note == "witness from anchor"
    assert v.achieved == pytest.approx(math.sqrt(0.025), rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the tracked test compares a float64 error with eps")
def test_a_tracked_verdict_holds_in_exact_arithmetic():
    """check inverse --system identity2 --method perturb:translation:0.003:21
    --x 0.297800,0.829515 --eps 0.03 --N 10 --grid 64 tracks from the anchor
    with achieved 0.029999999999999943.  The method translates by the float
    vector v, so y's exact error is max over |k| <= 10 of d(y + k*v, x),
    least at y = x, where it is |10*v|, and that exceeds eps: nothing tracks.
    """
    f = cli.parse_system_spec("identity2")
    m = cli.parse_method_spec("perturb:translation:0.003:21", f, 10, 0)
    v = _shift_vector(0.003, m.source.descriptor["angle"])
    assert 100 * sum(Fraction(float(c)) ** 2 for c in v) > Fraction(0.03) ** 2
    verdict = check_inverse_shadowing(f, m, (0.2978, 0.829515), 0.03, 10, grid_step=1 / 64)
    assert verdict.outcome != "tracked"


def test_grid_witness_is_first_qualifying_not_argmin():
    """The tracking error of (0.45, 0.5) on the identity, N = 2, under orbits
    that sweep in steps of 0.4 along the first axis when started left of 1/2
    and sit still otherwise; with no usable bound the covering is one sweep."""
    target = np.array([0.45, 0.5])

    def objective(ys, stop=math.inf):
        sweep = np.where(ys[:, :1] < 0.5, [0.4, 0.0], 0.0)
        return np.max([dist_array(ys + k * sweep, target) for k in range(-2, 3)], axis=0)

    hit, _, _ = _cover(objective, 2, 8, 0.2, math.inf, 1, {})
    assert hit[2] == "witness from grid (lexicographically first qualifying point)"
    # (0.5, 0.5) also qualifies with objective 0.05, but row-major order
    # reaches (0.5, 0.375) first
    assert tuple(hit[0]) == (0.5, 0.375)
    assert hit[1] == pytest.approx(math.hypot(0.05, 0.125), rel=1e-12)
    assert hit[1] > 0.05


def test_refinement_witness_when_grid_misses_the_valley():
    sh = shear_map()
    m = drift_method(sh, 0.001, 10)
    v = check_inverse_shadowing(sh, m, (0.269285, 0.118446), 0.03, 10, grid_step=1 / 32)
    assert v.outcome == "tracked"
    assert v.note == "witness from refinement around the grid minimum"
    assert v.min_over_grid >= 0.03  # the covering's lattices themselves saw nothing
    assert v.witness.coords == pytest.approx((0.26953125, 0.09130859375), abs=1e-12)
    assert v.achieved == pytest.approx(0.027208461947917734, rel=1e-9)


def test_grid_witness_on_a_finer_lattice():
    sh = shear_map()
    m = drift_method(sh, 0.001, 10)
    v = check_inverse_shadowing(sh, m, (0.269285, 0.118446), 0.03, 10, grid_step=1 / 256)
    assert v.outcome == "tracked"
    assert v.note == "witness from grid (lexicographically first qualifying point)"
    assert v.witness.coords == (0.26953125, 0.08984375)
    assert v.achieved == pytest.approx(0.028603310020432947, rel=1e-9)


# ---------------------------------------------------------------------------
# failures, certificates, inconclusive outcomes
# ---------------------------------------------------------------------------


def test_certified_drift_failure_on_the_default_grid():
    sh = shear_map()
    counters = {}
    v = check_inverse_shadowing(sh, drift_method(sh, 0.01, 25), (0.0, 0.0), 0.1, 25,
                                counters=counters)
    assert v.outcome == "failed"
    assert v.certified is True
    assert v.note == "covering certificate holds"
    assert v.witness is None and v.achieved is None
    assert v.min_over_grid == pytest.approx(0.6533674789121348, rel=1e-12)
    assert v.lipschitz_bound == pytest.approx(25.039936203984453, rel=1e-12)
    assert v.grid_step == pytest.approx(math.sqrt(2.0) / 32, rel=1e-12)  # the binding cell's level
    # the inequality the certificate claims, by hand
    assert v.min_over_grid - v.lipschitz_bound * v.grid_step / 2.0 > 0.1
    assert counters == {
        "candidate_evaluations": 2,
        "grid_points": 3679,
        "newton_iterations": 1,
    }


def test_certified_failure_is_pointwise_sound():
    """No sampled candidate beats eps once the covering certificate holds."""
    sh = shear_map()
    m = drift_method(sh, 0.01, 25)
    v = check_inverse_shadowing(sh, m, (0.0, 0.0), 0.1, 25, grid_step=1 / 128)
    assert v.certified is True
    targets = orbit_segment(sh, np.zeros(2), 25).as_array()
    ys = np.random.default_rng(17).random((4000, 2))
    vals = tracking_objective(m.source, targets, ys, 25)
    assert float(vals.min()) > 0.1


def test_certified_failure_monotone_in_eps():
    sh = shear_map()
    m = drift_method(sh, 0.01, 25)
    for eps in (0.1, 0.05):
        v = check_inverse_shadowing(sh, m, (0.0, 0.0), eps, 25, grid_step=1 / 128)
        assert v.outcome == "failed"
        assert v.certified is True


def test_inconclusive_when_the_grid_is_too_coarse():
    sh = shear_map()
    v = check_inverse_shadowing(sh, drift_method(sh, 0.01, 25), (0.0, 0.0), 0.1, 25,
                                grid_step=1 / 8)
    assert v.outcome == "inconclusive"
    assert v.certified is False
    assert v.reason == "grid"
    assert "grid too coarse to certify" in v.note
    assert v.lipschitz_bound is not None


@pytest.mark.parametrize("check", [check_inverse_shadowing, check_weak_inverse, check_orbital_inverse],
                         ids=["inverse", "weak", "orbital"])
def test_checkers_refuse_a_raw_method(check):
    """A raw method has no driver map, so it serves direct checks only."""
    f = cat_map()
    m = random_method(f, 1e-3, 0)
    with pytest.raises(ValueError, match=r"checks need a method with a driver map; the raw method "
                                         r"random\(0\.001,seed=0\) has none, and raw methods serve "
                                         r"direct checks only"):
        check(f, m, (0.2, 0.3), 0.1, 10, grid_step=1 / 32)
    assert check_direct_shadowing(f, m, (0.2, 0.3), 0.1, 10, grid_step=1 / 32).outcome == "tracked"


def test_inconclusive_past_the_lipschitz_cap():
    """A non-affine driver at N = 40 has no usable bound (40 * log(lip) > LIP_CAP)."""
    f = cat_map()
    m = method_from_map(f, make_conservative_perturbation(f, 0.001, "shear-sin", seed=0), 40)
    assert horizon_lipschitz_bound(m.source, 40) == math.inf
    v = check_inverse_shadowing(f, m, (0.2, 0.3), 0.1, 40, grid_step=1 / 8)
    assert v.outcome == "inconclusive"
    assert v.reason == "no-lipschitz"
    assert v.min_over_grid > 0.1
    assert v.note == "no usable Lipschitz bound at this horizon"


def test_unbounded_sweep_is_coarsened_to_the_cap(monkeypatch):
    """Without a bound an induced driver's one-sweep covering is capped like a raw method's."""
    f = cat_map()
    m = method_from_map(f, make_conservative_perturbation(f, 0.001, "shear-sin", seed=0), 40)
    monkeypatch.setattr(shadowing, "UNBOUNDED_GRID_CAP", 16 ** 2)
    counters = {}
    v = check_inverse_shadowing(f, m, (0.2, 0.3), 0.1, 40, grid_step=1 / 64, counters=counters)
    assert v.outcome == "inconclusive"
    assert v.reason == "no-lipschitz"
    assert counters["grid_points"] == 16 ** 2
    assert v.grid_step == math.sqrt(2) / 16
    assert v.note == ("grid coarsened to 16 per axis without a Lipschitz bound; "
                      "no usable Lipschitz bound at this horizon")
    # at or below the cap the requested lattice is swept as before
    counters = {}
    v = check_inverse_shadowing(f, m, (0.2, 0.3), 0.1, 40, grid_step=1 / 16, counters=counters)
    assert counters["grid_points"] == 16 ** 2
    assert v.note == "no usable Lipschitz bound at this horizon"


def test_direct_shadowing_tracks_raw_noise():
    f = cat_map()
    v = check_direct_shadowing(f, random_method(f, 1e-3, 0), (0.2, 0.3), 0.1, 20)
    assert v.outcome == "tracked"
    assert v.note == "witness from newton solver"
    assert v.achieved == pytest.approx(0.0008666463937806158, rel=1e-9)
    assert v.achieved <= K_CAT * 1e-3


def test_weak_and_orbital_drift_on_the_identity():
    f = torus_identity()
    m = drift_method(f, 0.01, 25)
    for check in (check_weak_inverse, check_orbital_inverse):
        v = check(f, m, (0.0, 0.0), 0.1, 25)
        assert v.outcome == "failed"
        assert v.certified is True
        assert (v.certificate, v.functional) == ("circle", (1, 0))
        assert v.min_over_grid == 0.25  # 25 * 0.01 in float is 0.25, the exact 25 * fl(0.01) rounded down
        assert (v.grid_step, v.lipschitz_bound) == (0.25, 1.0)
        loose = check(f, m, (0.0, 0.0), 0.3, 25)
        assert loose.outcome == "tracked"
        assert loose.note == "witness from anchor"
        assert loose.achieved == pytest.approx(0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# circle factors: the projected objective and its certificates
# ---------------------------------------------------------------------------

# Affine drivers with a circle factor: (system spec, method spec, anchor).
_CIRCLE_DRIVERS = {
    "shear": ("shear", "translate:0.01", (0.2, 0.3)),
    "identity2": ("identity2", "translate:0.01", (0.6, 0.1)),
    "reflection": ('{"kind":"linear","matrix":[[1,0],[0,-1]]}', "translate:0.01", (0.3, 0.7)),
    "id-x-cat": ("linear:1,0,0,0,2,1,0,1,1", "translate:0.01", (0.2, 0.3, 0.4)),
    "swap": ("linear:0,1,1,0", "translate:0.01", (0.2, 0.3)),  # w = (1, 1) and (1, -1): |w| = sqrt(2)
}


@pytest.mark.parametrize("N", [3, 25])
@pytest.mark.parametrize("mode", ["weak", "orbital"])
@pytest.mark.parametrize("name", list(_CIRCLE_DRIVERS))
def test_projected_objective_is_a_lower_bound_of_the_set_values(name, mode, N):
    """V(y) >= V_w(w.y) at 400 random y, for every functional of the driver.

    V(y) comes from the float orbit of the driver, V_w from the exact affine
    orbit of its circle factor; the two orbits differ by the driver's float
    roundings, a few ulps a step, hence the 1e-12.
    """
    spec, method, x = _CIRCLE_DRIVERS[name]
    f = cli.parse_system_spec(spec)
    g = cli.parse_method_spec(method, f, N, 0).source
    targets = orbit_segment(f, x, N).as_array()
    ys = np.random.default_rng(len(name) * N).random((400, f.dim))
    value = (weak_objective if mode == "weak" else orbital_objective)(g, targets, ys, N)
    functionals = shadowing._circle_functionals(g.linear_part)
    assert functionals
    for sign, w in functionals:
        objective, lip = shadowing._circle_objective(g, shadowing._fold_targets(targets, N, mode), N, sign, w)
        norm2 = sum(a * a for a in w)
        assert lip == 1.0 if norm2 == 1 else Fraction(lip) ** 2 * norm2 > 1 > Fraction(lip * 0.999) ** 2 * norm2
        ts = reduce_to_unit(ys @ np.array(w, dtype=float))[:, None]
        projected = objective(ts)
        assert (value >= projected - 1e-12).all(), (sign, w)
        assert (objective(ts, stop=0.0) <= projected).all()  # lower bounds above stop


def _exact_projected_value(f, g, x, N, sign, w, t) -> Fraction:
    """|w| V_w(t) in fractions: the circle map walked from t, each point's distance to the projected targets."""
    a = sum(wi * Fraction(vi) for wi, vi in zip(w, g.forward(np.zeros((1, g.dim)))[0].tolist()))
    q = {sum(wi * Fraction(ti) for wi, ti in zip(w, T)) for T in orbit_segment(f, x, N).as_array().tolist()}

    def dist(z):
        return min(abs(z - p - round(z - p)) for p in q)

    fwd = bwd = Fraction(t)
    value = dist(fwd)
    for _ in range(N):
        fwd, bwd = sign * fwd + a, sign * (bwd - a)
        value = max(value, dist(fwd), dist(bwd))
    return value


def _floor_float(x: Fraction) -> float:
    """The largest float at or below x."""
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


@pytest.mark.parametrize("name", list(_CIRCLE_DRIVERS))
def test_projected_objective_is_the_exact_value_rounded_down(name):
    """At dyadic and non-dyadic t alike, against a walk of the circle map in fractions.

    With |w| = 1 a value is the exact one rounded down; otherwise it lies
    below the exact quotient by |w|, within six ulps: the floor, the rounded
    quotient and the two steps down that cover its rounding.
    """
    spec, method, x = _CIRCLE_DRIVERS[name]
    N = 25
    f = cli.parse_system_spec(spec)
    g = cli.parse_method_spec(method, f, N, 0).source
    T = shadowing._fold_targets(orbit_segment(f, x, N).as_array(), N, "weak")
    ts = np.concatenate([lattice_points(16, 1), np.random.default_rng(3).random((16, 1))])
    for sign, w in shadowing._circle_functionals(g.linear_part):
        objective, _ = shadowing._circle_objective(g, T, N, sign, w)
        norm2 = sum(a * a for a in w)
        for t, value in zip(ts[:, 0].tolist(), objective(ts).tolist()):
            exact = _exact_projected_value(f, g, x, N, sign, w, t)
            if norm2 == 1:
                assert value == _floor_float(exact), (w, t)
            else:
                assert Fraction(value) ** 2 * norm2 <= exact ** 2
                up = value
                for _ in range(6):
                    up = math.nextafter(up, 1.0)
                assert Fraction(up) ** 2 * norm2 > exact ** 2


_CIRCLE_CERTIFICATES = {
    # check-weak-shear-certified and check-orbital-shear-certified
    "shear-weak": ("weak", "shear", "translate:0.01", (0.0, 0.0), 0.1, 25, 64),
    "shear-orbital": ("orbital", "shear", "translate:0.01", (0.0, 0.0), 0.1, 25, 64),
    "shear-random-anchor": ("weak", "shear", "translate:0.01", (0.8646777328161376, 0.5735598523880991),
                            0.1, 25, 128),
    "shear-deep": ("orbital", "shear", "translate:0.01", (0.0, 0.0), 0.22, 25, 64),
    # check-weak-block-certified, check-weak-circle-certified, and the drift-weak experiment's check
    "reflection": ("weak", '{"kind":"linear","matrix":[[1,0],[0,-1]]}', "translate:0.01", (0.0, 0.0), 0.1, 25, 64),
    "circle": ("weak", "identity1", "rotation:0.02", (0.3,), 0.1, 10, 64),
    "identity2": ("weak", "identity2", "translate:0.01", (0.0, 0.0), 0.1, 25, 512),
    "id-x-cat-weak": ("weak", "linear:1,0,0,0,2,1,0,1,1", "translate:0.01", (0.2, 0.3, 0.4), 0.1, 25, 32),
    "id-x-cat-orbital": ("orbital", "linear:1,0,0,0,2,1,0,1,1", "translate:0.01", (0.2, 0.3, 0.4), 0.1, 25, 32),
}


@pytest.mark.parametrize("case", list(_CIRCLE_CERTIFICATES))
def test_a_circle_certificate_restates_an_exact_binding_cell(case):
    """Every point of the binding level is re-walked in fractions: one of them is the binding cell.

    Its exact value rounded down is min_over_grid, so min_over_grid <= the
    exact value, and the record's one inequality restates the proof.
    """
    prop, spec, method, x, eps, N, G = _CIRCLE_CERTIFICATES[case]
    f = cli.parse_system_spec(spec)
    m = cli.parse_method_spec(method, f, N, 0)
    v = cli._CHECKERS[prop](f, m, x, eps, N, grid_step=1 / G, threads=1)
    assert (v.outcome, v.certificate) == ("failed", "circle")
    w = list(v.functional)
    assert v.lipschitz_bound == 1.0 and sum(a * a for a in w) == 1
    B = np.asarray(m.source.linear_part)
    sign = 1 if (np.array(w) @ B == np.array(w)).all() else -1
    assert (np.array(w) @ B == sign * np.array(w)).all()
    g = round(1 / v.grid_step)
    assert v.grid_step == 1 / g and G % g == 0
    exact = [_exact_projected_value(f, m.source, x, N, sign, w, Fraction(i, g)) for i in range(g)]
    binding = [e for e in exact if Fraction(v.min_over_grid) <= e < Fraction(math.nextafter(v.min_over_grid, 1.0))]
    assert binding, (v.min_over_grid, [float(e) for e in exact])
    assert Fraction(v.min_over_grid) - Fraction(v.grid_step) / 2 > Fraction(eps)


def test_the_circle_factors_of_the_library_drivers():
    """(sign, w) with w B = sign w: exact kernels of B^T -+ I, none for the hyperbolic matrices."""
    cases = {
        "shear": [(1, [1, 0])],
        "identity2": [(1, [1, 0]), (1, [0, 1])],
        '{"kind":"linear","matrix":[[1,0],[0,-1]]}': [(1, [1, 0]), (-1, [0, 1])],
        "linear:0,1,1,0": [(1, [1, 1]), (-1, [1, -1])],
        "linear:1,0,0,0,2,1,0,1,1": [(1, [1, 0, 0])],
        "identity1": [(1, [1])],
        "cat": [],
        "linear:1,1,1,0": [],  # the golden mean matrix
    }
    for spec, expected in cases.items():
        f = cli.parse_system_spec(spec)
        assert shadowing._circle_functionals(f.linear_part) == expected, spec
        for sign, w in expected:
            assert (np.array(w) @ f.linear_part == sign * np.array(w)).all()


@pytest.mark.parametrize("prop", ["weak", "orbital"])
@pytest.mark.parametrize("spec, method, x, eps, N, G", [
    ("cat", "translate:0.001", (0.2, 0.3), 0.0005, 5, 8),            # no circle factor
    ("linear:1,1,1,0", "translate:0.001", (0.2, 0.3), 0.0005, 5, 8),  # the golden mean: none either
    ("identity2", "perturb:translation:0.01:7", (0.0, 0.0), 0.2, 25, 64),  # circles that cannot certify
    ("shear", "translate:0.003", (0.127244, 0.669036), 0.05, 15, 32),    # a torus grid witness
])
def test_a_set_check_no_circle_certifies_keeps_its_torus_record(monkeypatch, prop, spec, method, x, eps, N, G):
    """The record and counters are those of the torus covering alone, byte for byte."""
    f = cli.parse_system_spec(spec)
    m = cli.parse_method_spec(method, f, N, 0)

    def run():
        counters = {}
        v = cli._CHECKERS[prop](f, m, x, eps, N, grid_step=1 / G, threads=1, counters=counters)
        return json.dumps(v.to_record(), sort_keys=True), counters

    record, counters = run()
    assert '"certificate":' not in record and counters["grid_points"] > 0
    monkeypatch.setattr(shadowing, "_circle_covering", lambda *args: {})
    assert run() == (record, counters)


@pytest.mark.parametrize("prop", ["direct", "inverse"])
def test_pointwise_and_direct_checks_never_try_a_circle(monkeypatch, prop):
    def no_circle(*args):
        raise AssertionError("a circle covering ran")

    monkeypatch.setattr(shadowing, "_circle_covering", no_circle)
    f = shear_map()
    v = cli._CHECKERS[prop](f, drift_method(f, 0.01, 25), (0.0, 0.0), 0.1, 25, grid_step=1 / 64, threads=1)
    assert v.outcome == "failed" and v.certificate is None and "certificate" not in v.to_record()


def test_verdict_names_a_certificate_only_when_failed_with_its_functional():
    base = dict(property_name="weak", epsilon=0.1, horizon=5, system_label="s", method_label="m",
                anchor=TorusPoint((0.0, 0.0)), min_over_grid=0.4, grid_step=0.25, lipschitz_bound=1.0)
    v = ShadowVerdict(outcome="failed", certificate="circle", functional=(1, 0), **base)
    assert v.to_record()["functional"] == [1, 0] and v.to_record()["certificate"] == "circle"
    for extra in ({"certificate": "circle"}, {"functional": (1, 0)}, {"certificate": "torus", "functional": (1, 0)}):
        with pytest.raises(ValueError, match="certificate"):
            ShadowVerdict(outcome="failed", **extra, **base)
    with pytest.raises(ValueError, match="certificate"):
        ShadowVerdict(outcome="inconclusive", certificate="circle", functional=(1, 0), **base)


# ---------------------------------------------------------------------------
# the covering itself, on a synthetic 1-Lipschitz objective
# ---------------------------------------------------------------------------


def _cone(dim, seed):
    """floor + d(y, z*): 1-Lipschitz on the torus, minimum `floor` at a random z*.

    Returns the objective, which records every batch it is asked for, the
    list of those batches, and an eps drawn so that, across seeds, tracked,
    certified and inconclusive endings all occur.
    """
    rng = np.random.default_rng(seed)
    zstar = rng.random(dim)
    floor = float(rng.choice([0.0, 0.1, 0.25]))
    eps = float(rng.uniform(0.02, 0.3))
    seen = []

    def objective(ys, stop=math.inf):
        seen.append(np.array(ys))
        return floor + dist_array(ys, zstar)

    return objective, seen, eps


_COVER_GRIDS = [(1, 7), (1, 12), (1, 40), (1, 96), (2, 7), (2, 12), (2, 20), (2, 48)]


# A 1-Lipschitz objective is also 4-Lipschitz; the looser bound makes the covering go deeper.
@pytest.mark.parametrize("lip", [1.0, 4.0])
@pytest.mark.parametrize("dim,G", _COVER_GRIDS)
@pytest.mark.parametrize("seed", range(10))
def test_cover_is_complete_and_sound_on_a_cone(dim, G, seed, lip):
    objective, seen, eps = _cone(dim, 1000 * G + seed)
    full = objective(lattice_points(G, dim))
    seen.clear()
    counters = {}
    hit, value, cover = _cover(objective, dim, G, eps, lip, 1, counters)
    bringing, known = [], set()  # the calls that bring new points; a re-evaluation brings none
    for ys in seen:
        points = {tuple(p) for p in ys}
        if not points <= known:
            bringing.append(ys)
        known |= points
    lattice = np.concatenate(bringing)[:counters["grid_points"]]
    # each point is evaluated at most once, and every level's lattice lies in the finest one
    assert len(np.unique(lattice, axis=0)) == len(lattice)
    assert np.allclose(lattice * G, np.round(lattice * G), rtol=0, atol=1e-9)
    # completeness: a qualifying point of the full lattice is never pruned away
    if float(full.min()) < eps:
        assert hit is not None and hit[2] == _GRID_NOTE
    if hit is not None:
        assert hit[1] < eps and hit[1] == float(objective(hit[0][None, :])[0])
        return
    margin = value - lip * cover / 2.0
    # the binding cell is a lattice point of a coarser level, so it cannot beat the full lattice
    assert value >= float(full.min())
    assert cover in [math.sqrt(dim) / (G >> k) for k in range(8) if G % (1 << k) == 0]
    # the old one-level certificate implies the new one
    if float(full.min()) - lip * (math.sqrt(dim) / G) / 2.0 > eps:
        assert margin > eps
    if margin > eps:  # soundness: certified means nothing on the torus tracks
        assert "refinement_points" not in counters
        ys = np.random.default_rng(seed).random((4000, dim))
        assert float(objective(ys).min()) > eps
    else:
        assert counters["refinement_points"] > 0


def _oracle_cover(objective, dim, G, eps, lip):
    """The covering written out cell by cell with scalar calls.

    Returns (witness or None, its value, binding value, binding cover, points
    evaluated, the number of levels evaluated up to the one that set the
    first binding cell), where a point k/g of one level is reused as 2k/(2g).
    """
    levels = [G >> j for j in range(G.bit_length()) if G % (1 << j) == 0][::-1]
    start = next((g for g in levels
                  if lip * (math.sqrt(dim) / g) / 2.0 < math.sqrt(dim) / 2.0 - eps), G)
    cells = sorted(itertools.product(range(start), repeat=dim))
    values, binding, evaluated, first = {}, None, 0, None
    for level, g in enumerate(levels[levels.index(start):], 1):
        cover, known = math.sqrt(dim) / g, {tuple(2 * a for a in k): v for k, v in values.items()}
        values = {k: known[k] if k in known else float(objective(np.array([k]) / g)[0])
                  for k in cells}
        evaluated += len(cells) - len(known.keys() & set(cells))
        qual = [k for k in cells if values[k] < eps]
        settled = [k for k in cells if values[k] - lip * cover / 2.0 > eps]
        last = qual or g == G or len(settled) == len(cells)
        for k in cells if last else settled:
            if binding is None or values[k] - lip * cover / 2.0 < binding[0]:
                binding = (values[k] - lip * cover / 2.0, values[k], cover)
        first = first or (binding and level)
        if qual:
            return np.array(qual[0]) / g, values[qual[0]], binding[1], binding[2], evaluated, first
        if last:
            break
        values = {k: values[k] for k in cells if k not in settled}
        cells = sorted({tuple((2 * a + o) % (2 * g) for a, o in zip(k, off))
                        for k in values for off in itertools.product((-1, 0, 1), repeat=dim)})
    return None, None, binding[1], binding[2], evaluated, first


@pytest.mark.parametrize("lip", [1.0, 4.0])
@pytest.mark.parametrize("dim,G", _COVER_GRIDS)
@pytest.mark.parametrize("seed", range(4))
def test_cover_matches_a_cell_by_cell_oracle(dim, G, seed, lip):
    objective, _, eps = _cone(dim, 1000 * G + seed)
    counters = {}
    hit, value, cover = _cover(objective, dim, G, eps, lip, 1, counters)
    point, achieved, o_value, o_cover, evaluated, _ = _oracle_cover(objective, dim, G, eps, lip)
    assert (value, cover, counters["grid_points"]) == (o_value, o_cover, evaluated)
    if point is not None:
        assert np.array_equal(hit[0], point) and hit[1] == achieved
    else:
        assert hit is None or hit[2] != _GRID_NOTE


def _stopping_cone(dim, seed):
    """_cone's objective, honouring ``stop`` as _fold_objective does.

    A point's value is the max of three steps, 0.6, 0.85 and 1 times the cone
    value, which equals the cone value bit for bit.  With ``stop``, a point
    leaves at the first step whose running max exceeds stop and returns that
    partial max.  Also returns the cone itself, the log of calls as
    (points, stop, values) in call order, and a count of the points that
    stopped.
    """
    cone, _, eps = _cone(dim, seed)
    calls, stopped = [], [0]

    def objective(ys, stop=None):
        value = cone(ys)
        if stop is not None:
            exact = value
            run = np.zeros(len(value))
            active = np.ones(len(value), dtype=bool)
            for w in (0.6, 0.85, 1.0):
                run[active] = np.maximum(run[active], w * exact[active])
                active &= run <= stop
            stopped[0] += int((run < exact).sum())
            value = run
        calls.append((np.array(ys), stop, value))
        return value

    return objective, cone, eps, calls, stopped


def _classify(calls, counters):
    """Split a covering's logged calls: (lattice calls, re-evaluations).

    A lattice call is a call with stop that brings a point the previous one
    did not evaluate (a level evaluates only points new to it).  A
    re-evaluation is any other call before the trailing refinement calls:
    a call with stop on points of the previous lattice call, or an exact
    call.  Each re-evaluation is (number of lattice calls before it, points,
    stop, values).
    """
    refined = shadowing.REFINE_LEVELS if "refinement_points" in counters else 0
    lattice, again = [], []
    for ys, stop, value in calls[:len(calls) - refined]:
        seen = {tuple(p) for p in lattice[-1][0]} if lattice else set()
        if stop is not None and not {tuple(p) for p in ys} <= seen:
            lattice.append((ys, value))
        else:
            again.append((len(lattice), ys, stop, value))
    return lattice, again


def _levels_from(dim, G, eps, lip):
    """The covering's levels, coarse to fine, from the first one it evaluates."""
    levels = [G >> j for j in range(G.bit_length()) if G % (1 << j) == 0][::-1]
    fits = [g for g in levels if lip * (math.sqrt(dim) / g) / 2.0 < math.sqrt(dim) / 2.0 - eps]
    return fits or [G]


# The covering's "done when" test for stopping: same hit, binding cell and work counters.
@pytest.mark.parametrize("lip", [1.0, 4.0])
@pytest.mark.parametrize("dim,G", _COVER_GRIDS)
@pytest.mark.parametrize("seed", range(10))
def test_cover_is_the_same_with_and_without_stopping(dim, G, seed, lip):
    cone, _, eps = _cone(dim, 1000 * G + seed)
    objective, exact_of, _, calls, _ = _stopping_cone(dim, 1000 * G + seed)
    plain, stopping = {}, {}
    hit, value, cover = _cover(cone, dim, G, eps, lip, 1, plain)
    s_hit, s_value, s_cover = _cover(objective, dim, G, eps, lip, 1, stopping)
    assert (s_value, s_cover, stopping) == (value, cover, plain)
    assert (hit is None) == (s_hit is None)
    if hit is not None:
        assert np.array_equal(hit[0], s_hit[0]) and hit[1:] == s_hit[1:]
    # every lattice point is evaluated once in a lattice call; re-evaluations add no new point
    lattice, again = _classify(calls, stopping)
    points = np.concatenate([ys for ys, _ in lattice])
    assert len(points) == plain["grid_points"] == len(np.unique(points, axis=0))
    for _, ys, _, _ in again:
        assert {tuple(p) for p in ys} <= {tuple(p) for p in points}
    # every leaf that could bind has an exact value: a point whose last value
    # is a lower bound has a margin no less than the binding margin
    last = {}  # point -> (last value returned, slack of its level)
    for (ys, values), g in zip(lattice, _levels_from(dim, G, eps, lip)):
        last.update({tuple(p): (v, lip * (math.sqrt(dim) / g) / 2.0) for p, v in zip(ys, values)})
    for _, ys, _, values in again:
        last.update({tuple(p): (v, last[tuple(p)][1]) for p, v in zip(ys, values)})
    margin = s_value - lip * s_cover / 2.0
    for p, (v, slack) in last.items():
        exact = float(exact_of(np.array([p]))[0])
        assert v <= exact
        if v < exact:
            assert v - slack >= margin


def test_stopping_settles_points_and_re_evaluates_few():
    """Over all the cone cases above, points do stop, and few are evaluated twice.

    Each covering re-evaluates in at most one batch with stop before
    refinement, preceded at most by one exact call on a single point, both
    made right after the lattice call of the level that set the first
    binding cell: at every later level a stopped point's margin exceeds the
    binding margin, so it can never bind.
    """
    stopped = again_points = total = 0
    for (dim, G), seed, lip in itertools.product(_COVER_GRIDS, range(10), (1.0, 4.0)):
        objective, _, eps, calls, count = _stopping_cone(dim, 1000 * G + seed)
        counters = {}
        _cover(objective, dim, G, eps, lip, 1, counters)
        stopped += count[0]
        total += counters["grid_points"]
        _, again = _classify(calls, counters)
        again_points += sum(len(ys) for _, ys, _, _ in again)
        if again:
            first = _oracle_cover(_cone(dim, 1000 * G + seed)[0], dim, G, eps, lip)[5]
            assert {at for at, _, _, _ in again} == {first}
            kinds = [stop is not None for _, _, stop, _ in again]
            assert kinds in ([True], [False], [False, True])
            assert all(len(ys) == 1 for _, ys, stop, _ in again if stop is None)
    assert stopped > total // 10
    assert 0 < again_points < stopped


@pytest.mark.parametrize("G, lip", [(1000001, 1.0), (2 ** 20, 1e12)], ids=["odd", "no-level-fits"])
def test_cover_refuses_a_first_level_past_the_cap_before_evaluating(G, lip):
    objective, seen, _ = _cone(2, 0)
    with pytest.raises(ValueError, match=f"grid {G} per axis is too fine"):
        _cover(objective, 2, G, 0.1, lip, 1, {})
    assert seen == []


@pytest.mark.parametrize("dim,G", _COVER_GRIDS)
def test_cover_without_a_bound_sweeps_the_whole_lattice(dim, G):
    objective, seen, eps = _cone(dim, G)
    counters = {}
    hit, value, cover = _cover(objective, dim, G, eps, math.inf, 1, counters)
    assert counters["grid_points"] == G ** dim
    assert np.array_equal(np.concatenate(seen)[:G ** dim], lattice_points(G, dim))
    assert cover == math.sqrt(dim) / G
    if hit is None:
        assert value == float(objective(lattice_points(G, dim)).min())


# ---------------------------------------------------------------------------
# verdict dataclass gates and the wire record
# ---------------------------------------------------------------------------


def _verdict(**overrides):
    fields = dict(
        property_name="inverse",
        outcome="tracked",
        epsilon=0.1,
        horizon=5,
        system_label="shear",
        method_label="m",
        anchor=TorusPoint((0.0, 0.0)),
        witness=TorusPoint((0.1, 0.2)),
        achieved=0.05,
    )
    fields.update(overrides)
    return ShadowVerdict(**fields)


def test_verdict_rejects_unknown_outcome():
    with pytest.raises(ValueError):
        _verdict(outcome="maybe")


def test_tracked_verdict_requires_strict_achievement():
    with pytest.raises(ValueError):
        _verdict(achieved=0.1)
    with pytest.raises(ValueError):
        _verdict(achieved=0.2)


def test_certified_verdict_requires_the_inequality():
    failed = dict(outcome="failed", witness=None, achieved=None, min_over_grid=0.11, grid_step=0.01)
    with pytest.raises(ValueError, match="holding covering certificate"):
        _verdict(lipschitz_bound=25.0, **failed)
    with pytest.raises(ValueError, match="holding covering certificate"):
        _verdict(lipschitz_bound=None, **failed)


def test_certified_verdict_requires_a_finite_minimum():
    failed = dict(outcome="failed", witness=None, achieved=None, grid_step=0.01, lipschitz_bound=1.0)
    v = _verdict(min_over_grid=0.25, **failed)
    assert v.certified is True and v.reason is None
    with pytest.raises(ValueError):
        _verdict(min_over_grid=math.inf, **failed)


def test_verdict_carries_a_witness_exactly_when_tracked():
    with pytest.raises(ValueError, match="witness exactly when it is tracked"):
        _verdict(witness=None)
    inconclusive = dict(outcome="inconclusive", achieved=None, min_over_grid=0.2, grid_step=0.01)
    with pytest.raises(ValueError, match="witness exactly when it is tracked"):
        _verdict(**inconclusive)
    v = _verdict(witness=None, **inconclusive)
    assert (v.certified, v.reason) == (False, "no-lipschitz")
    v = _verdict(witness=None, lipschitz_bound=25.0, **inconclusive)
    assert (v.certified, v.reason) == (False, "grid")
    assert (_verdict().certified, _verdict().reason) == (None, None)


def test_record_wire_keys():
    sh = shear_map()
    tracked = check_inverse_shadowing(sh, drift_method(sh, 0.01, 5), (0.0, 0.0), 0.2, 5)
    rec = tracked.to_record()
    assert set(rec) == {"property", "system", "method", "x", "eps", "N",
                        "outcome", "witness", "achieved", "note"}
    assert rec["property"] == "inverse"
    assert rec["x"] == [0.0, 0.0]
    assert json.loads(json.dumps(rec)) == rec

    failed = check_inverse_shadowing(sh, drift_method(sh, 0.01, 25), (0.0, 0.0), 0.1, 25,
                                     grid_step=1 / 128)
    rec = failed.to_record()
    assert set(rec) == {"property", "system", "method", "x", "eps", "N", "outcome",
                        "min_over_grid", "grid_step", "lipschitz_bound", "certified",
                        "note"}
    assert rec["outcome"] == "failed"
    assert rec["certified"] is True

    inconclusive = check_inverse_shadowing(sh, drift_method(sh, 0.01, 25), (0.0, 0.0), 0.1, 25,
                                           grid_step=1 / 8)
    rec = inconclusive.to_record()
    assert set(rec) == {"property", "system", "method", "x", "eps", "N", "outcome",
                        "min_over_grid", "grid_step", "lipschitz_bound", "certified",
                        "reason", "note"}
    assert (rec["certified"], rec["reason"]) == (False, "grid")


# ---------------------------------------------------------------------------
# input gates, determinism, thread resolution
# ---------------------------------------------------------------------------


def test_checker_input_gates():
    f = cat_map()
    m = method_from_map(f, f, 5)
    with pytest.raises(ValueError):
        check_inverse_shadowing(f, m, (0.2, 0.3), 0.0, 5)
    with pytest.raises(ValueError):
        check_inverse_shadowing(f, m, (0.2, 0.3), 0.1, 0)
    with pytest.raises(ValueError):
        check_inverse_shadowing(f, m, (0.2, 0.3), 0.1, 5, grid_step=0.0)
    for bad in (math.nan, math.inf):  # refused although the anchor tracks
        with pytest.raises(ValueError, match=rf"^grid_step must be finite and positive, got {bad}$"):
            check_inverse_shadowing(f, m, (0.2, 0.3), 0.1, 5, grid_step=bad)
    with pytest.raises(ValueError):
        check_inverse_shadowing(f, m, (0.2,), 0.1, 5)
    c1 = circle_identity()
    with pytest.raises(ValueError):
        check_inverse_shadowing(f, method_from_map(c1, c1, 5), (0.2, 0.3), 0.1, 5)


def test_bad_seed_is_named_as_a_seed():
    f = cat_map()
    m = method_from_map(f, f, 3)
    with pytest.raises(ValueError, match=r"^seed has shape \(3,\), expected \(2,\)$"):
        check_inverse_shadowing(f, m, (0.2, 0.3), 0.01, 3, seeds=[(0.1, 0.2, 0.3)])
    with pytest.raises(ValueError, match=r"^anchor has shape \(3,\), expected \(2,\)$"):
        check_inverse_shadowing(f, m, (0.1, 0.2, 0.3), 0.01, 3)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_points_are_rejected_by_role(bad):
    f = cat_map()
    m = method_from_map(f, f, 3)
    with pytest.raises(ValueError, match=r"^seed coordinates must be finite, got \["):
        check_inverse_shadowing(f, m, (0.2, 0.3), 0.01, 3, seeds=[(bad, 0.1)])
    with pytest.raises(ValueError, match=r"^anchor coordinates must be finite, got \[0\.2, "):
        check_weak_inverse(f, m, (0.2, bad), 0.01, 3)


def test_verdicts_identical_across_thread_counts():
    sh = shear_map()
    m = drift_method(sh, 0.01, 25)
    records = []
    for threads in (1, 7):
        v = check_inverse_shadowing(sh, m, (0.0, 0.0), 0.1, 25, grid_step=1 / 128,
                                    threads=threads)
        records.append(json.dumps(v.to_record(), sort_keys=True))
    assert records[0] == records[1]


_GRID_NOTE = "witness from grid (lexicographically first qualifying point)"
_DRIFT = ("shear", "translate:0.01", (0.0, 0.0), 0.1, 25, 64, 3679, "covering certificate holds")
_CHUNK_CASES = {
    # (checker, system, method, x, eps, N, G, lattice points evaluated, note)
    "grid": (check_weak_inverse, "shear", "perturb:translation:0.003", (0.982225, 0.143173),
             0.05, 10, 16, 256, _GRID_NOTE),
    # 6 lattice points qualify, spread over five chunks of 7
    "grid-several-chunks": (check_orbital_inverse, "shear", "translate:0.003", (0.127244, 0.669036),
                            0.05, 15, 32, 1024, _GRID_NOTE),
    "refinement": (check_inverse_shadowing, "shear", "translate:0.001", (0.269285, 0.118446),
                   0.03, 10, 32, 359, "witness from refinement around the grid minimum"),
    "uncertified": (check_orbital_inverse, "cat", "perturb:shear-sin:0.001:0", (0.2, 0.3),
                    0.02, 40, 8, 64, "no usable Lipschitz bound at this horizon"),
    "certified-inverse": (check_inverse_shadowing, *_DRIFT),
    # the torus covering, with the circle covering that would certify first switched off
    "certified-weak": (check_weak_inverse, *_DRIFT),
    "certified-orbital": (check_orbital_inverse, *_DRIFT),
    "circle-weak": (check_weak_inverse, "shear", "translate:0.01", (0.0, 0.0), 0.22, 25, 64, 10,
                    "covering certificate holds"),
    "circle-orbital": (check_orbital_inverse, "shear", "translate:0.01", (0.0, 0.0), 0.22, 25, 64, 10,
                       "covering certificate holds"),
}


@pytest.mark.parametrize("case", list(_CHUNK_CASES))
def test_verdicts_identical_across_chunk_sizes_and_threads(case, monkeypatch):
    """Small chunks make the pool and the cross-chunk merge run on every ending.

    The certified cases are the translate:0.01 drift of the shear, whose
    covering settles coarse cells without their lattice points.
    """
    check, system, method, x, eps, N, G, points, note = _CHUNK_CASES[case]
    if case in ("certified-weak", "certified-orbital"):
        monkeypatch.setattr(shadowing, "_circle_covering", lambda *args: {})
    f = cli.parse_system_spec(system)
    m = cli.parse_method_spec(method, f, N, 0)

    def run(threads):
        counters = {}
        v = check(f, m, x, eps, N, grid_step=1 / G, threads=threads, counters=counters)
        return json.dumps(v.to_record(), sort_keys=True), counters

    expected = run(1)
    assert json.loads(expected[0])["note"] == note
    assert expected[1]["grid_points"] == points
    for chunk in (64, 7):
        monkeypatch.setattr(shadowing, "GRID_CHUNK", chunk)
        for threads in (1, 4):
            assert run(threads) == expected, (chunk, threads)


def test_resolve_threads_precedence(monkeypatch):
    assert resolve_threads(4) == 4
    assert resolve_threads(0) == 1
    monkeypatch.setenv("SHADOWLAB_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(2) == 2
    monkeypatch.setenv("SHADOWLAB_THREADS", "abc")
    with pytest.raises(ValueError, match="SHADOWLAB_THREADS must be an integer, got 'abc'"):
        resolve_threads()
    assert resolve_threads(2) == 2
    monkeypatch.delenv("SHADOWLAB_THREADS")
    assert resolve_threads() >= 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_threads() == 1  # an affinity mask of one CPU on a 64-CPU host
