"""Solvers, tracking objectives, Lipschitz bounds, and the certified checkers.

Oracles here are deliberately dumb: python loops over explicit orbit lists
with the scalar metric, checked against the vectorized objectives.  Frozen
constants in the verdict tests were produced by those oracles and by hand
calculations on the affine drift construction.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowlab import (
    GOLDEN_ROTATION,
    TRUE_ORBIT_DELTA,
    NonHyperbolicError,
    PseudoOrbit,
    ShadowVerdict,
    TorusPoint,
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
    shadow_solve_linear,
    shadow_solve_newton,
    shear_map,
    solve_tracking_constant,
    torus_identity,
    tracking_objective,
    weak_objective,
)
from shadowlab.orbits import MethodSpec
from shadowlab.shadowing import _min_norm_newton_step

K_CAT = 1.618033988749895  # cond(V) * 1/(1 - lambda_s) for [[2,1],[1,1]]


def drift_method(base, delta, N):
    """Method induced by a small conservative translation of the base map."""
    return method_from_map(base, make_translation_method_map(base, delta), N)


def piecewise_method():
    """Raw method on the 2-torus identity: orbits sweep in steps of 0.4 along
    the first axis when started left of 1/2, and sit still otherwise."""
    f = torus_identity()

    def producer(x0, n):
        k = np.arange(-n, n + 1)[:, None]
        if x0[0] < 0.5:
            pts = x0[None, :] + k * np.array([0.4, 0.0])
        else:
            pts = np.tile(x0, (2 * n + 1, 1))
        return pts % 1.0

    return f, MethodSpec(kind="raw", target=f, delta=0.45, horizon=2,
                         label="piecewise", producer=producer)


def raw_drift_method(N):
    """The shear drift method repackaged as a raw producer.

    Same orbits as drift_method(shear, 0.01, N), but the checker cannot see a
    source map, so the solver shortcut is unavailable and the grid/refinement
    routes actually run.
    """
    sh = shear_map()
    g = make_translation_method_map(sh, 0.01)

    def producer(x0, n):
        return orbit_segment(g, x0, n).as_array()

    return sh, MethodSpec(kind="raw", target=sh, delta=0.0105, horizon=N,
                          label="raw-drift", producer=producer)


# ---------------------------------------------------------------------------
# tracking constant and the affine solver
# ---------------------------------------------------------------------------


def test_tracking_constant_for_cat_matrix():
    K = solve_tracking_constant(cat_map().linear_part)
    assert K == pytest.approx(K_CAT, abs=1e-12)
    # orthonormal eigenbasis (symmetric matrix), so K is the golden ratio
    assert K == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


@pytest.mark.parametrize("matrix", [[[1, 0], [1, 1]], [[1, 0], [0, 1]], [[0, -1], [1, 0]]])
def test_tracking_constant_rejects_unit_modulus(matrix):
    with pytest.raises(NonHyperbolicError):
        solve_tracking_constant(np.array(matrix))


def test_nonhyperbolic_error_is_a_value_error():
    assert issubclass(NonHyperbolicError, ValueError)


def test_affine_solver_is_exact_on_a_true_orbit():
    f = cat_map()
    pts = orbit_segment(f, np.array([0.2, 0.3]), 12).as_array()
    po = PseudoOrbit.checked(f, pts, TRUE_ORBIT_DELTA)
    y, achieved = shadow_solve_linear(f.linear_part, po)
    assert achieved <= 1e-14
    assert float(dist_array(y.as_array(), np.array([0.2, 0.3]))) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_affine_solver_respects_tracking_bound(seed):
    """achieved <= K * delta at a horizon where naive re-iteration is useless."""
    f = cat_map()
    po = random_method(f, 1e-3, seed).evaluate((0.2, 0.3), 50)
    y, achieved = shadow_solve_linear(f.linear_part, po)
    assert 0.0 < achieved <= K_CAT * 1e-3
    # independent re-check on the central window, where float iteration of the
    # cat map is still trustworthy (growth 2.618^8 * eps_mach << achieved)
    window = tracking_objective(f, po.as_array()[42:59], y.as_array(), 8)
    assert window <= achieved + 1e-9


def test_affine_solver_frozen_instance():
    po = random_method(cat_map(), 1e-3, 0).evaluate((0.2, 0.3), 50)
    _, achieved = shadow_solve_linear(cat_map().linear_part, po)
    assert achieved == pytest.approx(0.0008347803138961178, rel=1e-12)


def test_affine_solver_rejects_shear():
    sh = shear_map()
    pts = orbit_segment(sh, np.array([0.1, 0.2]), 3).as_array()
    po = PseudoOrbit.checked(sh, pts, TRUE_ORBIT_DELTA)
    with pytest.raises(NonHyperbolicError):
        shadow_solve_linear(sh.linear_part, po)


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


def test_newton_point_accessor():
    f = cat_map()
    po = random_method(f, 1e-3, 7).evaluate((0.1, 0.6), 20)
    res = shadow_solve_newton(f, po)
    p = res.point(0, po.horizon)
    assert p.coords == tuple(res.points[po.horizon])
    assert float(dist_array(p.as_array(), np.array([0.1, 0.6]))) <= res.achieved


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
    assert L is not None
    assert L == pytest.approx(3461452808002.0, rel=1e-9)


def test_isometries_have_unit_bound():
    assert horizon_lipschitz_bound(torus_identity(), 40) == 1.0
    assert horizon_lipschitz_bound(make_rotation(GOLDEN_ROTATION), 40) == 1.0
    assert horizon_lipschitz_bound(circle_identity(), 7) == 1.0


def test_generic_bound_grows_and_caps_out():
    p = make_conservative_perturbation(cat_map(), 1e-3, "shear-sin", seed=5)
    lip = max(p.lip_forward, p.lip_backward, 1.0)
    assert horizon_lipschitz_bound(p, 3) == pytest.approx(lip ** 3, rel=1e-12)
    n_cap = int(25.0 / math.log(lip))
    assert horizon_lipschitz_bound(p, n_cap) is not None
    assert horizon_lipschitz_bound(p, n_cap + 1) is None
    assert horizon_lipschitz_bound(p, 3, cap=0.1) is None


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


def test_witness_from_affine_solver_on_the_cat():
    f = cat_map()
    m = drift_method(f, 0.01, 10)
    v = check_inverse_shadowing(f, m, (0.2, 0.3), 0.1, 10)
    assert v.outcome == "tracked"
    assert v.note == "witness from affine solver"
    assert v.achieved == pytest.approx(0.0099993389522385, rel=1e-9)
    assert v.achieved <= K_CAT * m.delta


def test_anchor_wins_when_eps_is_loose():
    # anchor objective for the shear drift at N=5 is hypot(0.05, 0.15)
    sh = shear_map()
    v = check_inverse_shadowing(sh, drift_method(sh, 0.01, 5), (0.0, 0.0), 0.2, 5)
    assert v.outcome == "tracked"
    assert v.note == "witness from anchor"
    assert v.achieved == pytest.approx(math.sqrt(0.025), rel=1e-12)


def test_grid_witness_is_first_qualifying_not_argmin():
    f, m = piecewise_method()
    v = check_inverse_shadowing(f, m, (0.45, 0.5), 0.2, 2, grid_step=1 / 8)
    assert v.outcome == "tracked"
    assert v.note == "witness from grid (lexicographically first qualifying point)"
    # (0.5, 0.5) also qualifies with objective 0.05, but row-major order
    # reaches (0.5, 0.375) first
    assert v.witness.coords == (0.5, 0.375)
    assert v.achieved == pytest.approx(math.hypot(0.05, 0.125), rel=1e-12)
    assert v.achieved > 0.05


def test_refinement_witness_when_grid_misses_the_valley():
    sh, m = raw_drift_method(5)
    v = check_inverse_shadowing(sh, m, (0.0, 0.0), 0.1, 5, grid_step=1 / 8)
    assert v.outcome == "tracked"
    assert v.note == "witness from refinement around the grid minimum"
    assert v.min_over_grid >= 0.1  # the 8x8 lattice itself saw nothing
    assert v.witness.coords == pytest.approx((0.00390625, 0.927734375), abs=1e-12)
    assert v.achieved == pytest.approx(0.07424444456542284, rel=1e-9)


def test_grid_witness_on_a_finer_lattice():
    sh, m = raw_drift_method(5)
    v = check_inverse_shadowing(sh, m, (0.0, 0.0), 0.1, 5, grid_step=1 / 32)
    assert v.outcome == "tracked"
    assert v.note == "witness from grid (lexicographically first qualifying point)"
    assert v.witness.coords == (0.0, 0.90625)
    assert v.achieved == pytest.approx(0.09428182486566539, rel=1e-9)


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
    assert v.min_over_grid == pytest.approx(0.47010217732840476, rel=1e-12)
    assert v.lipschitz_bound == pytest.approx(25.039936203984453, rel=1e-12)
    assert v.grid_step == pytest.approx(math.sqrt(2.0) / 512, rel=1e-12)
    # the inequality the certificate claims, by hand
    assert v.min_over_grid - v.lipschitz_bound * v.grid_step / 2.0 > 0.1
    assert counters == {
        "candidate_evaluations": 2,
        "grid_points": 262144,
        "newton_iterations": 1,
        "refinement_points": 578,
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
    assert "grid too coarse to certify" in v.note
    assert v.lipschitz_bound is not None


def test_uncertified_failure_for_a_raw_method():
    f, m = piecewise_method()
    v = check_inverse_shadowing(f, m, (0.45, 0.5), 0.03, 2, grid_step=1 / 512)
    assert v.outcome == "failed"
    assert v.certified is False
    assert v.lipschitz_bound is None
    assert v.min_over_grid == pytest.approx(0.05366339133374026, rel=1e-9)
    assert v.note == ("grid coarsened to 141 per axis for a raw method; "
                      "no usable Lipschitz bound at this horizon")


def test_direct_shadowing_tracks_raw_noise():
    f = cat_map()
    v = check_direct_shadowing(f, random_method(f, 1e-3, 0), (0.2, 0.3), 0.1, 20)
    assert v.outcome == "tracked"
    assert v.note == "witness from affine solver"
    assert v.achieved == pytest.approx(0.000866646385582305, rel=1e-9)
    assert v.achieved <= K_CAT * 1e-3


def test_weak_and_orbital_drift_on_the_identity():
    f = torus_identity()
    m = drift_method(f, 0.01, 25)
    for check in (check_weak_inverse, check_orbital_inverse):
        v = check(f, m, (0.0, 0.0), 0.1, 25)
        assert v.outcome == "failed"
        assert v.certified is True
        assert v.min_over_grid == pytest.approx(0.2500000000000002, rel=1e-12)
        assert v.lipschitz_bound == 1.0
        loose = check(f, m, (0.0, 0.0), 0.3, 25)
        assert loose.outcome == "tracked"
        assert loose.note == "witness from anchor"
        assert loose.achieved == pytest.approx(0.25, rel=1e-12)


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
    with pytest.raises(ValueError):
        _verdict(outcome="failed", witness=None, achieved=None, certified=True,
                 min_over_grid=0.11, grid_step=0.01, lipschitz_bound=25.0)


def test_certified_verdict_requires_a_finite_minimum():
    certified = dict(outcome="failed", witness=None, achieved=None, certified=True,
                     grid_step=0.01, lipschitz_bound=1.0)
    assert _verdict(min_over_grid=0.25, **certified).certified
    with pytest.raises(ValueError):
        _verdict(min_over_grid=math.inf, **certified)


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
    with pytest.raises(ValueError):
        check_inverse_shadowing(f, m, (0.2,), 0.1, 5)
    c1 = circle_identity()
    with pytest.raises(ValueError):
        check_inverse_shadowing(f, method_from_map(c1, c1, 5), (0.2, 0.3), 0.1, 5)


def test_verdicts_identical_across_thread_counts():
    sh = shear_map()
    m = drift_method(sh, 0.01, 25)
    records = []
    for threads in (1, 7):
        v = check_inverse_shadowing(sh, m, (0.0, 0.0), 0.1, 25, grid_step=1 / 128,
                                    threads=threads)
        records.append(json.dumps(v.to_record(), sort_keys=True))
    assert records[0] == records[1]


def test_resolve_threads_precedence(monkeypatch):
    assert resolve_threads(4) == 4
    assert resolve_threads(0) == 1
    monkeypatch.setenv("SHADOWLAB_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(2) == 2
    monkeypatch.delenv("SHADOWLAB_THREADS")
    assert resolve_threads() >= 1
