"""Acceptance suite: one test per claim the package stands behind.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Each test states its tolerance and, where relevant, enforces its
runtime budget.
"""

import math
import os
import time

import numpy as np
from numpy.linalg import matrix_power

from shadowlab import (
    GOLDEN_ROTATION,
    PseudoOrbit,
    anosov_certificate_linear,
    cat_map,
    check_inverse_shadowing,
    check_orbital_inverse,
    check_weak_inverse,
    dist_array,
    horizon_lipschitz_bound,
    library_maps,
    make_conservative_perturbation,
    make_rotation,
    make_translation_method_map,
    method_from_map,
    orbit_segment,
    run_drift_weak,
    shadow_solve_newton,
    shear_map,
    torus_identity,
    volume_defect,
)

CAT = [[2, 1], [1, 1]]


def _drift_method(base, delta, N):
    return method_from_map(base, make_translation_method_map(base, delta), N)


def _wrapped_dmat(a, b):
    diff = np.abs(a[:, None, :] - b[None, :, :])
    diff = np.minimum(diff, 1.0 - diff)
    return np.sqrt(np.sum(diff * diff, axis=-1))


def test_criterion_01_volume_preservation():
    """Every library map has |det Df| == 1 to 1e-12 on >= 10^4 sample points."""
    t0 = time.perf_counter()
    maps = library_maps()
    assert len(maps) == 14
    for f in maps:
        samples = 128 if f.dim == 2 else 10001  # 128^2 = 16384 points on the torus
        assert volume_defect(f, samples=samples) <= 1e-12, f.label
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_anosov_certificate_for_the_cat_map():
    """Certificate rate equals (3 - sqrt(5))/2 to 1e-12 and the decay
    inequalities hold for n = 1..20 within 1e-9.

    Large-n decay is checked through the eigenvalues: float powers of a
    hyperbolic matrix applied to the stable vector lose the stable component
    to roundoff amplified by the unstable rate, so the honest route is to
    verify the eigenrelations to 1e-12 and then power the scalar rates.
    Direct matrix powers are still compared for n <= 8 where they are clean.
    """
    cert = anosov_certificate_linear(CAT)
    assert cert is not None
    lam = (3.0 - math.sqrt(5.0)) / 2.0
    assert abs(cert.rate - lam) <= 1e-12

    A = np.array(CAT, dtype=float)
    vs = np.array(cert.stable)
    vu = np.array(cert.unstable)
    mu_s = lam
    mu_u = (3.0 + math.sqrt(5.0)) / 2.0
    assert np.linalg.norm(A @ vs - mu_s * vs) <= 1e-12
    assert np.linalg.norm(A @ vu - mu_u * vu) <= 1e-12

    for n in range(1, 21):
        assert abs(mu_s) ** n <= cert.C * cert.rate**n + 1e-9      # forward, stable
        assert abs(mu_u) ** (-n) <= cert.C * cert.rate**n + 1e-9   # backward, unstable
    for n in range(1, 9):
        An = matrix_power(np.array(CAT, dtype=np.int64), n).astype(float)
        assert np.linalg.norm(An @ vs) <= cert.C * cert.rate**n * np.linalg.norm(vs) + 1e-9


def test_criterion_04_neutral_drift_defeats_inverse_shadowing():
    """Shear plus a 0.01 translation method at N = 25 fails certified, with the
    grid minimum at least the closed-form drift bound 0.25 minus grid slack."""
    t0 = time.perf_counter()

    # Closed form first: the best centering offset c against drift k*delta
    # over k = -25..25 leaves max distance N*delta = 0.25 on the circle.
    delta, N = 0.01, 25
    ks = np.arange(-N, N + 1)
    cs = np.linspace(-0.5, 0.5, 20001)
    vals = np.abs(cs[:, None] + ks[None, :] * delta)
    vals = np.minimum(vals, 1.0 - vals)
    assert abs(float(vals.max(axis=1).min()) - N * delta) <= 1e-4

    f = shear_map()
    v = check_inverse_shadowing(f, _drift_method(f, delta, N), (0.0, 0.0), 0.1, N,
                                grid_step=1 / 512)
    assert v.outcome == "failed" and v.certified
    slack = v.lipschitz_bound * v.grid_step / 2.0
    assert v.min_over_grid >= 0.25 - slack
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_weak_and_orbital_calibration_flip():
    """The same drift certified-fails the weak and orbital checks at eps = 0.1
    and tracks both at eps = 0.3."""
    f = torus_identity()
    m = _drift_method(f, 0.01, 25)
    for checker in (check_weak_inverse, check_orbital_inverse):
        tight = checker(f, m, (0.0, 0.0), 0.1, 25, grid_step=1 / 512)
        assert tight.outcome == "failed" and tight.certified
        assert tight.min_over_grid >= 0.25 - tight.lipschitz_bound * tight.grid_step / 2.0
        loose = checker(f, m, (0.0, 0.0), 0.3, 25, grid_step=1 / 512)
        assert loose.outcome == "tracked"
        assert loose.achieved < 0.3


def test_criterion_06_rotation_dichotomy():
    """Golden rotation with a 0.01 drift: inverse shadowing certified-fails
    while orbital inverse shadowing tracks with witness y = x."""
    t0 = time.perf_counter()
    f = make_rotation(GOLDEN_ROTATION)
    m = method_from_map(f, make_rotation(GOLDEN_ROTATION + 0.01), 25)
    inv = check_inverse_shadowing(f, m, (0.0,), 0.1, 25, grid_step=1 / 4096)
    assert inv.outcome == "failed" and inv.certified
    orb = check_orbital_inverse(f, m, (0.0,), 0.1, 25, grid_step=1 / 4096)
    assert orb.outcome == "tracked"
    assert np.array_equal(orb.witness.as_array(), np.array([0.0]))
    assert time.perf_counter() - t0 < 5.0


def test_criterion_07_perturbed_cat_map_always_tracks():
    """Ten seeded conservative perturbations at delta = 1e-3 all track at
    eps = 0.1, N = 30; each witness is produced by the sequence-space Newton
    solver and re-verified by direct orbit comparison."""
    t0 = time.perf_counter()
    f = cat_map()
    x = (0.2, 0.3)
    for s in range(10):
        mode = "shear-sin" if s % 2 == 0 else "translation"
        g = make_conservative_perturbation(f, 1e-3, mode, seed=s)
        m = method_from_map(f, g, 30)
        v = check_inverse_shadowing(f, m, x, 0.1, 30, grid_step=1 / 64)
        assert v.outcome == "tracked", s
        assert v.note == "witness from newton solver"

        true_pts = orbit_segment(f, x, 30).as_array()
        rep = shadow_solve_newton(g, PseudoOrbit.checked(g, true_pts, m.delta))
        assert rep.converged
        y = rep.points[30]
        g_orbit = orbit_segment(g, tuple(y), 30).as_array()
        worst = max(float(dist_array(a, b)) for a, b in zip(g_orbit, true_pts))
        assert worst < 0.1
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_newton_solver_matches_brute_force():
    """On 20 random pseudo-orbits of the cat map (N = 5), the Newton solver
    lands within one 400^2-grid cell of the brute-force argmin, and the grid
    minimum exceeds the solver value by at most the Lipschitz cell bound."""
    f = cat_map()
    A = np.array(CAT, dtype=np.int64)
    A_inv = np.array([[1, -1], [-1, 2]], dtype=np.int64)
    N, G = 5, 400
    axis = np.arange(G) / G
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    cell = math.sqrt(2.0) / G
    L = horizon_lipschitz_bound(f, N)

    rng = np.random.default_rng(0)
    for trial in range(20):
        pts = orbit_segment(f, tuple(rng.random(2)), N).as_array()
        pts = (pts + rng.uniform(-1e-4, 1e-4, size=pts.shape)) % 1.0
        po = PseudoOrbit.checked(f, pts, 1e-3)
        res = shadow_solve_newton(f, po)
        y_star, achieved = res.points[N], res.achieved

        objective = np.full(len(grid), -np.inf)
        for k in range(-N, N + 1):
            Mk = matrix_power(A if k >= 0 else A_inv, abs(k)).astype(float)
            d = np.abs((grid @ Mk.T) % 1.0 - pts[N + k])
            d = np.minimum(d, 1.0 - d)
            objective = np.maximum(objective, np.hypot(d[:, 0], d[:, 1]))
        best = int(np.argmin(objective))

        gap = np.abs(grid[best] - y_star)
        gap = np.minimum(gap, 1.0 - gap)
        assert float(np.hypot(*gap)) < cell, trial
        assert -1e-12 <= float(objective[best]) - achieved <= L * cell, trial


def test_criterion_09_tracking_witnesses_pass_weak_and_orbital():
    """Randomized battery: whenever the inverse check tracks, its witness also
    satisfies the weak and orbital variants, with objective values in the
    order weak <= orbital <= pointwise.  Zero exceptions."""
    cat, shear, ident = cat_map(), shear_map(), torus_identity()
    golden = make_rotation(GOLDEN_ROTATION)
    battery = [
        (cat, method_from_map(cat, make_conservative_perturbation(cat, 1e-3, "shear-sin", seed=11), 8), (0.1, 0.7), 0.05, 8),
        (cat, method_from_map(cat, make_translation_method_map(cat, 0.002), 10), (0.3, 0.4), 0.1, 10),
        (shear, method_from_map(shear, make_translation_method_map(shear, 0.01), 25), (0.0, 0.0), 0.1, 25),
        (shear, method_from_map(shear, make_translation_method_map(shear, 0.001), 10), (0.5, 0.25), 0.1, 10),
        (golden, method_from_map(golden, make_rotation(GOLDEN_ROTATION + 0.005), 12), (0.0,), 0.08, 12),
        (ident, method_from_map(ident, make_translation_method_map(ident, 0.004), 12), (0.8, 0.8), 0.1, 12),
        (cat, method_from_map(cat, make_conservative_perturbation(cat, 1e-3, "translation", seed=23), 15), (0.45, 0.9), 0.1, 15),
        (shear, method_from_map(shear, make_conservative_perturbation(shear, 2e-3, "shear-sin", seed=29), 8), (0.2, 0.6), 0.1, 8),
    ]
    tracked = 0
    for f, m, x, eps, N in battery:
        v = check_inverse_shadowing(f, m, x, eps, N, grid_step=1 / 16)
        if v.outcome != "tracked":
            continue
        tracked += 1
        w = v.witness.as_array()
        D = _wrapped_dmat(m.evaluate(tuple(w), N).as_array(),
                          orbit_segment(f, x, N).as_array())
        pointwise = float(np.max(np.diag(D)))
        weak = float(np.max(np.min(D, axis=1)))
        orbital = max(weak, float(np.max(np.min(D, axis=0))))
        assert abs(pointwise - v.achieved) < 1e-10
        assert weak <= orbital + 1e-15 and orbital <= pointwise + 1e-15
        assert pointwise < eps
        for checker in (check_weak_inverse, check_orbital_inverse):
            assert checker(f, m, x, eps, N, grid_step=1 / 16, seeds=[w]).outcome == "tracked"
    assert tracked == 7  # one battery entry is the designed drift failure


def test_criterion_10_reports_are_thread_deterministic():
    """Identical seeds and parameters give byte-identical reports regardless
    of the worker count."""
    lone = run_drift_weak(threads=1).to_json()
    many = run_drift_weak(threads=max(2, os.cpu_count() or 2)).to_json()
    assert lone == many

    f = shear_map()
    m = _drift_method(f, 0.01, 25)
    r1 = check_inverse_shadowing(f, m, (0.0, 0.0), 0.1, 25, grid_step=1 / 64,
                                 threads=1).to_record()
    r2 = check_inverse_shadowing(f, m, (0.0, 0.0), 0.1, 25, grid_step=1 / 64,
                                 threads=max(2, os.cpu_count() or 2)).to_record()
    assert r1 == r2
