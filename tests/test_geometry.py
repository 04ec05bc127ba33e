"""Tests for the quotient metric, torus points and lattices."""

import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.geometry import (
    BOUND_CELLS,
    TorusPoint,
    bound_cells,
    dist_array,
    lattice_points,
    reduce_coord,
    reduce_to_unit,
    sq_dist_array,
    sq_dist_bounds,
    torus_dist,
    wrap_to_half,
)
from shadowlab.geometry import _per_axis
from shadowlab.systems import shear_map


def brute_force_dist(a, b):
    """Oracle: minimum Euclidean distance over the 3^dim integer translates."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    best = math.inf
    if a.size == 1:
        for k in (-1, 0, 1):
            best = min(best, abs(a[0] - b[0] + k))
    else:
        for k0 in (-1, 0, 1):
            for k1 in (-1, 0, 1):
                best = min(best, math.hypot(a[0] - b[0] + k0, a[1] - b[1] + k1))
    return best


# ---------------------------------------------------------------------------
# Wrapping helpers
# ---------------------------------------------------------------------------

def test_reduce_to_unit_basics():
    assert reduce_to_unit(np.array([1.25, -0.25])).tolist() == [0.25, 0.75]
    assert reduce_to_unit(np.array([0.0, 1.0, -1.0])).tolist() == [0.0, 0.0, 0.0]


def test_reduce_to_unit_tiny_negative_stays_inside():
    # x - floor(x) rounds to exactly 1.0 for tiny negative x; the reduction must not.
    out = reduce_to_unit(np.array([-1e-18]))
    assert 0.0 <= out[0] < 1.0


def test_reduce_is_idempotent():
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, size=100)
    once = reduce_to_unit(x)
    assert np.array_equal(once, reduce_to_unit(once))


def test_reduce_to_unit_on_empty_zero_d_and_edge_inputs():
    assert reduce_to_unit(np.empty((0, 2))).shape == (0, 2)
    assert reduce_to_unit([]).shape == (0,)
    for v, want in ((-1e-18, 0.0), (-0.0, 0.0), (2.25, 0.25)):
        r = reduce_to_unit(v)
        assert isinstance(r, np.ndarray) and r.shape == () and bits(r) == bits(want)
    assert np.isnan(reduce_to_unit(np.nan))
    # a NaN must not hide a 1.0 that still needs the fix-up
    out = reduce_to_unit(np.array([np.nan, -1e-18, -0.0, 0.5]))
    assert np.isnan(out[0]) and bits(out[1:]).tolist() == bits([0.0, 0.0, 0.5]).tolist()
    x = np.array([0.25, -1e-18])
    assert reduce_to_unit(x) is not x and x.tolist() == [0.25, -1e-18]  # a new array; the input is kept


def test_wrap_to_half_window():
    vals = wrap_to_half(np.array([0.75, -0.75, 0.5, -0.5, 0.0]))
    assert vals.tolist() == [-0.25, 0.25, -0.5, -0.5, 0.0]
    assert np.all(vals >= -0.5) and np.all(vals < 0.5)


# ---------------------------------------------------------------------------
# The kernels against the remainder formulas they replaced
# ---------------------------------------------------------------------------

def remainder_reduce(values):
    r = np.asarray(values, dtype=float) % 1.0
    return np.where(r == 1.0, 0.0, r)


def remainder_wrap(values):
    r = (np.asarray(values, dtype=float) + 0.5) % 1.0
    return np.where(r == 1.0, 0.0, r) - 0.5


def remainder_sq_dist(a, b):
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.einsum("...i,...i->...", d, d)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


_EDGES = [0.0, -0.0, 1e-300, -1e-300, 1e-18, -1e-18, 0.5, -0.5, 0.25, -0.75,
          1.0, -1.0, 2.0, -3.0, 7.0, -1e6, 2.0 ** 52, -(2.0 ** 53), 1e17, -1e17,
          np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
          -np.nextafter(1.0, 2.0), np.nextafter(0.5, 0.0), -np.nextafter(0.5, 1.0)]


def _lifts():
    rng = np.random.default_rng(17)
    scales = 10.0 ** np.arange(-300, 18, 7)
    spread = (rng.uniform(-1.0, 1.0, (len(scales), 500)) * scales[:, None]).ravel()
    return np.concatenate([_EDGES, spread, rng.integers(-10**6, 10**6, 200).astype(float)])


def test_reduce_and_wrap_match_the_remainder_formulas_bitwise():
    x = _lifts()
    assert np.array_equal(bits(reduce_to_unit(x)), bits(remainder_reduce(x)))
    assert np.array_equal(bits(wrap_to_half(x)), bits(remainder_wrap(x)))
    r = reduce_to_unit(x)
    assert np.all((r >= 0.0) & (r < 1.0))
    assert np.array_equal(bits(reduce_to_unit(-0.0)), bits(0.0))


def test_reduce_coord_is_reduce_to_unit_bit_for_bit():
    x = np.concatenate([_lifts(), [np.nan, np.inf, -np.inf]])
    one = np.array([reduce_coord(v) for v in x.tolist()])
    with np.errstate(invalid="ignore"):  # inf - floor(inf)
        ref = reduce_to_unit(x)
    assert np.array_equal(bits(one[:-3]), bits(ref[:-3]))
    assert np.isnan(one[-3:]).all() and np.isnan(ref[-3:]).all()
    assert all(type(reduce_coord(v)) is float for v in (-0.0, -1e-18, 2.5))


def test_nan_stays_nan_through_the_kernels():
    x = np.array([np.nan, 0.25, -np.nan])
    for out in (reduce_to_unit(x), wrap_to_half(x)):
        assert np.isnan(out[[0, 2]]).all() and not np.isnan(out[1])
    assert np.isnan(sq_dist_array([np.nan, 0.2], [0.1, 0.2]))
    assert np.isnan(sq_dist_array([0.1], [np.nan]))


@pytest.mark.parametrize("dim", [1, 2])
def test_sq_dist_array_matches_the_remainder_formula_bitwise(dim):
    # the nearest-integer form is exact for every finite difference, so the
    # match holds for lifts far outside [0, 1) as well as for reduced points
    rng = np.random.default_rng(23 + dim)
    lifts = _lifts()
    for la, lb in ((rng.uniform(-3, 3, (4000, dim)), rng.uniform(-1e-3, 1, (4000, dim))),
                   (rng.choice(lifts, (4000, dim)), rng.choice(lifts, (4000, dim)))):
        for a, b in ((la, lb), (reduce_to_unit(la), reduce_to_unit(lb))):
            assert np.array_equal(bits(sq_dist_array(a, b)), bits(remainder_sq_dist(a, b)))
            pts, targets = a[:300, None, :], b[:51]
            got = sq_dist_array(pts, targets)
            assert got.shape == (300, 51)
            assert np.array_equal(bits(got), bits(remainder_sq_dist(pts, targets)))
            assert np.array_equal(bits(sq_dist_array(a, b[7])), bits(remainder_sq_dist(a, b[7])))
            one = sq_dist_array(a[0], b[0])
            assert type(one) is np.float64
            assert bits(one) == bits(remainder_sq_dist(a[0], b[0]))


def test_geometry_is_the_only_module_with_a_wrap():
    wrap = re.compile(r"%\s*1(\.0*)?(?![\d.])|\bnp\.(floor|rint|remainder|fmod|mod)\b")
    src = Path(__file__).resolve().parent.parent / "src" / "shadowlab"
    found = {p.name for p in src.glob("*.py") if wrap.search(p.read_text(encoding="utf-8"))}
    assert found == {"geometry.py"}


# ---------------------------------------------------------------------------
# Distance against the translate oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_dist_matches_translate_oracle_2d(seed):
    rng = random.Random(seed)
    a = (rng.random(), rng.random())
    b = (rng.random(), rng.random())
    got = torus_dist(TorusPoint(a), TorusPoint(b))
    assert got == pytest.approx(brute_force_dist(a, b), abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_dist_matches_translate_oracle_1d(seed):
    rng = random.Random(100 + seed)
    a, b = (rng.random(),), (rng.random(),)
    got = torus_dist(TorusPoint(a), TorusPoint(b))
    assert got == pytest.approx(brute_force_dist(a, b), abs=1e-12)


def test_frozen_wraparound_distance():
    # 0.2 apart in each coordinate across the seam: 0.2 * sqrt(2).
    got = torus_dist(TorusPoint((0.9, 0.9)), TorusPoint((0.1, 0.1)))
    assert got == pytest.approx(0.2 * math.sqrt(2.0), rel=1e-12)
    assert got <= math.sqrt(2.0) / 2.0


def test_distance_caps():
    assert torus_dist(TorusPoint((0.0,)), TorusPoint((0.5,))) == pytest.approx(0.5)
    far = torus_dist(TorusPoint((0.0, 0.0)), TorusPoint((0.5, 0.5)))
    assert far == pytest.approx(math.sqrt(2.0) / 2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
       st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2),
       st.lists(st.floats(0, 1, exclude_max=True), min_size=2, max_size=2))
def test_metric_axioms(pa, pb, pc):
    """Symmetry, identity, and the triangle inequality on the torus."""
    a, b, c = TorusPoint(tuple(pa)), TorusPoint(tuple(pb)), TorusPoint(tuple(pc))
    dab = torus_dist(a, b)
    assert dab == torus_dist(b, a)
    assert torus_dist(a, a) == 0.0
    assert dab <= torus_dist(a, c) + torus_dist(c, b) + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_translation_invariance_1d(x, t):
    a = TorusPoint((x,))
    b = TorusPoint((x + t,))
    shifted_a = TorusPoint((x + 0.3,))
    shifted_b = TorusPoint((x + t + 0.3,))
    assert torus_dist(a, b) == pytest.approx(torus_dist(shifted_a, shifted_b), abs=1e-12)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

def test_torus_point_reduces_and_compares():
    assert TorusPoint((1.25, -0.75)) == TorusPoint((0.25, 0.25))
    assert TorusPoint((0.25,)).dim == 1
    p = TorusPoint((0.25, -0.75, 2.5))  # a point of the 3-torus
    assert p.dim == 3 and p == TorusPoint((1.25, 0.25, 0.5))
    assert torus_dist(p, TorusPoint((0.25, 0.75, 0.0))) == math.sqrt(0.5)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_torus_point_rejects_non_finite_coordinates(bad):
    # checked before the reduction, which would store inf as NaN
    want = re.escape(f"point coordinates must be finite, got [{bad}, 0.1]")
    with pytest.raises(ValueError, match=f"^{want}$"):
        TorusPoint((bad, 0.1))


def test_torus_point_coordinates_are_reduce_to_unit_bit_for_bit():
    lifts = _lifts()
    pairs = np.stack([lifts, np.roll(lifts, 7)], axis=1)
    for row in pairs[::5].tolist():
        p = TorusPoint(tuple(row))
        assert all(type(c) is float for c in p.coords)
        assert bits(p.coords).tolist() == bits(reduce_to_unit(row)).tolist()
    assert TorusPoint((np.float64(1.25), 3)).coords == (0.25, 0.0)
    for other in ([1.25, -0.5], np.array([1.25, -0.5]), (np.float32(1.25), -0.5)):
        assert TorusPoint(other).coords == (0.25, 0.5)
    assert TorusPoint(1.25).coords == (0.25,)


@pytest.mark.parametrize("coords, want", [
    (((0.1, 0.2, 0.3),), "a point has one or more coordinates in a flat sequence, got coords of shape (1, 3)"),
    ((), "a point has one or more coordinates in a flat sequence, got coords of shape (0,)"),
    (((0.1, 0.2),), "a point has one or more coordinates in a flat sequence, got coords of shape (1, 2)"),
    ((math.inf,), "point coordinates must be finite, got [inf]"),
    ((0.1, -math.inf), "point coordinates must be finite, got [0.1, -inf]"),
    ((math.nan, 0.1, 0.2), "point coordinates must be finite, got [nan, 0.1, 0.2]"),
])
def test_torus_point_error_texts(coords, want):
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        TorusPoint(coords)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        torus_dist(TorusPoint((0.1,)), TorusPoint((0.1, 0.2)))


# ---------------------------------------------------------------------------
# Array kernels used by the sweeps
# ---------------------------------------------------------------------------

def test_dist_array_broadcasts_full_matrix():
    pts = np.array([[0.0, 0.0], [0.9, 0.9]])
    targets = np.array([[0.1, 0.1], [0.5, 0.5]])
    mat = dist_array(pts[:, None, :], targets[None, :, :])
    assert mat.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            assert mat[i, j] == pytest.approx(brute_force_dist(pts[i], targets[j]), abs=1e-12)


def test_sq_dist_array_is_the_unrooted_distance():
    rng = np.random.default_rng(11)
    pts = rng.random((40, 2))
    targets = rng.random((7, 2))
    sq = sq_dist_array(pts[:, None, :], targets)
    assert np.array_equal(np.sqrt(sq), dist_array(pts[:, None, :], targets))
    want = [[brute_force_dist(p, t) ** 2 for t in targets] for p in pts]
    assert np.allclose(sq, want, atol=1e-12)


@pytest.mark.parametrize("G, offset", [(8, 0.0), (17, 0.37), (64, 0.5)])
def test_lattice_points_match_the_meshgrid_in_ij_order(G, offset):
    ax = (np.arange(G) + offset) / G
    g0, g1 = np.meshgrid(ax, ax, indexing="ij")
    assert np.array_equal(lattice_points(G, 2, offset), np.stack([g0.ravel(), g1.ravel()], axis=1))
    assert np.array_equal(lattice_points(G, 1, offset), ax[:, None])
    assert np.array_equal(lattice_points(G, 2, offset, idx=[3, G + 1]), [[ax[0], ax[3]], [ax[1], ax[1]]])
    g3 = np.stack([g.ravel() for g in np.meshgrid(ax, ax, ax, indexing="ij")], axis=1)
    assert lattice_points(G, 3, offset).tobytes() == g3.tobytes()
    assert lattice_points(G, 3, offset, idx=[G * G + 2]).tobytes() == np.array([[ax[1], ax[0], ax[2]]]).tobytes()


# ---------------------------------------------------------------------------
# The per-cell bound table
# ---------------------------------------------------------------------------

def _bound_test_points(rng, targets, dim):
    """Random points, points on cell edges k/H, 1 ulp below 1.0, and on (and 1 ulp off) the targets."""
    H = _per_axis(BOUND_CELLS, dim)
    below_one = np.nextafter(1.0, 0.0)
    edges = rng.integers(0, H, (400, dim)) / H
    mixed = rng.random((400, dim))
    mixed[:200, 0] = edges[:200, 0]
    mixed[200:, -1] = edges[200:, -1]
    last = rng.random((50, dim))
    last[:, rng.integers(dim)] = below_one
    on = targets - np.floor(targets)
    on = on[np.all(on < 1.0, axis=1)]
    near = np.concatenate([np.nextafter(on, 0.0), np.nextafter(on, 1.0)])
    pts = np.concatenate([rng.random((600, dim)), edges, mixed, last, np.full((1, dim), below_one), on, near])
    return pts[np.all((pts >= 0.0) & (pts < 1.0), axis=1)]


@pytest.mark.parametrize("lifted", [False, True])
@pytest.mark.parametrize("n", [1, 2, 51, 601])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sq_dist_bounds_enclose_the_float_minimum(dim, n, lifted):
    """lo <= min over targets of sq_dist_array <= hi at every point of every cell, bit for bit."""
    H = _per_axis(BOUND_CELLS, dim)
    rng = np.random.default_rng(1000 * n + 10 * dim + lifted)
    targets = rng.random((n, dim))
    targets[: n // 3] = rng.integers(0, H, (n // 3, dim)) / H  # targets on cell edges
    if lifted:  # targets given as lifts: the bounds must cover the rounding of larger differences
        targets = targets + rng.integers(-3, 4, (n, dim))
    lo, hi = sq_dist_bounds(targets, block=2048)
    assert lo.shape == hi.shape == (H ** dim + 1,)
    pts = _bound_test_points(rng, targets, dim)
    cells = bound_cells(pts)
    assert (cells < H ** dim).all()
    exact = sq_dist_array(pts[:, None, :], targets).min(axis=1)
    assert (lo[cells] <= exact).all()
    assert (exact <= hi[cells]).all()
    # the table is tight: on a cell of side 1/H, hi - lo is at most dim / H (plus the rounding)
    assert (hi[:-1] - lo[:-1]).max() <= dim / H * (1 + 1e-9)


def test_bound_cells_numbers_cells_in_ij_order_and_sends_outsiders_to_the_extra_cell():
    H = BOUND_CELLS
    below_one = np.nextafter(1.0, 0.0)
    pts = np.array([[0.0, 0.0], [1 / H, 0.0], [0.0, 1 / H], [below_one, below_one], [0.5, np.nextafter(0.5, 0)]])
    assert bound_cells(pts).tolist() == [0, H, 1, H * H - 1, (H // 2) * H + H // 2 - 1]
    assert bound_cells(np.array([[0.25], [below_one]])).tolist() == [H // 4, H - 1]
    outside = np.array([[1.0, 0.5], [-1e-300, 0.5], [0.5, np.nan], [0.5, np.inf], [0.2, 0.3]])
    assert bound_cells(outside).tolist() == [H * H] * 4 + [int(0.2 * H) * H + int(0.3 * H)]
    lo, hi = sq_dist_bounds(np.array([[0.2, 0.3]]), block=2048)
    assert (lo[-1], hi[-1]) == (0.0, math.inf)


def test_cells_per_axis_stay_128_on_two_axes_and_within_128_squared_above():
    assert [_per_axis(BOUND_CELLS, d) for d in (1, 2, 3, 4, 5, 8)] == [128, 128, 16, 8, 4, 2]
    H = _per_axis(BOUND_CELLS, 3)
    pts = np.array([[0.0, 0.0, 1 / H], [1 / H, 2 / H, np.nextafter(1.0, 0.0)], [0.5, 0.5, 1.0]])
    assert bound_cells(pts).tolist() == [1, H * H + 2 * H + H - 1, H ** 3]
    lo, hi = sq_dist_bounds(np.array([[0.2, 0.3, 0.4]]), block=2048)
    assert lo.shape == (H ** 3 + 1,) and (lo[-1], hi[-1]) == (0.0, math.inf)


def _per_target_bounds(targets, block):
    """``sq_dist_bounds`` as one column per target, with no grouping: the reference for the grouped table."""
    T = np.asarray(targets, dtype=float)
    H, dim = BOUND_CELLS, T.shape[-1]
    edges = np.arange(H + 1)[:, None] / H
    lo_ax, hi_ax = [], []
    for k in range(dim):
        w = edges - T[:, k]
        w = np.abs(w - np.rint(w))
        mid, pad = (w[:-1] + w[1:]) / 2, 1.0 / (2 * H) + 2.0 ** -50 * (1.0 + np.abs(T[:, k]))
        lo_ax.append(np.square(np.maximum(mid - pad, 0.0)))
        hi_ax.append(np.square(np.minimum(mid + pad, 0.5)))
    if dim == 1:
        lo, hi = lo_ax[0].min(axis=1), hi_ax[0].min(axis=1)
    else:
        lo, hi = np.empty(H * H), np.empty(H * H)
        rows = max(1, block // H)
        for r in range(0, H, rows):
            cells = slice(r * H, min(r + rows, H) * H)
            lo[cells] = (lo_ax[0][r:r + rows, None, :] + lo_ax[1][None, :, :]).min(axis=2).ravel()
            hi[cells] = (hi_ax[0][r:r + rows, None, :] + hi_ax[1][None, :, :]).min(axis=2).ravel()
    return np.append(lo * (1.0 - 2.0 ** -50), 0.0), np.append(hi * (1.0 + 2.0 ** -50), np.inf)


def _shear_orbit(x, N):
    f = shear_map()
    out = [np.array(x, dtype=float)]
    for _ in range(N):
        out.append(f.forward(out[-1]))
    back = [np.array(x, dtype=float)]
    for _ in range(N):
        back.append(f.backward(back[-1]))
    return np.array(back[:0:-1] + out)


def _grouping_targets():
    rng = np.random.default_rng(23)
    H = BOUND_CELLS
    mixed = rng.random((51, 2))
    mixed[:, 0] = rng.choice([0.0, -0.0, 0.3, 1 / H, np.nextafter(0.3, 1.0)], 51)
    mixed[::4, 1] = rng.integers(0, H, 13) / H
    one = np.column_stack([np.full(51, 0.37), rng.random(51)])
    return {
        "one group": one,
        "mixed groups": mixed,
        "all distinct": rng.random((51, 2)),
        "lifted": mixed + rng.integers(-3, 4, (51, 2)),
        "one group, lifted": one + np.column_stack([np.zeros(51), rng.integers(-3, 4, 51)]),
        "shear orbit N=300": _shear_orbit([math.sqrt(2.0) - 1.0, 0.3], 300),
        "circle": rng.random((51, 1)),
    }


@pytest.mark.parametrize("block", [2048, 1000, 1])
@pytest.mark.parametrize("case", list(_grouping_targets()))
def test_grouped_bound_table_equals_the_per_target_table_bit_for_bit(case, block):
    """Grouping targets by first coordinate changes no bit of lo or hi."""
    targets = _grouping_targets()[case]
    if case == "shear orbit N=300":
        assert len(np.unique(targets, axis=0)) == 601 and len(np.unique(targets[:, 0])) == 1
    got, want = sq_dist_bounds(targets, block), _per_target_bounds(targets, block)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
