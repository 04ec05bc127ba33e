"""Tests for pseudo-orbits, delta-methods, and the orbit CSV format."""

import csv
import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import cli, orbits, systems
from shadowlab.geometry import TorusPoint, torus_dist
from shadowlab.orbits import (
    TRUE_ORBIT_DELTA,
    MethodSpec,
    PseudoOrbit,
    method_from_map,
    orbit_csv_text,
    orbit_segment,
    random_method,
)
from shadowlab.systems import (
    CAT_MATRIX,
    GOLDEN_ROTATION,
    cat_map,
    circle_identity,
    library_maps,
    make_conservative_perturbation,
    make_linear,
    make_rotation,
    make_translation_method_map,
    map_from_descriptor,
    shear_map,
    torus_identity,
)


# ---------------------------------------------------------------------------
# Orbit segments
# ---------------------------------------------------------------------------

def test_golden_rotation_segment_frozen_values():
    po = orbit_segment(make_rotation(GOLDEN_ROTATION), (0.0,), 3)
    got = [float(v) for v in po.as_array().ravel()]
    assert got == [
        0.1458980337503153,
        0.7639320225002102,
        0.3819660112501051,
        0.0,
        0.6180339887498949,
        0.2360679774997898,
        0.8541019662496847,
    ]


def test_rotation_quarter_segment():
    po = orbit_segment(make_rotation(0.25), (0.0,), 2)
    assert po.as_array().ravel().tolist() == [0.5, 0.75, 0.0, 0.25, 0.5]


def test_cat_segment_steps_forward_and_back():
    f = cat_map()
    po = orbit_segment(f, (0.2, 0.3), 2)
    assert po.point(1) == TorusPoint((0.7, 0.5))
    assert po.anchor == TorusPoint((0.2, 0.3))
    # the backward leg really is the inverse orbit (up to float roundtrip)
    assert torus_dist(TorusPoint.from_array(f.forward(po.point(-1).as_array())), po.point(0)) <= 1e-12


def _array_walk(g, y, N):
    """Positions -N..N of the points y (n, dim) by the array actions, one step at a time."""
    out = np.empty((2 * N + 1,) + y.shape)
    out[N] = y
    for act, sign in ((g.forward, 1), (g.backward, -1)):
        z = y
        for k in range(1, N + 1):
            z = act(z)
            out[N + sign * k] = z
    return out


def _walk_test_maps():
    """Every library map, then on the 3-torus the companion matrix of x^3 - x - 1, two of its
    sine-shear perturbations (axes 0 and 2, which shears by the first coordinate) and a drift."""
    f = make_linear([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    return library_maps() + [f, make_conservative_perturbation(f, 1e-3, "shear-sin"),
                             make_conservative_perturbation(f, 1e-3, "shear-sin", seed=1),
                             make_translation_method_map(f, 0.01)]


@pytest.mark.parametrize("idx", range(len(_walk_test_maps())))
def test_one_point_walk_equals_the_array_walk_bit_for_bit(idx):
    """Every library map walks one point in floats, and each step is the array step's row exactly.

    Compared with a one-row array walk and with the rows of a 2048-point
    batch, 300 steps each way.
    """
    g, N = _walk_test_maps()[idx], 300
    assert g.point_forward is not None and g.point_backward is not None
    ys = np.random.default_rng(100 + idx).random((2048, g.dim))
    batch = _array_walk(g, ys, N)
    for r in range(0, len(ys), 64):
        walk = dict(orbits._orbit_steps(g, ys[r], N))
        assert all(type(walk[i]) is tuple for i in walk)
        one = np.array([walk[i] for i in range(2 * N + 1)])
        assert one.tobytes() == _array_walk(g, ys[r:r + 1], N)[:, 0].tobytes()
        assert one.tobytes() == np.ascontiguousarray(batch[:, r]).tobytes()
        assert dict(orbits._orbit_steps(g, ys[r:r + 1], N)) == walk


def test_a_matrix_with_inexact_products_keeps_the_array_walk():
    """An entry that is neither 0 nor +-2^k can round a row alone differently from a batch."""
    f = cli.parse_system_spec("linear:5,8,3,5")
    for g in (f, cli.parse_method_spec("translate:0.001", f, 20, 0).source):
        assert g.point_forward is None and g.point_backward is None
        y = np.array([0.2, 0.3])
        steps = list(orbits._orbit_steps(g, y, 3))
        assert all(isinstance(z, np.ndarray) and z.shape == y.shape for _, z in steps)
    assert make_linear([[1, -4], [0, 1]]).point_backward is not None
    assert make_linear([[2, 3], [1, 2]]).point_backward is None
    # exact both ways, or neither: the inverse [[0, 1, 0], [1, -1, 0], [-1, 1, 1]] has a row of three
    g = cli.parse_system_spec("linear:1,1,0,1,0,0,0,1,1")
    assert g.point_forward is None and g.point_backward is None
    assert len(list(orbits._orbit_steps(g, np.array([0.2, 0.3, 0.4]), 3))) == 7


def test_orbit_segment_rejects_bad_horizon():
    with pytest.raises(ValueError):
        orbit_segment(cat_map(), (0.0, 0.0), 0)


# ---------------------------------------------------------------------------
# PseudoOrbit container
# ---------------------------------------------------------------------------

def test_pseudo_orbit_shape_gates():
    with pytest.raises(ValueError):
        PseudoOrbit(points=np.zeros((4, 2)), horizon=2, delta_bound=0.1)  # even count
    with pytest.raises(ValueError):
        PseudoOrbit.checked(cat_map(), np.zeros((1, 2)), 0.1)  # horizon 0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_pseudo_orbit_rejects_non_finite_rows(bad):
    f = cat_map()
    pts = orbit_segment(f, (0.2, 0.3), 3).as_array()
    pts[4, 1] = bad
    want = re.escape(f"pseudo-orbit coordinates must be finite, got [{float(pts[4, 0])!r}, {bad}] in row 4")

    def forward(x):
        raise AssertionError("the map ran on points that were not checked")

    with pytest.raises(ValueError, match=f"^{want}$"):
        PseudoOrbit.checked(replace(f, forward=forward), pts, 0.1)
    with pytest.raises(ValueError, match=f"^{want}$"):
        PseudoOrbit(points=pts, horizon=3, delta_bound=0.1)


def test_pseudo_orbit_indexing_and_anchor():
    po = orbit_segment(cat_map(), (0.2, 0.3), 3)
    assert len(po) == 7
    assert po.dim == 2
    assert po.point(-3).dim == 2
    with pytest.raises(IndexError):
        po.point(4)


def test_validation_boundary_is_strict():
    """Gaps exactly equal to delta do not validate; dyadic values make it exact."""
    f = circle_identity()
    seq = np.array([[0.0], [0.125], [0.25]])  # both gaps are exactly 0.125 under the identity
    with pytest.raises(ValueError, match="is not < delta_bound"):
        PseudoOrbit.checked(f, seq, 0.125)
    PseudoOrbit.checked(f, seq, 0.125 + 1e-9)


def test_validation_wraps_across_the_seam():
    f = circle_identity()
    seq = np.array([[0.95], [0.05], [0.1]])  # 0.1 through the seam, then 0.05
    PseudoOrbit.checked(f, seq, 0.11)
    with pytest.raises(ValueError, match="is not < delta_bound"):
        PseudoOrbit.checked(f, seq, 0.09)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-6, 0.2), st.floats(1e-7, 0.99))
def test_validation_is_monotone_in_delta(delta, frac):
    """A sequence valid at delta stays valid at every larger bound."""
    f = torus_identity()
    step = delta * frac / math.sqrt(2.0)
    seq = np.array([[0.0, 0.0], [step, step], [2 * step, 2 * step]])
    PseudoOrbit.checked(f, seq, delta)
    PseudoOrbit.checked(f, seq, delta * 2)


def test_true_orbit_validates_at_roundoff_scale():
    po = orbit_segment(cat_map(), (0.123, 0.456), 50)
    PseudoOrbit.checked(cat_map(), po.points, TRUE_ORBIT_DELTA)


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------

def test_method_spec_gates():
    f = cat_map()
    with pytest.raises(ValueError):
        MethodSpec(kind="nosuch", target=f, delta=0.1, horizon=5, label="x")
    with pytest.raises(ValueError):
        MethodSpec(kind="induced", target=f, delta=0.1, horizon=5, label="x")  # no source
    with pytest.raises(ValueError):
        MethodSpec(kind="raw", target=f, delta=0.1, horizon=5, label="x")  # no producer
    with pytest.raises(ValueError):
        method_from_map(f, f, 5).evaluate((0.2, 0.3), 0)


def test_method_from_map_delta_law():
    f = shear_map()
    g = make_translation_method_map(f, 0.01)
    m = method_from_map(f, g, 10)
    assert m.is_induced
    assert m.delta == 0.01 * 1.05  # the drift's gap is its delta, read off how g was built
    trivial = method_from_map(f, f, 10)
    assert trivial.delta == 1e-9  # absolute floor for the g = f case


def test_method_from_map_reads_library_gaps_without_sampling(monkeypatch):
    """Every method a library constructor or a method spec builds gets its delta unsampled."""
    def boom(*args, **kwargs):
        raise AssertionError("sampled the gap of a library method")

    for mod in (systems, orbits):
        if hasattr(mod, "c1_distance"):
            monkeypatch.setattr(mod, "c1_distance", boom)
    for g in library_maps():
        f = map_from_descriptor(g.descriptor["base"]) if "base" in g.descriptor else g
        method_from_map(f, g, 5).evaluate((0.25,) * g.dim)
    cat, golden = cat_map(), make_rotation(GOLDEN_ROTATION)
    assert method_from_map(cat, cat_map(), 5).delta == 1e-9  # equal descriptors
    for spec in ("same", "translate:0.01", "perturb:shear-sin:0.001:7", "perturb:translation:0.001:3",
                 '{"kind": "perturbation", "mode": "shear-sin", "delta": 0.002, "seed": 1,'
                 ' "base": {"kind": "linear", "matrix": [[2, 1], [1, 1]]}}'):
        cli.parse_method_spec(spec, cat, 5, 0).evaluate((0.25, 0.5))
    for spec in ("rotation:+0.01", "rotation:0.3", "translate:0.01", "perturb:translation:0.01"):
        cli.parse_method_spec(spec, golden, 5, 0).evaluate((0.25,))
    g = make_conservative_perturbation(cat, 1e-3, "shear-sin", seed=7)
    column = np.asarray(CAT_MATRIX, dtype=float)[:, g.descriptor["axis"]]
    assert method_from_map(cat, g, 5).delta == 2.0 * math.pi * 1e-3 * math.hypot(*column) * 1.05
    assert method_from_map(golden, make_rotation(0.25), 5).delta == (GOLDEN_ROTATION - 0.25) * 1.05


def test_method_from_map_samples_what_it_cannot_read(monkeypatch):
    """A drift of another map, a linear method and maps on another base keep the sampled delta bit for bit."""
    sampled = []
    c1_distance = systems.c1_distance

    def spy(f, g, samples=256):
        sampled.append(samples)
        return c1_distance(f, g, samples)

    monkeypatch.setattr(systems, "c1_distance", spy)
    cat, shear, ident = cat_map(), shear_map(), torus_identity()
    wobbly = make_conservative_perturbation(cat, 1e-3, "shear-sin", seed=2)  # not affine
    pairs = [
        (ident, make_translation_method_map(make_linear([[1, 0], [0, -1]]), 0.01)),
        (cat, make_linear([[1, 1], [1, 0]])),
        (cat, make_translation_method_map(shear, 0.01)),
        (cat, make_conservative_perturbation(shear, 1e-3, "shear-sin", seed=1)),
        (wobbly, make_conservative_perturbation(wobbly, 1e-3, "translation", seed=1)),
    ]
    for f, g in pairs:
        assert method_from_map(f, g, 5).delta == max(c1_distance(f, g, samples=128) * 1.05, 1e-9)
    assert sampled == [128] * len(pairs)


def test_induced_method_output_validates_and_anchors():
    f = shear_map()
    m = method_from_map(f, make_translation_method_map(f, 0.01), 8)
    po = m.evaluate((0.25, 0.75))
    assert po.horizon == 8
    assert po.anchor == TorusPoint((0.25, 0.75))
    PseudoOrbit.checked(f, po.points, m.delta)


def test_induced_method_horizon_override():
    f = cat_map()
    m = method_from_map(f, f, 5)
    assert len(m.evaluate((0.1, 0.2), 12)) == 25


def test_random_method_gates():
    f = cat_map()
    with pytest.raises(ValueError):
        random_method(f, 1e-9, seed=0)  # below the resolvable floor
    with pytest.raises(ValueError):
        random_method(f, 0.01, seed=-1)


def test_random_method_is_deterministic_per_seed_and_anchor():
    f = cat_map()
    m1 = random_method(f, 0.01, seed=3)
    m2 = random_method(f, 0.01, seed=3)
    a = m1.evaluate((0.2, 0.3), 6).as_array()
    b = m2.evaluate((0.2, 0.3), 6).as_array()
    assert np.array_equal(a, b)
    c = random_method(f, 0.01, seed=4).evaluate((0.2, 0.3), 6).as_array()
    assert not np.array_equal(a, c)
    d = m1.evaluate((0.2, 0.30001), 6).as_array()
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed", range(10))
def test_random_method_output_is_a_valid_pseudo_orbit(seed):
    f = cat_map()
    m = random_method(f, 0.01, seed=seed)
    po = m.evaluate((0.4, 0.9), 10)
    PseudoOrbit.checked(f, po.points, m.delta)
    assert po.anchor == TorusPoint((0.4, 0.9))


def test_random_method_on_the_circle():
    f = make_rotation(GOLDEN_ROTATION)
    m = random_method(f, 0.005, seed=1)
    po = m.evaluate((0.0,), 10)
    PseudoOrbit.checked(f, po.points, m.delta)


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------

def test_csv_header_and_row_count():
    po = orbit_segment(cat_map(), (0.2, 0.3), 50)
    text = orbit_csv_text(po)
    lines = text.strip().split("\n")
    assert lines[0] == "k,coord_0,coord_1"
    assert len(lines) == 1 + 101
    assert lines[1].startswith("-50,")
    assert lines[-1].startswith("50,")


def test_csv_header_on_the_circle():
    po = orbit_segment(make_rotation(GOLDEN_ROTATION), (0.0,), 2)
    assert orbit_csv_text(po).splitlines()[0] == "k,coord_0"


def test_csv_roundtrip_is_bit_exact():
    for po in (orbit_segment(cat_map(), (0.2, 0.3), 7),
               orbit_segment(make_rotation(GOLDEN_ROTATION), (0.25,), 4)):
        header, *rows = csv.reader(io.StringIO(orbit_csv_text(po)))
        assert header == ["k"] + [f"coord_{i}" for i in range(po.dim)]
        assert [int(r[0]) for r in rows] == list(range(-po.horizon, po.horizon + 1))
        pts = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.array_equal(pts, po.as_array())  # repr() floats survive the roundtrip
