"""Tests for the map constructors, their gates, and the C1/volume estimators."""

import math
import re

import numpy as np
import pytest

from shadowlab.geometry import TorusPoint, dist_array, reduce_to_unit
from shadowlab.hyperbolicity import anosov_certificate_linear
from shadowlab.systems import (
    CAT_MATRIX,
    GOLDEN_ROTATION,
    SHEAR_MATRIX,
    ConstructionError,
    LinearAutomorphism,
    SystemMap,
    c1_distance,
    cat_map,
    circle_identity,
    library_maps,
    make_conservative_perturbation,
    make_linear,
    make_rotation,
    make_translation_method_map,
    map_from_descriptor,
    map_to_descriptor,
    shear_map,
    spectral_norm,
    torus_identity,
    volume_defect,
)
from shadowlab.systems import _method_gap, _spectral_norm_batch


def fd_jacobian(f: SystemMap, x, h: float = 1e-6) -> np.ndarray:
    """Finite-difference oracle for the differential, via lifted central steps."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(f.dim):
        e = np.zeros(f.dim)
        e[j] = h
        # wrap the image difference to the symmetric window to undo the quotient
        d = f.forward(x + e) - f.forward(x - e)
        d = (d + 0.5) % 1.0 - 0.5
        cols.append(d / (2.0 * h))
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# Linear automorphisms
# ---------------------------------------------------------------------------

def test_cat_map_step():
    assert TorusPoint.from_array(cat_map().forward(np.array([0.2, 0.3]))) == TorusPoint((0.7, 0.5))


def test_unimodularity_gate():
    with pytest.raises(ConstructionError):
        LinearAutomorphism([[2, 0], [0, 1]])
    with pytest.raises(ConstructionError):
        LinearAutomorphism([[1.5, 0], [0, 1]])
    assert LinearAutomorphism([[1, 1], [1, 0]]).det == -1
    assert LinearAutomorphism(CAT_MATRIX).det == 1


@pytest.mark.parametrize("entry, shown", [(2**63, "9223372036854775808"),
                                          (-2**63 - 1, "-9223372036854775809"),
                                          (1e19, "1e+19")])
def test_entries_int64_cannot_hold_are_rejected(entry, shown):
    message = re.escape(f"matrix entry {shown} does not fit a 64-bit integer")
    for build in (LinearAutomorphism, make_linear, anosov_certificate_linear):
        with pytest.raises(ConstructionError, match=message):
            build([[entry, 1], [1, 0]])
    with pytest.raises(ConstructionError, match=message):
        map_from_descriptor({"kind": "linear", "matrix": [[entry, 1], [1, 0]]})


def test_int64_extremes_are_kept_exactly():
    for entry in (2**63 - 1, -2**63):
        assert LinearAutomorphism([[entry, 1], [1, 0]]).matrix[0, 0] == entry


def test_integer_inverse_is_exact():
    for M in (CAT_MATRIX, SHEAR_MATRIX, [[1, 1], [1, 0]], [[0, -1], [1, 0]]):
        aut = LinearAutomorphism(M)
        prod = aut.matrix @ aut.inverse_matrix()
        assert np.array_equal(prod, np.eye(2, dtype=np.int64))


# The companion matrices of x^3 - x - 1 (det 1) and of x^3 - x + 1 (det -1).
COMPANION = [[0, 1, 0], [0, 0, 1], [1, 1, 0]]
COMPANION_DET_MINUS_ONE = [[0, 1, 0], [0, 0, 1], [-1, 1, 0]]


@pytest.mark.parametrize("M, det", [(COMPANION, 1), (COMPANION_DET_MINUS_ONE, -1),
                                    ([[2, 1, 1], [1, 1, 0], [1, 0, 1]], 0),
                                    ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 2),
                                    ([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1]], -1),
                                    ([[3, 5, 0, 1], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]], 1)])
def test_square_integer_det_and_inverse_are_exact(M, det):
    """det and inverse agree with Laplace expansion and A A^-1 = I in integers; |det| != 1 is refused."""
    def laplace(A):
        return A[0][0] if len(A) == 1 else sum(
            (-1) ** j * A[0][j] * laplace([r[:j] + r[j + 1:] for r in A[1:]]) for j in range(len(A)))
    assert laplace(M) == det
    if abs(det) != 1:
        with pytest.raises(ConstructionError, match=re.escape(f"got det = {det}")):
            LinearAutomorphism(M)
        return
    aut = LinearAutomorphism(M)
    assert aut.det == det and type(aut.det) is int
    inv = aut.inverse_matrix()
    assert inv.dtype == np.int64
    assert np.array_equal(aut.matrix @ inv, np.eye(len(M), dtype=np.int64))
    assert np.array_equal(inv @ aut.matrix, np.eye(len(M), dtype=np.int64))


def test_random_unimodular_products_invert_exactly():
    """Products of integer shears and a row swap: det +-1, and the inverse is exact in int64."""
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            A = np.eye(n, dtype=np.int64)
            for _ in range(6):
                E = np.eye(n, dtype=np.int64)
                i, j = rng.choice(n, 2, replace=False)
                E[i, j] = rng.integers(-3, 4)
                A = A @ E
            swap = rng.integers(2)
            if swap:
                A = A[[1, 0] + list(range(2, n))]
            aut = LinearAutomorphism(A)
            assert aut.det == (-1) ** swap
            assert np.array_equal(A @ aut.inverse_matrix(), np.eye(n, dtype=np.int64))


def test_non_square_matrices_are_refused():
    for M in ([[1, 0, 0], [0, 1, 0]], [1, 0], [], [[1, 0], [0]]):
        with pytest.raises(ConstructionError, match="^expected a square matrix"):
            LinearAutomorphism(M)


def test_an_inverse_int64_cannot_hold_is_refused_when_asked_for():
    aut = LinearAutomorphism([[-2**63, 1], [1, 0]])  # its inverse holds 2**63
    with pytest.raises(ConstructionError, match="^inverse entry 9223372036854775808 does not fit a 64-bit integer$"):
        aut.inverse_matrix()


def test_a_3x3_automorphism_is_a_map_of_the_3_torus():
    f = make_linear(COMPANION)
    assert (f.label, f.dim, f.descriptor) == ("linear[0,1,0;0,0,1;1,1,0]", 3,
                                              {"kind": "linear", "matrix": COMPANION})
    x = np.array([0.25, 0.5, 0.75])
    assert f.forward(x).tolist() == [0.5, 0.75, 0.75]
    assert f.backward(f.forward(x)).tolist() == x.tolist()
    assert f.lip_forward == pytest.approx(np.linalg.norm(COMPANION, 2), rel=1e-12)
    g = make_linear([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    h = make_linear([[1, 1, 1], [0, 1, 0], [0, 0, 1]])  # a row of three exact products rounds twice
    assert g.point_forward is not None and h.point_forward is None and h.point_backward is None
    assert volume_defect(f) == 0.0


def test_c1_samples_on_the_3_torus_stay_within_the_2_torus_lattice_size():
    """A linear method on T^3 is a pair _method_gap cannot read; its sample uses 16^3, not 128^3, points."""
    import tracemalloc
    from shadowlab.geometry import lattice_points
    f, g = make_linear(COMPANION), make_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    tracemalloc.start()
    gap = _method_gap(f, g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 * 2**20  # a 128^3 lattice alone takes 50 MB
    pts = lattice_points(16, 3)
    assert gap == max(float(dist_array(f.forward(pts), g.forward(pts)).max()),
                      float(np.linalg.norm(np.array(COMPANION) - np.eye(3), 2)))
    # on the 2-torus the lattice is 128^2, as before
    cat, shear = cat_map(), shear_map()
    pts = lattice_points(128, 2)
    assert _method_gap(cat, shear) == max(float(dist_array(cat.forward(pts), shear.forward(pts)).max()),
                                          spectral_norm(np.array(CAT_MATRIX) - np.array(SHEAR_MATRIX)))


def test_constructions_that_are_2d_by_nature_keep_their_boundary_errors():
    f = make_linear(COMPANION)
    with pytest.raises(ConstructionError, match="^translation perturbation is defined on the circle and the 2-torus only$"):
        make_conservative_perturbation(f, 1e-3, "translation", seed=3)
    with pytest.raises(ConstructionError, match="^shear-sin perturbation needs two or more coordinates$"):
        make_conservative_perturbation(circle_identity(), 1e-3, "shear-sin")


def test_spectral_norm_of_a_3x3_is_the_largest_singular_value():
    M = np.random.default_rng(7).normal(size=(3, 3))
    assert spectral_norm(M) == pytest.approx(np.linalg.svd(M)[1][0], rel=1e-12)
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        spectral_norm(np.ones((2, 3)))


def test_hyperbolicity_classification():
    assert anosov_certificate_linear(CAT_MATRIX) is not None
    assert anosov_certificate_linear(SHEAR_MATRIX) is None
    assert anosov_certificate_linear([[0, -1], [1, 0]]) is None  # rotation by 90°
    assert anosov_certificate_linear(np.eye(2, dtype=int)) is None


def test_cat_eigenvalues_are_golden():
    # the rate is the stable eigenvalue, and 1 / the unstable one
    assert anosov_certificate_linear(CAT_MATRIX).rate == pytest.approx((3 - math.sqrt(5)) / 2, rel=1e-12)


@pytest.mark.parametrize("n", [2**53 + 1, 2**62, 2**63 - 1], ids=["2^53+1", "2^62", "2^63-1"])
def test_certificate_for_a_huge_unstable_eigenvalue(n):
    # |lambda_u|^20 overflows a float here; the matrix-power roundoff guard must not
    cert = anosov_certificate_linear([[n, 1], [-1, 0]])
    assert cert is not None
    assert cert.rate == pytest.approx(1.0 / n, rel=1e-9)


def test_spectral_norm_closed_form():
    assert spectral_norm([[3.0]]) == 3.0
    # [[1, c], [0, 1]] has norm (|c| + sqrt(c^2 + 4)) / 2
    c = 25.0
    assert spectral_norm([[1.0, c], [0.0, 1.0]]) == pytest.approx((c + math.sqrt(c * c + 4)) / 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.normal(size=(2, 2))
        assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)


def test_spectral_norm_closed_form_is_scaled_exactly_and_does_not_overflow():
    """Scaling by a power of two keeps the unscaled closed form's bits, and entries past 1e77 stay finite."""
    rng = np.random.default_rng(6)
    M = rng.normal(size=(64, 2, 2)) * 10.0 ** rng.integers(-60, 60, size=(64, 1, 1))
    a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    unscaled = np.sqrt(0.5 * (s + np.sqrt(np.maximum(s * s - 4.0 * det * det, 0.0))))
    assert _spectral_norm_batch(M).tobytes() == unscaled.tobytes()
    P = np.linalg.matrix_power(np.array(CAT_MATRIX, dtype=float), 200)  # entries near 1e83
    assert spectral_norm(P) == pytest.approx(np.linalg.norm(P, 2), rel=1e-12)
    assert spectral_norm(np.zeros((2, 2))) == 0.0


# ---------------------------------------------------------------------------
# Constructors and their gates
# ---------------------------------------------------------------------------

def test_rotation_is_periodic_when_rational():
    f = make_rotation(0.25)
    p = np.array([0.1])
    q = p
    for _ in range(4):
        q = f.forward(q)
    assert float(dist_array(p, q)) <= 1e-15


def test_golden_rotation_constant():
    assert GOLDEN_ROTATION == pytest.approx((math.sqrt(5) - 1) / 2, rel=1e-15)


def test_identity_labels_and_dims():
    assert torus_identity().label == "identity2" and torus_identity().dim == 2
    assert circle_identity().label == "identity1" and circle_identity().dim == 1


def test_translation_gate():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ConstructionError):
            make_translation_method_map(shear_map(), bad)


def test_translation_c0_distance_is_exactly_delta():
    for delta in (0.01, 0.1, 0.25):
        t = make_translation_method_map(shear_map(), delta)
        assert c1_distance(shear_map(), t) == pytest.approx(delta, abs=1e-12)


def test_translation_keeps_the_differential():
    t = make_translation_method_map(cat_map(), 0.01)
    x = np.array([0.3, 0.8])
    assert np.array_equal(t.differential(x), cat_map().differential(x))
    assert np.array_equal(t.linear_part, np.asarray(CAT_MATRIX))


def test_block_translation_values_and_gates():
    """The block translation (x0 + delta, block * x1) is the drift of the linear map diag(1, block).

    Only |block| = 1 gives a torus map: diag(1, 2) fails the linear
    constructor's determinant gate.
    """
    b = make_translation_method_map(make_linear([[1, 0], [0, -1]]), 0.125)
    assert b.forward(np.array([0.25, 0.3])).tolist() == [0.375, 0.7]
    assert b.label == "translate(0.125)*linear[1,0;0,-1]"
    assert map_to_descriptor(b) == {"kind": "translate", "delta": 0.125,
                                    "base": {"kind": "linear", "matrix": [[1, 0], [0, -1]]}}
    with pytest.raises(ConstructionError, match=r"^\|det\| must be 1"):
        make_linear([[1, 0], [0, 2]])


def test_the_retired_translate_block_kind_is_an_unknown_descriptor():
    with pytest.raises(ValueError, match="^unknown map kind 'translate-block'$"):
        map_from_descriptor({"kind": "translate-block", "delta": 0.01, "block": -1})


def test_perturbation_gates():
    with pytest.raises(ConstructionError):
        make_conservative_perturbation(cat_map(), 0.2, "shear-sin")  # 2*pi*delta >= 1
    with pytest.raises(ConstructionError):
        make_conservative_perturbation(circle_identity(), 0.01, "shear-sin")
    with pytest.raises(ConstructionError):
        make_conservative_perturbation(cat_map(), 0.01, "nosuch")
    with pytest.raises(ConstructionError):
        make_conservative_perturbation(cat_map(), -0.01, "translation")


def test_non_finite_sizes_are_rejected():
    for bad in (math.inf, math.nan):
        for mode in ("shear-sin", "translation"):
            with pytest.raises(ConstructionError):
                make_conservative_perturbation(cat_map(), bad, mode)
        with pytest.raises(ConstructionError), np.errstate(invalid="ignore"):
            make_rotation(bad)  # a NaN roundtrip defect fails the construction check


def test_descriptor_type_errors_name_the_kind():
    with pytest.raises(ValueError, match="^rotation descriptor"):
        map_from_descriptor({"kind": "rotation", "theta": None})
    with pytest.raises(ValueError, match="^translate descriptor"):
        map_from_descriptor({"kind": "translate", "delta": 0.01, "base": 5})


def test_perturbation_stays_volume_preserving():
    g = make_conservative_perturbation(cat_map(), 1e-3, "shear-sin", seed=2)
    assert volume_defect(g) <= 1e-12
    h = make_conservative_perturbation(cat_map(), 0.05, "translation", seed=2)
    assert volume_defect(h) <= 1e-12


def test_perturbation_size_scales_with_delta():
    small = c1_distance(cat_map(), make_conservative_perturbation(cat_map(), 1e-4, "shear-sin"))
    large = c1_distance(cat_map(), make_conservative_perturbation(cat_map(), 1e-3, "shear-sin"))
    assert small < large < 0.02
    # the rigid mode pre-composes, so on the cat base the gap is ||A v|| = delta*sqrt(5)
    rigid = make_conservative_perturbation(cat_map(), 0.01, "translation")
    assert c1_distance(cat_map(), rigid) == pytest.approx(0.01 * math.sqrt(5), abs=1e-12)
    neutral = make_conservative_perturbation(torus_identity(), 0.01, "translation")
    assert c1_distance(torus_identity(), neutral) == pytest.approx(0.01, abs=1e-12)


def test_seeded_perturbations_differ_but_rebuild_identically():
    a = make_conservative_perturbation(cat_map(), 1e-3, "shear-sin", seed=1)
    b = make_conservative_perturbation(cat_map(), 1e-3, "shear-sin", seed=2)
    assert c1_distance(a, b) > 0.0
    again = make_conservative_perturbation(cat_map(), 1e-3, "shear-sin", seed=1)
    assert c1_distance(a, again) == 0.0


# ---------------------------------------------------------------------------
# Whole-library invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("idx", range(14))
def test_library_roundtrip(idx):
    f = library_maps()[idx]
    rng = np.random.default_rng(idx)
    pts = rng.random((50, f.dim))
    assert dist_array(f.backward(f.forward(pts)), pts).max() <= 1e-9
    assert dist_array(f.forward(f.backward(pts)), pts).max() <= 1e-9


@pytest.mark.parametrize("idx", range(14))
def test_library_volume_defect(idx):
    assert volume_defect(library_maps()[idx]) <= 1e-12


@pytest.mark.parametrize("idx", range(14))
def test_library_jacobian_matches_finite_differences(idx):
    f = library_maps()[idx]
    rng = np.random.default_rng(100 + idx)
    for _ in range(5):
        x = rng.random(f.dim)
        got = np.asarray(f.differential(x), dtype=float)
        assert np.max(np.abs(got - fd_jacobian(f, x))) <= 1e-5


@pytest.mark.parametrize("idx", range(14))
def test_descriptor_roundtrip(idx):
    f = library_maps()[idx]
    d = map_to_descriptor(f)
    rebuilt = map_from_descriptor(d)
    assert rebuilt.dim == f.dim
    assert c1_distance(f, rebuilt, samples=64) == 0.0


_CAT, _SHEAR = [[2, 1], [1, 1]], [[1, 0], [1, 1]]
_I2, _I1 = [[1, 0], [0, 1]], [[1]]
_L_CAT, _L_SHEAR, _L_SIN = 2.618033988749895, 1.618033988749895, 2.6262717045438113

# (linear_part, lip_forward, lip_backward) per library map, then the block map
_PINNED = [
    (_CAT, _L_CAT, _L_CAT),
    (_SHEAR, _L_SHEAR, _L_SHEAR),
    (_I2, 1.0, 1.0),
    (_I1, 1.0, 1.0),
    (_I1, 1.0, 1.0),
    ([[1, 1], [1, 0]], _L_SHEAR, _L_SHEAR),
    (_SHEAR, _L_SHEAR, _L_SHEAR),
    (_I2, 1.0, 1.0),
    (_CAT, _L_CAT, _L_CAT),
    (_I1, 1.0, 1.0),
    (None, _L_SIN, _L_SIN),
    (None, _L_SIN, _L_SIN),
    (_CAT, _L_CAT, _L_CAT),
    (_I1, 1.0, 1.0),
    ([[1, 0], [0, -1]], 1.0, 1.0),
]


@pytest.mark.parametrize("idx", range(15))
def test_linear_data_and_lipschitz_bounds_are_pinned(idx):
    maps = library_maps() + [make_translation_method_map(make_linear([[1, 0], [0, -1]]), 0.01)]
    f = maps[idx]
    linear, lip_f, lip_b = _PINNED[idx]
    if linear is None:
        assert f.linear_part is None
    else:
        assert f.linear_part.dtype == np.int64 and f.linear_part.tolist() == linear
    assert f.lip_forward == lip_f and f.lip_backward == lip_b


def test_descriptor_is_json_ready():
    import json
    for f in library_maps():
        json.dumps(map_to_descriptor(f))  # must not raise


# ---------------------------------------------------------------------------
# C1 estimator
# ---------------------------------------------------------------------------

def test_c1_distance_frozen_examples():
    assert c1_distance(circle_identity(), make_rotation(0.01)) == pytest.approx(0.01, abs=1e-12)
    assert c1_distance(cat_map(), cat_map()) == 0.0


def test_c1_distance_is_symmetric():
    a, b = cat_map(), make_conservative_perturbation(cat_map(), 1e-3, "shear-sin", seed=4)
    assert c1_distance(a, b) == c1_distance(b, a)


def test_c1_distance_monotone_in_samples():
    """Dyadic sample rounding nests the lattices, so the estimate can only grow."""
    a, b = cat_map(), make_conservative_perturbation(cat_map(), 1e-3, "shear-sin", seed=4)
    coarse = c1_distance(a, b, samples=16)
    fine = c1_distance(a, b, samples=256)
    assert coarse <= fine


def test_c1_distance_sees_jacobian_gap():
    # same C0 values at lattice points would not hide a derivative gap
    f = cat_map()
    g = make_conservative_perturbation(f, 1e-3, "shear-sin")
    pointwise = float(dist_array(f.forward(np.zeros((1, 2))), g.forward(np.zeros((1, 2)))).max())
    assert c1_distance(f, g) > pointwise


def test_c1_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        c1_distance(cat_map(), circle_identity())


# ---------------------------------------------------------------------------
# Closed-form method gaps
# ---------------------------------------------------------------------------

def _library_methods(f: SystemMap, delta: float, seeds):
    """The methods the library builds from ``f`` at size ``delta``."""
    if f.dim == 1:
        yield make_rotation(f.descriptor["theta"] + delta)
    yield make_translation_method_map(f, delta)
    for seed in seeds:
        if f.dim == 2:
            yield make_conservative_perturbation(f, delta, "shear-sin", seed=seed)
        yield make_conservative_perturbation(f, delta, "translation", seed=seed)


@pytest.mark.parametrize("base", [cat_map, shear_map, lambda: make_linear([[1, 1], [1, 0]]),
                                  lambda: make_rotation(GOLDEN_ROTATION)],
                         ids=["cat", "shear", "fibonacci", "golden"])
@pytest.mark.parametrize("delta", [1e-3, 0.01, 0.05])
def test_method_gap_is_a_tight_upper_bound(base, delta):
    """The closed form bounds a fine grid estimate from above, and that estimate nearly reaches it."""
    f = base()
    for g in _library_methods(f, delta, (None, 3, 17)):
        gap = _method_gap(f, g)
        sampled = c1_distance(f, g, samples=512)
        assert sampled <= gap * (1 + 1e-9), g.label
        assert gap <= sampled * (1 + 1e-3), g.label


# ---------------------------------------------------------------------------
# Array actions against the formulas they were tuned from
# ---------------------------------------------------------------------------

def _old_linear(M):
    M = np.asarray(M, dtype=float)
    return lambda x: reduce_to_unit(np.asarray(x, dtype=float) @ M.T)


def _old_shift(v, sign):
    v = np.asarray(v, dtype=float)
    return lambda x: reduce_to_unit(np.asarray(x, dtype=float) + sign * v)


def _old_sine_shear(delta, axis, phase, sign):
    def act(x):
        out = np.array(x, dtype=float)
        other = (axis + 1) % out.shape[-1]
        out[..., axis] += sign * delta * np.sin(2.0 * math.pi * (out[..., other] + phase))
        return reduce_to_unit(out)
    return act


def _reference_actions(d: dict, dim: int):
    """(forward, backward) of the map ``d`` describes, composed from the untuned formulas."""
    kind = d["kind"]
    if kind == "linear":
        aut = LinearAutomorphism(d["matrix"])
        return _old_linear(aut.matrix), _old_linear(aut.inverse_matrix())
    if kind == "rotation":
        return _old_shift([d["theta"]], 1.0), _old_shift([d["theta"]], -1.0)
    if kind == "translate":
        (bf, bb), off = _reference_actions(d["base"], dim), np.eye(dim)[0] * d["delta"]
        out_f, out_b = _old_shift(off, 1.0), _old_shift(off, -1.0)
        return (lambda x: out_f(bf(x))), (lambda x: bb(out_b(x)))
    assert kind == "perturbation"
    bf, bb = _reference_actions(d["base"], dim)
    if d["mode"] == "shear-sin":
        args = (d["delta"], d["axis"], d["phase"])
        tf, tb = _old_sine_shear(*args, 1.0), _old_sine_shear(*args, -1.0)
    else:
        a = d["angle"]
        v = [d["delta"]] if a is None else d["delta"] * np.array([math.cos(a), math.sin(a)])
        tf, tb = _old_shift(v, 1.0), _old_shift(v, -1.0)
    return (lambda x: bf(tf(x))), (lambda x: tb(bb(x)))


def _action_test_maps():
    """Every library map, translate drifts of every base and of diag(1, +-1), and inexact linear:5,8,3,5."""
    inexact = make_linear([[5, 8], [3, 5]])
    bases = [cat_map(), shear_map(), torus_identity(), make_linear([[1, 1], [1, 0]]), inexact,
             circle_identity(), make_rotation(GOLDEN_ROTATION)]
    drifts = [make_translation_method_map(b, delta) for b in bases for delta in (1e-3, 0.01, 0.49)]
    blocks = [make_translation_method_map(make_linear([[1, 0], [0, b]]), 0.01) for b in (1, -1)]
    return library_maps() + [inexact, make_conservative_perturbation(inexact, 1e-3, "translation", seed=5)] \
        + drifts + blocks + three_torus_maps()


def three_torus_maps():
    """The companion matrix of x^3 - x - 1, its sine-shear perturbations (axes 0 and 2) and a drift."""
    f = make_linear(COMPANION)
    return [f, make_conservative_perturbation(f, 1e-3, "shear-sin"),
            make_conservative_perturbation(f, 1e-3, "shear-sin", seed=1), make_translation_method_map(f, 0.01)]


def _action_test_rows(dim: int) -> np.ndarray:
    """2048 rows: every pair of edge values (0, 1 - 2^-53, lifts just below 0, ...), then random points."""
    edges = np.array([0.0, -0.0, np.nextafter(1.0, 0.0), -1e-18, -2.0 ** -60, -5e-324, 0.5, 1.0, -1.0])
    grid = np.stack(np.meshgrid(*[edges] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    rng = np.random.default_rng(2048 + dim)
    return np.concatenate([grid, rng.random((2048 - len(grid), dim))])


@pytest.mark.parametrize("idx", range(len(_action_test_maps())))
def test_array_actions_equal_the_untuned_formulas_bit_for_bit(idx):
    """forward/backward equal reduce_to_unit(x @ M.T) and reduce_to_unit(x + sign*v), composed, on every row."""
    m = _action_test_maps()[idx]
    x = _action_test_rows(m.dim)
    ref_f, ref_b = _reference_actions(m.descriptor, m.dim)
    for got, want in ((m.forward(x), ref_f(x)), (m.backward(x), ref_b(x))):
        assert got.shape == x.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), m.label
    assert m.forward(x[7]).tobytes() == ref_f(x[7]).tobytes()  # one point as a 1-D array
