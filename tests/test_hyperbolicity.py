"""Periodic-point enumeration, classification, and certificates.

The enumeration tests lean on two independent oracles: the exact integer
determinant |det(A^n - I)| (computed with numpy's integer arithmetic, not the
module's own helpers) and direct iteration of the actual map at every
enumerated point.
"""

import itertools
import json
import math

import numpy as np
import pytest

from shadowlab import (
    AnosovCertificate,
    anosov_certificate_linear,
    cat_map,
    classify_periodic,
    dist_array,
    make_linear,
    make_rotation,
    periodic_points_linear,
    shear_map,
)
from shadowlab import hyperbolicity

CAT = np.array([[2, 1], [1, 1]])
ROT90 = np.array([[0, -1], [1, 0]])
PARABOLIC = np.array([[-3, 2], [-2, 1]])  # trace -2: the double eigenvalue -1, not diagonalisable
LAMBDA_U = (3.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# periodic point enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_count_matches_integer_determinant(n):
    recs = periodic_points_linear(CAT, n)
    M = np.linalg.matrix_power(CAT.astype(np.int64), n) - np.eye(2, dtype=np.int64)
    expected = abs(int(round(np.linalg.det(M.astype(float)))))
    assert len(recs) == expected
    # trace formula for a determinant-one matrix: lambda^n + lambda^-n - 2
    assert expected == round(LAMBDA_U ** n + LAMBDA_U ** -n - 2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_every_enumerated_point_is_periodic_under_the_map(n):
    f = cat_map()
    recs = periodic_points_linear(CAT, n)
    pts = np.array([r.point.coords for r in recs])
    z = pts
    for _ in range(n):
        z = f.forward(z)
    assert float(dist_array(z, pts).max()) <= 1e-9
    assert all(n % r.period == 0 for r in recs)


def test_fixed_point_of_the_cat_is_only_the_origin():
    recs = periodic_points_linear(CAT, 1)
    assert len(recs) == 1
    assert recs[0].point.coords == (0.0, 0.0)
    assert recs[0].period == 1
    assert recs[0].classification == "hyperbolic"
    moduli = sorted(abs(e) for e in recs[0].eigenvalues)
    assert moduli[0] == pytest.approx(1.0 / LAMBDA_U, rel=1e-12)
    assert moduli[1] == pytest.approx(LAMBDA_U, rel=1e-12)


def test_period_two_points_of_the_cat():
    recs = periodic_points_linear(CAT, 2)
    assert len(recs) == 5
    by_period = {p: [r for r in recs if r.period == p] for p in (1, 2)}
    assert len(by_period[1]) == 1 and len(by_period[2]) == 4
    for r in by_period[2]:
        moduli = sorted(abs(e) for e in r.eigenvalues)
        assert moduli[1] == pytest.approx(6.854101966249685, rel=1e-12)
        assert moduli[0] == pytest.approx(0.14589803375031574, rel=1e-12)
        assert r.classification == "hyperbolic"
    # all five are fifths of the lattice
    for r in recs:
        for c in r.point.coords:
            assert (5 * c) == pytest.approx(round(5 * c), abs=1e-12)


def test_minimal_periods_are_minimal():
    f = cat_map()
    recs = [r for r in periodic_points_linear(CAT, 6) if r.period == 6][:3]
    assert recs, "expected period-six points"
    for r in recs:
        z = np.array(r.point.coords)
        for k in range(1, 6):
            z = f.forward(z)
            assert float(dist_array(z, np.array(r.point.coords))) > 1e-6


def test_records_come_sorted_and_serializable():
    recs = periodic_points_linear(CAT, 3)
    coords = [r.point.coords for r in recs]
    assert coords == sorted(coords)
    rec = recs[0].to_record()
    assert set(rec) == {"point", "period", "eigenvalues", "classification"}
    assert json.loads(json.dumps(rec)) == rec


def _brute_force_points(A, n):
    """Every numerator pair of (A^n - I)^-1 Z^2 mod Z^2, from all |D|^2 residues m, as coordinates."""
    M = np.linalg.matrix_power(np.asarray(A, dtype=np.int64), n) - np.eye(2, dtype=np.int64)
    D = int(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    adj = [[int(M[1, 1]), -int(M[0, 1])], [-int(M[1, 0]), int(M[0, 0])]]
    aD, sgn = abs(D), (1 if D > 0 else -1)
    found = {((sgn * (adj[0][0] * m0 + adj[0][1] * m1)) % aD,
              (sgn * (adj[1][0] * m0 + adj[1][1] * m1)) % aD)
             for m0 in range(aD) for m1 in range(aD)}
    return [(p / aD, q / aD) for p, q in sorted(found)]


@pytest.mark.parametrize("A,n", [(CAT, n) for n in range(1, 7)]
                         + [(np.array([[3, 1], [2, 1]]), n) for n in range(1, 5)]
                         + [(np.array([[1, 1], [1, 0]]), n) for n in range(1, 8)])
def test_lattice_enumeration_matches_brute_force(A, n):
    assert [r.point.coords for r in periodic_points_linear(A, n)] == _brute_force_points(A, n)


def test_classification_is_computed_once_per_period(monkeypatch):
    calls = []
    real = hyperbolicity._mat2_pow

    def counting(P, n):
        calls.append(n)
        return real(P, n)

    monkeypatch.setattr(hyperbolicity, "_mat2_pow", counting)
    recs = periodic_points_linear(CAT, 6)
    assert len(recs) == 320
    assert len(calls) <= 1 + len({r.period for r in recs})


# |det(A^n - I)| stays below 200 on every case, so each enumeration is small.
@pytest.mark.parametrize("A,n", [(A, n) for A in (CAT, [[1, 1], [1, 0]], [[3, 2], [1, 1]])
                                 for n in range(1, 5)]
                         + [([[0, 1], [-1, 0]], n) for n in range(1, 4)])  # n = 4 is not isolated
def test_records_agree_with_classify_periodic(A, n):
    f = make_linear(A)
    for r in periodic_points_linear(A, n):
        c = classify_periodic(f, r.point, n)
        assert (c.period, c.eigenvalues, c.classification) == (r.period, r.eigenvalues,
                                                               r.classification)


def test_cat_period_eight_points():
    recs = periodic_points_linear(CAT, 8)
    assert len(recs) == 2205
    assert len({r.point.coords for r in recs}) == 2205


def test_neutral_rotation_points_are_nonhyperbolic():
    recs = periodic_points_linear(ROT90, 1)
    assert [(r.point.coords, r.period, r.classification) for r in recs] == [
        ((0.0, 0.0), 1, "nonhyperbolic"),
        ((0.5, 0.5), 1, "nonhyperbolic"),
    ]


def test_enumeration_refuses_non_isolated_sets():
    with pytest.raises(ValueError, match="non-isolated"):
        periodic_points_linear(np.array([[1, 1], [0, 1]]), 1)
    with pytest.raises(ValueError, match="non-isolated"):
        periodic_points_linear(np.eye(2, dtype=int), 1)
    with pytest.raises(ValueError, match="non-isolated"):
        periodic_points_linear(ROT90, 4)  # the rotation has period four
    with pytest.raises(ValueError):
        periodic_points_linear(CAT, 0)


# ---------------------------------------------------------------------------
# classification at a given point
# ---------------------------------------------------------------------------


def test_classify_cat_fixed_point():
    r = classify_periodic(cat_map(), (0.0, 0.0), 1)
    assert r.period == 1
    assert r.classification == "hyperbolic"
    moduli = sorted(abs(e) for e in r.eigenvalues)
    assert moduli == pytest.approx([1.0 / LAMBDA_U, LAMBDA_U], rel=1e-12)


def test_classify_finds_the_minimal_period():
    # (1/5, 2/5) has period two; asking at n=4 still reports two
    r = classify_periodic(cat_map(), (0.2, 0.4), 4)
    assert r.period == 2
    assert r.classification == "hyperbolic"
    assert max(abs(e) for e in r.eigenvalues) == pytest.approx(6.854101966249685, rel=1e-9)


def test_classify_shear_fixed_point_is_nonhyperbolic():
    r = classify_periodic(shear_map(), (0.0, 0.0), 1)
    assert r.classification == "nonhyperbolic"
    assert all(abs(e) == pytest.approx(1.0, abs=1e-12) for e in r.eigenvalues)


def test_classify_on_the_circle():
    r = classify_periodic(make_rotation(0.5), 0.2, 2)
    assert r.period == 2
    assert r.classification == "nonhyperbolic"
    assert r.eigenvalues == (1 + 0j, 1 + 0j)


def test_classify_rejects_non_periodic_points():
    with pytest.raises(ValueError, match="not 1-periodic"):
        classify_periodic(cat_map(), (0.3, 0.3), 1)
    with pytest.raises(ValueError):
        classify_periodic(cat_map(), (0.0, 0.0), 0)


def test_parabolic_automorphism_is_nonhyperbolic():
    # float eig splits the double eigenvalue -1 by about 2e-8; the verdict
    # must not depend on that split
    recs = periodic_points_linear(PARABOLIC, 1)
    assert len(recs) == 4
    assert {r.classification for r in recs} == {"nonhyperbolic"}
    r = classify_periodic(make_linear(PARABOLIC), (0.0, 0.0), 1)
    assert r.classification == "nonhyperbolic"


# ---------------------------------------------------------------------------
# splitting certificates
# ---------------------------------------------------------------------------


def test_cat_certificate_values():
    cert = anosov_certificate_linear(CAT)
    assert cert is not None
    assert cert.rate == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert cert.C == pytest.approx(1.0, rel=1e-12)  # symmetric matrix, orthonormal basis
    assert cert.stable == pytest.approx((0.5257311121191336, -0.85065080835204), abs=1e-12)
    assert cert.unstable == pytest.approx((0.85065080835204, 0.5257311121191336), abs=1e-12)


def test_certificate_directions_really_decay():
    """Re-derive the decay inequalities independently: residuals certify the
    invariant lines, scalar powers give the long-horizon decay, and matrix
    powers corroborate on the window where they are numerically trustworthy."""
    cert = anosov_certificate_linear(CAT)
    A = CAT.astype(float)
    v_s = np.array(cert.stable)
    v_u = np.array(cert.unstable)
    lam = np.linalg.eigvals(A).real
    lam_s = lam[np.argmin(np.abs(lam))]
    lam_u = lam[np.argmax(np.abs(lam))]
    assert np.linalg.norm(A @ v_s - lam_s * v_s) <= 1e-12
    assert np.linalg.norm(np.linalg.inv(A) @ v_u - v_u / lam_u) <= 1e-12
    for n in range(1, 21):
        assert abs(lam_s) ** n <= cert.C * cert.rate ** n + 1e-9
        assert abs(lam_u) ** -n <= cert.C * cert.rate ** n + 1e-9
    for n in range(1, 9):  # float matrix powers are clean on this window
        assert np.linalg.norm(np.linalg.matrix_power(A, n) @ v_s) <= cert.C * cert.rate ** n + 1e-9


def test_asymmetric_automorphism_certificate():
    cert = anosov_certificate_linear(np.array([[3, 2], [1, 1]]))
    assert cert.rate == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)
    assert cert.C == pytest.approx(1.329508134327879, rel=1e-9)
    assert cert.C > 1.0


@pytest.mark.parametrize("matrix", [[[1, 1], [0, 1]], [[1, 0], [0, 1]], [[0, -1], [1, 0]]])
def test_certificate_refusals(matrix):
    assert anosov_certificate_linear(np.array(matrix)) is None


def test_certificate_iff_trace_test_on_all_small_automorphisms():
    """Every |det| = 1 integer matrix with entries in [-6, 6]: a certificate
    exactly when no eigenvalue lies on the unit circle, and never an error."""
    count = 0
    for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
        det = a * d - b * c
        if abs(det) != 1:
            continue
        count += 1
        tr = a + d
        hyperbolic = (det == 1 and abs(tr) > 2) or (det == -1 and tr != 0)
        cert = anosov_certificate_linear(np.array([[a, b], [c, d]]))
        assert (cert is not None) == hyperbolic, (a, b, c, d)
    assert count == 744


def test_certificate_record_keys():
    rec = anosov_certificate_linear(CAT).to_record()
    assert set(rec) == {"lambda", "C", "stable", "unstable"}
    assert json.loads(json.dumps(rec)) == rec
    assert isinstance(anosov_certificate_linear(CAT), AnosovCertificate)
