"""Anosov splitting certificates for linear toral automorphisms.

The decay inequalities are re-derived independently of the module, and the
certificate is checked against the exact trace test on every small integer
matrix with |det| = 1.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest

from shadowlab import AnosovCertificate, anosov_certificate_linear

CAT = np.array([[2, 1], [1, 1]])


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


@pytest.mark.parametrize("M, shape", [([[0, 1, 0], [0, 0, 1], [1, 1, 0]], "(3, 3)"), ([[1]], "(1, 1)")])
def test_the_2x2_rule_refuses_other_shapes(M, shape):
    # |tr| > |1 + det| says nothing about a 3x3: this companion matrix of x^3 - x - 1 is
    # hyperbolic, with tr = 0 and det = 1, so the rule would silently call it not hyperbolic
    with pytest.raises(ValueError, match=re.escape(f"defined for 2x2 matrices only, got shape {shape}") + "$"):
        anosov_certificate_linear(M)
