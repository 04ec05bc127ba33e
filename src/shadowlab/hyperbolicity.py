"""Anosov splitting certificates for linear toral automorphisms.

A 2x2 integer matrix with |det| = 1 is hyperbolic (no eigenvalue on the unit
circle) iff |tr| > |1 + det|: the rule :func:`_is_hyperbolic` decides this
exactly, with no eigensolver.  For a hyperbolic matrix,
:func:`anosov_certificate_linear` returns the contraction rate, the eigenbasis
condition number and the stable and unstable directions, after re-verifying
the decay inequalities they promise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import LinearAutomorphism

__all__ = [
    "AnosovCertificate",
    "anosov_certificate_linear",
]


@dataclass(frozen=True)
class AnosovCertificate:
    """Uniform splitting data for a linear map: rate, constant, eigendirections."""

    rate: float          # the lambda of the decay inequalities, in (0, 1)
    C: float             # eigenbasis condition number in the Euclidean norm
    stable: tuple[float, float]
    unstable: tuple[float, float]

    def to_record(self) -> dict:
        return {
            "lambda": self.rate,
            "C": self.C,
            "stable": list(self.stable),
            "unstable": list(self.unstable),
        }


def _is_hyperbolic(M) -> bool:
    """No eigenvalue of the 2x2 matrix M, with |det| = 1, on the unit circle.

    With det = 1 the eigenvalues are lambda and 1/lambda: a conjugate pair on
    the circle for |tr| < 2, a double +-1 for |tr| = 2, real and off it for
    |tr| > 2.  With det = -1 they are lambda and -1/lambda, on the circle iff
    tr = 0.  No eigensolver is involved, so integer matrices get exact answers.
    """
    tr = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return abs(tr) > abs(1 + det)


def _hyperbolic_eigen(B: np.ndarray):
    """(V, lam_u, lam_s) of a hyperbolic 2x2 matrix, unit columns, unstable first.

    Each column is signed so that its first nonzero entry is positive.
    """
    w, V = np.linalg.eig(B)
    order = np.argsort(-np.abs(w))
    w = w[order]
    V = V[:, order]
    for j in range(2):
        col = V[:, j]
        col = col / np.linalg.norm(col)
        lead = col[np.nonzero(np.abs(col) > 1e-14)[0][0]]
        V[:, j] = col if lead > 0 else -col
    return V, float(w[0]), float(w[1])


def anosov_certificate_linear(A) -> AnosovCertificate | None:
    """Expansion/contraction certificate for a linear automorphism, or None.

    None is the defined negative outcome (an eigenvalue on the unit circle,
    decided exactly by :func:`_is_hyperbolic`), not an error.  Its rule
    |tr| > |1 + det| holds for 2x2 matrices only, so any other shape raises
    ValueError.  For a granted
    certificate the decay inequalities ||A^n v_s|| <= C lambda^n and
    ||A^{-n} v_u|| <= C lambda^n are re-verified for n = 1..20 before it is
    returned.
    """
    aut = A if isinstance(A, LinearAutomorphism) else LinearAutomorphism(A)
    if aut.matrix.shape != (2, 2):
        raise ValueError(f"the Anosov certificate is defined for 2x2 matrices only, got shape {aut.matrix.shape}")
    if not _is_hyperbolic(aut.matrix.tolist()):
        return None
    Af = aut.matrix.astype(float)
    V, lam_u, lam_s = _hyperbolic_eigen(Af)
    rate = max(abs(lam_s), 1.0 / abs(lam_u))
    C = float(np.linalg.cond(V))

    # Re-verify before granting.  The eigenpair residuals certify that the
    # spaces really are invariant lines; on a verified line the restriction of
    # A^n has norm exactly |lambda|^n, so the long-horizon inequalities are
    # checked on eigenvalue powers.  (Iterating the stable vector through the
    # matrix instead would drown in unstable float contamination ~|lam_u|^n
    # * 1e-16, which overtakes |lam_s|^n itself near n = 20 -- the very
    # divergence this package measures.)
    v_u, v_s = V[:, 0], V[:, 1]
    Ainv = aut.inverse_matrix().astype(float)
    if np.linalg.norm(Af @ v_s - lam_s * v_s) > 1e-12:
        raise AssertionError("stable direction is not invariant")
    if np.linalg.norm(Ainv @ v_u - v_u / lam_u) > 1e-12:
        raise AssertionError("unstable direction is not invariant")
    Mn, Mi = np.eye(2), np.eye(2)
    for k in range(1, 21):
        if abs(lam_s) ** k > C * rate ** k + 1e-9:
            raise AssertionError(f"stable decay inequality violated at n={k}")
        if abs(lam_u) ** -k > C * rate ** k + 1e-9:
            raise AssertionError(f"unstable decay inequality violated at n={k}")
        if k * np.log2(abs(lam_u)) - 52 <= np.log2(1e-12):  # while matrix-power roundoff stays << 1e-9
            Mn = Mn @ Af
            Mi = Mi @ Ainv
            if np.linalg.norm(Mn @ v_s) > C * rate ** k + 1e-9:
                raise AssertionError(f"stable decay inequality violated at n={k}")
            if np.linalg.norm(Mi @ v_u) > C * rate ** k + 1e-9:
                raise AssertionError(f"unstable decay inequality violated at n={k}")

    return AnosovCertificate(
        rate=rate,
        C=C,
        stable=(float(v_s[0]), float(v_s[1])),
        unstable=(float(v_u[0]), float(v_u[1])),
    )
