"""Periodic points, hyperbolicity classification, and expansion certificates.

Periodic points of a toral automorphism are enumerated exactly over the
rationals — no floating-point root search can miss one: their numerators mod
|D| = |det(A^n - I)| are the subgroup generated by the columns of
adj(A^n - I), listed by closing it under addition.  Eigenvalues and
classification depend only on the minimal period and are computed once per
period.  Classification is one rule, :func:`_is_hyperbolic`: a 2x2 matrix with
|det| = 1 has no eigenvalue on the unit circle iff |tr| > |1 + det|, exact on
integer matrices; a 1x1 derivative is hyperbolic when its modulus is off 1 by
more than a tolerance band.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import TorusPoint, torus_dist
from .systems import LinearAutomorphism, SystemMap

__all__ = [
    "PeriodicPointRecord",
    "AnosovCertificate",
    "periodic_points_linear",
    "classify_periodic",
    "anosov_certificate_linear",
]

HYPERBOLICITY_TOL = 1e-9


@dataclass(frozen=True)
class PeriodicPointRecord:
    point: TorusPoint
    period: int
    eigenvalues: tuple[complex, complex]
    classification: str  # "hyperbolic" | "nonhyperbolic"

    def to_record(self) -> dict:
        return {
            "point": [float(v) for v in self.point.coords],
            "period": self.period,
            "eigenvalues": [[ev.real, ev.imag] for ev in self.eigenvalues],
            "classification": self.classification,
        }


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


def _mat2_mul(P, Q):
    return [[P[0][0] * Q[0][0] + P[0][1] * Q[1][0], P[0][0] * Q[0][1] + P[0][1] * Q[1][1]],
            [P[1][0] * Q[0][0] + P[1][1] * Q[1][0], P[1][0] * Q[0][1] + P[1][1] * Q[1][1]]]


def _mat2_pow(P, n: int):
    R = [[1, 0], [0, 1]]
    for _ in range(n):
        R = _mat2_mul(R, P)
    return R


def _is_hyperbolic(M) -> bool:
    """No eigenvalue of M on the unit circle; M is 1x1, or 2x2 with |det| = 1.

    With det = 1 the eigenvalues are lambda and 1/lambda: a conjugate pair on
    the circle for |tr| < 2, a double +-1 for |tr| = 2, real and off it for
    |tr| > 2.  With det = -1 they are lambda and -1/lambda, on the circle iff
    tr = 0.  No eigensolver is involved, so integer matrices get exact answers.
    """
    if len(M) == 1:
        return abs(abs(M[0][0]) - 1.0) > HYPERBOLICITY_TOL
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


def periodic_points_linear(A, n: int) -> list[PeriodicPointRecord]:
    """All points of period dividing n for the automorphism A, enumerated exactly.

    Solutions of (A^n - I)x = 0 mod Z^2 form a group of exactly
    |det(A^n - I)| points; they are produced as exact rationals p/|D| via the
    integer adjugate, so the count is structural, not numerical.  Each record
    carries the minimal period (computed by exact iteration on numerators) and
    the eigenvalue classification of A^period, computed once per period.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    Aint = (A if isinstance(A, LinearAutomorphism) else LinearAutomorphism(A)).matrix.tolist()
    An = _mat2_pow(Aint, n)
    M = [[An[0][0] - 1, An[0][1]], [An[1][0], An[1][1] - 1]]
    D = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if D == 0:
        raise ValueError("non-isolated periodic set: det(A^n - I) = 0")
    aD = abs(D)

    # x = M^{-1} m = adj(M) m / D for m in Z^2, so the numerator pairs mod aD
    # are the subgroup generated by the columns u, w of adj(M).  With the cycle
    # of u listed, the multiples of w up to the first one on that cycle pick
    # one point of each coset, so the sums list every point exactly once.
    (u0, u1), (w0, w1) = (M[1][1], -M[1][0]), (-M[0][1], M[0][0])
    cycle = [(0, 0)]
    while (nxt := ((cycle[-1][0] + u0) % aD, (cycle[-1][1] + u1) % aD)) != (0, 0):
        cycle.append(nxt)
    steps = [(0, 0)]  # scanning the cycle list costs at most len(steps) * len(cycle) = aD
    while (nxt := ((steps[-1][0] + w0) % aD, (steps[-1][1] + w1) % aD)) not in cycle:
        steps.append(nxt)
    found = {((p + s) % aD, (q + t) % aD) for p, q in cycle for s, t in steps}
    if len(found) != aD:
        raise AssertionError(f"enumeration produced {len(found)} points, expected {aD}")

    per_period = {}
    records = []
    for p, q in sorted(found):
        point = TorusPoint((p / aD, q / aD))
        period = _minimal_period_numerators(Aint, (p, q), aD, n)
        if period not in per_period:
            per_period[period] = _record(point, period, _mat2_pow(Aint, period))
        records.append(replace(per_period[period], point=point))
    return records


def _record(point: TorusPoint, period: int, M) -> PeriodicPointRecord:
    """Record of a point whose derivative over one minimal period is M (1x1 or 2x2)."""
    eigs = np.linalg.eigvals(np.array(M, dtype=float))
    return PeriodicPointRecord(
        point=point,
        period=period,
        eigenvalues=(complex(eigs[0]), complex(eigs[-1])),
        classification="hyperbolic" if _is_hyperbolic(M) else "nonhyperbolic",
    )


def _minimal_period_numerators(Aint, num: tuple[int, int], den: int, n: int) -> int:
    p, q = num
    cp, cq = p, q
    for k in range(1, n + 1):
        cp, cq = (Aint[0][0] * cp + Aint[0][1] * cq) % den, (Aint[1][0] * cp + Aint[1][1] * cq) % den
        if (cp, cq) == (p, q):
            if n % k != 0:
                raise AssertionError(f"first return {k} does not divide {n}")
            return k
    raise AssertionError("point failed to return within n steps")


def classify_periodic(f: SystemMap, p, n: int) -> PeriodicPointRecord:
    """Eigenvalue classification of Df over one minimal period at a verified periodic point."""
    if n < 1:
        raise ValueError("n must be at least 1")
    pt = p if isinstance(p, TorusPoint) else TorusPoint.from_array(np.asarray(p, dtype=float))
    orbit = [pt.as_array()]
    for _ in range(n):
        orbit.append(f.forward(orbit[-1]))
    if torus_dist(TorusPoint.from_array(orbit[n]), pt) > 1e-9:
        raise ValueError(f"point {pt} is not {n}-periodic under {f.label}")

    period = n
    for k in range(1, n):
        if torus_dist(TorusPoint.from_array(orbit[k]), pt) <= 1e-9:
            period = k
            break

    J = np.eye(f.dim)
    for k in range(period):
        J = np.asarray(f.differential(orbit[k]), dtype=float) @ J
    return _record(pt, period, J)


def anosov_certificate_linear(A) -> AnosovCertificate | None:
    """Expansion/contraction certificate for a linear automorphism, or None.

    None is the defined negative outcome (an eigenvalue on the unit circle,
    decided exactly by :func:`_is_hyperbolic`), not an error.  For a granted
    certificate the decay inequalities ||A^n v_s|| <= C lambda^n and
    ||A^{-n} v_u|| <= C lambda^n are re-verified for n = 1..20 before it is
    returned.
    """
    aut = A if isinstance(A, LinearAutomorphism) else LinearAutomorphism(A)
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
