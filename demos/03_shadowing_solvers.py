"""Finding true orbits near noisy ones on the hyperbolic cat map.

The Newton solver works on the whole orbit sequence at once: each step is the
minimum-norm correction of the linearized orbit equations J delta = -r.  The
cat map's Anosov certificate gives the tracking constant K = C / (1 - rate),
and every delta-pseudo-orbit is shadowed within K * delta.  The size of the
right inverse of J, K(N) = 1 / sqrt(lambda_min(J J^T)), is the finite-horizon
form of the same hyperbolicity: it approaches K as the horizon N grows.
"""

import numpy as np

from shadowlab import (
    PseudoOrbit,
    anosov_certificate_linear,
    cat_map,
    make_conservative_perturbation,
    orbit_segment,
    shadow_solve_newton,
)

f = cat_map()
N = 20
delta = 1e-3
cert = anosov_certificate_linear(f.linear_part)
K = cert.C / (1.0 - cert.rate)
print(f"tracking constant for the cat map: K = C/(1-rate) = {K:.12f}  (the golden ratio)")
print(f"guarantee: a delta-pseudo-orbit is shadowed within K*delta = {K * delta:.6f}")
print()

rng = np.random.default_rng(7)
pts = orbit_segment(f, (0.1, 0.6), N).as_array()
pts = (pts + rng.uniform(-2e-4, 2e-4, size=pts.shape)) % 1.0
po = PseudoOrbit.checked(f, pts, delta)

res = shadow_solve_newton(f, po)
y = res.points[N]
print("Newton solver on a noisy cat orbit")
print(f"  shadowing point y = ({y[0]:.9f}, {y[1]:.9f})")
print(f"  max distance to the pseudo-orbit: {res.achieved:.6f}  <= K*delta")
print()

g = make_conservative_perturbation(f, delta, "shear-sin", seed=0)
true_pts = orbit_segment(f, (0.2, 0.3), N).as_array()
po_g = PseudoOrbit.checked(g, true_pts, 0.01)
rep = shadow_solve_newton(g, po_g)
print("Newton solver: a true cat orbit is a pseudo-orbit of the perturbed map g")
print(f"  converged={rep.converged} after {rep.iterations} iteration(s), "
      f"residual={rep.residual:.2e}")
print(f"  g-orbit through y tracks the cat orbit within {rep.achieved:.6f}")
print()

A = f.linear_part.astype(float)
print("finite-horizon constant of the constant cat block, K(N) = 1/sqrt(lambda_min(J J^T))")
for n in (5, 25, 100):
    J = np.zeros((4 * n, 4 * n + 2))  # block rows [-A, I] over 2N steps
    for i in range(2 * n):
        J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = -A
        J[2 * i:2 * i + 2, 2 * i + 2:2 * i + 4] = np.eye(2)
    K_n = 1.0 / np.sqrt(np.linalg.eigvalsh(J @ J.T)[0])
    print(f"  N = {n:3d}: K(N) = {K_n:.5f}")
print(f"  limit:   K    = {K:.5f}")
