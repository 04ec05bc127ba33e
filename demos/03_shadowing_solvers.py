"""Finding true orbits near noisy ones on the hyperbolic cat map.

The linear solver splits the correction into stable and unstable eigenlines
and sums each in its contracting direction; the Newton solver works on the
whole orbit sequence at once.  Both land within the tracking-constant bound
K * delta.
"""

import numpy as np

from shadowlab import (
    PseudoOrbit,
    cat_map,
    make_conservative_perturbation,
    orbit_segment,
    shadow_solve_linear,
    shadow_solve_newton,
    solve_tracking_constant,
)

f = cat_map()
N = 20
delta = 1e-3
K = solve_tracking_constant(f.linear_part)
print(f"tracking constant for the cat map: K = {K:.12f}  (the golden ratio)")
print(f"guarantee: a delta-pseudo-orbit is shadowed within K*delta = {K * delta:.6f}")
print()

rng = np.random.default_rng(7)
pts = orbit_segment(f, (0.1, 0.6), N).as_array()
pts = (pts + rng.uniform(-2e-4, 2e-4, size=pts.shape)) % 1.0
po = PseudoOrbit.checked(f, pts, delta)

y, achieved = shadow_solve_linear(f.linear_part, po)
print("linear solver on a noisy cat orbit")
print(f"  shadowing point y = ({y.coords[0]:.9f}, {y.coords[1]:.9f})")
print(f"  max distance to the pseudo-orbit: {achieved:.6f}  <= K*delta")
print()

g = make_conservative_perturbation(f, delta, "shear-sin", seed=0)
true_pts = orbit_segment(f, (0.2, 0.3), N).as_array()
po_g = PseudoOrbit.checked(g, true_pts, 0.01)
rep = shadow_solve_newton(g, po_g)
print("Newton solver: a true cat orbit is a pseudo-orbit of the perturbed map g")
print(f"  converged={rep.converged} after {rep.iterations} iteration(s), "
      f"residual={rep.residual:.2e}")
print(f"  g-orbit through y tracks the cat orbit within {rep.achieved:.6f}")
