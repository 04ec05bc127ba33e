"""A circle rotation separates orbital inverse shadowing from inverse shadowing.

Rotations by a badly-approximable angle drift under a perturbed rotation
method, so pointwise (index-by-index) tracking fails.  But both orbits fill
the circle at the same rate, so as point sets they stay close: the orbital
variant tracks with the anchor itself as witness.
"""

from shadowlab import (
    GOLDEN_ROTATION,
    check_inverse_shadowing,
    check_orbital_inverse,
    make_rotation,
    method_from_map,
)

theta = GOLDEN_ROTATION
delta, eps, N = 0.01, 0.1, 25
f = make_rotation(theta)
m = method_from_map(f, make_rotation(theta + delta), N)
print(f"system: rotation by theta = {theta:.12f}")
print(f"method: rotation by theta + {delta}, horizon N = {N}, eps = {eps}")
print()

inv = check_inverse_shadowing(f, m, (0.0,), eps, N, grid_step=1 / 4096)
print(f"inverse shadowing:          {inv.outcome} (certified={inv.certified})")
print(f"  binding cell: value {inv.min_over_grid:.6f} - slack {inv.lipschitz_bound * inv.grid_step / 2:.6f} "
      f"> {eps}: every candidate y drifts N*delta = {N * delta} out of phase")
print()

orb = check_orbital_inverse(f, m, (0.0,), eps, N, grid_step=1 / 4096)
print(f"orbital inverse shadowing:  {orb.outcome}")
print(f"  witness y = {list(orb.witness.coords)} (the anchor itself), "
      f"set-to-set distance {orb.achieved:.6f}")
print()
print("same map, same method, same tolerance: one property fails with a finite")
print("certificate while the weaker one holds -- the two notions genuinely differ.")
