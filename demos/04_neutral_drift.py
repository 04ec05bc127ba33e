"""A conservative map that defeats inverse shadowing.

The shear fixes the horizontal direction; composing it with a rigid
translation of size delta makes every method orbit drift k*delta along that
neutral direction.  No single true orbit can stay within eps of such a drift
once N*delta > eps, and the checker certifies this with a Lipschitz covering:
every cell of a lattice covering is settled by its centre value, and the
record reports the cell with the least margin.
"""

from shadowlab import (
    check_inverse_shadowing,
    make_translation_method_map,
    method_from_map,
    orbit_segment,
    shear_map,
)

f = shear_map()
delta, eps, N = 0.01, 0.1, 25
m = method_from_map(f, make_translation_method_map(f, delta), N)

po = m.evaluate((0.0, 0.0), N).as_array()
true = orbit_segment(f, (0.0, 0.0), N).as_array()
print("the shear fixes the first coordinate, so there the method drifts exactly k*delta")
for k in (0, 5, 10, 25):
    dx = abs(po[N + k][0] - true[N + k][0])
    dx = min(dx, 1.0 - dx)
    print(f"  k={k:2d}   first-coordinate drift = {dx:.4f} = {k}*delta")
print()
print(f"no recentering c can beat max over |k|<=N of |c + k*delta|, which is N*delta = {N * delta};")
print("every candidate true orbit keeps its first coordinate constant, so it loses by that much.")
print()

counters = {}
v = check_inverse_shadowing(f, m, (0.0, 0.0), eps, N, grid_step=1 / 512, counters=counters)
slack = v.lipschitz_bound * v.grid_step / 2
level = round(2 ** 0.5 / v.grid_step)
print(f"checker verdict: {v.outcome} (certified={v.certified})")
print(f"  covering: nested lattices up to 512x512, {counters['grid_points']} lattice points evaluated")
print(f"  binding cell: a cell of the {level}x{level} lattice, objective {v.min_over_grid:.6f} at its centre")
print(f"  Lipschitz covering slack of that cell: {slack:.6f}")
print(f"  certificate: {v.min_over_grid:.4f} - {slack:.4f} > eps = {eps}  ->  no tracking point exists")
