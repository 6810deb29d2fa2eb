"""Moving the UAV with Adam on a finite-difference gradient.

With the surface settings and the power split frozen, the efficiency becomes a
smooth scalar field over the UAV's horizontal position. There is no closed-form
gradient because the field threads through several channel models, so the
placement step estimates it with central differences and climbs with Adam.
The field scores a whole batch of positions at once, so each Adam step hands
it the current point and its four stencil neighbours in one call.
This script freezes a reasonable solution, walks the UAV from a poor starting
corner, and prints where the walk settles relative to the users.
"""

import numpy as np

from risuav.bcd import BcdConfig, initial_solution
from risuav.objective import placement_objective
from risuav.optim import AdamConfig, adam_maximize
from risuav.scenario import (RngStream, default_scenario, sample_gu_positions,
                             with_gu_positions)
from risuav.channel import instance_terms, sample_scattering

scn = with_gu_positions(default_scenario(),
                        sample_gu_positions(RngStream(2, "gu-positions"), 4))
scatter = sample_scattering(RngStream(2, "scatter"), scn.num_gus, scn.num_elements)

sol = initial_solution(scn, BcdConfig().power_floor)
field = placement_objective(scn, instance_terms(scn, scatter), sol.onoff, sol.phases,
                            sol.powers)

centroid = scn.gu_array().mean(axis=0)
start = np.array([150.0, 90.0])
cfg = AdamConfig(step=1.0, iters=50, fd_step=0.5)
w, trace = adam_maximize(field, start, cfg, vectorized=True)

print(f"user centroid            ({centroid[0]:7.2f}, {centroid[1]:7.2f})")
print(f"start                    ({start[0]:7.2f}, {start[1]:7.2f})"
      f"   efficiency {trace[0]:.4e}")
print(f"after {cfg.iters} Adam steps      ({w[0]:7.2f}, {w[1]:7.2f})"
      f"   efficiency {max(trace):.4e}")
print(f"gain                     {max(trace) / trace[0] - 1.0:+.1%}")

# The walk does not end on the centroid: the direct links pull toward the
# users while the reflected path pulls toward the surface at (200, 0).
print("\nfirst steps of the climb")
for i in (0, 1, 2, 5, 10, 25, 50):
    print(f"  iter {i:3d}   field {trace[i]:.6e}")
print("\nthe step size is the trust knob: Adam normalizes the raw gradient, so")
print("step=1.0 moves the UAV about a meter per iteration early on and less as")
print("the moment estimates settle")
