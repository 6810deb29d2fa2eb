"""Walk through the link geometry and the gain the surface adds.

The default layout puts the UAV start at (200, 50) and 70 m up, the surface at
(200, 0) and 40 m up, and draws ground users inside a disk centered at
(200, 25). This script computes each link for one user placed at the disk
center, then shows how much the reflected path adds to the direct one when the
element phases are aligned versus left at zero.
"""

import numpy as np

from risuav.channel import (build_channel_set, distance_3d, effective_channels,
                            instance_terms, sample_scattering)
from risuav.scenario import RngStream, default_scenario, with_gu_positions

scn = with_gu_positions(default_scenario(), [(200.0, 25.0)])
uav = np.array(scn.uav_initial_position)

print("link distances from the UAV start position")
d_ug = distance_3d(uav, scn.uav_altitude, scn.gu_positions[0], 0.0)
d_ur = distance_3d(uav, scn.uav_altitude, scn.ris_position, scn.ris_altitude)
d_rg = distance_3d(scn.ris_position, scn.ris_altitude, scn.gu_positions[0], 0.0)
print(f"  UAV to user      {d_ug:8.3f} m")
print(f"  UAV to surface   {d_ur:8.3f} m")
print(f"  surface to user  {d_rg:8.3f} m")

# One scattering draw fixes the random part of both Rician links. The terms
# that do not depend on the UAV position are built once from it.
scatter = sample_scattering(RngStream(0, "scatter"), scn.num_gus, scn.num_elements)
chans = build_channel_set(scn, uav, instance_terms(scn, scatter))

print("\nper-link magnitudes")
print(f"  direct |h_ug|           {abs(chans.direct[0]):.4e}")
print(f"  per-element |h_ur|      {abs(chans.uav_ris[0]):.4e}  (same for all "
      f"{scn.num_elements} elements, pure line of sight)")
print(f"  per-element |h_rg[0]|   {abs(chans.ris_gu[0, 0]):.4e}")

# The cascade is weak per element; the surface pays off by adding M aligned
# terms. Aligning element m to cancel arg(conj(h_rg[m]) h_ur[m]) relative to
# the direct link makes every term add in phase.
all_on = np.ones(scn.num_elements)
aligned = np.angle(chans.direct[0]) - np.angle(chans.cascade[0])

c_off = effective_channels(chans, np.zeros(scn.num_elements), np.zeros(scn.num_elements))[0]
c_zero = effective_channels(chans, np.zeros(scn.num_elements), all_on)[0]
c_best = effective_channels(chans, np.mod(aligned, 2 * np.pi), all_on)[0]

print("\neffective channel magnitude for one user")
print(f"  all elements off        {abs(c_off):.4e}")
print(f"  on, zero phases         {abs(c_zero):.4e}")
print(f"  on, aligned phases      {abs(c_best):.4e}")
print(f"  aligned over direct     {abs(c_best) / abs(c_off):.2f}x")
