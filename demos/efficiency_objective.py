"""Anatomy of the efficiency objective: rates over watts, with a rate floor.

Energy efficiency divides the summed downlink rate by the total power draw.
Hover power dominates that denominator, so the optimizer's real lever is the
numerator. This script prices out each power term, evaluates the rates for a
hand-built operating point, and shows how the fitness used inside the search
collapses when a user is pushed below the minimum-rate floor.
"""

import dataclasses

import numpy as np

from risuav.channel import (build_channel_set, effective_channels, instance_terms,
                            sample_scattering)
from risuav.objective import (SolutionState, check_constraints, energy_efficiency,
                              hover_power, penalized_fitness, per_gu_rates,
                              total_power)
from risuav.scenario import (RngStream, default_scenario, sample_gu_positions,
                             with_gu_positions)

scn = with_gu_positions(default_scenario(),
                        sample_gu_positions(RngStream(3, "gu-positions"), 4))
scatter = sample_scattering(RngStream(3, "scatter"), scn.num_gus, scn.num_elements)

p_h = hover_power(scn.drone_mass, scn.gravity, scn.prop_radius, scn.num_props,
                  scn.air_density)
print("power budget with every element on and the full 1 W transmit budget")
print(f"  hover                {p_h:9.3f} W")
print(f"  transmit             {1.0:9.3f} W")
print(f"  user circuits        {scn.num_gus * scn.gu_circuit_power:9.3f} W")
print(f"  surface elements     {scn.num_elements * scn.ru_power:9.3f} W")

# A plain operating point: UAV at its start, equal power split, zero phases.
sol = SolutionState(onoff=np.ones(scn.num_elements),
                    phases=np.zeros(scn.num_elements),
                    powers=np.full(scn.num_gus, scn.max_power / scn.num_gus),
                    uav_pos=np.array(scn.uav_initial_position))
chans = build_channel_set(scn, sol.uav_pos, instance_terms(scn, scatter))
c_eff = effective_channels(chans, sol.phases, sol.onoff)
# Rates depend on the channels only through the gains |C_k|^2.
rates = per_gu_rates(np.abs(c_eff) ** 2, sol.powers, scn.bandwidth, scn.noise_power)

print("\nper-user rates at the equal split (Mbit/s)")
for k, r in enumerate(np.atleast_2d(rates)[0]):
    print(f"  user {k}   {r / 1e6:8.2f}")
print(f"  sum      {rates.sum() / 1e6:8.2f}")
print(f"  total power          {total_power(sol, scn):9.3f} W")
print(f"  efficiency           {energy_efficiency(sol, scatter, scn):.4e} bits/J")

report = check_constraints(sol, scatter, scn)
print(f"  rate floor met       {bool(report.rate_feasible.all())}")

# Starving one user below the floor turns the same number into a penalty.
# A raised floor makes the point infeasible without touching the physics.
harsh = dataclasses.replace(scn, min_rate=float(np.atleast_2d(rates)[0].max()))
print("\nsame operating point under an unreachable per-user rate floor")
print(f"  plain efficiency     {energy_efficiency(sol, scatter, harsh):.4e} bits/J")
print(f"  search fitness       {penalized_fitness(sol, scatter, harsh):.4e}")
print("  the fitness stays positive so roulette selection still works, but the")
print("  shortfall divides it down until the floor is met")
