"""The two genetic searches, run standalone on one frozen instance.

The continuous search breeds [phases | powers] genomes with blend crossover and
Gaussian mutation; phases wrap back into [0, 2pi) and powers are repaired onto
the budget after every operation. The binary search breeds on-off patterns with
single-point crossover and bit flips. Both keep the best individual alive
across generations, so their traces never move backward.
"""

import numpy as np

from risuav.channel import build_channel_set, instance_terms, sample_scattering
from risuav.objective import onoff_fitness, phase_power_fitness
from risuav.optim import GaConfig, ga_binary_run, ga_continuous_run
from risuav.scenario import (RngStream, default_scenario, sample_gu_positions,
                             with_gu_positions)

scn = with_gu_positions(default_scenario(),
                        sample_gu_positions(RngStream(1, "gu-positions"), 4))
scatter = sample_scattering(RngStream(1, "scatter"), scn.num_gus, scn.num_elements)
chans = build_channel_set(scn, np.array(scn.uav_initial_position),
                          instance_terms(scn, scatter))
m, k = scn.num_elements, scn.num_gus

# Continuous search over phases and powers with every element on.
fitness = phase_power_fitness(scn, chans, np.ones(m))
cfg = GaConfig(pop_pairs=25, generations=100)
genome, best, trace = ga_continuous_run(
    fitness, (m, k), cfg, RngStream(1, "demo-ga").generator(),
    p_max=scn.max_power)

print("continuous search over [phases | powers]")
print(f"  random-population best   {trace[0]:.4e}")
print(f"  after  25 generations    {trace[25]:.4e}")
print(f"  after 100 generations    {trace[-1]:.4e}")
print(f"  improvement              {trace[-1] / trace[0] - 1.0:+.1%}")
print(f"  monotone trace           {bool(np.all(np.diff(trace) >= 0.0))}")
print(f"  power split (W)          {np.round(genome[m:], 4)}"
      f"  sum={genome[m:].sum():.4f}")

# Binary search over which elements stay on, phases and powers frozen at the
# continuous winner. Each pattern pays for its own active elements.
bit_fitness = onoff_fitness(scn, chans, genome[:m], genome[m:])
pattern, bit_best, bit_trace = ga_binary_run(
    bit_fitness, m, GaConfig(pop_pairs=25, generations=60),
    RngStream(1, "demo-bits").generator(),
    seed_genomes=np.ones((1, m), dtype=int))

print("\nbinary search over the on-off pattern")
print(f"  all-on fitness           {float(bit_fitness(np.ones((1, m)))[0]):.4e}")
print(f"  searched fitness         {bit_best:.4e}")
print(f"  elements kept on         {int(pattern.sum())} of {m}")
print("  after a single continuous pass the phases are still rough, so some")
print("  elements reflect destructively and shutting them off pays; this is")
print("  why the full solver alternates the two searches instead of running")
print("  each once")
