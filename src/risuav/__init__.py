"""risuav: energy-efficiency optimization for a RIS-assisted UAV downlink.

The package splits into scenario (problem instances and seeded randomness),
channel (link gains), objective (rates, powers, penalized fitness), optim
(genetic and Adam inner solvers), bcd (the outer block-coordinate loop with
baselines), and harness (experiments, oracle, CSV output, CLI backend).
"""

from ._version import __version__
from .scenario import (GU_DISK_CENTER, GU_DISK_RADIUS, RngStream, Scenario,
                       ScenarioError, default_scenario, load_scenario,
                       sample_gu_positions, save_scenario, scenario_from_dict,
                       scenario_to_dict, validate, with_gu_positions)
from .channel import (ChannelSet, GeometryError, ScatteringDraw, build_channel_set,
                      channel_uav_gu, channel_uav_ris, distance_3d, effective_channels,
                      instance_terms, ris_gu_block, sample_scattering, steering_vector)
from .objective import (ConstraintReport, SolutionState, alignment_bound, check_constraints,
                        energy_efficiency, evaluate_efficiency, hover_power,
                        optimal_powers, penalized_fitness, per_gu_rates, total_power)
from .optim import (AdamConfig, GaConfig, adam_maximize, crossover_blend,
                    crossover_single_point, finite_diff_gradient, ga_binary_run,
                    ga_continuous_run, mutate_continuous, repair_power,
                    selection_sample, wrap_phase)
from .bcd import (BcdConfig, BcdResult, baseline_no_ris, baseline_random_phase,
                  initial_solution, optimize)
from .harness import (ALL_SCHEMES, ExperimentResult, ExperimentRow, ExperimentSpec,
                      build_instance, emit_csv, emit_traces, near_square_factors,
                      run_experiment, run_oracle, write_outputs)

__all__ = [name for name in dir() if not name.startswith("_")]
