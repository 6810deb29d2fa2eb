"""Outer loop: block-coordinate ascent over the four decision blocks.

One outer pass runs the continuous GA on (theta, P), the binary GA on X, and Adam
on the UAV position, in that order, each seeing the latest accepted values of the
other blocks. A block's proposal is accepted only if it does not decrease the
penalized objective, so the per-iteration trace is non-decreasing by construction.
Proposals are scored by ``objective.constraint_report``; the kept report is the result's.
The loop stops when the relative improvement over one pass falls below delta.

Baselines share the same skeleton: ``baseline_no_ris`` forces every element off
and searches powers and placement only; ``baseline_random_phase`` freezes one
random phase draw with all elements on.

All entry points take a master seed; every stochastic stage draws from a labeled
substream of it, so identical (inputs, seed) reproduce results bit-exactly. The
two GAs of pass i draw from the fixed labels "ga-phase:i" and "ga-onoff:i",
which no config field can move.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .channel import GeometryError, ScatteringDraw, build_channel_set, instance_terms
from .objective import (ConstraintReport, SolutionState, constraint_report, onoff_fitness,
                        phase_power_fitness, placement_objective, power_fitness,
                        validate_solution)
from .optim import (POWER_FLOOR, AdamConfig, GaConfig, _check_adam_config, _check_ga_config,
                    adam_maximize, ga_binary_run, ga_continuous_run, repair_power)
from .scenario import RngStream, Scenario, validate


@dataclass(frozen=True)
class BcdConfig:
    delta: float = 1.0e-3            # relative improvement threshold
    max_outer_iters: int = 20
    ga_phase_cfg: GaConfig = field(default_factory=lambda: GaConfig(generations=100))
    ga_onoff_cfg: GaConfig = field(default_factory=lambda: GaConfig(generations=60))
    adam_cfg: AdamConfig = field(default_factory=AdamConfig)
    power_floor: ClassVar[float] = POWER_FLOOR  # p_min for the repair projection


@dataclass
class BcdResult:
    best: SolutionState
    eta_trace: np.ndarray            # objective after each outer pass, index 0 = initial
    outer_iters_used: int
    constraint_report: ConstraintReport
    wall_time: float                 # seconds


def _check_bcd_config(cfg: BcdConfig) -> None:
    if not cfg.delta > 0:  # also rejects NaN, which would never stop the loop early
        raise ValueError(f"delta must be > 0, got {cfg.delta}")
    if cfg.max_outer_iters < 1:
        raise ValueError(f"max_outer_iters must be >= 1, got {cfg.max_outer_iters}")
    # The solver settings too, so a bad one fails before any block runs.
    _check_ga_config(cfg.ga_phase_cfg)
    _check_ga_config(cfg.ga_onoff_cfg)
    _check_adam_config(cfg.adam_cfg)


def initial_solution(scn: Scenario, power_floor: float = POWER_FLOOR) -> SolutionState:
    """All elements on, zero phases, uniform power split, UAV at its start point."""
    m, k = scn.num_elements, scn.num_gus
    powers = repair_power(np.full(k, scn.max_power / k), scn.max_power, power_floor)
    return SolutionState(onoff=np.ones(m), phases=np.zeros(m), powers=powers,
                         uav_pos=np.asarray(scn.uav_initial_position, dtype=float))


def _run(scn: Scenario, scatter: ScatteringDraw, init: SolutionState, cfg: BcdConfig,
         seed: int, search_ris: bool) -> BcdResult:
    """The outer loop. search_ris=False freezes the phases and the on-off states,
    so each pass searches powers and placement only, as the baselines do."""
    t0 = time.perf_counter()
    validate(scn)
    _check_bcd_config(cfg)
    validate_solution(init, scn)
    m, k = scn.num_elements, scn.num_gus

    sol = init.copy()
    sol.powers = repair_power(sol.powers, scn.max_power, cfg.power_floor)

    terms = instance_terms(scn, scatter)
    report = constraint_report(sol, terms, scn)
    trace = [report.fitness]
    m_ga = m if search_ris else 0

    def accept(cand: SolutionState) -> None:
        """Keep cand, with its report, iff its penalized fitness does not fall."""
        nonlocal sol, report
        cand_report = constraint_report(cand, terms, scn)
        if cand_report.fitness >= report.fitness:
            sol, report = cand, cand_report

    for it in range(1, cfg.max_outer_iters + 1):
        chans = build_channel_set(scn, sol.uav_pos, terms)

        # (a) phases and powers jointly, or powers alone (m_ga = 0) when phases
        # are frozen. The incumbent genome seeds the population so passes
        # refine, not restart.
        rng = RngStream(seed, f"ga-phase:{it}").generator()
        fit = (phase_power_fitness(scn, chans, sol.onoff) if search_ris
               else power_fitness(scn, chans, sol.phases, sol.onoff))
        incumbent = np.concatenate([sol.phases[:m_ga], sol.powers])
        genome, _, _ = ga_continuous_run(fit, (m_ga, k), cfg.ga_phase_cfg, rng,
                                         p_max=scn.max_power, p_min=cfg.power_floor,
                                         seed_genomes=incumbent)
        cand = sol.copy()
        cand.phases[:m_ga] = genome[:m_ga]
        cand.powers = genome[m_ga:].copy()
        accept(cand)

        # (b) on-off pattern
        if search_ris:
            rng = RngStream(seed, f"ga-onoff:{it}").generator()
            fit = onoff_fitness(scn, chans, sol.phases, sol.powers)
            pattern, _, _ = ga_binary_run(fit, m, cfg.ga_onoff_cfg, rng,
                                          seed_genomes=sol.onoff.astype(int))
            cand = sol.copy()
            cand.onoff = pattern.astype(float)
            accept(cand)

        # (c) UAV placement. A stencil point with undefined or non-finite
        # channels ends the climb as a rejected proposal: the UAV stays put.
        objective = placement_objective(scn, terms, sol.onoff, sol.phases, sol.powers)
        try:
            w_best, _ = adam_maximize(objective, sol.uav_pos, cfg.adam_cfg, vectorized=True)
        except (GeometryError, FloatingPointError):
            pass
        else:
            cand = sol.copy()
            cand.uav_pos = np.asarray(w_best, dtype=float)
            accept(cand)

        prev = trace[-1]
        trace.append(report.fitness)
        if (report.fitness - prev) / max(prev, 1.0e-300) < cfg.delta:
            break

    return BcdResult(best=sol, eta_trace=np.asarray(trace),
                     outer_iters_used=len(trace) - 1, constraint_report=report,
                     wall_time=time.perf_counter() - t0)


def optimize(scn: Scenario, scatter: ScatteringDraw, init: SolutionState,
             cfg: BcdConfig = BcdConfig(), seed: int = 0) -> BcdResult:
    """Full pipeline: phases and powers, on-off states, and placement all searched."""
    return _run(scn, scatter, init, cfg, seed, search_ris=True)


def baseline_no_ris(scn: Scenario, scatter: ScatteringDraw,
                    cfg: BcdConfig = BcdConfig(), seed: int = 0) -> BcdResult:
    """Direct links only: every element off, so no reflection and no RIS power draw."""
    init = initial_solution(scn, cfg.power_floor)
    init.onoff = np.zeros(scn.num_elements)
    return _run(scn, scatter, init, cfg, seed, search_ris=False)


def baseline_random_phase(scn: Scenario, scatter: ScatteringDraw,
                          cfg: BcdConfig = BcdConfig(), seed: int = 0) -> BcdResult:
    """All elements on with one frozen uniform phase draw; powers and placement searched."""
    init = initial_solution(scn, cfg.power_floor)
    rng = RngStream(seed, "random-phase").generator()
    init.phases = rng.uniform(0.0, 2.0 * np.pi, size=scn.num_elements)
    return _run(scn, scatter, init, cfg, seed, search_ris=False)
