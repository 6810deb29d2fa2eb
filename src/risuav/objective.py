"""Rates, powers, energy efficiency, and constraint handling.

The decision variables live in :class:`SolutionState`: per-element on-off states X,
per-element phases theta, per-GU transmit powers P, and the UAV horizontal position.
Energy efficiency is sum rate over total consumed power; one batched kernel,
:func:`evaluate_efficiency`, computes every rate, power and efficiency number.
The genetic solvers need a strictly positive fitness, so rate-constraint violations
are folded in as a multiplicative penalty, eta / (1 + RATE_PENALTY_WEIGHT * deficit)
floored at FITNESS_FLOOR, rather than rejected outright; power constraints never
reach the penalty, being repaired in optim.

The ``*_fitness`` builders return closures that score whole populations at once,
so each GA generation costs one fitness call however large its population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (ChannelSet, InstanceTerms, ScatteringDraw, build_channel_set,
                      effective_channels, instance_terms, reflection_weights)
from .scenario import Scenario, hover_power  # noqa: F401  (hover_power is re-exported)

# The summed relative rate deficit is scaled by this weight in the penalty divisor.
RATE_PENALTY_WEIGHT = 10.0
# Fitness floor, so roulette-wheel selection probabilities stay defined.
FITNESS_FLOOR = 1.0e-12


@dataclass
class SolutionState:
    """One candidate solution: on-off vector X, phases theta, powers P, UAV position."""

    onoff: np.ndarray     # (M,) entries in {0, 1}
    phases: np.ndarray    # (M,) radians in [0, 2*pi)
    powers: np.ndarray    # (K,) watts
    uav_pos: np.ndarray   # (2,) meters

    def copy(self) -> "SolutionState":
        return SolutionState(self.onoff.copy(), self.phases.copy(),
                             self.powers.copy(), self.uav_pos.copy())


@dataclass
class ConstraintReport:
    per_gu_rate: np.ndarray    # (K,) bits/s
    rate_feasible: np.ndarray  # (K,) bool, rate >= min_rate
    power_sum: float           # watts
    power_feasible: bool       # sum <= P_max and every p_k > 0
    overall_feasible: bool
    total_power: float         # watts, hover + transmit + circuits + RIS
    eta: float                 # bits/joule, sum rate over total power
    fitness: float             # eta under the rate penalty, as the solvers score it


def validate_solution(solution: SolutionState, scn: Scenario) -> SolutionState:
    """Shape and domain checks; raises ValueError naming the offending part."""
    m, k = scn.num_elements, scn.num_gus
    if solution.onoff.shape != (m,):
        raise ValueError(f"onoff shape {solution.onoff.shape}, expected ({m},)")
    if solution.phases.shape != (m,):
        raise ValueError(f"phases shape {solution.phases.shape}, expected ({m},)")
    if solution.powers.shape != (k,):
        raise ValueError(f"powers shape {solution.powers.shape}, expected ({k},)")
    if np.shape(solution.uav_pos) != (2,):
        raise ValueError(f"uav_pos shape {np.shape(solution.uav_pos)}, expected (2,)")
    if not np.all((solution.onoff == 0) | (solution.onoff == 1)):
        raise ValueError("onoff entries must be 0 or 1")
    return solution


def per_gu_rates(gain, powers, bandwidth: float, noise: float) -> np.ndarray:
    """Per-GU rates B*log2(1+SINR), broadcasting over leading axes.

    gain (real gains |C_k|^2) and powers are (..., K); returns (..., K) bits/s.
    """
    p = np.asarray(powers, dtype=float)
    return _rates(gain, p, p.sum(axis=-1, keepdims=True), bandwidth, noise)


def _rates(gain, p: np.ndarray, psum: np.ndarray, bandwidth: float,
           noise: float) -> np.ndarray:
    """:func:`per_gu_rates` from float powers p and their sums psum (keepdims)."""
    g = np.asarray(gain)
    if np.iscomplexobj(g):
        raise TypeError("per_gu_rates takes real gains |C|^2, not complex channels")
    # B*log2(1 + g*p / (g*(psum - p) + N)), each step in place on a fresh array.
    interference = g * (psum - p)
    interference += noise
    gamma = g * p
    gamma /= interference
    gamma += 1.0
    np.log2(gamma, out=gamma)
    gamma *= bandwidth
    return gamma


def evaluate_efficiency(gain, powers, n_active, scn: Scenario):
    """(per-GU rates, total power, eta) from (..., K) gains |C|^2 and powers.

    Total power is hover (``scn.hover_power``) + transmit + GU circuit +
    per-active-element RIS power. The powers are summed once, for both.
    """
    p = np.asarray(powers, dtype=float)
    psum = p.sum(axis=-1, keepdims=True)
    rates = _rates(gain, p, psum, scn.bandwidth, scn.noise_power)
    k = rates.shape[-1]
    p_total = (scn.hover_power + psum[..., 0]
               + k * scn.gu_circuit_power + scn.ru_power * np.asarray(n_active))
    return rates, p_total, rates.sum(axis=-1) / p_total


def total_power(solution: SolutionState, scn: Scenario) -> float:
    """Total power in watts; gains do not enter it, so zeros stand in for them."""
    _, p_total, _ = evaluate_efficiency(np.zeros(len(solution.powers)), solution.powers,
                                        np.sum(solution.onoff), scn)
    return float(p_total)


def energy_efficiency(solution: SolutionState, scatter: ScatteringDraw,
                      scn: Scenario) -> float:
    """Sum rate over total power, bits per joule, channels rebuilt at solution.uav_pos."""
    return check_constraints(solution, scatter, scn).eta


def check_constraints(solution: SolutionState, scatter: ScatteringDraw,
                      scn: Scenario) -> ConstraintReport:
    return constraint_report(solution, instance_terms(scn, scatter), scn)


def constraint_report(solution: SolutionState, terms: InstanceTerms,
                      scn: Scenario) -> ConstraintReport:
    """:func:`check_constraints` from the instance's prebuilt :func:`instance_terms`."""
    chans = build_channel_set(scn, solution.uav_pos, terms)
    gain = np.abs(effective_channels(chans, solution.phases, solution.onoff)) ** 2
    rates, p_total, eta = evaluate_efficiency(gain, solution.powers, np.sum(solution.onoff), scn)
    rate_ok = rates >= scn.min_rate
    psum = float(np.sum(solution.powers))
    # <= is inclusive; the tiny relative slack absorbs repair-scaling roundoff.
    power_ok = bool(psum <= scn.max_power * (1.0 + 1.0e-12)
                    and np.all(solution.powers > 0.0))
    return ConstraintReport(per_gu_rate=rates, rate_feasible=rate_ok, power_sum=psum,
                            power_feasible=power_ok,
                            overall_feasible=bool(power_ok and np.all(rate_ok)),
                            total_power=float(p_total), eta=float(eta),
                            fitness=float(_penalized(rates, eta, scn)))


def _penalized(rates, eta, scn: Scenario) -> np.ndarray:
    """eta under the rate penalty, floored at FITNESS_FLOOR, over leading axes.

    With no rate under the floor every deficit term is +0.0 (NaN for a NaN
    rate), so the penalty would keep eta; it is skipped.
    """
    if scn.min_rate > 0 and (rates < scn.min_rate).any():
        deficit = np.maximum((scn.min_rate - rates) / scn.min_rate, 0.0).sum(axis=-1)
        eta = np.where(deficit > 0.0, eta / (1.0 + RATE_PENALTY_WEIGHT * deficit), eta)
    return np.maximum(eta, FITNESS_FLOOR)


def _fitness_core(gain, powers, onoff_total, scn: Scenario) -> np.ndarray:
    """Penalized fitness from gains |C|^2, broadcast over leading axes."""
    rates, _, eta = evaluate_efficiency(gain, powers, onoff_total, scn)
    return _penalized(rates, eta, scn)


def penalized_fitness(solution: SolutionState, scatter: ScatteringDraw,
                      scn: Scenario) -> float:
    """Positive scalar fitness: eta when rate-feasible, penalized eta otherwise.

    Power constraints are assumed repaired upstream and are not penalized here.
    """
    return check_constraints(solution, scatter, scn).fitness


# ---------------------------------------------------------------------------
# Batched fitness builders for the inner solvers.
# ---------------------------------------------------------------------------

def _unit_phasors(theta: np.ndarray) -> np.ndarray:
    """np.exp(1j * theta) for a 2-D theta, without the complex multiply.

    1j * theta has a zero real part, so exp(+0 + j*theta) has the same bits,
    except at theta = -0.0: there the result's zero imaginary part takes the
    other sign. wrap_phase never emits -0.0.
    """
    z = np.zeros(theta.shape, dtype=complex)
    z.imag = theta
    return np.exp(z, out=z)


def phase_power_fitness(scn: Scenario, chans: ChannelSet, onoff: np.ndarray):
    """Fitness over [theta | P] genomes with X and the UAV position fixed.

    Returns f mapping an (n, M+K) population to (n,) fitness values.
    """
    m = scn.num_elements
    coeff = chans.cascade * np.asarray(onoff)[None, :]
    active = float(np.sum(onoff))

    def fitness(genomes: np.ndarray) -> np.ndarray:
        g = np.atleast_2d(np.asarray(genomes, dtype=float))
        c_eff = chans.direct[None, :] + _unit_phasors(g[:, :m]) @ coeff.T
        return _fitness_core(np.abs(c_eff) ** 2, g[:, m:], active, scn)

    return fitness


def power_fitness(scn: Scenario, chans: ChannelSet, theta: np.ndarray,
                  onoff: np.ndarray):
    """Fitness over P genomes with theta, X, and the UAV position all fixed."""
    gain = np.abs(effective_channels(chans, theta, onoff))[None, :] ** 2
    active = float(np.sum(onoff))

    def fitness(powers: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(powers, dtype=float))
        return _fitness_core(gain, p, active, scn)

    return fitness


def onoff_fitness(scn: Scenario, chans: ChannelSet, theta: np.ndarray,
                  powers: np.ndarray):
    """Fitness over X genomes with theta, P, and the UAV position fixed.

    The RIS power term varies with the number of active elements, so each
    candidate pattern sees its own total power.
    """
    coeff = chans.cascade * np.exp(1j * np.asarray(theta, dtype=float))[None, :]
    p = np.asarray(powers, dtype=float)

    def fitness(patterns: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(patterns, dtype=float))
        c_eff = chans.direct[None, :] + x @ coeff.T
        return _fitness_core(np.abs(c_eff) ** 2, p[None, :], x.sum(axis=1), scn)

    return fitness


def placement_objective(scn: Scenario, terms: InstanceTerms, onoff: np.ndarray,
                        theta: np.ndarray, powers: np.ndarray):
    """Objective over the UAV position with (X, theta, P) fixed.

    Returns f mapping one position (2,) to a float, or a batch (P, 2) to (P,)
    values, each the same bits as that position scored alone. terms is the
    run's :func:`instance_terms` and the element weights are built once, so
    each evaluation only rebuilds the direct and UAV-RIS links, once for the
    whole batch.
    """
    weights = reflection_weights(theta, onoff)
    p = np.asarray(powers, dtype=float)
    active = float(np.sum(onoff))

    def objective(w_u: np.ndarray):
        chans = build_channel_set(scn, w_u, terms)
        values = _fitness_core(np.abs(chans.effective(weights)) ** 2, p, active, scn)
        return float(values) if values.ndim == 0 else values

    return objective
