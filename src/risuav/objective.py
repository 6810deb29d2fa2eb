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

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelSet, InstanceTerms, ScatteringDraw, build_channel_set,
                      effective_channels, instance_terms, reflection_weights)
from .optim import POWER_FLOOR
from .scenario import Scenario, hover_power  # noqa: F401  (hover_power is re-exported)

# The summed relative rate deficit is scaled by this weight in the penalty divisor.
RATE_PENALTY_WEIGHT = 10.0
# Fitness floor, so roulette-wheel selection probabilities stay defined.
FITNESS_FLOOR = 1.0e-12
# Relative margin on the power floors of optimal_powers, so a GU held on its
# rate floor still meets min_rate after rounding.
FLOOR_MARGIN = 1.0e-6
# Bisection steps on the total transmit power; 60 halvings reach P_max's last bit.
_BISECT_STEPS = 60


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


def _vertices(nog: np.ndarray, s, c: float):
    """Every vertex split at total transmit power s, one per served GU j.

    nog is N/g_k, (K, R) GU-major, and s a scalar or broadcasts against it. GU
    j takes s - L_j and every other GU k its floor l_k = max(c*(1 + FLOOR_MARGIN)
    * (s + N/g_k), POWER_FLOOR), where c = 1 - 2^(-R_min/B). Returns (floors l,
    f, df, ok), each (K, R): f[j] is the vertex's sum rate in nats per hertz
    and df[j] its derivative in s; ok[j] says GU j's own rate floor holds at s.
    """
    cf = c * (1.0 + FLOOR_MARGIN)
    a = nog + s                                  # s + N/g_k
    ell = a * cf
    if ell.min() > POWER_FLOOR:
        # Every floor is proportional, so each floor GU's rate is -ln(1 - cf)
        # whatever s is.
        d_others = (len(ell) - 1) * cf
        r_others, dr_others = -(len(ell) - 1) * np.log1p(-cf), None
    else:
        np.maximum(ell, POWER_FLOOR, out=ell)
        slope = np.where(ell > POWER_FLOOR, cf, 0.0)  # dl_k/ds
        d_others = slope.sum(axis=0) - slope
        b = a - ell
        # A floor GU's rate is ln(a/b), and its derivative 1/a - (1 - dl/ds)/b.
        r = a / b
        np.log(r, out=r)
        r_others = r.sum(axis=0) - r
        dr = (1.0 - slope) / b
        np.subtract(1.0 / a, dr, out=dr)
        dr_others = dr.sum(axis=0) - dr
    others = ell.sum(axis=0) - ell               # L_j, the floors of the others
    den = others + nog
    # The served GU's rate is ln(a_j / (L_j + N/g_j)).
    f = a / den
    np.log(f, out=f)
    f += r_others
    df = np.divide(d_others, den)
    np.subtract(1.0 / a, df, out=df)
    if dr_others is not None:
        df += dr_others
    a *= c
    np.maximum(a, POWER_FLOOR, out=a)
    ok = np.subtract(s, others, out=others) >= a
    return ell, f, df, ok


def _bisect_power(nog: np.ndarray, p0: np.ndarray, j: int, c: float, p_max: float):
    """Best total power for serving GU j, where h_j(P_max) < 0, per column of nog.

    "infeasible or h_j(s) >= 0" holds below the optimum and fails above it,
    because the feasible powers are an interval [S_min, inf) and h_j is
    non-increasing; the returned upper end of the bracket is feasible.
    """
    lo = np.zeros(nog.shape[1])
    hi = np.full(nog.shape[1], p_max)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        _, f, df, ok = _vertices(nog, mid, c)
        below = ~ok[j] | (df[j] * (p0 + mid) >= f[j])
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi


def optimal_powers(gain, n_active, scn: Scenario):
    """The rate-feasible power split that maximizes eta at fixed gains, per row.

    gain is (..., K) real gains |C|^2 and n_active broadcasts against its
    leading axes. Returns (powers (..., K), eta (...)); a row whose rate floors
    no split within P_max can meet has eta -inf.

    Each rate is convex in its own power at a fixed total S, so the optimum is
    a vertex: one GU j takes S - sum of the others' floors and every other GU
    sits on its floor (see :func:`_vertices`). On that vertex eta_j(S) =
    B*f_j(S) / (P0 + S) is pseudo-concave, so h_j(S) = f_j'(S)*(P0 + S) - f_j(S)
    is non-increasing: S = P_max where h_j(P_max) >= 0, otherwise the root of
    h_j, found by bisection. Each row serves the j of highest eta, and the
    chosen split is scored by one :func:`evaluate_efficiency` call, so
    :func:`check_constraints` of the split reproduces its eta. The work runs
    GU-major, (K, R), so every reduction over the GUs is a column pass.
    """
    g = np.asarray(gain, dtype=float)
    k, lead = g.shape[-1], g.shape[:-1]
    g2 = g.reshape(-1, k)
    n = np.broadcast_to(np.asarray(n_active, dtype=float), lead).reshape(-1)
    c = -math.expm1(-math.log(2.0) * scn.min_rate / scn.bandwidth)
    p_max = scn.max_power
    p0 = (scn.hover_power + k * scn.gu_circuit_power) + scn.ru_power * n
    with np.errstate(divide="ignore", invalid="ignore"):
        nog = scn.noise_power / g2.T
        ell, f, df, ok = _vertices(nog, p_max, c)
        s = p_max
        need = df * (p0 + p_max) < f            # h_j(P_max) < 0
        need &= ok
        if need.any():
            s = np.full(f.shape, p_max)
            for j in np.flatnonzero(need.any(axis=1)):
                rows = np.flatnonzero(need[j])
                s[j, rows] = _bisect_power(nog[:, rows], p0[rows], j, c, p_max)
                _, f_j, _, ok_j = _vertices(nog[:, rows], s[j, rows], c)
                f[j, rows], ok[j, rows] = f_j[j], ok_j[j]
            f /= p0 + s
        # Each row serves its first GU of highest eta among the feasible ones.
        np.copyto(f, -np.inf, where=~ok)
        best = f.max(axis=0)
        on = f == best
        taken = on[0].copy()
        for j in range(1, k):
            on[j] &= ~taken
            taken |= on[j]
        if np.ndim(s):
            s = (s * on).sum(axis=0)
            ell = np.maximum(c * (1.0 + FLOOR_MARGIN) * (nog + s), POWER_FLOOR)
        # The served entry is zeroed, so the others' floors sum exactly, then
        # takes the rest of s.
        ell *= ~on
        ell += on * (s - ell.sum(axis=0))
        rates, _, eta = evaluate_efficiency(g2, ell.T, n, scn)
    # NaN fails both tests, as it fails the rate check of check_constraints.
    eta[~((best > -np.inf) & (rates.min(axis=-1) >= scn.min_rate))] = -np.inf
    return ell.T.reshape(g.shape), eta.reshape(lead)


def alignment_bound(chans: ChannelSet, scn: Scenario):
    """Upper bound on eta at the channels' UAV position: (eta_ub, n_on).

    With n elements on, GU k's gain is at most (|h_d,k| + the sum of its n
    largest |cascade_km|)^2, and the optimal eta rises with every gain, so the
    best :func:`optimal_powers` over n = 0..M of those aligned gains bounds eta
    for every on-off pattern, phase and power split. n_on is the maximizing n.
    The bound holds for splits that keep optimal_powers' FLOOR_MARGIN; one
    without it can pass it by a relative c * FLOOR_MARGIN at most.
    (Q. Wu and R. Zhang, IEEE TWC 2019.) chans may hold a batch of positions;
    then both results are arrays over them.
    """
    mags = np.sort(np.abs(chans.cascade), axis=-1)[..., ::-1]
    amp = np.zeros(mags.shape[:-1] + (mags.shape[-1] + 1,))
    np.cumsum(mags, axis=-1, out=amp[..., 1:])
    amp += np.abs(chans.direct)[..., None]
    amp **= 2
    _, eta = optimal_powers(np.swapaxes(amp, -1, -2), np.arange(amp.shape[-1]), scn)
    return eta.max(axis=-1), eta.argmax(axis=-1)


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
