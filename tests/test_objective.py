"""Rates, powers, efficiency, constraints, and the penalized fitness surface.

Frozen hand derivations:

    hover, default constants: sqrt((2*9.8)^3 / (2*pi*0.2^2*4*1.225))
                            = 78.19268695868081 W
    total power, K=4 / 1 W transmit / 60 elements on: hover + 1 + 0.004 + 0.060
                            = 79.25668695868081 W
    sum rate, K=1 / gamma=10 / B=2e7: 2e7*log2(11) = 69188632.37274595 bits/s
    rate threshold: gamma_min = 2^(100/2e7) - 1 = 3.4657419091e-6
"""

import dataclasses

import numpy as np
import pytest

from risuav import objective
from risuav.channel import (GeometryError, ScatteringDraw, build_channel_set,
                            effective_channels, instance_terms, ris_gu_block,
                            sample_scattering)
from risuav.objective import (FITNESS_FLOOR, RATE_PENALTY_WEIGHT, SolutionState,
                              _fitness_core, check_constraints, constraint_report,
                              energy_efficiency, evaluate_efficiency, hover_power,
                              onoff_fitness, penalized_fitness, per_gu_rates,
                              phase_power_fitness, placement_objective, power_fitness,
                              total_power, validate_solution)
from risuav.scenario import (RngStream, default_scenario, sample_gu_positions,
                             with_gu_positions)

HOVER_DEFAULT = 78.19268695868081


def sinr(channels, powers, k, noise):
    """Reference formula: SINR of GU k, |C_k|^2 p_k / (|C_k|^2 * sum_{t != k} p_t + noise).

    per_gu_rates must agree with B*log2(1 + sinr) for every GU.
    """
    c = np.asarray(channels)
    p = np.asarray(powers, dtype=float)
    gain = float(np.abs(c[k]) ** 2)
    interference = gain * float(p.sum() - p[k])
    return gain * float(p[k]) / (interference + noise)


def zero_scatter(k, m):
    return ScatteringDraw(direct=np.zeros(k, dtype=complex),
                          ris_gu=np.zeros((k, m), dtype=complex))


def solved_state(scn, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    m, k = scn.num_elements, scn.num_gus
    powers = rng.uniform(0.01, 0.2, k)
    return SolutionState(onoff=rng.integers(0, 2, m).astype(float),
                         phases=rng.uniform(0, 2 * np.pi, m),
                         powers=powers,
                         uav_pos=np.array(scn.uav_initial_position))


def test_hover_power_default_constants():
    val = hover_power(2.0, 9.8, 0.2, 4, 1.225)
    assert val == pytest.approx(HOVER_DEFAULT, rel=1e-14)


def test_hover_power_prop_count_scaling():
    base = hover_power(2.0, 9.8, 0.2, 4, 1.225)
    assert hover_power(2.0, 9.8, 0.2, 16, 1.225) == pytest.approx(base / 2, rel=1e-12)


def test_hover_power_mass_scaling():
    base = hover_power(2.0, 9.8, 0.2, 4, 1.225)
    assert hover_power(4.0, 9.8, 0.2, 4, 1.225) == pytest.approx(base * 2 ** 1.5,
                                                                rel=1e-12)


def test_hover_power_rejects_nonpositive():
    with pytest.raises(ValueError, match="air_density"):
        hover_power(2.0, 9.8, 0.2, 4, 0.0)


def test_sinr_zero_power():
    assert sinr(np.array([0.5 + 0.5j]), np.array([0.0]), 0, 1e-9) == 0.0
    assert per_gu_rates(np.array([0.5]), np.array([0.0]), 2.0e7, 1e-9)[0] == 0.0


def test_sinr_two_equal_users():
    c = np.array([0.3 + 0.4j, 0.3 + 0.4j])   # |C|^2 = 0.25
    p = np.array([0.6, 0.6])
    noise = 1e-3
    expect = 0.25 * 0.6 / (0.25 * 0.6 + noise)
    assert sinr(c, p, 0, noise) == pytest.approx(expect, rel=1e-12)
    assert sinr(c, p, 0, noise) < 1.0
    np.testing.assert_allclose(per_gu_rates(np.abs(c) ** 2, p, 2.0e7, noise),
                               2.0e7 * np.log2(1.0 + expect), rtol=1e-12)


def test_sum_rate_single_user_oracle():
    # |C|^2=1, p=10, noise=1 gives gamma=10 exactly.
    r = per_gu_rates(np.array([1.0]), np.array([10.0]), 2.0e7, 1.0).sum()
    assert r == pytest.approx(69188632.37274595, rel=1e-12)


def test_sum_rate_zero_powers():
    assert per_gu_rates(np.array([1.0, 4.0]), np.zeros(2), 2.0e7, 1e-9).sum() == 0.0


def test_per_gu_rates_matches_sinr_composition():
    rng = np.random.default_rng(3)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    p = rng.uniform(0.1, 0.4, 4)
    rates = per_gu_rates(np.abs(c) ** 2, p, 2.0e7, 1e-9)
    for k in range(4):
        gamma = sinr(c, p, k, 1e-9)
        assert rates[k] == pytest.approx(2.0e7 * np.log2(1 + gamma), rel=1e-12)


def test_per_gu_rates_broadcasts():
    g = np.ones((5, 3))
    p = np.full((5, 3), 0.2)
    assert per_gu_rates(g, p, 2.0e7, 1e-9).shape == (5, 3)


@pytest.mark.parametrize("kernel", [
    lambda c, p: per_gu_rates(c, p, 2.0e7, 1e-9),
    lambda c, p: evaluate_efficiency(c, p, 60, default_scenario()),
], ids=["per_gu_rates", "evaluate_efficiency"])
def test_kernel_rejects_complex_channels(kernel):
    # The kernel takes gains |C|^2; a complex input is a channel passed by mistake.
    for c in (np.ones((5, 3), dtype=complex), [0.3 + 0.4j, 0.5, 0.1]):
        with pytest.raises(TypeError, match="gains"):
            kernel(c, np.full(3, 0.2))


def test_total_power_all_terms():
    scn = default_scenario()
    sol = SolutionState(onoff=np.ones(60), phases=np.zeros(60),
                        powers=np.full(4, 0.25), uav_pos=np.array([200.0, 50.0]))
    assert total_power(sol, scn) == pytest.approx(79.25668695868081, rel=1e-12)


def test_total_power_no_ris_term_when_off():
    scn = default_scenario()
    sol = SolutionState(onoff=np.zeros(60), phases=np.zeros(60),
                        powers=np.full(4, 0.25), uav_pos=np.array([200.0, 50.0]))
    assert total_power(sol, scn) == pytest.approx(HOVER_DEFAULT + 1.0 + 0.004,
                                                 rel=1e-12)


def test_total_power_exceeds_hover():
    scn = default_scenario()
    sol = SolutionState(onoff=np.zeros(60), phases=np.zeros(60),
                        powers=np.full(4, 1e-6), uav_pos=np.array([200.0, 50.0]))
    assert total_power(sol, scn) > HOVER_DEFAULT


def test_energy_efficiency_hand_composed_single_element():
    # K=1, M=1, zero scatter: every factor of eta is a closed form.
    scn = with_gu_positions(
        dataclasses.replace(default_scenario(), num_gus=1, ris_rows=1, ris_cols=1),
        [(200.0, 25.0)])
    scatter = zero_scatter(1, 1)
    sol = SolutionState(onoff=np.ones(1), phases=np.array([0.7]),
                        powers=np.array([0.5]), uav_pos=np.array([200.0, 50.0]))
    chans = build_channel_set(scn, sol.uav_pos, instance_terms(scn, scatter))
    c = effective_channels(chans, sol.phases, sol.onoff)
    r_t = scn.bandwidth * np.log2(1 + np.abs(c[0]) ** 2 * 0.5 / scn.noise_power)
    p_t = HOVER_DEFAULT + 0.5 + scn.gu_circuit_power + scn.ru_power
    assert energy_efficiency(sol, scatter, scn) == pytest.approx(r_t / p_t, rel=1e-12)


def test_energy_efficiency_vanishes_with_tiny_powers():
    scn = with_gu_positions(
        dataclasses.replace(default_scenario(), num_gus=1), [(200.0, 25.0)])
    scatter = zero_scatter(1, 60)
    sol = SolutionState(onoff=np.zeros(60), phases=np.zeros(60),
                        powers=np.array([1e-15]), uav_pos=np.array([200.0, 50.0]))
    eta = energy_efficiency(sol, scatter, scn)
    assert 0.0 < eta < 1.0


def test_check_constraints_power_boundary_inclusive():
    scn = with_gu_positions(
        dataclasses.replace(default_scenario(), num_gus=2),
        [(195.0, 20.0), (205.0, 30.0)])
    scatter = sample_scattering(RngStream(0, "scatter"), 2, 60)
    sol = SolutionState(onoff=np.ones(60), phases=np.zeros(60),
                        powers=np.array([0.5, 0.5]), uav_pos=np.array([200.0, 50.0]))
    report = check_constraints(sol, scatter, scn)
    assert report.power_sum == pytest.approx(1.0)
    assert report.power_feasible


def test_check_constraints_zero_power_strictly_infeasible():
    scn = with_gu_positions(
        dataclasses.replace(default_scenario(), num_gus=2),
        [(195.0, 20.0), (205.0, 30.0)])
    scatter = sample_scattering(RngStream(0, "scatter"), 2, 60)
    sol = SolutionState(onoff=np.ones(60), phases=np.zeros(60),
                        powers=np.array([0.5, 0.0]), uav_pos=np.array([200.0, 50.0]))
    assert not check_constraints(sol, scatter, scn).power_feasible


def test_check_constraints_power_excess_infeasible():
    scn = with_gu_positions(
        dataclasses.replace(default_scenario(), num_gus=2),
        [(195.0, 20.0), (205.0, 30.0)])
    scatter = sample_scattering(RngStream(0, "scatter"), 2, 60)
    sol = SolutionState(onoff=np.ones(60), phases=np.zeros(60),
                        powers=np.array([0.6, 0.6]), uav_pos=np.array([200.0, 50.0]))
    assert not check_constraints(sol, scatter, scn).power_feasible


def test_rate_threshold_gamma_inversion():
    # Rate feasibility at B=2e7, R_min=100 is exactly gamma >= 2^(100/2e7) - 1.
    gamma_min = 2.0 ** (100.0 / 2.0e7) - 1.0
    assert gamma_min == pytest.approx(3.4657419085704078e-06, rel=1e-9)
    b, noise = 2.0e7, 1.0
    for gamma, feasible in ((gamma_min * 1.001, True), (gamma_min * 0.999, False)):
        rate = b * np.log2(1 + gamma)
        assert (rate >= 100.0) == feasible


def test_penalized_fitness_equals_eta_when_feasible():
    scn = with_gu_positions(default_scenario(),
                            [(190.0, 15.0), (205.0, 30.0), (212.0, 22.0), (198.0, 38.0)])
    scatter = sample_scattering(RngStream(1, "scatter"), 4, 60)
    sol = SolutionState(onoff=np.ones(60), phases=np.zeros(60),
                        powers=np.full(4, 0.25), uav_pos=np.array([200.0, 50.0]))
    report = check_constraints(sol, scatter, scn)
    assert report.overall_feasible
    assert penalized_fitness(sol, scatter, scn) == pytest.approx(
        energy_efficiency(sol, scatter, scn), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_constraint_report_agrees_with_power_and_efficiency_callers(seed):
    scn, scatter = full_instance(seed)
    sol = solved_state(scn, rng_seed=seed)
    sol.uav_pos = np.random.default_rng(seed).uniform([180.0, 10.0], [220.0, 60.0])
    report = check_constraints(sol, scatter, scn)
    assert report.total_power == total_power(sol, scn)
    assert report.eta == energy_efficiency(sol, scatter, scn)
    assert report.eta == report.per_gu_rate.sum() / report.total_power
    assert report.rate_feasible.all()
    assert penalized_fitness(sol, scatter, scn) == report.eta


def test_penalized_fitness_half_rate_deficit():
    # Put one GU at exactly half its required rate by choosing min_rate to be
    # twice that GU's achieved rate: fitness must become eta / (1 + 10*0.5).
    scn = with_gu_positions(
        dataclasses.replace(default_scenario(), num_gus=2),
        [(195.0, 20.0), (205.0, 30.0)])
    scatter = sample_scattering(RngStream(2, "scatter"), 2, 60)
    sol = SolutionState(onoff=np.ones(60), phases=np.zeros(60),
                        powers=np.array([0.6, 1e-5]), uav_pos=np.array([200.0, 50.0]))
    rates = check_constraints(sol, scatter, scn).per_gu_rate
    assert rates[0] > 2 * rates[1]
    starved = dataclasses.replace(scn, min_rate=2.0 * rates[1])
    eta = energy_efficiency(sol, scatter, starved)
    expect = eta / (1.0 + 10.0 * 0.5)
    assert penalized_fitness(sol, scatter, starved) == pytest.approx(expect, rel=1e-9)


def test_penalized_fitness_floor():
    scn = with_gu_positions(
        dataclasses.replace(default_scenario(), num_gus=1, ref_path_loss=1e-30),
        [(200.0, 25.0)])
    scatter = zero_scatter(1, 60)
    sol = SolutionState(onoff=np.zeros(60), phases=np.zeros(60),
                        powers=np.array([1e-6]), uav_pos=np.array([200.0, 50.0]))
    assert penalized_fitness(sol, scatter, scn) == FITNESS_FLOOR


def test_validate_solution_shape_errors():
    scn = default_scenario()
    good = SolutionState(onoff=np.ones(60), phases=np.zeros(60),
                         powers=np.full(4, 0.1), uav_pos=np.array([200.0, 50.0]))
    assert validate_solution(good, scn) is good
    bad = good.copy()
    bad.onoff = np.ones(59)
    with pytest.raises(ValueError, match="onoff"):
        validate_solution(bad, scn)
    bad = good.copy()
    bad.onoff = np.full(60, 0.5)
    with pytest.raises(ValueError, match="0 or 1"):
        validate_solution(bad, scn)


def full_instance(seed=0):
    scn = with_gu_positions(default_scenario(),
                            [(190.0, 15.0), (205.0, 30.0), (212.0, 22.0), (198.0, 38.0)])
    scatter = sample_scattering(RngStream(seed, "scatter"), 4, 60)
    return scn, scatter


def test_phase_power_fitness_matches_scalar_path():
    scn, scatter = full_instance()
    sol = solved_state(scn)
    chans = build_channel_set(scn, sol.uav_pos, instance_terms(scn, scatter))
    fit = phase_power_fitness(scn, chans, sol.onoff)
    rng = np.random.default_rng(7)
    pop = np.hstack([rng.uniform(0, 2 * np.pi, (5, 60)),
                     rng.uniform(0.01, 0.2, (5, 4))])
    batched = fit(pop)
    for i in range(5):
        cand = sol.copy()
        cand.phases, cand.powers = pop[i, :60], pop[i, 60:]
        assert batched[i] == pytest.approx(penalized_fitness(cand, scatter, scn),
                                           rel=1e-12)


def test_power_fitness_matches_scalar_path():
    scn, scatter = full_instance()
    sol = solved_state(scn)
    chans = build_channel_set(scn, sol.uav_pos, instance_terms(scn, scatter))
    fit = power_fitness(scn, chans, sol.phases, sol.onoff)
    rng = np.random.default_rng(8)
    pop = rng.uniform(0.01, 0.2, (5, 4))
    batched = fit(pop)
    for i in range(5):
        cand = sol.copy()
        cand.powers = pop[i]
        assert batched[i] == pytest.approx(penalized_fitness(cand, scatter, scn),
                                           rel=1e-12)


def test_onoff_fitness_matches_scalar_path():
    scn, scatter = full_instance()
    sol = solved_state(scn)
    chans = build_channel_set(scn, sol.uav_pos, instance_terms(scn, scatter))
    fit = onoff_fitness(scn, chans, sol.phases, sol.powers)
    rng = np.random.default_rng(9)
    pop = rng.integers(0, 2, (5, 60))
    batched = fit(pop)
    for i in range(5):
        cand = sol.copy()
        cand.onoff = pop[i].astype(float)
        assert batched[i] == pytest.approx(penalized_fitness(cand, scatter, scn),
                                           rel=1e-12)


def test_placement_objective_matches_scalar_path():
    scn, scatter = full_instance()
    sol = solved_state(scn)
    objective = placement_objective(scn, instance_terms(scn, scatter), sol.onoff,
                                    sol.phases, sol.powers)
    for w in ([200.0, 50.0], [185.0, 40.0], [210.0, 10.0]):
        cand = sol.copy()
        cand.uav_pos = np.asarray(w)
        assert objective(np.asarray(w)) == pytest.approx(
            penalized_fitness(cand, scatter, scn), rel=1e-12)


@pytest.mark.parametrize("rows,cols", [(1, 2), (6, 10), (12, 20)])
def test_placement_objective_batch_matches_per_point_loop(rows, cols):
    scn = dataclasses.replace(full_instance()[0], ris_rows=rows, ris_cols=cols)
    scatter = sample_scattering(RngStream(1, "scatter"), 4, rows * cols)
    sol = solved_state(scn, rng_seed=2)
    objective = placement_objective(scn, instance_terms(scn, scatter), sol.onoff,
                                    sol.phases, sol.powers)
    rng = np.random.default_rng(5)
    w = np.column_stack([rng.uniform(150.0, 250.0, 30), rng.uniform(-40.0, 90.0, 30)])
    batch = objective(w)
    assert batch.shape == (30,)
    for i, point in enumerate(w):
        one = objective(point)
        assert type(one) is float
        assert np.array_equal(batch[i], one)


def test_placement_objective_batch_over_the_ris_raises():
    scn, scatter = full_instance()
    sol = solved_state(scn)
    objective = placement_objective(scn, instance_terms(scn, scatter), sol.onoff,
                                    sol.phases, sol.powers)
    w = np.array([[200.0, 50.0], list(scn.ris_position), [210.0, 10.0]])
    with pytest.raises(GeometryError):
        objective(w)


# ---------------------------------------------------------------------------
# Byte-level references: the placement closure and the fitness tail as they
# were before the position-independent terms were hoisted.
# ---------------------------------------------------------------------------

def ref_fitness_tail(gain, powers, onoff_total, scn):
    """The penalized fitness with the penalty block always evaluated."""
    rates, _, eta = evaluate_efficiency(gain, powers, onoff_total, scn)
    if scn.min_rate > 0:
        deficit = np.maximum((scn.min_rate - rates) / scn.min_rate, 0.0).sum(axis=-1)
        eta = np.where(deficit > 0.0, eta / (1.0 + RATE_PENALTY_WEIGHT * deficit), eta)
    return np.maximum(eta, FITNESS_FLOOR)


def ref_placement_objective(scn, scatter, onoff, theta, powers):
    """Every channel term rebuilt per call: the ramp prefix inside the
    exponent, the Rician mix, np.conj of the RIS-GU block and the weights."""
    ris_gu = ris_gu_block(scn, scatter)
    p = np.asarray(powers, dtype=float)
    active = float(np.sum(onoff))

    def objective(w_u):
        w = np.asarray(w_u, dtype=float)
        dvec = scn.gu_array() - w[..., None, :]
        d_ug = np.sqrt(np.sum(dvec ** 2, axis=-1) + scn.uav_altitude ** 2)
        kap = scn.rician_ug
        direct = np.sqrt(scn.ref_path_loss / d_ug ** scn.pathloss_exp_ug) * (
            np.sqrt(kap / (kap + 1.0)) + np.sqrt(1.0 / (kap + 1.0)) * scatter.direct)
        ris = np.asarray(scn.ris_position, dtype=float)
        d_h = ris - w
        hnorm = np.sqrt((d_h[..., None, :] @ d_h[..., :, None])[..., 0, 0])
        d = np.hypot(hnorm, scn.uav_altitude - scn.ris_altitude)
        phi = ((w[..., 1] - ris[1]) / hnorm)[..., None]
        varphi = (d_h[..., 0] / hnorm)[..., None]
        psi = ((scn.uav_altitude - scn.ris_altitude) / d)[..., None]
        row = np.exp(-1j * 2.0 * np.pi * (scn.row_spacing / scn.wavelength)
                     * np.arange(scn.ris_rows) * phi * psi)
        col = np.exp(-1j * 2.0 * np.pi * (scn.col_spacing / scn.wavelength)
                     * np.arange(scn.ris_cols) * varphi * psi)
        sv = (row[..., :, None] * col[..., None, :]).reshape(row.shape[:-1] + (-1,))
        uav_ris = (np.sqrt(scn.ref_path_loss) / d)[..., None] * sv
        weights = np.asarray(onoff, dtype=float) * np.exp(1j * np.asarray(theta, dtype=float))
        c_eff = direct + (np.conj(ris_gu) * uav_ris[..., None, :]) @ weights
        values = ref_fitness_tail(np.abs(c_eff) ** 2, p, active, scn)
        return float(values) if values.ndim == 0 else values

    return objective


def same_bits(a, b):
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# (K, rows, cols, a min_rate under which part of the positions fall)
BYTE_CASES = [(1, 1, 2, 1.3e7), (4, 6, 10, 2.0e5), (8, 12, 20, 7.0e5)]


@pytest.mark.parametrize("binding", [False, True])
@pytest.mark.parametrize("k,rows,cols,floor", BYTE_CASES)
def test_placement_objective_matches_reference_bit_for_bit(k, rows, cols, floor, binding):
    scn = dataclasses.replace(
        with_gu_positions(default_scenario(),
                          sample_gu_positions(RngStream(k, "gu-positions"), k)),
        ris_rows=rows, ris_cols=cols)
    if binding:
        scn = dataclasses.replace(scn, min_rate=floor)
    scatter = sample_scattering(RngStream(k, "scatter"), k, rows * cols)
    sol = solved_state(scn, rng_seed=k)
    terms = instance_terms(scn, scatter)
    rest = (sol.onoff, sol.phases, sol.powers)
    new = placement_objective(scn, terms, *rest)
    ref = ref_placement_objective(scn, scatter, *rest)
    rng = np.random.default_rng(rows * cols)
    w = np.column_stack([rng.uniform(150.0, 250.0, 200), rng.uniform(-40.0, 90.0, 200)])
    batch = new(w)
    assert same_bits(batch, ref(w))
    # The binding floor penalizes some positions and not others; the default
    # floor penalizes none, so only the skip path runs.
    plain = placement_objective(dataclasses.replace(scn, min_rate=0.0), terms, *rest)(w)
    penalized = batch < plain
    assert (penalized.any() and not penalized.all()) if binding else not penalized.any()
    for point in w:
        one = new(point)
        assert type(one) is float
        assert same_bits(one, ref(point))


@pytest.mark.parametrize("case", ["none-under", "one-at-floor", "one-row-under", "nan-row"])
def test_fitness_core_matches_reference_tail(case, monkeypatch):
    scn = with_gu_positions(default_scenario(),
                            sample_gu_positions(RngStream(3, "gu-positions"), 4))
    rng = np.random.default_rng(3)
    # Gains formed as constraint_report forms them, |C|^2 of a channel row.
    chan = np.sqrt(rng.uniform(1.0e-9, 1.0e-8, (50, 4)))
    gain = np.abs(chan) ** 2
    powers = rng.uniform(0.1, 0.25, (50, 4))
    rates = per_gu_rates(gain, powers, scn.bandwidth, scn.noise_power)
    row_min = rates.min(axis=1)
    if case == "one-at-floor":
        scn = dataclasses.replace(scn, min_rate=float(row_min.min()))
    elif case == "one-row-under":
        # The lowest row is under; the next lowest sits exactly on the floor.
        scn = dataclasses.replace(scn, min_rate=float(np.sort(row_min)[1]))
    elif case == "nan-row":
        chan[7] = gain[7] = np.nan
    got = _fitness_core(gain, powers, 60.0, scn)
    assert same_bits(got, ref_fitness_tail(gain, powers, 60.0, scn))
    # Scoring each row as a whole solution, with 60 elements on, gives the same bits.
    rows = iter(chan)
    monkeypatch.setattr(objective, "effective_channels", lambda *_: next(rows))
    terms = instance_terms(scn, sample_scattering(RngStream(3, "scatter"), 4, 60))
    fitness = [constraint_report(SolutionState(np.ones(60), np.zeros(60), p,
                                               np.array([200.0, 50.0])), terms, scn).fitness
               for p in powers]
    assert same_bits(fitness, got)
    eta = evaluate_efficiency(gain, powers, 60.0, scn)[2]
    n_penalized = int((got < eta).sum())
    assert n_penalized == (1 if case == "one-row-under" else 0)
    if case == "nan-row":
        assert np.isnan(got[7]) and np.isfinite(np.delete(got, 7)).all()
    if case == "one-at-floor":
        assert (rates == scn.min_rate).sum() == 1


# ---------------------------------------------------------------------------
# Byte-level references: the rate kernel with a power sum per use and
# out-of-place temporaries, and the phase exponential through 1j * theta.
# ---------------------------------------------------------------------------

def ref_evaluate_efficiency(gain, powers, n_active, scn):
    g = np.asarray(gain)
    p = np.asarray(powers, dtype=float)
    interference = g * (p.sum(axis=-1, keepdims=True) - p)
    gamma = g * p / (interference + scn.noise_power)
    rates = scn.bandwidth * np.log2(1.0 + gamma)
    p_total = (scn.hover_power + p.sum(axis=-1)
               + rates.shape[-1] * scn.gu_circuit_power + scn.ru_power * np.asarray(n_active))
    return rates, p_total, rates.sum(axis=-1) / p_total


def _kernel_inputs(caller, rng):
    """(gain, powers, n_active) in the shapes and layouts each caller passes."""
    if caller == "phase-power":      # (n, K) gains with (n, K) powers
        return rng.uniform(1e-10, 1e-7, (50, 8)), rng.uniform(1e-6, 0.2, (50, 8)), 240.0
    if caller == "power":            # one (1, K) gain row with (n, K) powers
        return rng.uniform(1e-10, 1e-7, (1, 8)), rng.uniform(1e-6, 0.2, (50, 8)), 240.0
    if caller == "oracle":           # a (T, K) transposed view with (S, 1, K) powers
        gain = rng.uniform(1e-10, 1e-7, (2, 256)).T
        powers = (np.linspace(0.1, 1.0, 16)[:, None] * np.full(2, 0.5))[:, None, :]
        return gain, powers, np.int64(3)
    # constraint_report: one (K,) solution, with a zero gain and a zero power
    gain = rng.uniform(1e-10, 1e-7, 4)
    powers = rng.uniform(1e-6, 0.2, 4)
    gain[1] = powers[2] = 0.0
    return gain, powers, 60.0


@pytest.mark.parametrize("caller", ["phase-power", "power", "oracle", "solution"])
def test_rate_kernel_matches_two_sum_reference_bit_for_bit(caller):
    scn = default_scenario()
    gain, powers, n_active = _kernel_inputs(caller, np.random.default_rng(41))
    rates, p_total, eta = evaluate_efficiency(gain, powers, n_active, scn)
    ref_rates, ref_total, ref_eta = ref_evaluate_efficiency(gain, powers, n_active, scn)
    for got, ref in ((rates, ref_rates), (p_total, ref_total), (eta, ref_eta)):
        assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
        assert same_bits(got, ref)
    alone = per_gu_rates(gain, powers, scn.bandwidth, scn.noise_power)
    assert alone.shape == ref_rates.shape and same_bits(alone, ref_rates)
    # The inputs are read, never written.
    assert same_bits(gain, _kernel_inputs(caller, np.random.default_rng(41))[0])
    assert same_bits(powers, _kernel_inputs(caller, np.random.default_rng(41))[1])


@pytest.mark.parametrize("draw", ["in-range", "negative"])
def test_unit_phasors_equal_exp_of_1j_theta_bit_for_bit(draw):
    rng, two_pi = np.random.default_rng(42), 2.0 * np.pi
    if draw == "in-range":
        # A strided view, as the fitness slices the phase block out of each genome.
        theta = rng.uniform(0.0, two_pi, (2000, 248))[:, :240]
        theta[0, :3] = [0.0, 5e-324, np.nextafter(two_pi, 0.0)]
    else:
        theta = -rng.uniform(0.0, 40.0, (2000, 240))
    got = objective._unit_phasors(theta)
    ref = np.exp(1j * theta)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_unit_phasors_differ_from_1j_theta_only_in_the_sign_of_a_zero_at_minus_zero():
    # 1j * -0.0 is (-0.0, +0.0), so exp gives (1, +0.0); exp(+0 - 0j) gives (1, -0.0).
    # wrap_phase maps -0.0 to +0.0, so the phase fitness never sees it.
    got = objective._unit_phasors(np.array([[-0.0]]))[0, 0]
    ref = np.exp(1j * np.array([[-0.0]]))[0, 0]
    assert got == ref
    assert (got.real, np.signbit(got.imag)) == (1.0, True)
    assert (ref.real, np.signbit(ref.imag)) == (1.0, False)
