"""Outer-loop behavior: acceptance policy, traces, baselines, determinism."""

import dataclasses

import numpy as np
import pytest

from risuav import bcd, channel
from risuav.bcd import (BcdConfig, baseline_no_ris, baseline_random_phase,
                        initial_solution, optimize)
from risuav.channel import GeometryError, sample_scattering
from risuav.harness import build_instance
from risuav.objective import check_constraints, penalized_fitness, total_power
from risuav.optim import AdamConfig, GaConfig
from risuav.scenario import (RngStream, default_scenario, sample_gu_positions,
                             with_gu_positions)


def small_instance(seed=0, k=2, rows=2, cols=2):
    base = dataclasses.replace(default_scenario(), num_gus=k, ris_rows=rows,
                               ris_cols=cols)
    gus = sample_gu_positions(RngStream(seed, "gu-positions"), k)
    scn = with_gu_positions(base, gus)
    scatter = sample_scattering(RngStream(seed, "scatter"), k, rows * cols)
    return scn, scatter


def quick_cfg(**kwargs):
    defaults = dict(
        ga_phase_cfg=GaConfig(pop_pairs=8, generations=15),
        ga_onoff_cfg=GaConfig(pop_pairs=8, generations=10),
        adam_cfg=AdamConfig(iters=10),
    )
    defaults.update(kwargs)
    return BcdConfig(**defaults)


def test_initial_solution_layout():
    scn, _ = small_instance()
    sol = initial_solution(scn)
    np.testing.assert_array_equal(sol.onoff, np.ones(4))
    np.testing.assert_array_equal(sol.phases, np.zeros(4))
    np.testing.assert_allclose(sol.powers, 0.5, rtol=1e-12)
    np.testing.assert_array_equal(sol.uav_pos, [200.0, 50.0])


def test_optimize_trace_monotone_and_reproducible_score():
    scn, scatter = small_instance(seed=1)
    res = optimize(scn, scatter, initial_solution(scn), cfg=quick_cfg(), seed=1)
    assert np.all(np.diff(res.eta_trace) >= 0.0)
    rescore = penalized_fitness(res.best, scatter, scn)
    assert rescore == pytest.approx(res.eta_trace[-1], rel=1e-9)
    assert res.outer_iters_used == len(res.eta_trace) - 1
    assert res.wall_time > 0.0


def test_optimize_feasible_at_default_scale():
    scn, scatter = small_instance(seed=2)
    res = optimize(scn, scatter, initial_solution(scn), cfg=quick_cfg(), seed=2)
    assert res.constraint_report.overall_feasible


def test_optimize_single_outer_pass_cap():
    scn, scatter = small_instance(seed=0)
    res = optimize(scn, scatter, initial_solution(scn),
                   cfg=quick_cfg(max_outer_iters=1), seed=0)
    assert res.eta_trace.shape == (2,)
    assert res.outer_iters_used == 1


def test_optimize_huge_delta_stops_after_one_pass():
    scn, scatter = small_instance(seed=0)
    res = optimize(scn, scatter, initial_solution(scn),
                   cfg=quick_cfg(delta=1e9), seed=0)
    assert res.outer_iters_used == 1


def test_optimize_deterministic_same_seed():
    scn, scatter = small_instance(seed=3)
    a = optimize(scn, scatter, initial_solution(scn), cfg=quick_cfg(), seed=3)
    b = optimize(scn, scatter, initial_solution(scn), cfg=quick_cfg(), seed=3)
    np.testing.assert_array_equal(a.best.phases, b.best.phases)
    np.testing.assert_array_equal(a.best.powers, b.best.powers)
    np.testing.assert_array_equal(a.best.onoff, b.best.onoff)
    np.testing.assert_array_equal(a.best.uav_pos, b.best.uav_pos)
    np.testing.assert_array_equal(a.eta_trace, b.eta_trace)


def test_restated_default_ga_configs_keep_the_default_streams():
    # Each GA block draws from its own fixed substream, so a config that only
    # restates the defaults must reproduce the default run bit for bit.
    scn, scatter, _ = build_instance(default_scenario(), num_gus=4, num_elements=20, seed=0)
    default = BcdConfig(max_outer_iters=2)
    restated = BcdConfig(max_outer_iters=2, ga_phase_cfg=GaConfig(generations=100),
                         ga_onoff_cfg=GaConfig(generations=60))
    a = optimize(scn, scatter, initial_solution(scn), cfg=default, seed=0)
    b = optimize(scn, scatter, initial_solution(scn), cfg=restated, seed=0)
    assert a.eta_trace.tobytes() == b.eta_trace.tobytes()
    for name in ("onoff", "phases", "powers", "uav_pos"):
        assert getattr(a.best, name).tobytes() == getattr(b.best, name).tobytes()


def test_nan_delta_is_rejected():
    scn, scatter = small_instance()
    with pytest.raises(ValueError, match="delta"):
        optimize(scn, scatter, initial_solution(scn), cfg=quick_cfg(delta=float("nan")))


def test_no_ris_baseline_keeps_elements_off():
    scn, scatter = small_instance(seed=4)
    res = baseline_no_ris(scn, scatter, cfg=quick_cfg(), seed=4)
    np.testing.assert_array_equal(res.best.onoff, np.zeros(4))
    # Total power carries no per-element term.
    expect = total_power(res.best, scn)
    sol_all_on = res.best.copy()
    sol_all_on.onoff = np.ones(4)
    assert total_power(sol_all_on, scn) == pytest.approx(
        expect + 4 * scn.ru_power, rel=1e-12)
    assert np.all(np.diff(res.eta_trace) >= 0.0)


def test_random_phase_baseline_freezes_the_draw():
    scn, scatter = small_instance(seed=5)
    res = baseline_random_phase(scn, scatter, cfg=quick_cfg(), seed=5)
    expect = RngStream(5, "random-phase").generator().uniform(0, 2 * np.pi, 4)
    np.testing.assert_array_equal(res.best.phases, expect)
    np.testing.assert_array_equal(res.best.onoff, np.ones(4))


def test_random_phase_baseline_seed_sensitivity():
    scn, scatter = small_instance(seed=6)
    a = baseline_random_phase(scn, scatter, cfg=quick_cfg(), seed=6)
    b = baseline_random_phase(scn, scatter, cfg=quick_cfg(), seed=7)
    c = baseline_random_phase(scn, scatter, cfg=quick_cfg(), seed=6)
    assert not np.allclose(a.best.phases, b.best.phases)
    np.testing.assert_array_equal(a.best.phases, c.best.phases)
    np.testing.assert_array_equal(a.eta_trace, c.eta_trace)


def test_bcd_config_validation():
    scn, scatter = small_instance()
    with pytest.raises(ValueError, match="delta"):
        optimize(scn, scatter, initial_solution(scn), cfg=quick_cfg(delta=0.0))
    with pytest.raises(ValueError, match="max_outer_iters"):
        optimize(scn, scatter, initial_solution(scn),
                 cfg=quick_cfg(max_outer_iters=0))


@pytest.mark.parametrize("field, cfg", [
    ("mutation_scale", {"ga_phase_cfg": GaConfig(mutation_scale=float("nan"))}),
    ("mutation_scale", {"ga_onoff_cfg": GaConfig(mutation_scale=float("inf"))}),
    ("step", {"adam_cfg": AdamConfig(step=float("nan"))}),
    ("fd_step", {"adam_cfg": AdamConfig(fd_step=float("inf"))}),
], ids=["phase-nan", "onoff-inf", "step-nan", "fd_step-inf"])
def test_non_finite_solver_settings_fail_before_any_block(monkeypatch, field, cfg):
    # An infinite Adam step used to end every climb as a rejected placement, so
    # the UAV silently never moved; a NaN GA scale failed an assert mid-run.
    def block_ran(*args, **kwargs):
        raise AssertionError("a block ran")
    for name in ("build_channel_set", "ga_continuous_run", "ga_binary_run", "adam_maximize"):
        monkeypatch.setattr(bcd, name, block_ran)
    scn, scatter = small_instance()
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        optimize(scn, scatter, initial_solution(scn), cfg=quick_cfg(**cfg))


def test_singular_placement_stencil_keeps_the_uav_in_place():
    # From (200, 0.5) the first stencil point is the RIS foot point (200, 0),
    # where the UAV-RIS azimuth is undefined. The climb is dropped, not the cell.
    base = dataclasses.replace(default_scenario(), uav_initial_position=(200.0, 0.5))
    scn, scatter, _ = build_instance(base, 2, 16, 0)
    res = optimize(scn, scatter, initial_solution(scn), BcdConfig(), seed=0)
    assert np.all(np.diff(res.eta_trace) >= 0.0)
    assert res.eta_trace[-1] > res.eta_trace[0]
    np.testing.assert_array_equal(res.best.uav_pos, [200.0, 0.5])
    report = res.constraint_report
    assert report.per_gu_rate.shape == (2,) and np.all(np.isfinite(report.per_gu_rate))
    assert report.eta == pytest.approx(res.eta_trace[-1], rel=1e-9)


@pytest.mark.parametrize("error", [GeometryError, FloatingPointError])
def test_failed_placement_climb_is_a_rejected_proposal(monkeypatch, error):
    def failing_adam(*args, **kwargs):
        raise error("stencil")
    scn, scatter = small_instance(seed=1)
    monkeypatch.setattr(bcd, "adam_maximize", failing_adam)
    res = optimize(scn, scatter, initial_solution(scn), cfg=quick_cfg(), seed=1)
    np.testing.assert_array_equal(res.best.uav_pos, scn.uav_initial_position)
    assert np.all(np.diff(res.eta_trace) >= 0.0)
    assert res.constraint_report.overall_feasible


def test_each_run_builds_the_ris_gu_block_once(monkeypatch):
    # Every channel build of a run, its placement climbs and its final report
    # included, takes the one bundle of instance terms the run built.
    calls = []
    ris_gu_block = channel.ris_gu_block

    def counting(*args):
        calls.append(1)
        return ris_gu_block(*args)

    monkeypatch.setattr(channel, "ris_gu_block", counting)
    scn, scatter = small_instance(seed=3)
    cfg = quick_cfg(delta=1.0e-300, max_outer_iters=3)
    runs = [lambda: optimize(scn, scatter, initial_solution(scn), cfg=cfg, seed=3),
            lambda: baseline_random_phase(scn, scatter, cfg=cfg, seed=3),
            lambda: baseline_no_ris(scn, scatter, cfg=cfg, seed=3)]
    for run in runs:
        calls.clear()
        res = run()
        assert res.outer_iters_used >= 2
        assert len(calls) == 1
        report = check_constraints(res.best, scatter, scn)
        assert report.eta == res.constraint_report.eta
        assert np.array_equal(report.per_gu_rate, res.constraint_report.per_gu_rate)
        # The kept report scored the trace's last entry; no rebuild follows the loop.
        assert res.constraint_report.fitness == res.eta_trace[-1]
        assert report.fitness == res.constraint_report.fitness
