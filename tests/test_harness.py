"""Experiment harness: pairing, sweeps, oracle enumeration, CSV and manifest."""

import json
import subprocess
import sys

import numpy as np
import pytest

from risuav import harness
from risuav.channel import build_channel_set, effective_channels, instance_terms
from risuav.harness import (ALL_SCHEMES, RESULT_HEADER,
                            ExperimentResult, ExperimentRow, ExperimentSpec, build_instance,
                            emit_csv, emit_traces, load_spec, near_square_factors,
                            resolve_base_scenario, run_experiment, run_oracle,
                            spec_from_dict, spec_to_dict, validate_spec,
                            write_outputs)
from risuav import objective
from risuav.objective import (SolutionState, alignment_bound, check_constraints,
                              evaluate_efficiency, optimal_powers, per_gu_rates, total_power)
from risuav.scenario import default_scenario, scenario_from_dict

TINY = {"num_gus": 1, "ris_rows": 1, "ris_cols": 2}


def tiny_spec(**kwargs):
    defaults = dict(kind="single", scenario_inline=TINY, seeds=(0, 1),
                    max_outer_iters=2)
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


# ---------------------------------------------------------------------------
# Spec plumbing
# ---------------------------------------------------------------------------

def test_near_square_factorizations():
    assert near_square_factors(20) == (4, 5)
    assert near_square_factors(40) == (5, 8)
    assert near_square_factors(60) == (6, 10)
    assert near_square_factors(80) == (8, 10)
    assert near_square_factors(16) == (4, 4)
    assert near_square_factors(7) == (1, 7)
    with pytest.raises(ValueError):
        near_square_factors(0)


def test_validate_spec_errors():
    with pytest.raises(ValueError, match="kind"):
        validate_spec(ExperimentSpec(kind="blort"))
    with pytest.raises(ValueError, match="seeds"):
        validate_spec(ExperimentSpec(seeds=()))
    with pytest.raises(ValueError, match="sweep_values"):
        validate_spec(ExperimentSpec(kind="sweep-gus"))
    with pytest.raises(ValueError, match="scheme"):
        validate_spec(ExperimentSpec(schemes=("proposed", "mystery")))
    with pytest.raises(ValueError, match="workers"):
        validate_spec(ExperimentSpec(workers=0))


def test_validate_spec_rejects_oracle_fields():
    def oracle(**kwargs):
        return ExperimentSpec(**{"kind": "oracle", "sweep_values": (2,), "fixed_gus": 1,
                                 **kwargs})
    assert validate_spec(oracle(sweep_values=(1, 4), fixed_gus=2)).kind == "oracle"
    with pytest.raises(ValueError, match="sweep_values"):
        validate_spec(oracle(sweep_values=(2, 5)))
    with pytest.raises(ValueError, match="sweep_values"):
        validate_spec(oracle(sweep_values=(0,)))
    for k in (0, 3):
        with pytest.raises(ValueError, match="fixed_gus"):
            validate_spec(oracle(fixed_gus=k))
    # 2^4 * 28^4 = 9,834,496 points fit under 10,000,000; 2^4 * 29^4 does not.
    assert validate_spec(oracle(sweep_values=(4,), theta_grid=28, placement_grid=1))
    with pytest.raises(ValueError, match="enumeration size .* theta_grid=29"):
        validate_spec(oracle(sweep_values=(4,), theta_grid=29, placement_grid=1))
    with pytest.raises(ValueError, match="placement_grid=4000"):
        validate_spec(oracle(sweep_values=(1,), theta_grid=1, placement_grid=4000))
    # Sweeps other than the oracle keep their own limits.
    assert validate_spec(ExperimentSpec(kind="sweep-elements", sweep_values=(60,),
                                        fixed_gus=4))


# One field's bad type or value each, named in the error whether the spec is
# built directly or loaded from a document. Most cases also run through the CLI in
# tests/test_cli.py::test_bad_spec_values_fail_before_any_cell.
SPEC_FIELD_FAULTS = [
    ({"workers": "2"}, "workers"),
    ({"max_outer_iters": True}, "max_outer_iters"),
    ({"seeds": [0.5]}, "seeds"),
    ({"seeds": [-1]}, "seeds"),
    ({"schemes": ["no-ris", 1]}, "schemes"),
    ({"kind": "sweep-gus", "sweep_values": [2.5]}, "sweep_values"),
    ({"delta": "0.5"}, "delta"),
    ({"delta": True}, "delta"),
    ({"output_path": 5}, "output_path"),
    ({"scenario_inline": None, "scenario_path": 0}, "scenario_path"),
    ({"scenario_inline": [1, 2]}, "scenario_inline"),
    ({"kind": "oracle", "sweep_values": [2], "fixed_gus": 1, "theta_grid": 2.5},
     "theta_grid"),
    ({"kind": "oracle", "sweep_values": [2], "fixed_gus": 1.0}, "fixed_gus"),
]


@pytest.mark.parametrize("fields, name", SPEC_FIELD_FAULTS)
def test_spec_field_rules_hold_for_built_and_loaded_specs(fields, name):
    doc = {"kind": "single", "scenario_inline": TINY, "seeds": [0], **fields}
    with pytest.raises(ValueError, match=name):
        spec_from_dict(doc)
    built = {key: tuple(v) if isinstance(v, list) and key != "scenario_inline" else v
             for key, v in doc.items()}
    with pytest.raises(ValueError, match=name):
        validate_spec(ExperimentSpec(**built))


def test_spec_round_trip():
    spec = tiny_spec(kind="sweep-elements", sweep_values=(2, 4), fixed_gus=2)
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_manifest_replay_shape():
    spec = tiny_spec()
    manifest = {"spec": spec_to_dict(spec),
                "scenario": {"num_gus": 1, "ris_rows": 1, "ris_cols": 2}}
    again = spec_from_dict(manifest)
    assert again.scenario_inline == manifest["scenario"]
    assert again.seeds == spec.seeds


def test_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown experiment field"):
        spec_from_dict({"kind": "single", "sweeps": [1]})


def test_load_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(tiny_spec())), encoding="utf-8")
    assert load_spec(path) == tiny_spec()


def test_resolve_base_scenario_precedence(tmp_path):
    assert resolve_base_scenario(ExperimentSpec()) == default_scenario()
    spec = ExperimentSpec(scenario_inline={"num_gus": 7})
    assert resolve_base_scenario(spec).num_gus == 7


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def test_build_instance_deterministic_pairing():
    base = default_scenario()
    scn_a, scatter_a, dig_a = build_instance(base, 3, 60, 5)
    scn_b, scatter_b, dig_b = build_instance(base, 3, 60, 5)
    assert dig_a == dig_b
    np.testing.assert_array_equal(scn_a.gu_array(), scn_b.gu_array())
    np.testing.assert_array_equal(scatter_a.ris_gu, scatter_b.ris_gu)
    _, _, dig_c = build_instance(base, 3, 60, 6)
    assert dig_c != dig_a


def test_build_instance_same_gus_across_element_counts():
    base = default_scenario()
    scn20, _, _ = build_instance(base, 4, 20, 0)
    scn80, _, _ = build_instance(base, 4, 80, 0)
    np.testing.assert_array_equal(scn20.gu_array(), scn80.gu_array())
    assert (scn20.ris_rows, scn20.ris_cols) == (4, 5)
    assert (scn80.ris_rows, scn80.ris_cols) == (8, 10)


def test_build_instance_keeps_explicit_positions():
    base = scenario_from_dict({"num_gus": 2,
                               "gu_positions": [[190.0, 20.0], [210.0, 30.0]]})
    scn, _, _ = build_instance(base, 2, 60, 3)
    np.testing.assert_array_equal(scn.gu_array(), [[190.0, 20.0], [210.0, 30.0]])
    # Count mismatch falls back to seeded sampling.
    scn3, _, _ = build_instance(base, 3, 60, 3)
    assert scn3.gu_array().shape == (3, 2)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def test_run_experiment_single_row_layout():
    result = run_experiment(tiny_spec())
    assert len(result.rows) == 6  # 3 schemes x 2 seeds
    keys = [(r.scheme, r.sweep_value, r.seed) for r in result.rows]
    assert keys == sorted(keys)
    assert result.manifest["errors"] == {}
    for row in result.rows:
        assert row.sweep_value == 1  # single kind records K
        assert np.isfinite(row.eta) and row.eta > 0
        assert row.total_power > 78.0
        assert (row.scheme, row.sweep_value, row.seed) in result.traces
    assert len(result.manifest["instances"]) == 6


def test_run_experiment_sweep_counts_rows():
    spec = tiny_spec(kind="sweep-elements", sweep_values=(2, 4), fixed_gus=1,
                     schemes=("proposed", "no-ris"), seeds=(0,))
    result = run_experiment(spec)
    assert len(result.rows) == 4  # 2 values x 2 schemes x 1 seed
    assert sorted({r.sweep_value for r in result.rows}) == [2, 4]


def test_run_experiment_records_cell_errors():
    # An unreachable rate floor leaves the oracle with no feasible point, so
    # every cell fails and is logged rather than aborting the sweep.
    spec = ExperimentSpec(kind="oracle", sweep_values=(1,), seeds=(0, 1),
                          theta_grid=2, placement_grid=2, fixed_gus=1,
                          scenario_inline={"num_gus": 1, "ris_rows": 1,
                                           "ris_cols": 1, "min_rate": 1e30})
    result = run_experiment(spec)
    assert result.rows == []
    assert sorted(result.manifest["errors"]) == ["oracle_1_0", "oracle_1_1"]
    for msg in result.manifest["errors"].values():
        assert "RuntimeError" in msg


# At B = 2e7, K * (1 - 2^(-1e7/B)) is 0.88 for K=3 and 1.17 for K=4.
FLOOR_1E7 = {**TINY, "min_rate": 1e7}


def test_run_experiment_rejects_rate_floors_no_decision_meets():
    ok = run_experiment(tiny_spec(scenario_inline={**FLOOR_1E7, "num_gus": 3},
                                  schemes=("no-ris",), seeds=(0,), max_outer_iters=1))
    assert len(ok.rows) == 1 and ok.manifest["errors"] == {}
    with pytest.raises(ValueError, match=r"min_rate 1e\+07 .*K=4"):
        run_experiment(tiny_spec(scenario_inline={**FLOOR_1E7, "num_gus": 4},
                                 schemes=("no-ris",), seeds=(0,), max_outer_iters=1))


@pytest.mark.parametrize("fields, k", [
    (dict(kind="single", scenario_inline={**FLOOR_1E7, "num_gus": 4}), 4),
    (dict(kind="sweep-gus", sweep_values=(3, 4, 2), fixed_elements=2,
          scenario_inline=FLOOR_1E7), 4),
    (dict(kind="sweep-elements", sweep_values=(2,), fixed_gus=4, scenario_inline=FLOOR_1E7), 4),
    (dict(kind="oracle", sweep_values=(1,), fixed_gus=2, theta_grid=2, placement_grid=2,
          scenario_inline={**TINY, "min_rate": 2e7}), 2),
])
def test_rate_floor_check_uses_the_largest_k_each_kind_runs(fields, k):
    with pytest.raises(ValueError, match=f"min_rate .*K={k} "):
        run_experiment(tiny_spec(**fields))


def test_import_leaves_multiprocessing_unloaded():
    # Only a run with workers > 1 needs the process pool and what it loads.
    code = ("import sys, risuav, risuav.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_run_experiment_deterministic_and_worker_invariant():
    a = run_experiment(tiny_spec())
    b = run_experiment(tiny_spec())
    c = run_experiment(tiny_spec(workers=2))
    for other in (b, c):
        assert len(other.rows) == len(a.rows)
        for ra, ro in zip(a.rows, other.rows):
            assert (ra.scheme, ra.sweep_value, ra.seed) == (ro.scheme, ro.sweep_value, ro.seed)
            assert ra.eta == ro.eta
            assert ra.sum_rate == ro.sum_rate
            assert ra.total_power == ro.total_power
            assert ra.outer_iters == ro.outer_iters
        for key in a.traces:
            np.testing.assert_array_equal(a.traces[key], other.traces[key])


def test_paired_schemes_share_instances():
    result = run_experiment(tiny_spec(seeds=(0,)))
    digests = result.manifest["instances"]
    assert digests["proposed_1_0"] == digests["no-ris_1_0"] == digests["random-phase_1_0"]


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def oracle_within_alignment_bound(monkeypatch):
    """Every run_oracle result in this module is at most the alignment bound
    at the oracle's own position."""
    def checked(m, k, theta_grid, placement_grid, scn=None, seed=0):
        eta, sol = harness.run_oracle(m, k, theta_grid, placement_grid, scn, seed)
        base = default_scenario() if scn is None else scn
        inst, scatter, _ = build_instance(base, int(k), max(int(m), 1), seed)
        chans = build_channel_set(inst, sol.uav_pos, instance_terms(inst, scatter))
        assert eta <= alignment_bound(chans, inst)[0]
        return eta, sol

    monkeypatch.setitem(globals(), "run_oracle", checked)


def test_run_oracle_matches_direct_enumeration():
    base = scenario_from_dict({"num_gus": 1, "ris_rows": 1, "ris_cols": 1})
    eta, sol = run_oracle(1, 1, 4, 3, scn=base, seed=0)
    scn, scatter, _ = build_instance(base, 1, 1, 0)
    terms = instance_terms(scn, scatter)
    best = -np.inf
    for wx in np.linspace(175.0, 225.0, 3):
        for wy in np.linspace(0.0, 50.0, 3):
            if wx == 200.0 and wy == 0.0:
                continue
            chans = build_channel_set(scn, np.array([wx, wy]), terms)
            for x in (0.0, 1.0):
                for theta in 2 * np.pi * np.arange(4) / 4:
                    c = effective_channels(chans, np.array([theta]), np.array([x]))
                    rate = float(per_gu_rates(np.abs(c) ** 2, np.array([1.0]),
                                              scn.bandwidth, scn.noise_power).sum())
                    if rate < scn.min_rate:
                        continue
                    p_t = (78.19268695868081 + 1.0 + scn.gu_circuit_power
                           + scn.ru_power * x)
                    best = max(best, rate / p_t)
    assert eta == pytest.approx(best, rel=1e-12)
    assert np.all(np.isin(sol.onoff, (0.0, 1.0)))


def test_run_oracle_no_ris_degenerate():
    base = scenario_from_dict({"num_gus": 1, "ris_rows": 1, "ris_cols": 1})
    eta0, sol0 = run_oracle(0, 1, 8, 3, scn=base, seed=1)
    np.testing.assert_array_equal(sol0.onoff, [0.0])
    # With the element forced off, the phase grid cannot matter.
    eta1, _ = run_oracle(0, 1, 2, 3, scn=base, seed=1)
    assert eta0 == pytest.approx(eta1, rel=1e-15)


def test_run_oracle_two_user_power_search():
    base = scenario_from_dict({"num_gus": 2, "ris_rows": 1, "ris_cols": 2})
    eta, sol = run_oracle(2, 2, 3, 3, scn=base, seed=0)
    assert eta > 0
    assert sol.powers.shape == (2,)
    assert np.sum(sol.powers) <= 1.0 + 1e-12
    # The exact split serves one GU and holds the other on its rate floor.
    scn, scatter, _ = build_instance(base, 2, 2, 0)
    report = check_constraints(sol, scatter, scn)
    assert report.overall_feasible
    assert report.eta == pytest.approx(eta, rel=1e-12)
    assert report.per_gu_rate.min() == pytest.approx(scn.min_rate, rel=1e-5)


def _oracle_reference(m, k, theta_grid, placement_grid, scn, seed):
    """The oracle as one power step per (position, pattern), rows phase-major.

    K=1 scores each row at full power; K=2 hands each pattern's (rows, K)
    row-major gains to optimal_powers. Returns (best eta, best SolutionState,
    feasible rows, infeasible rows); the first occurrence of the best eta wins,
    in lattice, pattern, row order.
    """
    inst, scatter, _ = build_instance(scn, k, max(m, 1), seed)
    if m == 0:
        patterns, thetas = np.zeros((1, 1)), np.zeros((1, 1))
    else:
        patterns = ((np.arange(2 ** m)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
        levels = 2.0 * np.pi * np.arange(theta_grid) / theta_grid
        thetas = levels[np.indices((theta_grid,) * m).reshape(m, -1).T]
    phase_factors = np.exp(1j * thetas)
    terms = instance_terms(inst, scatter)
    best_eta, best, n_ok, n_bad = -np.inf, None, 0, 0
    for wx in np.linspace(175.0, 225.0, placement_grid):
        for wy in np.linspace(0.0, 50.0, placement_grid):
            w = np.array([wx, wy])
            if np.hypot(wx - inst.ris_position[0], wy - inst.ris_position[1]) < 1.0e-9:
                continue
            chans = build_channel_set(inst, w, terms)
            v = np.conj(chans.ris_gu) * chans.uav_ris[None, :]
            for pat in patterns:
                c_eff = chans.direct[None, :] + (phase_factors * pat[None, :]) @ v.T
                gain = np.abs(c_eff) ** 2
                if k == 1:
                    powers = np.full(gain.shape, inst.max_power)
                    rates, _, eta = evaluate_efficiency(gain, powers[:1], pat.sum(), inst)
                    eta = np.where(np.all(rates >= inst.min_rate, axis=1), eta, -np.inf)
                else:
                    powers, eta = optimal_powers(gain, pat.sum(), inst)
                ok = eta > -np.inf
                n_ok += int(ok.sum())
                n_bad += int((~ok).sum())
                j = int(np.argmax(eta))
                if eta[j] > best_eta:
                    best_eta = float(eta[j])
                    best = SolutionState(onoff=pat.copy(), phases=thetas[j].copy(),
                                         powers=powers[j].copy(), uav_pos=w.copy())
    return best_eta, best, n_ok, n_bad


def _assert_same_solution(sol, ref):
    for field in ("onoff", "phases", "powers", "uav_pos"):
        assert np.array_equal(getattr(sol, field), getattr(ref, field)), field


def _count_table_calls(monkeypatch, m, theta_grid):
    """A list that gets one entry per optimal_powers call of run_oracle, each
    over its whole (theta_grid + 1)^m-row weight table."""
    calls = []

    def counting(gain, n_active, scn):
        assert len(gain) == (theta_grid + 1) ** m
        calls.append(len(gain))
        return optimal_powers(gain, n_active, scn)

    monkeypatch.setattr(harness, "optimal_powers", counting)
    return calls


@pytest.mark.parametrize("m, k, theta_grid, placement_grid, seeds, overrides", [
    (4, 2, 3, 3, (0, 1), {}),
    (3, 2, 4, 3, (0, 1, 2), {}),
    (2, 1, 5, 4, (0, 1, 2), {}),
    (1, 2, 8, 4, (0, 1, 2), {}),
    (0, 2, 3, 4, (0, 1, 2), {}),
    # Costly elements: the best solutions switch on 1, 0 and 4 of the 4
    # elements, so the off level is exercised, all-off included.
    (4, 2, 3, 3, (0, 1, 2), {"ru_power": 0.5}),
    # A 10 g UAV: the optimum's total power is interior, found by bisection.
    (4, 2, 3, 3, (0, 1, 2), {"drone_mass": 0.01}),
    # A rate floor that costs the floor GU 4-15% of P_max.
    (4, 2, 3, 3, (0, 1, 2), {"min_rate": 1.0e6}),
], ids=["4-2-3-3-seeds0", "3-2-4-3-seeds1", "2-1-5-4-seeds2", "1-2-8-4-seeds3",
        "0-2-3-4-seeds4", "4-2-3-3-ru_power0.5", "4-2-3-3-drone_mass0.01",
        "4-2-3-3-min_rate1e6"])
def test_run_oracle_bitwise_matches_reference_loop(monkeypatch, m, k, theta_grid,
                                                   placement_grid, seeds, overrides):
    tables = _count_table_calls(monkeypatch, m, theta_grid)
    base = scenario_from_dict(overrides)
    n_points = placement_grid ** 2 - placement_grid % 2  # the RIS foot point is dropped
    for seed in seeds:
        tables.clear()
        eta, sol = run_oracle(m, k, theta_grid, placement_grid, scn=base, seed=seed)
        # The bound prunes some positions, and the answer stays the same bits.
        assert 1 <= len(tables) < n_points
        ref_eta, ref, _, _ = _oracle_reference(m, k, theta_grid, placement_grid, base, seed)
        assert eta == ref_eta
        _assert_same_solution(sol, ref)


def test_run_oracle_prunes_most_positions_of_the_benchmark_instance(monkeypatch):
    # The oracle-k2m4 benchmark's cells: K=2, M=4, 8 phase levels, a 5x5
    # lattice less the RIS foot point. The alignment bound leaves 3-12 of
    # the 24 positions to score on seeds 0-8.
    tables = _count_table_calls(monkeypatch, 4, 8)
    for seed in range(9):
        tables.clear()
        harness.run_oracle(4, 2, 8, 5, seed=seed)
        assert 1 <= len(tables) < 24


def test_run_oracle_bitwise_with_infeasible_rows():
    # The rate floor is set just past what P_max can serve at the unconstrained
    # optimum's gains, S_min = c*N*(1/g_1 + 1/g_2)/(1 - 2c) > P_max, so the -inf
    # rows move the answer. Costly elements leave some off at seed 1; its tied
    # phase rows must resolve to the first.
    costly = scenario_from_dict({"ru_power": 0.5})
    some_off = False
    for seed in (1, 2):
        free_eta, free, _, _ = _oracle_reference(3, 2, 4, 3, costly, seed)
        scn, scatter, _ = build_instance(costly, 2, 3, seed)
        chans = build_channel_set(scn, free.uav_pos, instance_terms(scn, scatter))
        gain = np.abs(effective_channels(chans, free.phases, free.onoff)) ** 2
        x = scn.max_power / (scn.noise_power * np.sum(1.0 / gain))
        c = 1.0001 * x / (1.0 + 2.0 * x)
        base = scenario_from_dict({"ru_power": 0.5,
                                   "min_rate": float(-scn.bandwidth * np.log2(1.0 - c))})
        eta, sol = run_oracle(3, 2, 4, 3, scn=base, seed=seed)
        ref_eta, ref, n_ok, n_bad = _oracle_reference(3, 2, 4, 3, base, seed)
        assert n_ok > 0 and n_bad > 0 and ref_eta < free_eta
        assert eta == ref_eta
        _assert_same_solution(sol, ref)
        some_off |= not ref.onoff.all()
    assert some_off


# Small lattices at K=1 and K=2, with one phase level or several.
@pytest.mark.parametrize("m, k, theta_grid", [
    (3, 2, 3),
    (4, 2, 3),
    (2, 2, 5),
    (3, 2, 1),
    (3, 1, 3),
])
def test_run_oracle_bitwise_with_uneven_scale_chunks(m, k, theta_grid):
    base = default_scenario()
    for seed in (0, 1):
        eta, sol = run_oracle(m, k, theta_grid, 3, scn=base, seed=seed)
        ref_eta, ref, _, _ = _oracle_reference(m, k, theta_grid, 3, base, seed)
        assert eta == ref_eta
        _assert_same_solution(sol, ref)


@pytest.mark.parametrize("m, theta_grid", [(3, 3), (4, 2), (0, 3)])
def test_run_oracle_kernel_calls_stay_within_the_row_cap(monkeypatch, m, theta_grid):
    counts = []

    def counting(gain, powers, *args):
        # The kernel gets gains |C|^2 squared by the oracle, never channels.
        assert isinstance(gain, np.ndarray) and gain.dtype.kind == "f"
        shape = np.broadcast_shapes(np.shape(gain), np.shape(powers))
        counts.append(int(np.prod(shape[:-1])))
        return evaluate_efficiency(gain, powers, *args)

    monkeypatch.setattr(objective, "evaluate_efficiency", counting)
    harness.run_oracle(m, 2, theta_grid, 2)
    # First the alignment bound, one call over n = 0..M elements on at each
    # of the 4 lattice points (the instance has max(m, 1) elements). Then one
    # call per position the bound does not prune, each over the whole weight
    # lattice: theta_grid phase levels plus "off" per element.
    rows = (theta_grid + 1) ** m
    assert counts[0] == 4 * (max(m, 1) + 1)
    assert 1 <= len(counts) - 1 <= 4
    assert counts[1:] == [rows] * (len(counts) - 1)


def test_run_oracle_off_elements_keep_phase_zero():
    costly = scenario_from_dict({"ru_power": 0.5})
    some_off = False
    for seed in (1, 2):
        _, sol = run_oracle(3, 2, 4, 3, scn=costly, seed=seed)
        assert np.all(sol.phases[sol.onoff == 0.0] == 0.0)
        some_off |= not sol.onoff.all()
    assert some_off


def test_run_oracle_lattice_only_above_the_ris():
    # placement_grid=1 leaves the box corner (175, 0) as the only lattice point.
    base = scenario_from_dict({"ris_position": [175.0, 0.0]})
    with pytest.raises(RuntimeError, match="above the RIS"):
        run_oracle(1, 1, 2, 1, scn=base)


@pytest.mark.parametrize("args, name", [
    ((2, 1, 2.5, 3), "theta_grid"),
    ((2, 1, 2, 2.5), "placement_grid"),
    ((2, 1.0, 2, 2), "k"),
    ((True, 1, 2, 2), "m"),
    ((2.0, 1, 2, 2), "m"),
    ((2, 1, True, 2), "theta_grid"),
])
def test_run_oracle_rejects_non_integer_arguments(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        run_oracle(*args)


def test_run_oracle_accepts_numpy_integers():
    base = scenario_from_dict({"num_gus": 1, "ris_rows": 1, "ris_cols": 1})
    eta, sol = run_oracle(1, 1, 4, 3, scn=base, seed=0)
    np_eta, np_sol = run_oracle(np.int64(1), np.int32(1), np.int64(4), np.int8(3),
                                scn=base, seed=0)
    assert np_eta == eta
    _assert_same_solution(np_sol, sol)
    # 16 * 29^4 points, which int8 arithmetic would wrap to 16, under the 10^7 limit.
    with pytest.raises(ValueError, match="enumeration size 11316496 exceeds"):
        run_oracle(4, 2, np.int8(29), 1)


def test_run_oracle_size_limits():
    with pytest.raises(ValueError, match="oracle supports m"):
        run_oracle(5, 1, 8, 5)
    with pytest.raises(ValueError, match="oracle supports k"):
        run_oracle(2, 3, 8, 5)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def fake_result(n_rows):
    rows = [ExperimentRow(scheme="proposed", sweep_value=1, seed=i, eta=1e6 + i,
                          sum_rate=7e7, total_power=79.25, outer_iters=3,
                          wall_time=0.5)
            for i in range(n_rows)]
    traces = {("proposed", 1, i): np.array([1.0, 2.0, 3.0]) for i in range(n_rows)}
    return ExperimentResult(rows=rows, traces=traces,
                            manifest={"version": "0.0", "spec": {}, "scenario": {},
                                      "instances": {}, "errors": {}})


def test_emit_csv_header_only_when_empty(tmp_path):
    path = emit_csv(fake_result(0), tmp_path / "results.csv")
    assert path.read_text(encoding="utf-8") == RESULT_HEADER + "\n"


def test_emit_csv_row_count_and_reemission(tmp_path):
    path = emit_csv(fake_result(60), tmp_path / "results.csv")
    text = path.read_text(encoding="utf-8")
    assert len(text.strip().split("\n")) == 61
    again = emit_csv(fake_result(60), tmp_path / "again.csv").read_text(encoding="utf-8")
    assert again == text
    assert (tmp_path / "manifest.json").exists()


def test_emit_csv_significant_digits(tmp_path):
    path = emit_csv(fake_result(1), tmp_path / "results.csv")
    row = path.read_text(encoding="utf-8").strip().split("\n")[1]
    eta_field = row.split(",")[3]
    assert eta_field == "1.000000000000e+06"


def test_emit_traces_file_naming(tmp_path):
    paths = emit_traces(fake_result(2), tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["trace_proposed_1_0.csv", "trace_proposed_1_1.csv"]
    lines = paths[0].read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "outer_iter,eta"
    assert len(lines) == 4


def test_write_outputs_bundle(tmp_path):
    result = run_experiment(tiny_spec(seeds=(0,)))
    csv_path = write_outputs(result, tmp_path / "out")
    assert csv_path.exists()
    assert (tmp_path / "out" / "manifest.json").exists()
    traces = list((tmp_path / "out").glob("trace_*.csv"))
    assert len(traces) == 3


def test_manifest_replay_reproduces_rows(tmp_path):
    result = run_experiment(tiny_spec(seeds=(0,)))
    write_outputs(result, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    replay = run_experiment(spec_from_dict(manifest))
    assert len(replay.rows) == len(result.rows)
    for ra, rb in zip(result.rows, replay.rows):
        assert ra.eta == rb.eta
        assert ra.sum_rate == rb.sum_rate
        assert ra.total_power == rb.total_power
