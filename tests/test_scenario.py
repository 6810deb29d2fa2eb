"""Scenario construction, validation, seeded sampling, and file round-trips."""

import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from risuav.scenario import (GU_DISK_CENTER, GU_DISK_RADIUS, RngStream, Scenario,
                             ScenarioError, default_scenario, hover_power, load_scenario,
                             sample_gu_positions, save_scenario, scenario_from_dict,
                             scenario_to_dict, validate, with_gu_positions)


def test_default_scenario_constants():
    scn = default_scenario()
    assert scn.uav_altitude == 70.0
    assert scn.ris_altitude == 40.0
    assert scn.uav_initial_position == (200.0, 50.0)
    assert scn.ris_position == (200.0, 0.0)
    assert scn.wavelength == 0.1
    assert scn.max_power == 1.0
    assert scn.bandwidth == 2.0e7
    assert scn.num_elements == 60
    assert scn.min_rate == 100.0
    assert scn.gu_positions is None


def test_default_scenario_is_built_once_and_shared():
    scn = default_scenario()
    assert default_scenario() is scn
    assert validate(scn) is scn and scn == Scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.max_power = 2.0
    changed = dataclasses.replace(scn, max_power=2.0, num_gus=2)
    assert (changed.max_power, changed.num_gus) == (2.0, 2)
    assert default_scenario() is scn and scn == Scenario()


def test_num_elements_is_rows_times_cols():
    scn = Scenario(ris_rows=3, ris_cols=7)
    assert scn.num_elements == 21


def test_validate_rejects_nonpositive_fields():
    with pytest.raises(ScenarioError, match="uav_altitude"):
        validate(Scenario(uav_altitude=-1.0))
    with pytest.raises(ScenarioError, match="bandwidth"):
        validate(Scenario(bandwidth=0.0))
    with pytest.raises(ScenarioError, match="ris_rows"):
        validate(Scenario(ris_rows=0))
    with pytest.raises(ScenarioError, match="num_gus"):
        validate(Scenario(num_gus=0))


@pytest.mark.parametrize("name", ["num_gus", "ris_rows", "ris_cols", "num_props"])
@pytest.mark.parametrize("value", [2.5, True])
def test_validate_rejects_counts_that_are_not_integers(name, value):
    # A Scenario built directly is checked like one read from a file. Past
    # validation, a float count fails mid-cell and a bool one runs as 0 or 1.
    with pytest.raises(ScenarioError, match=f"{name} must be an integer"):
        validate(Scenario(**{name: value}))
    with pytest.raises(ScenarioError, match=name):
        scenario_from_dict({name: value})


@pytest.mark.parametrize("name", ["rician_ug", "rician_rg"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_validate_rejects_bad_rician_factors(name, value):
    # Past validation, an infinite factor fails every cell with a GeometryError.
    with pytest.raises(ScenarioError, match=f"{name} must be finite"):
        validate(Scenario(**{name: value}))
    with pytest.raises(ScenarioError, match=name):
        scenario_from_dict({name: value})


def test_validate_rejects_wrong_gu_count():
    with pytest.raises(ScenarioError, match="gu_positions"):
        validate(Scenario(num_gus=3, gu_positions=((1.0, 2.0),)))


def test_validate_rejects_gu_on_ris_foot_point():
    with pytest.raises(ScenarioError, match="coincides"):
        validate(Scenario(num_gus=1, gu_positions=((200.0, 0.0),)))


def test_validate_rejects_uav_start_above_ris():
    # Every cell of such a spec used to fail mid-run with a GeometryError.
    with pytest.raises(ScenarioError, match="uav_initial_position"):
        validate(Scenario(uav_initial_position=(200.0, 0.0)))
    with pytest.raises(ScenarioError, match="uav_initial_position"):
        scenario_from_dict({"num_gus": 2, "ris_rows": 1, "ris_cols": 2,
                            "uav_initial_position": [200.0, 0.0]})


def test_gu_array_requires_positions():
    with pytest.raises(ScenarioError):
        default_scenario().gu_array()
    scn = with_gu_positions(default_scenario(), [(190.0, 20.0), (210.0, 30.0)])
    arr = scn.gu_array()
    assert arr.shape == (2, 2)
    assert scn.num_gus == 2


def test_rng_stream_is_reproducible_and_label_separated():
    a = RngStream(7, "scatter").generator().uniform(size=5)
    b = RngStream(7, "scatter").generator().uniform(size=5)
    c = RngStream(7, "gu-positions").generator().uniform(size=5)
    d = RngStream(8, "scatter").generator().uniform(size=5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_sample_single_gu_inside_disk():
    pts = sample_gu_positions(RngStream(0, "gu-positions"), 1)
    assert pts.shape == (1, 2)
    assert math.hypot(pts[0, 0] - GU_DISK_CENTER[0],
                      pts[0, 1] - GU_DISK_CENTER[1]) <= GU_DISK_RADIUS


def test_sample_gu_positions_deterministic():
    a = sample_gu_positions(RngStream(3, "gu-positions"), 8)
    b = sample_gu_positions(RngStream(3, "gu-positions"), 8)
    np.testing.assert_array_equal(a, b)


def test_sample_gu_positions_containment_bulk():
    pts = sample_gu_positions(RngStream(1, "gu-positions"), 500)
    d = np.hypot(pts[:, 0] - GU_DISK_CENTER[0], pts[:, 1] - GU_DISK_CENTER[1])
    assert np.all(d <= GU_DISK_RADIUS)
    # Uniform by area: about a quarter of the draws land inside r/2.
    assert 0.15 < np.mean(d <= GU_DISK_RADIUS / 2) < 0.35


def test_scenario_dict_round_trip():
    scn = with_gu_positions(default_scenario(), [(195.0, 22.0)])
    again = scenario_from_dict(scenario_to_dict(scn))
    assert again == scn


def test_scenario_from_dict_partial_override():
    scn = scenario_from_dict({"num_gus": 6})
    assert scn.num_gus == 6
    assert scn == Scenario(num_gus=6)
    # JSON integers are valid floats, and integral numbers valid counts.
    scn = scenario_from_dict({"max_power": 2, "ris_rows": 3.0, "ris_position": [190, 0]})
    assert type(scn.max_power) is float and type(scn.ris_rows) is int
    assert scn == Scenario(max_power=2.0, ris_rows=3, ris_position=(190.0, 0.0))


@pytest.mark.parametrize("fields, message", [
    ({"num_gus": 2.7}, "num_gus must be an integer"),
    ({"num_gus": True}, "num_gus must be a number"),
    ({"ris_cols": float("inf")}, "ris_cols must be an integer"),
    ({"max_power": "2"}, "max_power must be a number"),
    ({"bandwidth": None}, "bandwidth must be a number"),
    ({"min_rate": False}, "min_rate must be a number"),
    ({"ris_position": [200, 0, 5]}, "ris_position must be an"),
    ({"uav_initial_position": [200.0]}, "uav_initial_position must be an"),
    ({"uav_initial_position": ["200", 50]}, "uav_initial_position must be a number"),
    ({"gu_positions": 5}, "gu_positions must be a list"),
    ({"num_gus": 1, "gu_positions": [[190, 20, 0]]}, r"gu_positions\[0\] must be an"),
])
def test_scenario_from_dict_rejects_values_it_would_coerce(fields, message):
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(fields)


def test_hover_power_is_derived_not_a_field():
    scn = Scenario(drone_mass=3.0, num_props=6)
    assert scn.hover_power == hover_power(3.0, 9.8, 0.2, 6, 1.225)
    assert "hover_power" not in scenario_to_dict(scn)
    again = pickle.loads(pickle.dumps(scn))
    assert again == scn and again.hover_power == scn.hover_power
    assert dataclasses.replace(scn) == scn
    heavier = dataclasses.replace(scn, drone_mass=6.0)
    assert heavier.hover_power == hover_power(6.0, 9.8, 0.2, 6, 1.225)


def test_scenario_from_dict_empty_gives_defaults():
    assert scenario_from_dict({}) == default_scenario()


def test_scenario_from_dict_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown scenario field"):
        scenario_from_dict({"uav_alt": 50.0})


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scn.json"
    scn = with_gu_positions(default_scenario(), [(190.0, 10.0), (205.0, 40.0)])
    save_scenario(scn, path)
    assert load_scenario(path) == scn


def test_load_scenario_invalid_field_names_offender(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"uav_altitude": -1.0}), encoding="utf-8")
    with pytest.raises(ScenarioError, match="uav_altitude"):
        load_scenario(path)


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("/nonexistent/scenario.json")
