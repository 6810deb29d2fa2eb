"""Command-line front-end: argument mapping and end-to-end invocations."""

import argparse
import json

import pytest

from risuav import harness
from risuav.cli import _int_list, build_parser, main, spec_from_args
from risuav.scenario import load_scenario


def parse(argv):
    return build_parser().parse_args(argv)


def test_int_list_parsing():
    assert _int_list("2,4,6") == (2, 4, 6)
    assert _int_list("20") == (20,)
    with pytest.raises(argparse.ArgumentTypeError):
        _int_list("2,x")


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        parse([])


def test_run_requires_spec_flag():
    with pytest.raises(SystemExit):
        parse(["run"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("risuav ")


def test_sweep_gus_arg_mapping():
    spec = spec_from_args(parse(["sweep-gus", "--m", "8", "--k", "1,2",
                                 "--seeds", "3", "--seed", "4"]))
    assert spec.kind == "sweep-gus"
    assert spec.sweep_values == (1, 2)
    assert spec.fixed_elements == 8
    assert spec.seeds == (4, 5, 6)


def test_sweep_elements_arg_mapping():
    spec = spec_from_args(parse(["sweep-elements", "--k", "2", "--m", "4,8",
                                 "--seeds", "2", "--delta", "0.01"]))
    assert spec.kind == "sweep-elements"
    assert spec.sweep_values == (4, 8)
    assert spec.fixed_gus == 2
    assert spec.seeds == (0, 1)
    assert spec.delta == 0.01


def test_oracle_arg_defaults():
    spec = spec_from_args(parse(["oracle"]))
    assert spec.kind == "oracle"
    assert spec.sweep_values == (4,)
    assert spec.fixed_gus == 1
    assert spec.theta_grid == 8
    assert spec.placement_grid == 5
    assert spec.seeds == (0,)


def test_main_oracle_end_to_end(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["oracle", "--m", "1", "--k", "1", "--theta-grid", "2",
                 "--placement-grid", "2", "--out", str(out)])
    assert code == 0
    lines = (out / "results.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("oracle,1,0,")
    assert "wrote" in capsys.readouterr().out


def test_main_run_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "kind": "single",
        "scenario_inline": {"num_gus": 1, "ris_rows": 1, "ris_cols": 2},
        "seeds": [0],
        "max_outer_iters": 2,
    }), encoding="utf-8")
    out = tmp_path / "run"
    code = main(["run", "--spec", str(spec_path), "--out", str(out)])
    assert code == 0
    lines = (out / "results.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 4  # header + 3 schemes
    assert len(list(out.glob("trace_*.csv"))) == 3
    assert (out / "manifest.json").exists()


def test_main_reports_cell_failures(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "kind": "oracle",
        "scenario_inline": {"num_gus": 1, "ris_rows": 1, "ris_cols": 1,
                            "min_rate": 1e30},
        "sweep_values": [1],
        "seeds": [0],
        "theta_grid": 2,
        "placement_grid": 2,
        "fixed_gus": 1,
    }), encoding="utf-8")
    code = main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "f")])
    assert code == 1
    assert "FAILED oracle_1_0" in capsys.readouterr().err


def _tiny_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "kind": "single",
        "scenario_inline": {"num_gus": 1, "ris_rows": 1, "ris_cols": 2},
        "schemes": ["no-ris"],
        "seeds": [0],
        "max_outer_iters": 2,
    }), encoding="utf-8")
    return spec_path


def test_run_keeps_spec_fields_without_flags(tmp_path):
    spec = spec_from_args(parse(["run", "--spec", str(_tiny_spec_file(tmp_path))]))
    assert (spec.workers, spec.delta, spec.max_outer_iters) == (1, 1.0e-3, 2)
    assert spec.seeds == (0,)


def test_run_applies_given_shared_flags(tmp_path):
    spec = spec_from_args(parse(["run", "--spec", str(_tiny_spec_file(tmp_path)),
                                 "--workers", "3", "--delta", "0.01",
                                 "--max-outer", "7"]))
    assert (spec.workers, spec.delta, spec.max_outer_iters) == (3, 0.01, 7)
    assert spec.seeds == (0,)


def test_run_flags_reach_the_manifest(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--spec", str(_tiny_spec_file(tmp_path)), "--out", str(out),
                 "--max-outer", "1", "--delta", "0.5"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["spec"]["max_outer_iters"] == 1
    assert manifest["spec"]["delta"] == 0.5
    assert manifest["spec"]["output_path"] == str(out)


def test_run_rejects_seed_flag(tmp_path, capsys):
    argv = ["run", "--spec", str(_tiny_spec_file(tmp_path)), "--seed", "3"]
    with pytest.raises(ValueError, match="--seed"):
        spec_from_args(parse(argv))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "never")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def _oracle_spec_file(tmp_path):
    spec_path = tmp_path / "oracle.json"
    spec_path.write_text(json.dumps({
        "kind": "oracle",
        "scenario_inline": {"num_gus": 1, "ris_rows": 1, "ris_cols": 1},
        "sweep_values": [1],
        "seeds": [0],
        "theta_grid": 2,
        "placement_grid": 2,
        "fixed_gus": 1,
    }), encoding="utf-8")
    return spec_path


@pytest.mark.parametrize("flag, value", [("--delta", "5"), ("--max-outer", "0")])
def test_oracle_rejects_outer_loop_flags(tmp_path, capsys, flag, value):
    for argv in (["oracle", "--m", "1", flag, value],
                 ["run", "--spec", str(_oracle_spec_file(tmp_path)), flag, value]):
        with pytest.raises(ValueError, match=flag):
            spec_from_args(parse(argv))
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "never")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "never").exists()


def test_run_oracle_spec_keeps_other_flags(tmp_path):
    spec = spec_from_args(parse(["run", "--spec", str(_oracle_spec_file(tmp_path)),
                                 "--workers", "2"]))
    assert (spec.kind, spec.workers) == ("oracle", 2)


@pytest.mark.parametrize("argv, field", [
    (["oracle", "--m", "5"], "sweep_values"),
    (["oracle", "--k", "3"], "fixed_gus"),
    (["oracle", "--m", "4", "--theta-grid", "29", "--placement-grid", "1"], "theta_grid"),
])
def test_oracle_rejects_bad_fields_before_any_cell(tmp_path, capsys, argv, field):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "never")])
    assert exc.value.code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def _tiny_spec(**overrides):
    return {"kind": "single", "scenario_inline": {"num_gus": 1, "ris_rows": 1, "ris_cols": 2},
            "schemes": ["no-ris"], "seeds": [0], "max_outer_iters": 1, **overrides}


_TINY_SWEEP = ["sweep-elements", "--m", "2", "--seeds", "1"]


@pytest.mark.parametrize("args, field", [
    (_TINY_SWEEP + ["--k", "1", "--max-outer", "0"], "max_outer_iters"),
    (_TINY_SWEEP + ["--k", "1", "--delta", "0"], "delta"),
    (_TINY_SWEEP + ["--k", "1", "--delta", "nan"], "delta"),
    (_TINY_SWEEP + ["--k", "0"], "fixed_gus"),
    (_tiny_spec(kind="sweep-gus", sweep_values=[1], fixed_elements=0), "fixed_elements"),
    (_tiny_spec(workers="2"), "workers"),
    (_tiny_spec(max_outer_iters=True), "max_outer_iters"),
    (_tiny_spec(seeds=[0.5]), "seeds"),
    (_tiny_spec(seeds=0), "seeds"),
    (_tiny_spec(schemes="proposed"), "schemes"),
    (_tiny_spec(schemes=["no-ris", 1]), "schemes"),
    (_tiny_spec(kind="sweep-gus", sweep_values=[2.5]), "sweep_values"),
    (_tiny_spec(delta="0.5"), "delta"),
    (_tiny_spec(output_path=5), "output_path"),
    (_tiny_spec(scenario_inline=None, scenario_path=0), "scenario_path"),
    (_tiny_spec(scenario_inline=[1, 2]), "scenario_inline"),
    (_tiny_spec(seeds=[0, 0]), "seeds"),
    (_tiny_spec(kind="sweep-elements", sweep_values=[2, 2], fixed_gus=1), "sweep_values"),
    (_tiny_spec(schemes=["no-ris", "no-ris"]), "schemes"),
    (["sweep-gus", "--m", "2", "--k", "1,1", "--seeds", "1", "--max-outer", "1"],
     "sweep_values"),
    (_tiny_spec(seeds=[-1]), "seeds"),
    (["sweep-gus", "--m", "2", "--k", "1", "--seeds", "1", "--seed", "-1"], "seeds"),
])
def test_bad_spec_values_fail_before_any_cell(tmp_path, capsys, args, field):
    # args is a command line, or a spec document that ``run --spec`` reads.
    argv = args
    if isinstance(args, dict):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(args), encoding="utf-8")
        argv = ["run", "--spec", str(spec_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "never")])
    assert exc.value.code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_unmeetable_rate_floor_exits_2_and_writes_nothing(tmp_path, capsys):
    # At B = 2e7 and min_rate 1e7, K * (1 - 2^(-min_rate/B)) is 0.88 at K=3, 1.17 at K=4.
    for k in (3, 4):
        spec_path = tmp_path / f"spec{k}.json"
        spec_path.write_text(json.dumps(_tiny_spec(
            scenario_inline={"num_gus": k, "ris_rows": 1, "ris_cols": 2, "min_rate": 1e7})),
            encoding="utf-8")
        argv = ["run", "--spec", str(spec_path), "--out", str(tmp_path / f"out{k}")]
        if k == 3:
            assert main(argv) == 0
            assert (tmp_path / "out3" / "results.csv").is_file()
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "min_rate" in err and "K=4" in err
        assert not (tmp_path / "out4").exists()


def test_sweep_gus_rate_floor_checks_the_largest_k(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, "scn.json", {"min_rate": 1e7})
    with pytest.raises(SystemExit) as exc:
        main(["sweep-gus", "--m", "2", "--k", "2,4", "--seeds", "1", "--max-outer", "1",
              "--scenario", str(scenario), "--out", str(tmp_path / "never")])
    assert exc.value.code == 2
    assert "min_rate" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def _scenario_file(tmp_path, name, fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return path


def test_sweep_scenario_flag_reaches_the_manifest(tmp_path):
    scenario = _scenario_file(tmp_path, "scn.json", {"max_power": 2.0})
    out = tmp_path / "out"
    code = main(_TINY_SWEEP + ["--k", "1", "--max-outer", "1", "--scenario", str(scenario),
                               "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["spec"]["scenario_path"] == str(scenario)
    assert manifest["scenario"]["max_power"] == 2.0


def test_run_scenario_flag_replaces_the_embedded_scenario(tmp_path):
    first = tmp_path / "first"
    assert main(["run", "--spec", str(_tiny_spec_file(tmp_path)), "--out", str(first)]) == 0
    scenario = _scenario_file(tmp_path, "scn.json", {"num_gus": 1, "ris_rows": 1,
                                                     "ris_cols": 2, "max_power": 3.0})
    second = tmp_path / "second"
    code = main(["run", "--spec", str(first / "manifest.json"), "--scenario", str(scenario),
                 "--out", str(second)])
    assert code == 0
    manifest = json.loads((second / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["spec"]["scenario_inline"] is None
    assert manifest["scenario"]["max_power"] == 3.0


@pytest.mark.parametrize("fields, message", [
    ({"max_power": -1}, "max_power"),
    (None, "not found"),
    ({"num_gus": 2.7}, "num_gus"),
    ({"num_gus": True}, "num_gus"),
    ({"max_power": "2"}, "max_power"),
    ({"ris_position": [200, 0, 5]}, "ris_position"),
    ({"bandwidth": None}, "bandwidth"),
    ({"gu_positions": 5}, "gu_positions"),
    ({"rician_ug": float("nan")}, "rician_ug"),  # written as the JSON literal NaN
    ({"rician_rg": float("inf")}, "rician_rg"),  # written as Infinity
])
def test_bad_scenario_file_fails_before_any_cell(tmp_path, capsys, fields, message):
    scenario = tmp_path / "missing.json"
    if fields is not None:
        scenario = _scenario_file(tmp_path, "scn.json", fields)
    with pytest.raises(SystemExit) as exc:
        main(_TINY_SWEEP + ["--k", "1", "--scenario", str(scenario),
                            "--out", str(tmp_path / "never")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_scenario_file_is_read_once_per_experiment(tmp_path, monkeypatch):
    # Every cell runs on the one scenario the manifest records, even if the
    # file changes mid-sweep.
    scenario = _scenario_file(tmp_path, "scn.json", {"max_power": 2.0})
    reads = []

    def counting(path):
        reads.append(path)
        return load_scenario(path)

    monkeypatch.setattr(harness, "load_scenario", counting)
    spec = harness.ExperimentSpec(kind="sweep-elements", scenario_path=str(scenario),
                                  seeds=(0, 1), sweep_values=(2,), fixed_gus=1,
                                  max_outer_iters=1)
    assert len(harness.run_experiment(spec).rows) == 6
    assert len(reads) == 1
    reads.clear()
    assert main(["sweep-elements", "--m", "2", "--k", "1", "--seeds", "2", "--max-outer", "1",
                 "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0
    assert len(reads) == 1
