"""Pinned physics output: a refactor that changes any result byte fails here.

The text digest covers results.csv without its wall_time_s column, every trace
file and manifest.json for a fixed three-scheme spec at K=4, M=20. Those files
print floats with 13 significant digits, so a second digest hashes the raw
float64 bytes of every trace and of each row's eta, sum rate and total power,
for the same spec and for a small oracle spec; it catches a last-bit change.
Both were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64); another numpy
or BLAS build may round the channel products differently and move them. A
change that alters results on purpose must say why and re-pin the digests.
"""

import hashlib
from pathlib import Path

import numpy as np

from risuav.harness import ExperimentSpec, run_experiment, validate_spec, write_outputs

GOLDEN_SPEC = ExperimentSpec(
    kind="single",
    scenario_inline={"num_gus": 4, "ris_rows": 4, "ris_cols": 5},
    schemes=("proposed", "random-phase", "no-ris"),
    seeds=(0, 1, 2),
    max_outer_iters=2,
    # Fixed so the manifest bytes do not depend on where the test writes.
    output_path="golden",
)

ORACLE_SPEC = ExperimentSpec(
    kind="oracle",
    scenario_inline={"num_gus": 2},
    sweep_values=(3,),
    fixed_gus=2,
    theta_grid=4,
    placement_grid=3,
    seeds=(0, 1),
    output_path="golden-oracle",
)

GOLDEN_DIGEST = "3fab898dbf7afc71295456942200607852c9acd72b34231bb27ccd1d567d8271"
RAW_DIGEST = "c871b843bcf7ced450f7e2513a4f965e072413cbb4ab374efa73b8c0cc62ba14"


def physics_digest(out_dir: Path) -> str:
    """SHA-256 of results.csv without wall_time_s, every trace_*.csv and manifest.json."""
    h = hashlib.sha256()
    lines = [line.split(",") for line in
             (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()]
    col = lines[0].index("wall_time_s")
    for fields in lines:
        h.update((",".join(fields[:col] + fields[col + 1:]) + "\n").encode())
    for path in sorted(out_dir.glob("trace_*.csv")) + [out_dir / "manifest.json"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_golden_physics_digest(tmp_path):
    result = run_experiment(validate_spec(GOLDEN_SPEC))
    assert not result.manifest["errors"]
    write_outputs(result, tmp_path)
    assert len(list(tmp_path.glob("trace_*.csv"))) == 9
    assert physics_digest(tmp_path) == GOLDEN_DIGEST


def raw_float_digest(results) -> str:
    """SHA-256 of the float64 bytes of every row's eta, sum rate and total power
    and of every trace, labelled by cell, over the given experiment results."""
    h = hashlib.sha256()
    for result in results:
        for r in result.rows:
            h.update(f"{r.scheme},{r.sweep_value},{r.seed}".encode())
            h.update(np.asarray([r.eta, r.sum_rate, r.total_power], dtype=np.float64).tobytes())
        for key in sorted(result.traces):
            h.update(",".join(map(str, key)).encode())
            h.update(np.asarray(result.traces[key], dtype=np.float64).tobytes())
    return h.hexdigest()


def test_golden_raw_float_digest():
    results = [run_experiment(validate_spec(spec)) for spec in (GOLDEN_SPEC, ORACLE_SPEC)]
    for result in results:
        assert not result.manifest["errors"]
    assert [len(r.rows) for r in results] == [9, 2]
    assert raw_float_digest(results) == RAW_DIGEST
