"""Pinned physics output: a refactor that changes any result byte fails here.

The digest covers results.csv without its wall_time_s column, every trace file
and manifest.json for a fixed three-scheme spec at K=4, M=20. It was recorded
with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64); another numpy or BLAS build may
round the channel products differently and move it. A change that alters
results on purpose must say why and re-pin the digest.
"""

import hashlib
from pathlib import Path

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

GOLDEN_DIGEST = "3fab898dbf7afc71295456942200607852c9acd72b34231bb27ccd1d567d8271"


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
