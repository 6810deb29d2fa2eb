"""What an experiment run writes to disk, and how to replay it.

The harness turns a small JSON description into a grid of (scheme, value,
seed) cells, runs them, and writes three kinds of files: results.csv with one
row per cell, a trace CSV per cell, and manifest.json with everything needed
to reproduce the run. This script runs a toy element sweep in a temporary
directory, prints the files, and replays the manifest to show the physics
columns come back bit-identical.
"""

import json
import shutil
import tempfile
from pathlib import Path

from risuav.harness import (ExperimentSpec, run_experiment, spec_from_dict,
                            write_outputs)

spec = ExperimentSpec(
    kind="sweep-elements",
    scenario_inline={"num_gus": 2, "ris_rows": 1, "ris_cols": 2},
    sweep_values=(2, 4),
    schemes=("proposed", "no-ris"),
    seeds=(0, 1),
    max_outer_iters=3,
)

result = run_experiment(spec)
out = Path(tempfile.mkdtemp(prefix="risuav_demo_"))
try:
    csv_path = write_outputs(result, out)

    print(f"wrote {len(result.rows)} rows under {out}")
    for p in sorted(out.iterdir()):
        print(f"  {p.name}")

    print(f"\n{csv_path.name}")
    for line in csv_path.read_text(encoding="utf-8").strip().split("\n"):
        print(f"  {line}")

    one_trace = sorted(out.glob("trace_*.csv"))[0]
    print(f"\n{one_trace.name} (efficiency after each outer pass)")
    for line in one_trace.read_text(encoding="utf-8").strip().split("\n"):
        print(f"  {line}")

    # The manifest embeds the resolved spec and scenario, so it replays without
    # any of the original inputs.
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    replay = run_experiment(spec_from_dict(manifest))
    same = all(a.eta == b.eta and a.sum_rate == b.sum_rate
               for a, b in zip(result.rows, replay.rows))
    print(f"\nreplaying manifest.json reproduces every physics column: {same}")
    print("wall-time columns are measurements and are the one thing that varies")
finally:
    shutil.rmtree(out)
