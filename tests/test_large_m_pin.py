"""Pinned raw float64 output of one proposed run at K=8, M=240.

The golden spec runs at M=20, where the phase block of a genome is 20 columns
wide, and the benchmark's digest hashes 13-significant-digit text. This pin
hashes the float64 bytes of one proposed run's row and trace (the
``raw_float_digest`` form of tests/test_golden.py) at a width where the phase
GA and its fitness dominate, so a last-bit change there fails here. It was
recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64); like the golden pins, it
may move with another numpy or BLAS build.
"""

from risuav.harness import ExperimentSpec, run_experiment, validate_spec
from test_golden import raw_float_digest

LARGE_M_SPEC = ExperimentSpec(
    kind="single",
    scenario_inline={"num_gus": 8, "ris_rows": 12, "ris_cols": 20},
    schemes=("proposed",),
    seeds=(0,),
    max_outer_iters=1,
    output_path="large-m",
)

LARGE_M_RAW_DIGEST = "382130422eed05a7d98e12df8607a0986a72187ebc1b5645e59feeb0a4a54479"


def test_large_m_proposed_run_raw_float_digest():
    result = run_experiment(validate_spec(LARGE_M_SPEC))
    assert not result.manifest["errors"]
    assert len(result.rows) == 1
    assert raw_float_digest([result]) == LARGE_M_RAW_DIGEST
