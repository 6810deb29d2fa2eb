"""Command-line front-end.

Subcommands:
  run             execute an experiment described by a JSON spec (or a manifest)
  sweep-gus       efficiency versus GU count at fixed element count
  sweep-elements  efficiency versus element count at fixed GU count
  oracle          brute-force discretized optimum for a tiny instance

Shared flags (given after the subcommand): --scenario, --seed, --out, --workers,
--delta, --max-outer. --seed is the first of --seeds consecutive master seeds.
With ``run``, a shared flag that is given overrides the spec's field; --seed is
rejected there because the spec lists its own seeds. The oracle runs no outer
loop, so --delta and --max-outer are rejected for it, from ``oracle`` and from
``run`` with an oracle spec alike.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness
from ._version import __version__


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    # Every default is None so ``run`` can tell a given flag from an absent one;
    # an absent flag falls back to the spec file or to ExperimentSpec's default.
    parser.add_argument("--scenario", metavar="PATH", default=None,
                        help="scenario JSON file (defaults built in)")
    parser.add_argument("--seed", type=int, default=None,
                        help="first master seed (default 0)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default results)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default 1)")
    parser.add_argument("--delta", type=float, default=None,
                        help="outer-loop relative improvement threshold (default 1e-3)")
    parser.add_argument("--max-outer", type=int, default=None,
                        help="outer iteration cap (default 20)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risuav",
        description="Energy-efficiency optimizer for a RIS-assisted UAV downlink")
    parser.add_argument("--version", action="version", version=f"risuav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment from a JSON spec or manifest")
    p.add_argument("--spec", required=True, metavar="FILE")
    _common_flags(p)

    p = sub.add_parser("sweep-gus", help="sweep the number of GUs")
    p.add_argument("--m", type=int, default=60, help="RIS element count")
    p.add_argument("--k", type=_int_list, default=(2, 4, 6, 8),
                   help="comma-separated GU counts")
    p.add_argument("--seeds", type=int, default=5, help="number of master seeds")
    _common_flags(p)

    p = sub.add_parser("sweep-elements", help="sweep the RIS element count")
    p.add_argument("--k", type=int, default=4, help="GU count")
    p.add_argument("--m", type=_int_list, default=(20, 40, 60, 80),
                   help="comma-separated element counts")
    p.add_argument("--seeds", type=int, default=5, help="number of master seeds")
    _common_flags(p)

    p = sub.add_parser("oracle", help="brute-force a tiny discretized instance")
    p.add_argument("--m", type=int, default=4, help="RIS element count (<= 4)")
    p.add_argument("--k", type=int, default=1, help="GU count (<= 2)")
    p.add_argument("--theta-grid", type=int, default=8, help="phase levels per element")
    p.add_argument("--placement-grid", type=int, default=5,
                   help="UAV grid points per axis")
    _common_flags(p)

    return parser


def _given_flags(args: argparse.Namespace) -> dict:
    """ExperimentSpec fields set by the shared flags that were given."""
    fields = dict(output_path=args.out, workers=args.workers, delta=args.delta,
                  max_outer_iters=args.max_outer)
    fields = {key: val for key, val in fields.items() if val is not None}
    if args.scenario is not None:
        # The file replaces a scenario embedded in the spec, as a manifest has.
        fields.update(scenario_path=args.scenario, scenario_inline=None)
    return fields


def _reject_outer_loop_flags(args: argparse.Namespace) -> None:
    for flag, value in (("--delta", args.delta), ("--max-outer", args.max_outer)):
        if value is not None:
            raise ValueError(f"{flag} does not apply to the oracle: it runs no outer loop")


def spec_from_args(args: argparse.Namespace) -> harness.ExperimentSpec:
    common = _given_flags(args)
    if args.command == "run":
        if args.seed is not None:
            raise ValueError("--seed does not apply to run: the spec file lists its seeds")
        spec = harness.load_spec(args.spec)
        if spec.kind == "oracle":
            _reject_outer_loop_flags(args)
        if common:
            spec = harness.validate_spec(dataclasses.replace(spec, **common))
        return spec

    first_seed = 0 if args.seed is None else args.seed
    if args.command == "sweep-gus":
        seeds = tuple(range(first_seed, first_seed + args.seeds))
        return harness.validate_spec(harness.ExperimentSpec(
            kind="sweep-gus", seeds=seeds, sweep_values=tuple(args.k),
            fixed_elements=args.m, **common))
    if args.command == "sweep-elements":
        seeds = tuple(range(first_seed, first_seed + args.seeds))
        return harness.validate_spec(harness.ExperimentSpec(
            kind="sweep-elements", seeds=seeds, sweep_values=tuple(args.m),
            fixed_gus=args.k, **common))
    # oracle
    _reject_outer_loop_flags(args)
    return harness.validate_spec(harness.ExperimentSpec(
        kind="oracle", seeds=(first_seed,), sweep_values=(args.m,),
        fixed_gus=args.k, theta_grid=args.theta_grid,
        placement_grid=args.placement_grid, **common))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
        # A bad spec or scenario file raises before any cell runs; a failing
        # cell is recorded in the manifest, not raised.
        result = harness.run_experiment(spec)
    except ValueError as exc:
        parser.error(str(exc))
    csv_path = harness.write_outputs(result, spec.output_path)

    print(f"wrote {csv_path} ({len(result.rows)} rows)")
    for row in result.rows:
        print(f"  {row.scheme} value={row.sweep_value} seed={row.seed} "
              f"eta={row.eta:.6e} bits/J iters={row.outer_iters} "
              f"time={row.wall_time:.2f}s")
    errors = result.manifest.get("errors", {})
    for key, msg in errors.items():
        print(f"  FAILED {key}: {msg}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
