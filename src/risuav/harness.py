"""Experiment harness: paired sweeps, baselines, the brute-force oracle, CSV output.

Each experiment cell is a (scheme, sweep_value, seed) triple. Within one
(sweep_value, seed) cell every scheme sees identical GU positions and scattering
draws, derived from labeled substreams of the cell seed, so scheme comparisons
are paired. Cells are independent and may run across worker processes; output
row order is canonical regardless of scheduling.

Outputs: ``results.csv`` (one row per cell), ``manifest.json`` (resolved spec,
scenario, instance digests, errors, version), and one ``trace_*.csv`` per run
with the objective value after every outer iteration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .bcd import (BcdConfig, BcdResult, baseline_no_ris, baseline_random_phase,
                  initial_solution, optimize)
from .channel import build_channel_set, instance_terms, sample_scattering
from .objective import SolutionState, check_constraints, evaluate_efficiency
from .scenario import (RngStream, Scenario, default_scenario, load_scenario,
                       sample_gu_positions, scenario_from_dict, scenario_to_dict,
                       with_gu_positions)

SCHEME_PROPOSED = "proposed"
SCHEME_RANDOM_PHASE = "random-phase"
SCHEME_NO_RIS = "no-ris"
ALL_SCHEMES = (SCHEME_PROPOSED, SCHEME_RANDOM_PHASE, SCHEME_NO_RIS)

KINDS = ("single", "sweep-gus", "sweep-elements", "oracle")

RESULT_HEADER = ("scheme,sweep_value,seed,eta_bits_per_joule,sum_rate_bps,"
                 "total_power_w,outer_iters,wall_time_s")

# Oracle lattice: placement box covering the GU disk, the RIS foot point, and
# the initial UAV position; power line-search resolution for K >= 2.
ORACLE_PLACEMENT_BOX = ((175.0, 225.0), (0.0, 50.0))
ORACLE_POWER_GRID = 16
ORACLE_MAX_ELEMENTS = 4
ORACLE_MAX_GUS = 2
_MAX_ENUMERATION = 10_000_000
# ExperimentSpec fields that hold one integer >= 1.
_COUNT_FIELDS = ("fixed_gus", "fixed_elements", "max_outer_iters", "workers",
               "theta_grid", "placement_grid")


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved description of one experiment; everything a rerun needs."""

    kind: str = "single"
    scenario_path: str | None = None
    scenario_inline: dict | None = None   # embedded scenario, used by manifest replay
    seeds: tuple[int, ...] = (0,)
    sweep_values: tuple[int, ...] = ()
    schemes: tuple[str, ...] = ALL_SCHEMES
    output_path: str = "results"
    fixed_gus: int = 4        # K held fixed during sweep-elements and oracle kinds
    fixed_elements: int = 60  # M held fixed during sweep-gus
    delta: float = 1.0e-3
    max_outer_iters: int = 20
    workers: int = 1
    theta_grid: int = 8       # oracle kind only
    placement_grid: int = 5   # oracle kind only


@dataclass
class ExperimentRow:
    scheme: str
    sweep_value: int
    seed: int
    eta: float          # bits/joule
    sum_rate: float     # bits/s
    total_power: float  # watts
    outer_iters: int
    wall_time: float    # seconds


@dataclass
class ExperimentResult:
    rows: list
    traces: dict        # (scheme, sweep_value, seed) -> objective trace array
    manifest: dict


def validate_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Check every field's type and value, naming the field; returns spec."""
    for name in _COUNT_FIELDS:
        value = getattr(spec, name)
        if not (_is_int(value) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    for name, low in (("seeds", 0), ("sweep_values", 1)):
        values = getattr(spec, name)
        if not all(_is_int(v) and v >= low for v in values):
            raise ValueError(f"{name} entries must be integers >= {low}, got {list(values)}")
    if not all(isinstance(v, str) for v in spec.schemes):
        raise ValueError(f"schemes entries must be names, got {list(spec.schemes)}")
    for name, types, expected in (("output_path", str, "a string"),
                                  ("scenario_path", (str, type(None)), "a string or null"),
                                  ("scenario_inline", (dict, type(None)), "an object or null")):
        if not isinstance(getattr(spec, name), types):
            raise ValueError(f"{name} must be {expected}, got {getattr(spec, name)!r}")
    if not ((_is_int(spec.delta) or isinstance(spec.delta, float))
            and np.isfinite(spec.delta) and spec.delta > 0):
        raise ValueError(f"delta must be a finite number > 0, got {spec.delta!r}")
    if spec.kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {spec.kind!r}")
    if not spec.seeds:
        raise ValueError("seeds must be non-empty")
    if spec.kind in ("sweep-gus", "sweep-elements", "oracle") and not spec.sweep_values:
        raise ValueError(f"sweep_values must be non-empty for kind {spec.kind!r}")
    if spec.kind != "oracle":
        if not spec.schemes:
            raise ValueError("schemes must be non-empty")
        bad = sorted(set(spec.schemes) - set(ALL_SCHEMES))
        if bad:
            raise ValueError(f"unknown scheme(s): {', '.join(bad)}")
    # A repeated entry would run the same cell twice: duplicate rows, one trace.
    for name in ("seeds", "sweep_values", "schemes"):
        values = getattr(spec, name)
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must not repeat an entry, got {list(values)}")
    if spec.kind == "oracle":
        if max(spec.sweep_values) > ORACLE_MAX_ELEMENTS:
            raise ValueError(f"oracle sweep_values (element counts) must be in "
                             f"1..{ORACLE_MAX_ELEMENTS}, got {spec.sweep_values}")
        if not 1 <= spec.fixed_gus <= ORACLE_MAX_GUS:
            raise ValueError(f"oracle fixed_gus must be in 1..{ORACLE_MAX_GUS}, "
                             f"got {spec.fixed_gus}")
        n_combos = _oracle_enumeration(max(spec.sweep_values), spec.theta_grid,
                                       spec.placement_grid)
        if n_combos > _MAX_ENUMERATION:
            raise ValueError(f"oracle enumeration size {n_combos} from theta_grid="
                             f"{spec.theta_grid} and placement_grid={spec.placement_grid} "
                             f"exceeds {_MAX_ENUMERATION}")
    return spec


def near_square_factors(m: int) -> tuple[int, int]:
    """Factor m as rows*cols with rows <= cols, as close to square as possible."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    for d in range(int(np.sqrt(m)), 0, -1):
        if m % d == 0:
            return d, m // d


def resolve_base_scenario(spec: ExperimentSpec) -> Scenario:
    if spec.scenario_inline is not None:
        return scenario_from_dict(spec.scenario_inline)
    if spec.scenario_path is not None:
        return load_scenario(spec.scenario_path)
    return default_scenario()


def build_instance(base: Scenario, num_gus: int, num_elements: int, seed: int):
    """One paired problem instance: scenario with positions, scattering, digest.

    The same (num_gus, num_elements, seed) always yields the same instance, no
    matter which scheme consumes it. GU positions given explicitly in the base
    scenario are kept (fixed across seeds) when their count matches; otherwise
    positions are sampled from the seed's "gu-positions" substream.
    """
    if num_elements == base.num_elements:
        rows, cols = base.ris_rows, base.ris_cols
    else:
        rows, cols = near_square_factors(num_elements)
    template = dataclasses.replace(base, ris_rows=rows, ris_cols=cols,
                                   gu_positions=None, num_gus=num_gus)
    if base.gu_positions is not None and len(base.gu_positions) == num_gus:
        positions = np.asarray(base.gu_positions, dtype=float)
    else:
        positions = sample_gu_positions(RngStream(seed, "gu-positions"), num_gus)
    scn = with_gu_positions(template, positions)
    scatter = sample_scattering(RngStream(seed, "scatter"), num_gus, rows * cols)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(positions).tobytes())
    h.update(np.ascontiguousarray(scatter.direct).tobytes())
    h.update(np.ascontiguousarray(scatter.ris_gu).tobytes())
    return scn, scatter, h.hexdigest()[:16]


def _bcd_config(spec: ExperimentSpec) -> BcdConfig:
    return BcdConfig(delta=spec.delta, max_outer_iters=spec.max_outer_iters)


_SCHEME_RUNNERS = {
    SCHEME_PROPOSED: lambda scn, scatter, cfg, seed: optimize(
        scn, scatter, initial_solution(scn, cfg.power_floor), cfg, seed),
    SCHEME_RANDOM_PHASE: baseline_random_phase,
    SCHEME_NO_RIS: baseline_no_ris,
}


def _cell_dims(spec: ExperimentSpec, base: Scenario, value: int) -> tuple[int, int]:
    if spec.kind == "single":
        return base.num_gus, base.num_elements
    if spec.kind == "sweep-gus":
        return value, spec.fixed_elements
    return spec.fixed_gus, value  # sweep-elements and oracle: value is the element count


def run_cell(spec: ExperimentSpec, base: Scenario, scheme: str, value: int, seed: int):
    """Run one cell on the resolved base scenario; returns (ExperimentRow, trace, digest)."""
    k, m = _cell_dims(spec, base, value)

    if spec.kind == "oracle":
        t0 = time.perf_counter()
        eta, sol = run_oracle(m, k, spec.theta_grid, spec.placement_grid, base, seed)
        elapsed = time.perf_counter() - t0
        scn, scatter, digest = build_instance(base, k, max(m, 1), seed)
        report = check_constraints(sol, scatter, scn)
        row = ExperimentRow(scheme="oracle", sweep_value=value, seed=seed, eta=eta,
                            sum_rate=float(report.per_gu_rate.sum()),
                            total_power=report.total_power, outer_iters=0, wall_time=elapsed)
        return row, np.asarray([eta]), digest

    scn, scatter, digest = build_instance(base, k, m, seed)
    cfg = _bcd_config(spec)
    result: BcdResult = _SCHEME_RUNNERS[scheme](scn, scatter, cfg, seed)
    report = result.constraint_report
    row = ExperimentRow(
        scheme=scheme, sweep_value=value, seed=seed, eta=report.eta,
        sum_rate=float(report.per_gu_rate.sum()), total_power=report.total_power,
        outer_iters=result.outer_iters_used, wall_time=result.wall_time)
    return row, result.eta_trace, digest


def _cells(spec: ExperimentSpec, base: Scenario):
    if spec.kind == "single":
        values = (base.num_gus,)
    else:
        values = tuple(spec.sweep_values)
    schemes = ("oracle",) if spec.kind == "oracle" else tuple(spec.schemes)
    return [(scheme, value, seed)
            for scheme in schemes for value in values for seed in spec.seeds]


def _check_rate_floors(spec: ExperimentSpec, base: Scenario) -> None:
    """Reject a min_rate that no decision can meet at the largest K the spec runs.

    A GU's floor needs p_k >= (1 - 2^(-min_rate/B)) * (S + N/g_k) of the total
    transmit power S, so the floors of K GUs sum to more than S once
    K * (1 - 2^(-min_rate/B)) >= 1, whatever the gains. That is
    min_rate/B >= log2(K/(K-1)), which no floor reaches at K = 1.
    """
    k = max(_cell_dims(spec, base, value)[0] for _, value, _ in _cells(spec, base))
    if k > 1 and base.min_rate / base.bandwidth >= np.log2(k / (k - 1)):
        raise ValueError(f"min_rate {base.min_rate:g} bit/s cannot be met by all K={k} GUs: "
                         f"K * (1 - 2^(-min_rate/bandwidth)) >= 1")


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every cell of the experiment spec; failed cells are logged and skipped.

    The scenario is resolved once, so a bad spec or scenario raises ValueError
    before any cell runs, and every cell runs on the scenario the manifest
    records. Rows come back sorted by (scheme, sweep_value, seed). The manifest
    contains everything needed to reproduce the physics columns bit-exactly
    (wall times are measurements and vary).
    """
    validate_spec(spec)
    base = resolve_base_scenario(spec)
    _check_rate_floors(spec, base)
    cells = _cells(spec, base)

    rows: list[ExperimentRow] = []
    traces: dict = {}
    digests: dict = {}
    errors: dict = {}

    def record(scheme, value, seed, outcome, err):
        key = f"{scheme}_{value}_{seed}"
        if err is not None:
            errors[key] = f"{type(err).__name__}: {err}"
            return
        row, trace, digest = outcome
        rows.append(row)
        traces[(scheme, value, seed)] = np.asarray(trace)
        digests[key] = digest

    if spec.workers > 1 and len(cells) > 1:
        # Imported here: it loads multiprocessing, which a serial run never needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            futures = [pool.submit(run_cell, spec, base, *cell) for cell in cells]
            for cell, fut in zip(cells, futures):
                err = fut.exception()
                record(*cell, None if err else fut.result(), err)
    else:
        for cell in cells:
            try:
                outcome = run_cell(spec, base, *cell)
            except Exception as exc:
                record(*cell, None, exc)
            else:
                record(*cell, outcome, None)

    rows.sort(key=lambda r: (r.scheme, r.sweep_value, r.seed))
    manifest = {
        "version": __version__,
        "spec": spec_to_dict(spec),
        "scenario": scenario_to_dict(base),
        "instances": dict(sorted(digests.items())),
        "errors": dict(sorted(errors.items())),
    }
    return ExperimentResult(rows=rows, traces=traces, manifest=manifest)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _oracle_enumeration(m: int, theta_grid: int, placement_grid: int) -> int:
    """(pattern, phase, position) triples in the oracle's logical enumeration.

    This is the size that validation bounds, not the number of rows the oracle
    scores: it scores each pattern's distinct phase rows only (see run_oracle).
    """
    return (2 ** m) * (theta_grid ** m) * (placement_grid ** 2)


def run_oracle(m: int, k: int, theta_grid: int, placement_grid: int,
               scn: Scenario | None = None, seed: int = 0):
    """Exhaustive discretized optimum for tiny instances.

    Enumerates every on-off pattern, every per-element phase from a uniform grid
    of theta_grid levels, and every UAV position on a placement_grid^2 lattice
    over ORACLE_PLACEMENT_BOX. Powers use full P_max when k=1, otherwise a line
    search over ORACLE_POWER_GRID uniform-split scalings. m=0 degenerates to a
    no-RIS search (a single all-off element). Returns (best eta, best
    SolutionState). The instance is derived from (scn, seed) exactly as the
    experiment cells derive theirs, so oracle and solver runs pair up. Ties go
    to the first (position, pattern, scale, phase row) in enumeration order.

    Phase rows that differ only where the pattern is off give the same channels
    bit for bit, so each pattern scores only its distinct rows, theta_grid^n_on
    of them: the first of each set of duplicates, with its off phases at level 0.
    Dropping later duplicates cannot move a tie, which the first row wins anyway.
    One kernel call scores a pattern's rows at several power scales, as many as
    keep it within theta_grid^max(m, 1) rows, and its scale-major argmax keeps
    the (scale, row) order. Each pattern's gains |C|^2 are built GU-major, (k, T),
    once for all its scales, and reach the kernel as a (T, k) view, so its reductions
    over k run as whole-column passes; that is bit-identical to the row-major
    layout only because k <= 2, and a sum of two terms rounds the same in
    either order.
    """
    if not 0 <= m <= ORACLE_MAX_ELEMENTS:
        raise ValueError(f"oracle supports m in [0, {ORACLE_MAX_ELEMENTS}], got {m}")
    if not 1 <= k <= ORACLE_MAX_GUS:
        raise ValueError(f"oracle supports k in [1, {ORACLE_MAX_GUS}], got {k}")
    if theta_grid < 1 or placement_grid < 1:
        raise ValueError("grid sizes must be >= 1")
    n_combos = _oracle_enumeration(m, theta_grid, placement_grid)
    if n_combos > _MAX_ENUMERATION:
        raise ValueError(f"enumeration size {n_combos} exceeds {_MAX_ENUMERATION}")

    base = default_scenario() if scn is None else scn
    m_eff = max(m, 1)
    inst, scatter, _ = build_instance(base, k, m_eff, seed)

    if m == 0:
        patterns = np.zeros((1, 1))
        thetas = np.zeros((1, 1))
    else:
        patterns = ((np.arange(2 ** m)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
        levels = 2.0 * np.pi * np.arange(theta_grid) / theta_grid
        idx = np.indices((theta_grid,) * m).reshape(m, -1).T
        thetas = levels[idx]
    phase_factors = np.exp(1j * thetas)
    # Per pattern: its distinct phase rows (off phases at level 0), in order.
    blocks = []
    for pat in patterns:
        rows = np.flatnonzero(np.all(thetas[:, pat == 0] == 0.0, axis=1))
        blocks.append((pat, rows, phase_factors[rows] * pat))

    if k == 1:
        scales = np.array([1.0])
    else:
        scales = np.linspace(1.0 / ORACLE_POWER_GRID, 1.0, ORACLE_POWER_GRID)
    powers = scales[:, None] * np.full(k, inst.max_power / k)  # (S, k)

    (x_lo, x_hi), (y_lo, y_hi) = ORACLE_PLACEMENT_BOX
    xs = np.linspace(x_lo, x_hi, placement_grid)
    ys = np.linspace(y_lo, y_hi, placement_grid)
    lattice = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    # Directly above the RIS the azimuth is undefined; drop that lattice point.
    keep = np.hypot(lattice[:, 0] - inst.ris_position[0],
                    lattice[:, 1] - inst.ris_position[1]) >= 1.0e-9
    lattice = lattice[keep]
    if len(lattice) == 0:
        raise RuntimeError("every point of the oracle's placement lattice is above the RIS")

    chans = build_channel_set(inst, lattice, instance_terms(inst, scatter))

    best_eta = -np.inf
    best = None
    max_rows = theta_grid ** m_eff
    for w, direct, v in zip(lattice, chans.direct, chans.cascade):
        for pat, rows, block in blocks:
            gain = (np.abs(direct[:, None] + v @ block.T) ** 2).T  # (T, k) view
            n_on = pat.sum()
            step = max(1, max_rows // len(rows))
            for s0 in range(0, len(powers), step):
                rates, _, eta = evaluate_efficiency(gain, powers[s0:s0 + step, None, :],
                                                    n_on, inst)
                eta = np.where(np.all(rates >= inst.min_rate, axis=-1), eta, -np.inf)
                s, j = np.unravel_index(np.argmax(eta), eta.shape)
                if eta[s, j] > best_eta:
                    best_eta = float(eta[s, j])
                    best = SolutionState(onoff=pat.copy(), phases=thetas[rows[j]].copy(),
                                         powers=powers[s0 + s].copy(), uav_pos=w.copy())
    if best is None:
        raise RuntimeError("no rate-feasible point in the oracle's enumeration")
    return best_eta, best


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".12e")


def emit_csv(result: ExperimentResult, path) -> Path:
    """Write results.csv at path and manifest.json alongside it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [RESULT_HEADER]
    for r in result.rows:
        lines.append(f"{r.scheme},{r.sweep_value},{r.seed},{_fmt(r.eta)},"
                     f"{_fmt(r.sum_rate)},{_fmt(r.total_power)},{r.outer_iters},"
                     f"{_fmt(r.wall_time)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest_path = path.parent / "manifest.json"
    manifest_path.write_text(json.dumps(result.manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return path


def emit_traces(result: ExperimentResult, out_dir) -> list:
    """One trace_<scheme>_<value>_<seed>.csv per run, columns outer_iter,eta."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for (scheme, value, seed) in sorted(result.traces):
        trace = result.traces[(scheme, value, seed)]
        lines = ["outer_iter,eta"]
        lines.extend(f"{i},{_fmt(v)}" for i, v in enumerate(trace))
        p = out / f"trace_{scheme}_{value}_{seed}.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(p)
    return paths


def write_outputs(result: ExperimentResult, out_dir) -> Path:
    """results.csv, manifest.json, and all trace files under out_dir."""
    out = Path(out_dir)
    csv_path = emit_csv(result, out / "results.csv")
    emit_traces(result, out)
    return csv_path


# ---------------------------------------------------------------------------
# Spec serialization (CLI run files and manifest replay)
# ---------------------------------------------------------------------------

def spec_to_dict(spec: ExperimentSpec) -> dict:
    d = dataclasses.asdict(spec)
    for key in ("seeds", "sweep_values", "schemes"):
        d[key] = list(d[key])
    return d


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build a spec from a JSON document; accepts a manifest.json as well.

    A manifest embeds the resolved spec under "spec" and the resolved scenario
    under "scenario"; replaying one reuses the embedded scenario so the original
    file path need not exist anymore.
    """
    if not isinstance(data, dict):
        raise ValueError(f"experiment spec must be an object, got {type(data).__name__}")
    if "spec" in data and isinstance(data["spec"], dict):
        inner = dict(data["spec"])
        if inner.get("scenario_inline") is None and isinstance(data.get("scenario"), dict):
            inner["scenario_inline"] = data["scenario"]
        data = inner
    known = {f.name for f in dataclasses.fields(ExperimentSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown experiment field(s): {', '.join(unknown)}")
    kwargs = dict(data)
    for key in ("seeds", "sweep_values", "schemes"):
        if key in kwargs:
            if not isinstance(kwargs[key], list):
                raise ValueError(f"{key} must be a list, got {kwargs[key]!r}")
            kwargs[key] = tuple(kwargs[key])
    return validate_spec(ExperimentSpec(**kwargs))


def _is_int(value) -> bool:
    """True for a JSON integer; bool is an int subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))
