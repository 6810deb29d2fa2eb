"""Outside-in tracing of the risuav layers, installed by the benchmark only.

The wrappers time calls into public functions of ``channel``, ``objective``,
``optim``, ``bcd`` and ``harness`` and aggregate, per span name, the number of
calls, the total seconds and the self seconds (total minus the time of spans
nested inside). Nothing under ``src/`` is modified.

risuav modules bind each other's functions by name (``bcd`` does
``from .optim import ga_continuous_run``), so patching ``risuav.optim`` alone
would trace nothing. :func:`patched` rebinds a function in every loaded risuav
module and in module-level dicts such as ``harness._SCHEME_RUNNERS``. A target
whose name no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    """Aggregated spans: calls, total and self seconds, plus named counters."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._open = []  # seconds spent in child spans, one entry per open span

    def span(self, name, fn, on_return=None):
        """Wrap fn in a span; on_return(args, kwargs, result) runs after the clock stops."""
        def wrapped(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
                if self._open:
                    self._open[-1] += dt
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapped


@contextmanager
def patched(wrappers):
    """Rebind risuav functions for the duration of the block.

    wrappers maps (module, name) to a function that takes the object currently
    bound to ``risuav.<module>.<name>`` and returns its replacement. Every
    binding of that object in a loaded risuav module, or in a dict held at
    module level, is replaced and restored on exit. Yields the sorted list of
    targets that do not exist at this commit.
    """
    undo = []
    absent = []
    try:
        for (module, name), make in wrappers.items():
            try:
                current = getattr(importlib.import_module(f"risuav.{module}"), name)
            except (ImportError, AttributeError):
                absent.append(f"{module}.{name}")
                continue
            replacement = make(current)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "risuav" and not mod_name.startswith("risuav."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if attr.startswith("__"):
                        continue
                    if value is current:
                        undo.append((vars(mod), attr, current))
                        vars(mod)[attr] = replacement
                    elif type(value) is dict:
                        for key, item in list(value.items()):
                            if item is current:
                                undo.append((value, key, current))
                                value[key] = replacement
        yield sorted(absent)
    finally:
        for container, key, value in reversed(undo):
            container[key] = value


def _count_steps(tracer, key, trace):
    """Steps in a best-so-far trace, and how many of them raised the best."""
    t = np.asarray(trace, dtype=float)
    tracer.counts[key + ".steps"] += len(t) - 1
    tracer.counts[key + ".improving"] += int(np.sum(t[1:] > np.maximum.accumulate(t)[:-1]))


def layer_wrappers(tracer):
    """The spans of every layer, keyed as :func:`patched` expects."""
    def span(name, on_return=None):
        return lambda fn: tracer.span(name, fn, on_return)

    def closure_span(name, count_rows):
        """Time the closures a fitness builder returns; count the rows they score."""
        def on_call(args, kwargs, result):
            tracer.counts[name + ".rows"] += len(np.atleast_1d(result))
        hook = on_call if count_rows else None

        def make(builder):
            def build(*args, **kwargs):
                return tracer.span(name, builder(*args, **kwargs), hook)
            return build
        return make

    def solver_trace(key, index):
        return lambda args, kwargs, result: _count_steps(tracer, key, result[index])

    def bcd_passes(args, kwargs, result):
        tracer.counts["bcd.outer_passes"] += result.outer_iters_used

    def oracle_points(fn):
        signature = inspect.signature(fn)

        def on_return(args, kwargs, result):
            a = signature.bind(*args, **kwargs).arguments
            m = a["m"]
            tracer.counts["harness.run_oracle.points"] += (
                2 ** m * a["theta_grid"] ** m * a["placement_grid"] ** 2)
        return tracer.span("harness.run_oracle", fn, on_return)

    def output_bytes(args, kwargs, result):
        out = Path(result).parent
        tracer.counts["harness.output_bytes"] += sum(
            p.stat().st_size for p in out.iterdir() if p.is_file())

    return {
        ("channel", "build_channel_set"): span("channel.build_channel_set"),
        ("channel", "ris_gu_block"): span("channel.ris_gu_block"),
        ("objective", "penalized_fitness"): span("objective.score"),
        ("objective", "phase_power_fitness"): closure_span("objective.phase_power_fitness", True),
        ("objective", "power_fitness"): closure_span("objective.power_fitness", True),
        ("objective", "onoff_fitness"): closure_span("objective.onoff_fitness", True),
        ("objective", "placement_objective"): closure_span("objective.placement_objective", False),
        ("optim", "ga_continuous_run"): span("optim.ga_continuous_run",
                                             solver_trace("optim.ga_continuous_run", 2)),
        ("optim", "ga_binary_run"): span("optim.ga_binary_run",
                                         solver_trace("optim.ga_binary_run", 2)),
        ("optim", "adam_maximize"): span("optim.adam_maximize",
                                         solver_trace("optim.adam_maximize", 1)),
        ("bcd", "optimize"): span("bcd", bcd_passes),
        ("bcd", "baseline_random_phase"): span("bcd", bcd_passes),
        ("bcd", "baseline_no_ris"): span("bcd", bcd_passes),
        ("harness", "run_cell"): span("harness.run_cell"),
        ("harness", "run_oracle"): oracle_points,
        ("harness", "write_outputs"): span("harness.write_outputs", output_bytes),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics as {name: (value, unit)} from one traced pass."""
    t = tracer
    out = {}
    for name in ("ga_continuous_run", "ga_binary_run"):
        key = f"optim.{name}"
        gens = t.counts[key + ".steps"]
        out[key + ".calls"] = (t.calls[key], "count")
        out[key + ".generations"] = (gens, "count")
        out[key + ".self_s"] = (t.self_s[key], "s")
        out[key + ".us_per_gen"] = (1e6 * _ratio(t.self_s[key], gens), "us")
        out[key + ".improving_gen_frac"] = (_ratio(t.counts[key + ".improving"], gens), "ratio")
    key = "optim.adam_maximize"
    steps = t.counts[key + ".steps"]
    out[key + ".calls"] = (t.calls[key], "count")
    out[key + ".steps"] = (steps, "count")
    out[key + ".self_s"] = (t.self_s[key], "s")
    out[key + ".evals_per_step"] = (_ratio(t.calls["objective.placement_objective"], steps),
                                    "count")
    out[key + ".improving_step_frac"] = (_ratio(t.counts[key + ".improving"], steps), "ratio")

    out["channel.build_channel_set.calls"] = (t.calls["channel.build_channel_set"], "count")
    out["channel.build_channel_set.self_s"] = (t.self_s["channel.build_channel_set"], "s")
    out["channel.ris_gu_block.calls"] = (t.calls["channel.ris_gu_block"], "count")

    for name in ("phase_power_fitness", "power_fitness", "onoff_fitness"):
        key = f"objective.{name}"
        rows = t.counts[key + ".rows"]
        out[key + ".calls"] = (t.calls[key], "count")
        out[key + ".rows"] = (rows, "count")
        out[key + ".self_s"] = (t.self_s[key], "s")
        out[key + ".rows_per_s"] = (_ratio(rows, t.self_s[key]), "rows/s")
    out["objective.placement_objective.calls"] = (t.calls["objective.placement_objective"],
                                                  "count")
    out["objective.placement_objective.self_s"] = (t.self_s["objective.placement_objective"],
                                                   "s")
    out["objective.score_calls"] = (t.calls["objective.score"], "count")

    out["bcd.runs"] = (t.calls["bcd"], "count")
    out["bcd.outer_passes_mean"] = (_ratio(t.counts["bcd.outer_passes"], t.calls["bcd"]),
                                    "count")
    out["bcd.self_s"] = (t.self_s["bcd"], "s")

    out["harness.run_cell.self_s"] = (t.self_s["harness.run_cell"], "s")
    out["harness.run_oracle.self_s"] = (t.self_s["harness.run_oracle"], "s")
    out["harness.run_oracle.points_per_s"] = (
        _ratio(t.counts["harness.run_oracle.points"], t.total_s["harness.run_oracle"]),
        "points/s")
    out["harness.write_outputs_s"] = (t.total_s["harness.write_outputs"], "s")
    out["harness.output_bytes"] = (t.counts["harness.output_bytes"], "B")
    return out
