"""Per-layer spans of ocselect, recorded from outside the program.

``Tracer.install`` wraps every public function of each ocselect module and
rebinds the wrapper under every name that refers to that function in any
ocselect module.  Rebinding only the defining module would miss most calls:
``cli`` and ``policies`` import ``tvd_exact``, ``inverse_target`` and the
rest by name.  A span is (function, start, end, parent span); spans are kept
in flat arrays in memory and written out once, when the command ends.
``summarize`` reads the files back: a span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The ocselect modules, one per layer.
LAYERS = (
    "distributions",
    "benchmarks",
    "policies",
    "densities",
    "simplex",
    "hardness",
    "io",
    "cli",
)
EVALUATORS = ("policies.tva_exact", "policies.tvd_exact")
NO_TAG = -1


def _tableau_mb(args, result) -> tuple[float, int]:
    """Size of simplex_solve's phase-1 tableau, computed from the program's shape."""
    lp = args[0]
    rows = len(lp.rhs)
    artificials = sum(1 for b in lp.rhs if b < 0.0)
    return (rows + 1) * (lp.n_vars + rows + artificials + 1) * 8 / 2**20, NO_TAG


# What a span records besides its times: (value, tag).
NOTES = {
    "policies.tva_exact": lambda args, result: (result.total, NO_TAG),
    "policies.tvd_exact": lambda args, result: (
        result.total,
        NO_TAG if result.switch_stage is None else result.switch_stage,
    ),
    "simplex.simplex_solve": _tableau_mb,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.tag = array("i")
        self._stack = [-1]

    def install(self) -> None:
        modules = [importlib.import_module(f"ocselect.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in [importlib.import_module("ocselect"), *modules]:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        note = NOTES.get(qualname)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        value, tag, stack = self.value, self.tag, self._stack
        clock = time.perf_counter
        nan = float("nan")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            value.append(nan)
            tag.append(NO_TAG)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                value[idx], tag[idx] = note(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            value=np.frombuffer(self.value, dtype=np.float64),
            tag=np.frombuffer(self.tag, dtype=np.int32),
        )


@dataclass
class SpanTotals:
    """Span counts and self times of one or more commands, by function."""

    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    mixture_calls: int = 0
    mixture_evals: int = 0
    mixture_distinct: int = 0
    tvd_switched: int = 0
    tableau_mb: float = 0.0


def summarize(paths: list[Path]) -> SpanTotals:
    totals = SpanTotals()
    for path in paths:
        with np.load(path) as spans:
            names = [str(n) for n in spans["names"]]
            name, parent = spans["name"], spans["parent"]
            value, tag = spans["value"], spans["tag"]
            duration = spans["end"] - spans["start"]
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(name)
        )
        self_time = duration - child_time
        calls = np.bincount(name, minlength=len(names))
        busy = np.bincount(name, weights=self_time, minlength=len(names))
        for i, qualname in enumerate(names):
            if calls[i]:
                totals.calls[qualname] += int(calls[i])
                totals.self_s[qualname] += float(busy[i])

        ids = {qualname: i for i, qualname in enumerate(names)}
        mixture = ids["policies.randomized_value"]
        evals = np.isin(name, [ids[e] for e in EVALUATORS]) & nested
        evals[evals] = name[parent[evals]] == mixture
        totals.mixture_calls += int(np.count_nonzero(name == mixture))
        totals.mixture_evals += int(np.count_nonzero(evals))
        pairs = np.stack([parent[evals].astype(np.float64), value[evals]], axis=1)
        totals.mixture_distinct += len(np.unique(pairs, axis=0))
        totals.tvd_switched += int(
            np.count_nonzero((name == ids["policies.tvd_exact"]) & (tag != NO_TAG))
        )
        solves = name == ids["simplex.simplex_solve"]
        if solves.any():
            totals.tableau_mb = max(totals.tableau_mb, float(value[solves].max()))
    return totals


def layer_of(qualname: str) -> str:
    return qualname.split(".", 1)[0]


def per_layer_metrics(totals: SpanTotals, orders: int, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced round."""
    calls, busy = totals.calls, totals.self_s
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(n for q, n in calls.items() if layer_of(q) == layer)
        out[f"{layer}.self_s"] = sum(s for q, s in busy.items() if layer_of(q) == layer)
    out["policies.tvd_exact.calls"] = calls["policies.tvd_exact"]
    out["policies.tvd_exact.self_s"] = busy["policies.tvd_exact"]
    out["policies.tvd_exact.calls_per_order"] = (
        calls["policies.tvd_exact"] / orders if orders else 0.0
    )
    out["benchmarks.opt_online.self_s"] = busy["benchmarks.opt_online"]
    out["distributions.inverse_target.calls"] = calls["distributions.inverse_target"]
    out["distributions.inverse_target.self_s"] = busy["distributions.inverse_target"]
    out["policies.randomized_value.evals_per_call"] = (
        totals.mixture_evals / totals.mixture_calls if totals.mixture_calls else 0.0
    )
    out["policies.randomized_value.distinct_per_eval"] = (
        totals.mixture_distinct / totals.mixture_evals if totals.mixture_evals else 0.0
    )
    out["densities.density_pdf.calls"] = calls["densities.density_pdf"]
    out["densities.density_pdf.self_s"] = busy["densities.density_pdf"]
    out["policies.run_policy_sampled.self_s"] = busy["policies.run_policy_sampled"]
    out["policies.tvd_step.calls"] = calls["policies.tvd_step"]
    out["distributions.max_distribution.calls"] = calls["distributions.max_distribution"]
    out["distributions.max_distribution.self_s"] = busy["distributions.max_distribution"]
    out["benchmarks.best_single_threshold.calls"] = calls["benchmarks.best_single_threshold"]
    out["distributions.sample.calls"] = calls["distributions.sample"]
    out["simplex.simplex_solve.self_s"] = busy["simplex.simplex_solve"]
    out["simplex.tableau_mb"] = totals.tableau_mb
    out["hardness.build_primal.self_s"] = (
        busy["hardness.build_primal_general"] + busy["hardness.build_primal_tvd"]
    )
    out["hardness.verify_dual.self_s"] = (
        busy["hardness.verify_dual_general"] + busy["hardness.verify_dual_tvd"]
    )
    out["densities.verify_guarantee.self_s"] = busy["densities.verify_guarantee"]
    out["io.load_instance.self_s"] = busy["io.load_instance"]
    out["trace.overhead_s"] = overhead_s
    return out
