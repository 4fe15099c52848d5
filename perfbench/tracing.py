"""Per-layer tracing from outside the program.

``install`` replaces the names each caller in ``prevest`` looks up with
wrappers that record a span (name, parent, start, end) and update counters.
Spans stay in memory; ``layer_metrics`` turns them into per-layer metrics,
where a time is the span's self time: its duration minus the time covered by
the traced spans it caused.  Span names are the metric names they feed.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

_MIB = 2.0**20

# Every per-layer metric with its unit; a traced run reports all of them, with
# zero for the layers a workload does not run.
METRICS = {
    "estimators.evaluator_init_s": "s",
    "estimators.evaluator_init_calls": "count",
    "estimators.estimate_s": "s",
    "estimators.estimate_rows": "count",
    "estimators.resample_batch_self_s": "s",
    "estimators.boot_counts_mb_computed": "MiB",
    "estimators.code_space": "count",
    "estimators.strata": "count",
    "estimators.ht_known_s": "s",
    "estimators.panel_s": "s",
    "estimators.fallback_strata": "count",
    "estimators.schedule_matrix_s": "s",
    "estimators.schedule_matrix_calls": "count",
    "uncertainty.bca_self_s": "s",
    "uncertainty.bca_calls": "count",
    "uncertainty.resample_rows": "count",
    "uncertainty.degenerate": "count",
    "uncertainty.clopper_pearson_s": "s",
    "dataio.parse_s": "s",
    "dataio.parse_cells": "count",
    "dataio.adjust_s": "s",
    "dataio.tests_dropped": "count",
    "dataio.anonymize_s": "s",
    "dataio.write_s": "s",
    "simulate.self_s": "s",
    "simulate.calls": "count",
    "simulate.person_days": "count",
    "regimens.probability_vector_s": "s",
    "regimens.probability_vector_calls": "count",
    "regimens.next_test_pmf_s": "s",
    "scenarios.run_self_s": "s",
    "scenarios.series_self_s": "s",
    "scenarios.known_weights_s": "s",
    "scenarios.known_weights_calls": "count",
    "scenarios.known_weights_hit_ratio": "frac",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}

# Metrics that repeat exactly at a fixed seed (derived from sizes, not clocks).
COUNTS = tuple(name for name, unit in METRICS.items() if unit != "s"
               and name != "trace.overhead_frac")


class Tracer:
    """Span recorder and counters for one timed region."""

    def __init__(self):
        self.spans: list[list] = []        # [name, parent index or None, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span; ``after(counts, result, *args)`` runs outside it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else None, time.perf_counter(), None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = time.perf_counter()
            if after is not None:
                after(self.counts, result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def trace(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            self.patch(owner, attr, staticmethod(self.wrap(name, original.__func__, after)))
        else:
            self.patch(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, region_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced region that took ``region_s`` seconds."""
        out = {name: 0.0 if unit == "s" else 0 for name, unit in METRICS.items()}
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for name, parent, start, end in self.spans:
            if parent is None:
                top_level += end - start
            else:
                child_time[parent] += end - start
        for (name, _, start, end), children in zip(self.spans, child_time):
            out[name] += (end - start) - children
        for name, value in self.counts.items():
            out[name] = value
        lookups = self.counts["scenarios.known_weights_calls"]
        if lookups:
            out["scenarios.known_weights_hit_ratio"] = (
                1.0 - self.counts["estimators.schedule_matrix_calls"] / lookups)
        out["cli.self_s"] = region_s - top_level
        out["trace.spans"] = len(self.spans)
        return out


def _count(name: str):
    def after(counts, result, *args, **kwargs):
        counts[name] += 1
    return after


def install(tracer: Tracer) -> None:
    """Trace the calls into every ``prevest`` layer on the CLI's timed paths."""
    cli = importlib.import_module("prevest.cli")
    dataio = importlib.import_module("prevest.dataio")
    estimators = importlib.import_module("prevest.estimators")
    scenarios = importlib.import_module("prevest.scenarios")
    # ``prevest.simulate`` is the re-exported function, not the module.
    simulate_mod = importlib.import_module("prevest.simulate")
    evaluator = estimators.DayEvaluator

    def parsed(counts, matrix, *args, **kwargs):
        counts["dataio.parse_cells"] += matrix.cells.size

    def adjusted(counts, result, *args, **kwargs):
        counts["dataio.tests_dropped"] += result.n_dropped_weekly + result.n_dropped_isolation

    def simulated(counts, result, *args, **kwargs):
        counts["simulate.calls"] += 1
        counts["simulate.person_days"] += result.population_size * result.horizon

    def bca_done(counts, interval, *args, **kwargs):
        counts["uncertainty.bca_calls"] += 1
        counts["uncertainty.degenerate"] += int(interval.degenerate)

    def evaluator_built(counts, result, ev, *args, **kwargs):
        width = ev.day + 2
        counts["estimators.evaluator_init_calls"] += 1
        counts["estimators.strata"] += len(ev.strata)
        counts["estimators.code_space"] += len(ev.strata) * width * width

    def estimated(counts, result, ev, multiplicity=None, **kwargs):
        rows = 1 if multiplicity is None else multiplicity.shape[0]
        width = ev.day + 2
        counts["estimators.estimate_rows"] += rows
        dense_mb = rows * len(ev.strata) * width * width * 8 / _MIB
        counts["estimators.boot_counts_mb_computed"] = max(
            counts["estimators.boot_counts_mb_computed"], dense_mb)
        if multiplicity is None:
            counts["estimators.fallback_strata"] += int(ev._last_fallback[0])

    def resampled(counts, result, index_matrix, *args, **kwargs):
        counts["uncertainty.resample_rows"] += index_matrix.shape[0]

    make_resampler = evaluator.resampler

    def resampler(self):
        # bca_bootstrap calls the resampler's ``batch``, which builds the
        # multiplicity matrix before calling ``estimate``: give it its own span.
        adapter = make_resampler(self)
        adapter.batch = tracer.wrap("estimators.resample_batch_self_s", adapter.batch, resampled)
        return adapter

    tracer.trace(cli, "parse_testing_matrix", "dataio.parse_s", parsed)
    tracer.trace(cli, "write_testing_matrix", "dataio.write_s")
    tracer.trace(cli, "run_scenario", "scenarios.run_self_s")
    tracer.trace(cli, "estimate_panel_series", "scenarios.series_self_s")
    tracer.trace(dataio, "apply_adjustments", "dataio.adjust_s", adjusted)
    tracer.trace(dataio, "anonymize_shuffle", "dataio.anonymize_s")
    tracer.trace(scenarios, "simulate", "simulate.self_s", simulated)
    tracer.trace(simulate_mod, "probability_vector", "regimens.probability_vector_s",
                 _count("regimens.probability_vector_calls"))
    tracer.trace(scenarios, "next_test_pmf", "regimens.next_test_pmf_s")
    tracer.trace(estimators, "next_test_pmf", "regimens.next_test_pmf_s")
    tracer.trace(scenarios, "ht_known", "estimators.ht_known_s")
    tracer.trace(scenarios, "exact_schedule_matrix", "estimators.schedule_matrix_s",
                 _count("estimators.schedule_matrix_calls"))
    tracer.trace(scenarios, "bca_bootstrap", "uncertainty.bca_self_s", bca_done)
    tracer.trace(scenarios, "clopper_pearson", "uncertainty.clopper_pearson_s")
    tracer.trace(scenarios.KnownWeights, "__call__", "scenarios.known_weights_s",
                 _count("scenarios.known_weights_calls"))
    tracer.trace(estimators.Panel, "_derived", "estimators.panel_s")
    tracer.trace(evaluator, "__init__", "estimators.evaluator_init_s", evaluator_built)
    tracer.trace(evaluator, "estimate", "estimators.estimate_s", estimated)
    tracer.patch(evaluator, "resampler", resampler)
