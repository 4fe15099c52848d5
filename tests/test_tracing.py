"""Smoke test of the benchmark's per-layer tracer against the current code.

``perfbench/tracing.py`` patches names inside ``prevest``; a refactor that
moves one of them would silently zero its layer metrics.  This runs a small
traced ``analyze --intervals`` and checks that the bootstrap layers still
record work, a traced ``anonymize`` then ``analyze`` that the anonymizer,
the matrix parse, adjustment and write, and the per-day evaluator
construction are still seen, and a traced ``scenario`` that its evaluators
are built and estimated once per day, shared by ``ht-k`` and ``ht-e``, and that
its known weights are read from one table per run, and that its simulator
layers count every person-day of a run that simulates replicates in stacks.
"""

import csv
import importlib.util
import json
import math
import time
from pathlib import Path

from prevest import scenarios
from prevest.cli import main
from prevest.dataio import matrix_from_simulation, parse_testing_matrix, write_testing_matrix
from prevest.scenarios import build_scenario
from prevest.simulate import replicate_bytes, simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
BOOTSTRAP = 19


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(tmp_path, seed):
    """A simulated n=200 min-max matrix and a policy that drops none of its tests."""
    from dataclasses import replace

    sim = simulate(replace(build_scenario("min-max").config, population_size=200, seed=seed))
    matrix = tmp_path / "matrix.csv"
    write_testing_matrix(matrix_from_simulation(sim), matrix)
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"isolation_days": 5, "result_delay_days": 0,
                                  "post_isolation_exemption_days": 0,
                                  "keep_first_test_per_week": False, "min_daily_tests": 0}))
    return str(matrix), str(policy)


def traced_main(*argvs):
    """Exit codes of ``main`` on each argv, and the layer metrics of the whole traced run."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        codes = [main(argv) for argv in argvs]
        metrics = tracer.layer_metrics(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    return codes, metrics


def ht_e_days(path, column):
    """``ht-e`` rows of a series file whose ``column`` is defined."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for row in csv.DictReader(fh)
                   if row["kind"] == "ht-e" and not math.isnan(float(row[column])))


def test_traced_analyze_reports_bootstrap_layers(tmp_path):
    matrix, policy = write_inputs(tmp_path, seed=0)
    out = str(tmp_path / "series.csv")
    codes, metrics = traced_main(["analyze", "--matrix", matrix, "--policy", policy, "--out", out,
                                  "--intervals", "--bootstrap", str(BOOTSTRAP)])
    assert codes == [0]

    interval_days = ht_e_days(out, "lo")
    assert interval_days > 0
    calls = metrics["uncertainty.bca_calls"]
    assert calls == interval_days
    # a degenerate day skips its jackknife, so only the resamples are certain
    assert metrics["uncertainty.resample_rows"] >= BOOTSTRAP * calls
    assert metrics["estimators.resample_batch_self_s"] > 0


def test_traced_release_reports_anonymizer_and_one_evaluator_per_day(tmp_path):
    matrix, policy = write_inputs(tmp_path, seed=1)
    anonymized, out = str(tmp_path / "anonymized.csv"), str(tmp_path / "series.csv")
    codes, metrics = traced_main(
        ["anonymize", "--matrix", matrix, "--policy", policy, "--seed", "2", "--out", anonymized],
        ["analyze", "--matrix", anonymized, "--policy", policy, "--out", out])
    assert codes == [0, 0]

    estimated_days = ht_e_days(out, "estimate")
    assert estimated_days > 0
    assert metrics["estimators.evaluator_init_calls"] == estimated_days
    # the traced count reads DayEvaluator._last_fallback, which must match the written records
    with open(out, encoding="utf-8") as fh:
        fallback = sum(int(row["n_fallback_strata"]) for row in csv.DictReader(fh)
                       if row["kind"] == "ht-e")
    assert metrics["estimators.fallback_strata"] == fallback
    assert metrics["dataio.anonymize_s"] > 0
    # one parse per command, each of the whole matrix
    cells = parse_testing_matrix(matrix).cells.size
    assert cells == parse_testing_matrix(anonymized).cells.size
    assert metrics["dataio.parse_cells"] == 2 * cells
    for layer in ("dataio.parse_s", "dataio.adjust_s", "dataio.write_s"):
        assert metrics[layer] > 0, layer


def test_traced_scenario_reports_evaluator_layers(tmp_path):
    replicates = 2
    codes, metrics = traced_main(["scenario", "--name", "min-max", "--replicates",
                                  str(replicates), "--population", "200", "--seed", "0",
                                  "--out", str(tmp_path)])
    assert codes == [0]

    horizon = build_scenario("min-max").config.horizon_days
    assert metrics["estimators.evaluator_init_calls"] == replicates * horizon
    # one point row per evaluator: ht-e still goes through estimate(None) once per day
    assert metrics["estimators.estimate_rows"] == replicates * horizon
    # the known weights are one table per run: no lookup chains a schedule matrix
    assert metrics["scenarios.known_weights_calls"] > 0
    assert metrics["scenarios.known_weights_hit_ratio"] == 1.0
    assert metrics["estimators.schedule_matrix_calls"] == 0
    for layer in ("scenarios.known_weights_s", "estimators.ht_known_s",
                  "estimators.evaluator_init_s", "estimators.estimate_s"):
        assert metrics[layer] > 0, layer


def test_traced_scenario_counts_stacked_simulation(tmp_path, monkeypatch):
    bundle = build_scenario("min-max", population_size=200)
    monkeypatch.setattr(scenarios, "_STACK_BYTES", 2 * replicate_bytes(bundle.config))
    replicates, horizon = 5, bundle.config.horizon_days
    codes, metrics = traced_main(["scenario", "--name", "min-max", "--replicates",
                                  str(replicates), "--population", "200", "--seed", "0",
                                  "--out", str(tmp_path)])
    assert codes == [0]

    # the tracer reads the person-days from the width of each stack it returns
    assert metrics["simulate.person_days"] == replicates * 200 * horizon
    assert metrics["simulate.calls"] == 3  # stacks of 2, 2 and 1
    assert metrics["regimens.probability_vector_calls"] == 3 * horizon
    assert metrics["simulate.self_s"] > 0
    assert metrics["regimens.probability_vector_s"] > 0
