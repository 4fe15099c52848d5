"""Smoke test of the benchmark's per-layer tracer against the current code.

``perfbench/tracing.py`` patches names inside ``prevest``; a refactor that
moves one of them would silently zero its layer metrics.  This runs a small
traced ``analyze --intervals`` and checks that the bootstrap layers still
record work.
"""

import csv
import importlib.util
import json
import math
import time
from pathlib import Path

from prevest.cli import main
from prevest.dataio import matrix_from_simulation, write_testing_matrix
from prevest.scenarios import build_scenario
from prevest.simulate import simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
BOOTSTRAP = 19


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_analyze_reports_bootstrap_layers(tmp_path):
    from dataclasses import replace

    sim = simulate(replace(build_scenario("min-max").config, population_size=200, seed=0))
    matrix = tmp_path / "matrix.csv"
    write_testing_matrix(matrix_from_simulation(sim), matrix)
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"isolation_days": 5, "result_delay_days": 0,
                                  "post_isolation_exemption_days": 0,
                                  "keep_first_test_per_week": False, "min_daily_tests": 0}))
    out = tmp_path / "series.csv"

    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        code = main(["analyze", "--matrix", str(matrix), "--policy", str(policy),
                     "--out", str(out), "--intervals", "--bootstrap", str(BOOTSTRAP)])
        metrics = tracer.layer_metrics(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    assert code == 0

    with open(out, encoding="utf-8") as fh:
        interval_days = sum(1 for row in csv.DictReader(fh)
                            if row["kind"] == "ht-e" and not math.isnan(float(row["lo"])))
    assert interval_days > 0
    calls = metrics["uncertainty.bca_calls"]
    assert calls == interval_days
    # a degenerate day skips its jackknife, so only the resamples are certain
    assert metrics["uncertainty.resample_rows"] >= BOOTSTRAP * calls
    assert metrics["estimators.resample_batch_self_s"] > 0
