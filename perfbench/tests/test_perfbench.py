"""Tests of the benchmark itself, at the tiny scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "days_per_ref": "day/ref",
              "peak_rss_mb": "MiB"}
# Printed with the metrics, but not JSON metrics.
SECONDS = {"wall_s": "s", "cpu_s": "s", "days_per_s": "day/s"}

# Layer time metrics that must be non-zero in a traced run of each workload.
LAYERS_RUN = {
    "scenario-minmax": ("simulate.self_s", "regimens.probability_vector_s",
                        "scenarios.run_self_s", "scenarios.known_weights_s",
                        "estimators.ht_known_s", "estimators.evaluator_init_s",
                        "estimators.estimate_s", "estimators.panel_s", "cli.self_s"),
    "analyze-intervals": ("dataio.parse_s", "dataio.adjust_s", "scenarios.series_self_s",
                          "estimators.evaluator_init_s", "estimators.estimate_s",
                          "estimators.resample_batch_self_s", "uncertainty.bca_self_s",
                          "uncertainty.clopper_pearson_s", "cli.self_s"),
    "release-long": ("dataio.parse_s", "dataio.anonymize_s", "dataio.write_s",
                     "dataio.adjust_s", "scenarios.series_self_s",
                     "estimators.evaluator_init_s", "estimators.estimate_s", "cli.self_s"),
}


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name, unit in {**END_TO_END, **SECONDS}.items():
        assert any(ln.startswith(f"{workload} {name} ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)
    assert any(ln.startswith(f"{workload} failed_frac 0 frac") for ln in lines)
    environment = json.loads(lines[-2])["environment"]
    assert environment["blas_threads"] in (1, None)
    assert environment["sizes"] == workloads.SIZES["tiny"][workload].as_dict()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    proc = _run(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == tracing.METRICS
    for name in LAYERS_RUN[workload]:
        assert metrics[name]["value"] > 0, name
    assert metrics["trace.spans"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_outputs_byte_identical(workload, tmp_path):
    from prevest.cli import main

    size = workloads.SIZES["tiny"][workload]
    inputs = str(tmp_path / "inputs")
    workloads.make_inputs(workload, size, 5, inputs)

    def region(name, tracer=None):
        out = tmp_path / name
        out.mkdir()
        argvs, _ = workloads.commands(workload, size, 5, inputs, str(out))
        if tracer is not None:
            tracing.install(tracer)
        try:
            assert all(main(argv) == 0 for argv in argvs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return out

    import prevest.estimators as estimators

    before = dict(vars(estimators.DayEvaluator))
    plain = region("plain")
    tracer = tracing.Tracer()
    traced = region("traced", tracer)
    assert tracer.spans
    assert dict(vars(estimators.DayEvaluator)) == before
    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(traced))
    assert filecmp.cmpfiles(plain, traced, names, shallow=False)[0] == names


def test_checks_catch_a_broken_interval(tmp_path):
    size = workloads.SIZES["tiny"]["analyze-intervals"]
    inputs = str(tmp_path)
    workloads.make_inputs("analyze-intervals", size, 5, inputs)
    tests = workloads.tests_per_day(inputs)
    series = tmp_path / "series.csv"
    rows = ["day,kind,estimate,lo,hi,n_tests,n_pos,n_fallback_strata"]
    for day in range(1, size.horizon + 1):
        cells = "0.1,0.05,0.2" if tests[day - 1] >= size.min_daily_tests else "nan,nan,nan"
        for kind in ("tpr", "ht-e"):
            rows.append(f"{day},{kind},{cells},{tests[day - 1]},0,0")
    series.write_text("\n".join(rows) + "\n")
    checked, failures = workloads.check_output("analyze-intervals", size, inputs, str(series))
    assert checked == 2 * size.horizon + 1 and failures == []
    broken = next(i for i, row in enumerate(rows) if ",0.05,0.2," in row)
    rows[broken] = rows[broken].replace("0.05,0.2", "0.15,0.2")
    series.write_text("\n".join(rows) + "\n")
    assert len(workloads.check_output("analyze-intervals", size, inputs, str(series))[1]) == 1


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "release-long", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
