"""Workload definitions: input generation, the timed CLI calls, output checks.

Each workload is a closed loop of one client: the timed region is one or two
``prevest.cli.main([...])`` calls, repeated back to back.  Inputs come from
the benchmark seed, which is also passed to the program as ``--seed``.

Sizes are smaller than the study scale named in the roadmap so that one
timed region takes 1-3 s and a 25 s run collects 10-20 samples; each size
keeps the property the workload exists for.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
from dataclasses import dataclass

DEFAULT_SEED = 0

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("scenario-minmax", "analyze-intervals", "release-long")


@dataclass(frozen=True)
class Size:
    population: int
    horizon: int
    replicates: int = 0       # scenario-minmax only
    bootstrap: int = 0        # analyze-intervals only
    block_size: int = 0       # analyze-intervals only
    min_daily_tests: int = 0  # analyze workloads: the adjustment policy's threshold

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v}


# The scenario command has no horizon option: the study scenarios run 21 days.
SIZES = {
    "full": {
        "scenario-minmax": Size(population=1000, horizon=21, replicates=30),
        "analyze-intervals": Size(population=2000, horizon=40, bootstrap=399, block_size=10,
                                  min_daily_tests=100),
        "release-long": Size(population=2000, horizon=120, min_daily_tests=100),
    },
    # Smoke scale for the benchmark's own tests.  At n=200 a day has ~30 tests,
    # so the policy's minimum daily test count is lowered to keep days estimated.
    "tiny": {
        "scenario-minmax": Size(population=200, horizon=21, replicates=2),
        "analyze-intervals": Size(population=200, horizon=14, bootstrap=19, block_size=10,
                                  min_daily_tests=5),
        "release-long": Size(population=200, horizon=14, min_daily_tests=5),
    },
}

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


# ---------------------------------------------------------------------------
# Set-up: inputs written to the run directory


def make_inputs(workload: str, size: Size, seed: int, out_dir: str) -> list[str]:
    """Write the workload's input files; returns their paths (none for scenario-minmax).

    The real-data matrix is a simulated min-max panel passed through the
    adjustment policy, so re-analysing it drops nothing and the anonymizer's
    invariance holds exactly.
    """
    if workload == "scenario-minmax":
        return []
    from prevest import dataio
    from prevest.scenarios import build_scenario
    from prevest.simulate import simulate

    os.makedirs(out_dir, exist_ok=True)
    policy_path = os.path.join(out_dir, "policy.json")
    with open(policy_path, "w", encoding="utf-8") as fh:
        json.dump({"min_daily_tests": size.min_daily_tests}, fh)
    policy = dataio.load_adjustment_policy(policy_path)
    bundle = build_scenario("min-max", population_size=size.population,
                            horizon_days=size.horizon)
    sim = simulate(bundle.config, seed=seed)
    adjusted = dataio.apply_adjustments(dataio.matrix_from_simulation(sim), policy)
    matrix_path = os.path.join(out_dir, "matrix.csv")
    dataio.write_testing_matrix(adjusted.to_matrix(), matrix_path)
    return [policy_path, matrix_path]


# ---------------------------------------------------------------------------
# The timed region


def commands(workload: str, size: Size, seed: int, in_dir: str, out_dir: str):
    """CLI argument lists of one timed region, and the path of its checked output."""
    common = ["--seed", str(seed), "--jobs", "1"]
    matrix = os.path.join(in_dir, "matrix.csv")
    policy = os.path.join(in_dir, "policy.json")
    if workload == "scenario-minmax":
        argv = ["scenario", "--name", "min-max", "--replicates", str(size.replicates),
                "--population", str(size.population), "--out", out_dir] + common
        return [argv], os.path.join(out_dir, "min-max.csv")
    series = os.path.join(out_dir, "series.csv")
    if workload == "analyze-intervals":
        argv = ["analyze", "--matrix", matrix, "--policy", policy, "--out", series,
                "--intervals", "--bootstrap", str(size.bootstrap),
                "--block-size", str(size.block_size)] + common
        return [argv], series
    anonymized = os.path.join(out_dir, "anonymized.csv")
    return [
        ["anonymize", "--matrix", matrix, "--policy", policy, "--out", anonymized] + common,
        ["analyze", "--matrix", anonymized, "--policy", policy, "--out", series] + common,
    ], series


def reference_command(size: Size, seed: int, in_dir: str, out_path: str) -> list[str]:
    """release-long's check: analyze the un-anonymized matrix with the same settings."""
    return ["analyze", "--matrix", os.path.join(in_dir, "matrix.csv"),
            "--policy", os.path.join(in_dir, "policy.json"), "--out", out_path,
            "--seed", str(seed), "--jobs", "1"]


def days_per_region(workload: str, size: Size, in_dir: str) -> int:
    """Panel-days estimated in one timed region."""
    if workload == "scenario-minmax":
        return size.replicates * size.horizon
    return sum(1 for n in tests_per_day(in_dir) if n >= size.min_daily_tests)


def tests_per_day(in_dir: str) -> list[int]:
    """Tests per day column of the (policy-consistent) input matrix."""
    with open(os.path.join(in_dir, "matrix.csv"), encoding="utf-8") as fh:
        rows = csv.reader(fh)
        counts = [0] * len(next(rows))
        for row in rows:
            for j, cell in enumerate(row):
                if cell:
                    counts[j] += 1
    return counts


# ---------------------------------------------------------------------------
# Output checks: each returns (rows checked, list of failure messages)


def _float(text: str) -> float:
    return math.nan if text == "nan" else float(text)


def _unit(value: float) -> bool:
    return 0.0 <= value <= 1.0


def check_output(workload: str, size: Size, in_dir: str, path: str) -> tuple[int, list[str]]:
    if not os.path.exists(path):
        return 1, [f"missing output {path}"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if workload == "scenario-minmax":
        return _check_scenario(size, rows)
    return _check_series(size, tests_per_day(in_dir), rows,
                         intervals=workload == "analyze-intervals")


def _check_scenario(size: Size, rows: list[dict]) -> tuple[int, list[str]]:
    failures = []
    expected = {(k, d) for k in ("tpr", "ht-k", "ht-e") for d in range(1, size.horizon + 1)}
    seen = {(r["estimator"], int(r["day"])) for r in rows}
    if seen != expected or len(rows) != len(expected):
        failures.append(f"scenario rows: expected {len(expected)} (estimator, day) pairs, "
                        f"got {len(rows)} rows covering {len(seen & expected)}")
    for r in rows:
        est, truth = _float(r["mean_estimate"]), _float(r["mean_truth"])
        if not (_unit(est) and _unit(truth)):
            failures.append(f"scenario {r['estimator']} day {r['day']}: "
                            f"estimate {est} or truth {truth} outside [0, 1]")
    return len(rows) + 1, failures


def _check_series(size: Size, tests: list[int], rows: list[dict],
                  intervals: bool) -> tuple[int, list[str]]:
    failures = []
    expected = {(d, k) for d in range(1, size.horizon + 1) for k in ("tpr", "ht-e")}
    seen = {(int(r["day"]), r["kind"]) for r in rows}
    if seen != expected or len(rows) != len(expected):
        failures.append(f"series rows: expected {len(expected)} (day, kind) pairs, "
                        f"got {len(rows)} rows covering {len(seen & expected)}")
    for r in rows:
        day = int(r["day"])
        where = f"series day {day} {r['kind']}"
        est, lo, hi = _float(r["estimate"]), _float(r["lo"]), _float(r["hi"])
        n_tests = int(r["n_tests"])
        if not 1 <= day <= len(tests) or n_tests != tests[day - 1]:
            failures.append(f"{where}: n_tests {n_tests} differs from the input matrix")
            continue
        if tests[day - 1] < size.min_daily_tests:
            if not math.isnan(est):
                failures.append(f"{where}: excluded day has estimate {est}")
            continue
        if not _unit(est):
            failures.append(f"{where}: estimate {est} undefined or outside [0, 1]")
        elif intervals and not (0.0 <= lo <= est <= hi <= 1.0):
            failures.append(f"{where}: interval [{lo}, {hi}] does not bracket {est} in [0, 1]")
        elif not intervals and not (math.isnan(lo) and math.isnan(hi)):
            failures.append(f"{where}: unexpected interval [{lo}, {hi}]")
    return len(rows) + 1, failures


def same_files(a: str, b: str) -> bool:
    """Whether two directories hold the same file names with byte-identical contents."""
    names = sorted(os.listdir(a)) if os.path.isdir(a) else []
    if names != (sorted(os.listdir(b)) if os.path.isdir(b) else []):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.csv")


def compare_golden(workload: str, path: str, tol: float = 1e-12) -> list[str]:
    """Cell-by-cell comparison with the stored output at ``DEFAULT_SEED``, full scale."""
    with open(golden_path(workload), encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    with open(path, encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    if len(want) != len(got) or any(len(a) != len(b) for a, b in zip(want, got)):
        return [f"{workload}: output shape differs from the golden copy"]
    for i, (a_row, b_row) in enumerate(zip(want, got)):
        for a, b in zip(a_row, b_row):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return [f"{workload}: line {i + 1}: {b!r} differs from golden {a!r}"]
            if not abs(x - y) <= tol:
                return [f"{workload}: line {i + 1}: {y!r} differs from golden {x!r} by more "
                        f"than {tol}"]
    return []
