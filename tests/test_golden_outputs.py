"""Byte-identity gate: small CLI runs must reproduce the files in ``tests/golden/``.

Each run calls ``prevest.cli.main`` in-process at a fixed seed.  Every file it
writes is compared byte for byte with its golden copy, and so is the run's
stdout (warnings, written paths and config digests) once the temporary
directory and the elapsed time are masked.

The runs, in order:

* ``simulate`` of a min-max config (n=200, T=14), CSV summary and one
  exported testing matrix;
* ``analyze`` of that matrix, CSV and JSONL, with ``--intervals --bootstrap 49``;
* ``anonymize`` of that matrix;
* ``scenario min-max``, CSV, with ``--intervals``, 4 replicates, n=200;
* ``scenario clustered``, JSONL, 4 replicates, n=200.

To regenerate the goldens after a deliberate output change, run

    python tests/test_golden_outputs.py

It first prints, per file, every moved cell with its relative change and the
worst relative change, then overwrites the goldens.  Review that report and
the diff of ``tests/golden/`` before committing it.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIG = {
    "population_size": 200,
    "horizon_days": 14,
    "cluster_size": 4,
    "seed": 0,
    "removal_duration_days": 5,
    "tests": {"sensitivity": 0.832, "specificity": 0.992},
    "hazard": {
        "initial_prevalence": 0.05,
        "within_cluster_rate": 0.2,
        "external": {"kind": "constant", "rate": 0.03},
    },
    "regimen": {"kind": "min-max", "gap": 10, "min_gap": 5},
}

POLICY = {
    "result_delay_days": 0, "isolation_days": 5, "post_isolation_exemption_days": 0,
    "keep_first_test_per_week": False, "min_daily_tests": 0,
    "assumed_sensitivity": 0.832, "assumed_specificity": 0.992,
}

# Golden file name -> path of the written file, relative to the run directory.
OUTPUTS = {
    "simulate_summary.csv": "sim/summary.csv",
    "simulate_matrix.csv": "sim/replicate_0000.csv",
    "analyze.csv": "analyze.csv",
    "analyze.jsonl": "analyze.jsonl",
    "anonymize.csv": "anonymized.csv",
    "scenario_min-max.csv": "sc/min-max.csv",
    "scenario_clustered.jsonl": "sc/clustered.jsonl",
}


def run_all(workdir: Path) -> dict[str, bytes]:
    """Run every command into ``workdir``; returns golden name -> produced bytes."""
    from prevest.cli import main

    config = workdir / "scenario.json"
    config.write_text(json.dumps(CONFIG))
    policy = workdir / "policy.json"
    policy.write_text(json.dumps(POLICY))
    matrix = workdir / "sim" / "replicate_0000.csv"
    scenario = ["scenario", "--replicates", "4", "--population", "200", "--seed", "1",
                "--out", str(workdir / "sc")]
    runs = [
        ["simulate", "--config", str(config), "--out", str(workdir / "sim"), "--matrices",
         "--seed", "0"],
        ["analyze", "--matrix", str(matrix), "--policy", str(policy), "--intervals",
         "--bootstrap", "49", "--seed", "2", "--out", str(workdir / "analyze.csv")],
        ["analyze", "--matrix", str(matrix), "--policy", str(policy), "--intervals",
         "--bootstrap", "49", "--seed", "2", "--format", "jsonl",
         "--out", str(workdir / "analyze.jsonl")],
        ["anonymize", "--matrix", str(matrix), "--policy", str(policy), "--seed", "3",
         "--out", str(workdir / "anonymized.csv")],
        scenario + ["--name", "min-max", "--intervals", "--bootstrap", "49"],
        scenario + ["--name", "clustered", "--format", "jsonl"],
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in runs:
            assert main(argv + ["--jobs", "1"]) == 0, argv
    text = stdout.getvalue().replace(str(workdir), "<tmp>")
    text = re.sub(r"done in [0-9.]+ s", "done in <elapsed> s", text)
    produced = {name: (workdir / rel).read_bytes() for name, rel in OUTPUTS.items()}
    produced["stdout.txt"] = text.encode()
    return produced


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden_run"))


@pytest.mark.parametrize("name", [*OUTPUTS, "stdout.txt"])
def test_output_matches_golden(produced, name):
    assert produced[name] == (GOLDEN / name).read_bytes()


def cells(name: str, data: bytes) -> dict:
    """(row, column) -> cell of a golden: CSV by header, JSONL by key, else by line."""
    lines = data.decode().splitlines()
    if name.endswith(".jsonl"):
        return {(r, k): v for r, line in enumerate(lines, 1) for k, v in json.loads(line).items()}
    if name.endswith(".csv") and lines:
        header = lines[0].split(",")
        return {(r, k): v for r, line in enumerate(lines[1:], 2)
                for k, v in zip(header, line.split(","))}
    return {(r, ""): line for r, line in enumerate(lines, 1)}


def relative_change(old, new) -> float:
    """|new - old| / |old| for numeric cells; inf for any other difference."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return 0.0 if old == new else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def report_moves(name: str, old: bytes, new: bytes) -> None:
    """Print every cell of ``name`` that moved, and the worst relative change."""
    before, after = cells(name, old), cells(name, new)
    pairs = ((key, before.get(key), after.get(key)) for key in sorted(before.keys() | after.keys()))
    moved = [(key, was, now, relative_change(was, now)) for key, was, now in pairs if was != now]
    worst = max((rel for *_, rel in moved), default=0.0)
    print(f"{name}: {len(moved)} of {len(after)} cells moved, worst relative change {worst:.3g}")
    for (row, column), was, now, rel in moved:
        print(f"  row {row} {column}: {was} -> {now} (relative {rel:.3g})")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        produced = run_all(Path(tmp))
    for name, data in produced.items():
        path = GOLDEN / name
        report_moves(name, path.read_bytes() if path.exists() else b"", data)
    for name, data in produced.items():
        (GOLDEN / name).write_bytes(data)
        print(f"wrote {os.path.relpath(GOLDEN / name)}")
