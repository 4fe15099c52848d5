"""The benchmark's golden outputs, checked in tier-1.

``perfbench/workloads.py`` is loaded read-only, as ``tests/test_tracing.py`` loads the
tracer.  Each workload's seed-0 full-scale inputs are built with it, its timed commands
run once, and the checked output is compared with ``perfbench/golden`` by the harness's
own rule (``workloads.compare_golden``: equal text, or numbers within 1e-12).  So a change
that moves a benchmark output fails here, not only when the benchmark runs at seed 0.
"""

import filecmp
import importlib.util
import sys
from pathlib import Path

import pytest

from prevest.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while being built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", ["scenario-minmax", "analyze-intervals", "release-long"])
def test_seed_zero_output_matches_the_golden_copy(workloads, tmp_path, name):
    size, seed = workloads.SIZES["full"][name], workloads.DEFAULT_SEED
    in_dir, out_dir = str(tmp_path / "input"), str(tmp_path / "output")
    Path(out_dir).mkdir()
    workloads.make_inputs(name, size, seed, in_dir)
    argvs, checked = workloads.commands(name, size, seed, in_dir, out_dir)
    assert [main(argv) for argv in argvs] == [0] * len(argvs)
    assert workloads.check_output(name, size, in_dir, checked)[1] == []
    assert workloads.compare_golden(name, checked) == []
    if name == "release-long":
        reference = str(tmp_path / "unanonymized-series.csv")
        assert main(workloads.reference_command(size, seed, in_dir, reference)) == 0
        assert filecmp.cmp(reference, checked, shallow=False), \
            "anonymized series differs from the un-anonymized series"
