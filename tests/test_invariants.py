"""Whole-pipeline invariants of ``analyze``, run through ``cli.main`` as a user runs it.

Each property simulates a small testing matrix (n <= 300, T <= 20) under one of the
built-in scenarios' regimens, writes it, and compares ``analyze`` JSONL outputs:

* no look-ahead: the matrix cut after day ``t`` gives the same rows for days
  ``<= t``, byte for byte, with and without bootstrap intervals (day ``t``'s
  bootstrap is seeded ``(seed, t)``, and no estimate reads a later column);
* duplication: every row repeated ``k`` times, with ``--min-stratum-size`` and
  ``min_daily_tests`` scaled by ``k``, gives the same estimates to 1e-12 and
  exactly ``k`` times the test counts;
* row permutation: every point cell is byte-identical;
* a shift of every date by a week: byte-identical output, since the weekly
  first-test rule reads weekdays only.
"""

import datetime as dt
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prevest.cli import main
from prevest.dataio import TestingMatrix, matrix_from_simulation, write_testing_matrix
from prevest.scenarios import SCENARIO_NAMES, build_scenario
from prevest.simulate import simulate


@st.composite
def studies(draw, max_n=300, max_days=20):
    """``(matrix, policy, min_stratum_size)``: a simulated matrix and the analysis settings."""
    name = draw(st.sampled_from(SCENARIO_NAMES), label="scenario")
    n = 4 * draw(st.integers(10, max_n // 4), label="n / 4")  # whole clusters of 4
    horizon = draw(st.integers(6, max_days), label="T")
    bundle = build_scenario(name, population_size=n, horizon_days=horizon)
    sim = simulate(replace(bundle.config, seed=draw(st.integers(0, 2**16), label="seed")))
    policy = {
        "result_delay_days": draw(st.integers(0, 2), label="delay"),
        "isolation_days": draw(st.integers(1, 10), label="isolation"),
        "post_isolation_exemption_days": draw(st.sampled_from([0, 3, 90]), label="exemption"),
        "keep_first_test_per_week": draw(st.booleans(), label="weekly rule"),
        "min_daily_tests": draw(st.integers(0, 8), label="min daily tests"),
        "assumed_sensitivity": 0.832,
        "assumed_specificity": draw(st.sampled_from([1.0, 0.992]), label="specificity"),
    }
    return matrix_from_simulation(sim), policy, draw(st.integers(1, 6), label="min stratum")


def analyze(matrix: TestingMatrix, policy: dict, min_size: int, *flags) -> list[bytes]:
    """The JSONL lines ``analyze`` writes for ``matrix``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_testing_matrix(matrix, tmp / "m.csv")
        (tmp / "policy.json").write_text(json.dumps(policy))
        assert main(["analyze", "--matrix", str(tmp / "m.csv"), "--policy",
                     str(tmp / "policy.json"), "--min-stratum-size", str(min_size),
                     "--format", "jsonl", "--seed", "3", *flags,
                     "--out", str(tmp / "out.jsonl")]) == 0
        return (tmp / "out.jsonl").read_bytes().splitlines()


class TestNoLookAhead:
    @settings(max_examples=40)
    @given(study=studies(), data=st.data())
    def test_point_rows(self, study, data):
        self.check(study, data)

    @settings(max_examples=15)
    @given(study=studies(max_n=150, max_days=12), data=st.data())
    def test_interval_rows(self, study, data):
        self.check(study, data, "--intervals", "--bootstrap", "49")

    @staticmethod
    def check(study, data, *flags):
        matrix, policy, min_size = study
        cut = data.draw(st.integers(2, matrix.n_days - 1), label="cut after day")
        whole = analyze(matrix, policy, min_size, *flags)
        prefix = analyze(TestingMatrix(matrix.dates[:cut], matrix.cells[:, :cut]),
                         policy, min_size, *flags)
        assert prefix == [line for line in whole if json.loads(line)["day"] <= cut]


class TestPopulationScale:
    @settings(max_examples=30)
    @given(study=studies(), k=st.integers(2, 3))
    def test_repeated_rows(self, study, k):
        matrix, policy, min_size = study
        scaled = dict(policy, min_daily_tests=k * policy["min_daily_tests"])
        once = [json.loads(line) for line in analyze(matrix, policy, min_size)]
        repeated = [json.loads(line) for line in analyze(
            TestingMatrix(matrix.dates, np.repeat(matrix.cells, k, axis=0)), scaled, k * min_size)]
        assert len(once) == len(repeated)
        for a, b in zip(once, repeated):
            assert (b["day"], b["kind"]) == (a["day"], a["kind"])
            assert (b["n_tests"], b["n_pos"]) == (k * a["n_tests"], k * a["n_pos"])
            assert b["n_fallback_strata"] == a["n_fallback_strata"], (a, b)
            if a["estimate"] is None:
                assert b["estimate"] is None, a
            else:
                assert abs(b["estimate"] - a["estimate"]) <= 1e-12, (a, b)


class TestRelabelling:
    @settings(max_examples=30)
    @given(study=studies(), data=st.data())
    def test_row_permutation(self, study, data):
        matrix, policy, min_size = study
        order = np.random.default_rng(data.draw(st.integers(0, 2**16), label="order")).permutation(
            matrix.n_individuals)
        permuted = TestingMatrix(matrix.dates, matrix.cells[order])
        assert analyze(permuted, policy, min_size) == analyze(matrix, policy, min_size)

    @settings(max_examples=20)
    @given(study=studies(), weeks=st.integers(-3, 3).filter(bool))
    def test_week_shift(self, study, weeks):
        matrix, policy, min_size = study
        shifted = replace(matrix, dates=[d + dt.timedelta(weeks=weeks) for d in matrix.dates])
        assert analyze(shifted, policy, min_size) == analyze(matrix, policy, min_size)
