import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import weakref
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prevest
from prevest import cli
from prevest.cli import main
from prevest.dataio import matrix_from_simulation, write_testing_matrix
from prevest.scenarios import build_scenario
from prevest.simulate import simulate

from test_dataio import raw_matrices

SCENARIO_JSON = {
    "population_size": 120,
    "horizon_days": 10,
    "cluster_size": 4,
    "seed": 3,
    "tests": {"sensitivity": 0.832, "specificity": 0.992},
    "hazard": {
        "initial_prevalence": 0.05,
        "within_cluster_rate": 0.2,
        "external": {"kind": "constant", "rate": 0.03},
    },
    "regimen": {"kind": "simple-random", "p": 0.25},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO_JSON))
    return path


@pytest.fixture
def matrix_path(tmp_path):
    from dataclasses import replace

    bundle = build_scenario("min-max")
    sim = simulate(replace(bundle.config, population_size=200, seed=0))
    path = tmp_path / "matrix.csv"
    write_testing_matrix(matrix_from_simulation(sim), path)
    return path


def sim_policy_path(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({
        "result_delay_days": 0, "isolation_days": 5,
        "post_isolation_exemption_days": 0, "keep_first_test_per_week": False,
        "min_daily_tests": 0, "assumed_sensitivity": 0.832,
        "assumed_specificity": 0.992,
    }))
    return path


class TestSimulateCommand:
    def test_summary_rows_match_horizon(self, tmp_path, config_path, capsys):
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + SCENARIO_JSON["horizon_days"]
        assert "wrote" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_path), "--out", str(out1), "--seed", "9"])
        main(["simulate", "--config", str(config_path), "--out", str(out2), "--seed", "9"])
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_config_seed_is_the_default_seed(self, tmp_path, capsys):
        def run(name, seed, *flags):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(SCENARIO_JSON, seed=seed)))
            out = tmp_path / name
            assert main(["simulate", "--config", str(path), "--out", str(out), *flags]) == 0
            # the report line without its wall time, which differs between runs
            last, timed = re.subn(r"done in \S+ s", "done",
                                  capsys.readouterr().out.splitlines()[-1])
            assert timed == 1, last
            return (out / "summary.csv").read_bytes(), last

        three, three_log = run("three", 3)
        assert run("seven", 7)[0] != three
        assert run("seven-flagged", 7, "--seed", "3")[0] == three
        # the report and the digest record the resolved seed
        flagged, flagged_log = run("three-flagged", 3, "--seed", "3")
        assert flagged == three and flagged_log == three_log and "(seed 3, " in three_log
        pair, pair_log = run("pair", [3, 1])
        assert pair not in (three, run("pair-flagged", [3, 1], "--seed", "3")[0])
        assert "(seed (3, 1), " in pair_log

    @pytest.mark.parametrize("seed", ["3", -1, [], [3, 1.5], True])
    def test_bad_config_seed_is_config_error(self, tmp_path, capsys, seed):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO_JSON, seed=seed)))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "seed must be" in capsys.readouterr().err

    def test_matrices_exported(self, tmp_path, config_path):
        out = tmp_path / "runs"
        main(["simulate", "--config", str(config_path), "--out", str(out),
              "--replicates", "2", "--matrices"])
        assert (out / "replicate_0000.csv").exists() and (out / "replicate_0001.csv").exists()

    def test_zero_replicates_is_usage_error(self, tmp_path, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(config_path), "--out", str(tmp_path),
                  "--replicates", "0"])
        assert exc.value.code == 2

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"population_size": 10}')
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_invalid_test_characteristics_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO_JSON, tests={"sensitivity": 1.5})))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "tests: sensitivity" in capsys.readouterr().err

    @pytest.mark.parametrize("change,field", [
        ({"population_size": 120.0}, "population_size"),
        ({"horizon_days": "10"}, "horizon_days"),
        ({"tests": {"sensitivity": "0.9"}}, "tests: sensitivity"),
        ({"hazard": {"initial_prevalence": "0.05"}}, "hazard: initial_prevalence"),
        ({"regimen": {"kind": "simple-random", "p": "0.25"}}, "regimen: p "),
        ({"regimen": {"kind": "simple-random", "p": 0.25,
                      "overlays": {"contact_tracing": "yes"}}},
         "regimen.overlays: contact_tracing"),
        ({"sensitivity_curve": {"window": 10.5}}, "sensitivity_curve: window"),
    ], ids=["float-population", "string-horizon", "string-sensitivity",
            "string-initial-prevalence", "string-p", "string-contact-tracing",
            "float-window"])
    def test_mistyped_config_value_is_config_error(self, tmp_path, capsys, change, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO_JSON, **change)))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("change,message", [
        ({"hazard": {"external": {"kind": "bump", "shape_horizon": 0}}}, "shape_horizon"),
        ({"hazard": {"external": {"kind": "bump", "peak": -1.0}}}, "peak must be >= 0"),
        ({"hazard": {"external": {"kind": "bump", "base": -0.5}}}, "base must be >= 0"),
        ({"hazard": {"external": {"kind": "bump", "scale": -1.0}}}, "scale must be >= 0"),
        ({"hazard": {"external": {"kind": "bump", "scale": 50.0}}}, "cannot exceed 1"),
        ({"hazard": {"external": {"kind": "constant", "rate": 0.03},
                     "repeat_exposure_multiplier": 50.0}}, "cannot exceed 1"),
        ({"hazard": {"within_cluster_rate": float("nan")}}, "within-cluster rate must be >= 0"),
        ({"hazard": {"repeat_exposure_multiplier": float("nan")}},
         "repeat-exposure multiplier must be >= 0"),
        ({"sensitivity_curve": {"window": 0}}, "sensitivity window"),
        ({"sensitivity_curve": {"peak": 3.0}}, "sensitivity peak"),
        ({"sensitivity_curve": {"peak": 0.0}}, "sensitivity peak"),
    ], ids=["zero-shape-horizon", "negative-peak", "negative-base", "negative-scale",
            "hazard-above-one", "re-exposure-above-one", "nan-cluster-rate",
            "nan-re-exposure", "zero-window", "sensitivity-above-one",
            "zero-sensitivity"])
    def test_unrunnable_simulator_config_is_config_error(self, tmp_path, capsys, change,
                                                          message):
        """Each would divide by zero in the simulator or be clamped there without a word."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO_JSON, **change)))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("change,where", [
        ({"tests": 5}, "tests: expected an object, got int"),
        ({"hazard": [0.1]}, "hazard: expected an object, got list"),
        ({"hazard": {"external": "constant"}}, "hazard.external: expected an object, got str"),
        ({"sensitivity_curve": 0.9}, "sensitivity_curve: expected an object, got float"),
        ({"regimen": {"kind": "simple-random", "p": 0.25, "overlays": True}},
         "regimen.overlays: expected an object, got bool"),
    ], ids=["int-tests", "list-hazard", "string-external", "float-curve", "bool-overlays"])
    def test_non_object_config_value_is_config_error(self, tmp_path, capsys, change, where):
        """A value that must be a JSON object, given as anything else (exited 5)."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO_JSON, **change)))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert where in capsys.readouterr().err

    def test_one_day_matrices_is_config_error(self, tmp_path, capsys):
        """A one-day matrix without row ids cannot hold an untested row (exited 5 after
        simulating); without --matrices the one-day run still succeeds."""
        config = tmp_path / "one_day.json"
        config.write_text(json.dumps(dict(SCENARIO_JSON, horizon_days=1)))
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--matrices"]) == 3
        assert "--matrices needs horizon_days >= 2" in capsys.readouterr().err
        assert not out.exists()
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0

    def test_jsonl_format(self, tmp_path, config_path):
        out = tmp_path / "runs"
        main(["simulate", "--config", str(config_path), "--out", str(out),
              "--format", "jsonl"])
        rows = [json.loads(l) for l in (out / "summary.jsonl").read_text().splitlines()]
        assert rows[0]["day"] == 1 and len(rows) == 10

    def test_prevalence_undefined_when_nobody_is_non_removed(self, tmp_path):
        # Everyone starts infectious and tests positive on day 1, so from day 2
        # on every replicate has nobody non-removed: prevalence is undefined, not 0.
        config = tmp_path / "all_removed.json"
        config.write_text(json.dumps(dict(
            SCENARIO_JSON, population_size=2, horizon_days=6, cluster_size=1,
            tests={"sensitivity": 1.0, "specificity": 1.0},
            hazard={"initial_prevalence": 1.0, "within_cluster_rate": 0.0,
                    "external": {"kind": "zero"}},
            regimen={"kind": "simple-random", "p": 1.0})))
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--replicates", "2"]) == 0
        prevalence = [line.split(",")[-1] for line in
                      (out / "summary.csv").read_text().splitlines()[1:]]
        assert prevalence == ["1", "nan", "nan", "nan", "nan", "nan"]


class TestScenarioCommand:
    def test_small_run_writes_aggregates(self, tmp_path, capsys):
        out = tmp_path / "sc"
        code = main(["scenario", "--name", "simple-random", "--replicates", "3",
                     "--population", "120", "--out", str(out), "--seed", "2"])
        assert code == 0
        txt = capsys.readouterr().out
        assert "warning" in txt and "10000" in txt  # reduced-replicate caution
        lines = (out / "simple-random.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,estimator,day")
        assert len(lines) == 1 + 3 * 21

    def test_contact_tracing_omits_ht_k(self, tmp_path):
        out = tmp_path / "sc"
        main(["scenario", "--name", "contact-tracing", "--replicates", "2",
              "--population", "80", "--out", str(out)])
        body = (out / "contact-tracing.csv").read_text()
        assert "ht-k" not in body and "ht-e" in body

    def test_unknown_name_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--name", "weekly", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-8"])
    def test_non_positive_population_is_usage_error(self, tmp_path, value):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--name", "simple-random", "--replicates", "1",
                  "--population", value, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_jobs_do_not_change_results(self, tmp_path):
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        args = ["scenario", "--name", "simple-random", "--replicates", "4",
                "--population", "120", "--seed", "5"]
        main(args + ["--out", str(out1), "--jobs", "1"])
        main(args + ["--out", str(out2), "--jobs", "2"])
        assert (out1 / "simple-random.csv").read_bytes() == (out2 / "simple-random.csv").read_bytes()


class TestAnalyzeCommand:
    def test_estimates_from_matrix(self, tmp_path, matrix_path):
        out = tmp_path / "est.csv"
        code = main(["analyze", "--matrix", str(matrix_path),
                     "--policy", str(sim_policy_path(tmp_path)), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "day,kind,estimate,lo,hi,n_tests,n_pos,n_fallback_strata"
        assert len(lines) == 1 + 2 * 21

    def test_parsed_matrix_is_released_before_estimation(self, tmp_path, matrix_path,
                                                         monkeypatch):
        """Only the adjusted arrays are read once the adjustments have run, so the parsed
        matrix (n x T int8 cells, 21 MiB at n=60000, T=365) is not held through estimation."""
        parsed, alive = [], []
        parse_testing_matrix, estimate_panel_series = (cli.parse_testing_matrix,
                                                       cli.estimate_panel_series)

        def parse(path):
            matrix = parse_testing_matrix(path)
            parsed.append(weakref.ref(matrix))
            return matrix

        def series(*args, **kwargs):
            alive.append(parsed[0]() is not None)
            return estimate_panel_series(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_testing_matrix", parse)
        monkeypatch.setattr(cli, "estimate_panel_series", series)
        assert main(["analyze", "--matrix", str(matrix_path), "--policy",
                     str(sim_policy_path(tmp_path)), "--out", str(tmp_path / "est.csv")]) == 0
        assert alive == [False]

    def test_default_policy_excludes_sparse_days(self, tmp_path, matrix_path, capsys):
        out = tmp_path / "est.csv"
        main(["analyze", "--matrix", str(matrix_path), "--out", str(out)])
        assert "excluded" in capsys.readouterr().out  # 200 people < 100 tests/day

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("2020-08-31\nX\n")
        assert main(["analyze", "--matrix", str(bad), "--out", str(tmp_path / "o.csv")]) == 4

    def test_malformed_first_date_is_parse_error(self, tmp_path, capsys):
        # it once exited 0 with estimates for 2020-09-01, the first column taken as row ids
        bad = tmp_path / "bad.csv"
        bad.write_text("2020-8-31,2020-09-01\nN,P\n,N\nP,\n")
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"min_daily_tests": 0}))
        assert main(["analyze", "--matrix", str(bad), "--policy", str(policy),
                     "--out", str(tmp_path / "o.csv")]) == 4
        assert "'2020-8-31' in header (line 1, column 1)" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("first,second", [("20200831", "20200901"),
                                              ("2020-W36-1", "2020-W36-2")],
                             ids=["basic-format", "week-date"])
    def test_only_extended_calendar_dates_parse(self, tmp_path, capsys, first, second):
        """Header dates are YYYY-MM-DD on every Python version: 3.11's fromisoformat
        also reads the basic and week forms, which 3.10's rejects."""
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{first},{second}\nN,P\n,N\nP,\n")
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"min_daily_tests": 0}))
        assert main(["analyze", "--matrix", str(bad), "--policy", str(policy),
                     "--out", str(tmp_path / "o.csv")]) == 4
        assert f"bad date '{first}' in header (line 1, column 1)" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_non_utf8_matrix_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.csv"
        bad.write_bytes(b"\xff\xfe" + "2020-08-31\nN\n".encode("utf-16-le"))  # a UTF-16 export
        assert main(["analyze", "--matrix", str(bad), "--out", str(tmp_path / "o.csv")]) == 4
        assert "byte 0xff is not UTF-8 text (line 1)" in capsys.readouterr().err
        bad.write_bytes(b"2020-08-31,2020-09-01\nN,\r\nP,N\xe9\n")
        assert main(["analyze", "--matrix", str(bad), "--out", str(tmp_path / "o.csv")]) == 4
        assert "(line 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("policy,field", [
        ({"assumed_sensitivity": 1.5}, "assumed_sensitivity"),
        ({"result_delay_days": 1.5}, "result_delay_days"),
        ({"isolation_days": "10"}, "isolation_days"),
        ({"assumed_sensitivity": 0.5, "assumed_specificity": 0.5, "min_daily_tests": 0},
         "assumed_sensitivity"),
        ({"keep_first_test_per_week": "no"}, "keep_first_test_per_week"),
    ], ids=["sensitivity-above-one", "fractional-delay", "string-isolation",
            "uninformative-test", "string-week-flag"])
    def test_bad_policy_value_is_config_error(self, tmp_path, matrix_path, capsys, policy,
                                              field):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy))
        out = tmp_path / "est.csv"
        assert main(["analyze", "--matrix", str(matrix_path), "--policy", str(path),
                     "--out", str(out)]) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--bootstrap", "0"),
        ("--block-size", "0"),
        ("--jobs", "0"),
        ("--jobs", "-2"),
        ("--min-stratum-size", "-5"),
    ])
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, matrix_path, flag, value):
        out = tmp_path / "est.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--matrix", str(matrix_path), "--out", str(out), "--intervals",
                  flag, value])
        assert exc.value.code == 2
        assert not out.exists()

    def test_zero_min_stratum_size_is_accepted(self, tmp_path, matrix_path):
        assert main(["analyze", "--matrix", str(matrix_path), "--out", str(tmp_path / "e.csv"),
                     "--policy", str(sim_policy_path(tmp_path)),
                     "--min-stratum-size", "0"]) == 0

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["analyze", "--matrix", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "o.csv")]) == 5


class TestAnonymizeCommand:
    def test_deterministic_and_estimator_invariant(self, tmp_path, matrix_path):
        policy = sim_policy_path(tmp_path)
        shuffled1 = tmp_path / "s1.csv"
        shuffled2 = tmp_path / "s2.csv"
        for out in (shuffled1, shuffled2):
            assert main(["anonymize", "--matrix", str(matrix_path), "--seed", "4",
                         "--policy", str(policy), "--out", str(out)]) == 0
        assert shuffled1.read_bytes() == shuffled2.read_bytes()
        est_orig = tmp_path / "orig.csv"
        est_shuf = tmp_path / "shuf.csv"
        main(["analyze", "--matrix", str(matrix_path), "--policy", str(policy),
              "--out", str(est_orig)])
        main(["analyze", "--matrix", str(shuffled1), "--policy", str(policy),
              "--out", str(est_shuf)])
        assert est_orig.read_bytes() == est_shuf.read_bytes()


    @settings(max_examples=40)
    @given(case=raw_matrices(max_n=19, max_days=19).filter(lambda case: case[0].n_days > 1),
           seed=st.integers(0, 2), min_size=st.integers(1, 3))
    def test_unfiltered_matrix_keeps_the_analysis(self, case, seed, min_size):
        """A raw export, with tests the policy drops, anonymizes to the same analysis.

        (A one-day matrix is left out: its untested rows have no line in the file.)
        """
        matrix, policy = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_testing_matrix(matrix, tmp / "raw.csv")
            (tmp / "policy.json").write_text(json.dumps(asdict(policy)))
            common = ["--policy", str(tmp / "policy.json"), "--min-stratum-size", str(min_size)]
            assert main(["anonymize", "--matrix", str(tmp / "raw.csv"), "--seed", str(seed),
                         "--policy", str(tmp / "policy.json"), "--out", str(tmp / "anon.csv")]) == 0
            for name in ("raw", "anon"):
                assert main(["analyze", "--matrix", str(tmp / f"{name}.csv"), *common,
                             "--out", str(tmp / f"{name}.series.csv")]) == 0
            assert (tmp / "anon.series.csv").read_bytes() == (tmp / "raw.series.csv").read_bytes()

    def test_dropped_tests_are_reported(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        dates = ",".join(f"2020-08-{d}" for d in range(24, 32))  # Monday to next Monday
        # default policy: Tuesday repeats Monday's week; the next Monday falls in isolation
        src.write_text(f"{dates}\nP,N,,,,,,N\nN,,,,,,,\n")
        assert main(["anonymize", "--matrix", str(src), "--out", str(tmp_path / "a.csv")]) == 0
        out = capsys.readouterr().out
        assert "warning: 1 repeat within-week test(s) dropped" in out
        assert "warning: 1 test(s) during isolation windows dropped" in out

    def test_one_day_matrix_with_an_untested_row_is_parse_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        """The anonymized matrix has no row ids, so it cannot hold an untested row of a
        one-day matrix.  This exited 5 after shuffling; it is refused before."""
        src = tmp_path / "one_day.csv"
        src.write_text("id,2020-08-31\na,N\n\nb,\nc,\nd,P\n")
        out = tmp_path / "anon.csv"
        monkeypatch.setattr(prevest.dataio, "anonymize_shuffle", None)  # never reached
        assert main(["anonymize", "--matrix", str(src), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "one-day matrix with an untested row cannot be anonymized" in err
        assert "(line 4)" in err  # row b; the blank line 3 is skipped but counted
        assert not out.exists()
        monkeypatch.undo()
        src.write_text("id,2020-08-31\na,N\nd,P\n")
        assert main(["anonymize", "--matrix", str(src), "--out", str(out)]) == 0
        assert sorted(out.read_text().splitlines()[1:]) == ["N", "P"]


class TestDeskScaleTimings:
    def test_study_size_single_replicate_is_fast(self, tmp_path):
        import time

        cfg = dict(SCENARIO_JSON)
        cfg.update(population_size=1000, horizon_days=21)
        path = tmp_path / "study.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "runs"
        t0 = time.monotonic()
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        elapsed = time.monotonic() - t0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 21
        assert elapsed < 2.0

    def test_anonymize_large_matrix_is_fast(self, tmp_path):
        import time
        from dataclasses import replace

        bundle = build_scenario("once-per-period")
        sim = simulate(replace(bundle.config, horizon_days=100), seed=1)
        src = tmp_path / "big.csv"
        write_testing_matrix(matrix_from_simulation(sim), src)
        t0 = time.monotonic()
        code = main(["anonymize", "--matrix", str(src), "--seed", "1",
                     "--policy", str(sim_policy_path(tmp_path)),
                     "--out", str(tmp_path / "big_anon.csv")])
        elapsed = time.monotonic() - t0
        assert code == 0 and elapsed < 15.0

    def test_all_absent_matrix_yields_no_estimates(self, tmp_path, capsys):
        rows = "\n".join(",," for _ in range(5))
        src = tmp_path / "empty.csv"
        src.write_text("2020-08-31,2020-09-01,2020-09-02\n" + rows + "\n")
        out = tmp_path / "est.csv"
        assert main(["analyze", "--matrix", str(src), "--out", str(out)]) == 0
        assert "excluded" in capsys.readouterr().out
        body = out.read_text().splitlines()[1:]
        assert all(line.split(",")[2] == "nan" for line in body)

    def test_jobs_env_var_default(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv("PREVEST_JOBS", "2")
        out = tmp_path / "env"
        assert main(["scenario", "--name", "simple-random", "--replicates", "4",
                     "--population", "120", "--seed", "5", "--out", str(out)]) == 0
        ref = tmp_path / "ref"
        monkeypatch.delenv("PREVEST_JOBS")
        main(["scenario", "--name", "simple-random", "--replicates", "4",
              "--population", "120", "--seed", "5", "--out", str(ref)])
        assert (out / "simple-random.csv").read_bytes() == (ref / "simple-random.csv").read_bytes()

    @pytest.mark.parametrize("value", ["0", "-3", "two", "1.5"])
    def test_bad_jobs_env_var_is_usage_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("PREVEST_JOBS", value)
        out = tmp_path / "env"
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--name", "simple-random", "--replicates", "2",
                  "--population", "40", "--out", str(out)])
        assert exc.value.code == 2
        assert "PREVEST_JOBS" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_flag_overrides_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PREVEST_JOBS", "0")
        assert main(["scenario", "--name", "simple-random", "--replicates", "2",
                     "--population", "40", "--jobs", "1", "--out", str(tmp_path)]) == 0


COLD_START_SCRIPT = """
import sys
from pathlib import Path

from prevest.cli import main

tmp, config, policy = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
matrix = str(tmp / "runs" / "replicate_0000.csv")


def run(*argv):
    code = main(list(argv))
    assert code == 0, (argv, code)


def report():
    loaded = [name for name in ("scipy.sparse", "scipy.special") if name in sys.modules]
    print("loaded:", ",".join(loaded))


run("simulate", "--config", config, "--out", str(tmp / "runs"), "--matrices")
run("scenario", "--name", "min-max", "--replicates", "2", "--population", "200",
    "--out", str(tmp / "scenario"))
run("analyze", "--matrix", matrix, "--policy", policy, "--out", str(tmp / "point.csv"))
run("anonymize", "--matrix", matrix, "--policy", policy, "--out", str(tmp / "anon.csv"))
report()
run("analyze", "--matrix", matrix, "--policy", policy, "--out", str(tmp / "ci.csv"),
    "--intervals", "--bootstrap", "19")
report()
"""


class TestColdStart:
    def test_scipy_loads_only_for_intervals(self, tmp_path, config_path):
        """Point-only commands never import scipy.sparse or scipy.special; the first
        interval does.  A fresh interpreter, since this suite imports scipy itself."""
        src = str(Path(prevest.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-c", COLD_START_SCRIPT, str(tmp_path), str(config_path),
                str(sim_policy_path(tmp_path))]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        reports = [line.removeprefix("loaded:").strip()
                   for line in done.stdout.splitlines() if line.startswith("loaded:")]
        assert reports == ["", "scipy.sparse,scipy.special"]


def reported_digest(capsys) -> str:
    return re.search(r"config ([0-9a-f]{12})\)", capsys.readouterr().out).group(1)


@pytest.mark.parametrize("command", ["simulate", "scenario", "analyze", "anonymize"])
def test_negative_seed_is_usage_error(tmp_path, config_path, matrix_path, command):
    """numpy rejects a negative seed only once a seeded draw runs (it exited 5, or 0
    for a point-only analyze)."""
    out = tmp_path / "out"
    given = {"simulate": ["--config", str(config_path)],
             "scenario": ["--name", "simple-random", "--replicates", "1", "--population", "40"],
             "analyze": ["--matrix", str(matrix_path)],
             "anonymize": ["--matrix", str(matrix_path)]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *given, "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert not out.exists()


class TestConfigDigest:
    """The run digest hashes input contents and the seed, not input paths."""

    @pytest.mark.parametrize("command", ["analyze", "anonymize"])
    def test_matrix_content_not_path(self, tmp_path, matrix_path, capsys, command):
        def digest(matrix, seed="0", policy=None):
            argv = [command, "--matrix", str(matrix), "--out", str(tmp_path / "out.csv"),
                    "--seed", seed]
            if policy is not None:
                argv += ["--policy", str(policy)]
            assert main(argv) == 0
            return reported_digest(capsys)

        base = digest(matrix_path)
        moved = tmp_path / "elsewhere" / "renamed.csv"
        moved.parent.mkdir()
        shutil.copyfile(matrix_path, moved)
        assert digest(moved) == base
        lines = moved.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = "N" if cells[1] != "N" else ""
        lines[1] = ",".join(cells)
        moved.write_text("\n".join(lines) + "\n")
        assert digest(moved) != base
        assert digest(matrix_path, seed="1") != base
        assert digest(matrix_path, policy=sim_policy_path(tmp_path)) != base

    def test_simulate_hashes_config_content(self, tmp_path, config_path, capsys):
        def digest(config):
            assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
            return reported_digest(capsys)

        base = digest(config_path)
        copy = tmp_path / "copy" / "other.json"
        copy.parent.mkdir()
        shutil.copyfile(config_path, copy)
        assert digest(copy) == base
        copy.write_text(json.dumps(dict(SCENARIO_JSON, seed=4)))
        assert digest(copy) != base

    def test_every_output_option_is_hashed(self, tmp_path, matrix_path, capsys):
        def digest(*argv):
            assert main(list(argv)) == 0
            return reported_digest(capsys)

        analyze = ["analyze", "--matrix", str(matrix_path), "--out", str(tmp_path / "a.csv")]
        base = digest(*analyze)
        assert digest(*analyze, "--jobs", "2") == base
        assert digest(*analyze[:-1], str(tmp_path / "b.csv")) == base
        variants = {digest(*analyze, *extra) for extra in (
            ["--intervals", "--bootstrap", "19"], ["--intervals", "--bootstrap", "29"],
            ["--intervals", "--bootstrap", "19", "--block-size", "5"],
            ["--min-stratum-size", "3"], ["--format", "jsonl"])}
        assert base not in variants and len(variants) == 5

        scenario = ["scenario", "--name", "simple-random", "--replicates", "2",
                    "--population", "40", "--out", str(tmp_path / "s")]
        base = digest(*scenario)
        assert digest(*scenario[:-1], str(tmp_path / "t"), "--jobs", "2") == base
        variants = {digest(*scenario, *extra) for extra in (
            ["--block-size", "5"], ["--min-stratum-size", "3"], ["--replicates", "3"],
            ["--population", "80"], ["--intervals", "--bootstrap", "9"])}
        assert base not in variants and len(variants) == 5


# Small valid inputs whose keys the bad-input property test replaces one at a time.
SMALL_SCENARIOS = (
    {
        "population_size": 40, "horizon_days": 7, "cluster_size": 4, "seed": 3,
        "removal_duration_days": 3, "undetected_recovery_days": 5,
        "baseline_exposure_window": 2,
        "tests": {"sensitivity": 0.832, "specificity": 0.992},
        "sensitivity_curve": {"peak": 0.9, "window": 6},
        "hazard": {"initial_prevalence": 0.1, "within_cluster_rate": 0.2,
                   "repeat_exposure_multiplier": 0.5,
                   "external": {"kind": "constant", "rate": 0.03}},
        "regimen": {"kind": "simple-random", "p": 0.25,
                    "overlays": {"symptomatic_probability": 0.3, "contact_tracing": True}},
    },
    {
        "population_size": 40, "horizon_days": 7, "cluster_size": 2,
        "hazard": {"initial_prevalence": 0.1,
                   "external": {"kind": "bump", "shape_horizon": 5, "peak": 0.2, "base": 0.02,
                                "scale": 0.5}},
        "regimen": {"kind": "clustered",
                    "base": {"kind": "min-max", "gap": 4, "min_gap": 2, "first_test_window": 3}},
    },
    {
        "population_size": 40, "horizon_days": 7,
        "regimen": {"kind": "once-per-period", "period": 3},
    },
)
SMALL_POLICY = {
    "result_delay_days": 1, "isolation_days": 3, "post_isolation_exemption_days": 4,
    "keep_first_test_per_week": False, "min_daily_tests": 1,
    "assumed_sensitivity": 0.832, "assumed_specificity": 0.992,
}


def key_paths(obj, prefix=()):
    """Every key path of a nested JSON object, objects included."""
    for key, value in obj.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from key_paths(value, (*prefix, key))


def replaced(obj, path, value):
    out = json.loads(json.dumps(obj))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


# Integers stay within +-10**4: a larger population or horizon is valid input whose
# cost grows, not a new kind of bad input.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**4, 10**4) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Values near the valid ones, so that range checks are reached and not only type checks.
near_values = st.sampled_from([0, 1, 2, -1, 0.0, 0.5, 1.0, 1.5, -0.5, 1e300, "1", "", True,
                               None, [], {}, [1], {"kind": "zero"}])


@pytest.mark.slow
class TestBadInputProperty:
    """One key of a valid config or policy replaced by an arbitrary JSON value: every
    run exits 0 or with a documented bad-input code (2, 3, 4), never 5, and a run
    that exits 0 has written every output it declares."""

    @staticmethod
    def run(argv, outputs):
        code = main(argv)
        assert code in (0, 2, 3, 4), (code, argv)
        if code == 0:
            for path in outputs:
                assert Path(path).exists(), path

    @settings(max_examples=150)
    @given(data=st.data(), base=st.sampled_from(SMALL_SCENARIOS), value=json_values | near_values)
    def test_simulate_config(self, data, base, value):
        path = data.draw(st.sampled_from(list(key_paths(base))))
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "scenario.json"
            config.write_text(json.dumps(replaced(base, path, value)))
            out = Path(tmp) / "out"
            self.run(["simulate", "--config", str(config), "--out", str(out), "--matrices"],
                     [out / "summary.csv", out / "replicate_0000.csv"])

    @settings(max_examples=80)
    @given(key=st.sampled_from(sorted(SMALL_POLICY)), value=json_values | near_values,
           command=st.sampled_from(["analyze", "anonymize"]))
    def test_policy(self, small_matrix, key, value, command):
        with tempfile.TemporaryDirectory() as tmp:
            policy = Path(tmp) / "policy.json"
            policy.write_text(json.dumps(dict(SMALL_POLICY, **{key: value})))
            out = Path(tmp) / "out.csv"
            self.run([command, "--matrix", str(small_matrix), "--policy", str(policy),
                      "--out", str(out)], [out])


@pytest.fixture(scope="module")
def small_matrix(tmp_path_factory):
    """A simulated population-40, 7-day matrix written once for the policy cases."""
    from prevest.dataio import scenario_config_from_dict

    sim = simulate(scenario_config_from_dict(SMALL_SCENARIOS[0]))
    path = tmp_path_factory.mktemp("small") / "matrix.csv"
    write_testing_matrix(matrix_from_simulation(sim), path)
    return path
