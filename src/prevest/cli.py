"""Command-line interface: simulate, scenario, analyze, anonymize.

Every command is deterministic given its config and ``--seed``.  Exit codes:
0 success, 2 usage errors, 3 configuration errors, 4 input parse errors,
5 runtime failures.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dataio
from .dataio import AdjustmentPolicy, ParseError, parse_testing_matrix, write_testing_matrix
from .estimators import MIN_STRATUM_SIZE
from .regimens import ConfigError
from .scenarios import (
    SCENARIO_NAMES,
    ScenarioRunResult,
    build_scenario,
    estimate_panel_series,
    run_scenario,
    simulated_replicates,
)
from .simulate import seed_prefix
from .uncertainty import IntervalSpec

USAGE_EXIT, CONFIG_EXIT, PARSE_EXIT, RUNTIME_EXIT = 2, 3, 4, 5

HT_K_REFERENCE_REPLICATES = 10_000


@dataclass
class RunReport:
    command: str
    config_digest: str
    seed: int | tuple[int, ...]
    wall_time_s: float = 0.0
    outputs: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def check(self) -> None:
        missing = [p for p in self.outputs if not os.path.exists(p)]
        if missing:
            raise RuntimeError(f"declared outputs missing on disk: {missing}")

    def emit(self) -> None:
        for w in self.warnings:
            print(f"warning: {w}")
        for p in self.outputs:
            print(f"wrote {p}")
        print(f"{self.command}: done in {self.wall_time_s:.1f} s "
            f"(seed {self.seed}, config {self.config_digest})")


# Options that never change what a run writes: where it goes, and how many threads.
_UNHASHED = ("func", "out", "jobs")
_INPUT_FILES = ("config", "matrix", "policy")


def _config_digest(args) -> str:
    """Digest of every option that shapes a run's output.

    Input files enter by content, so a moved copy keeps the digest and an
    edit changes it; ``--out`` and ``--jobs`` are left out.
    """
    payload = {k: v for k, v in vars(args).items() if k not in _UNHASHED}
    for name in _INPUT_FILES:
        if payload.get(name) is not None:
            with open(payload[name], "rb") as fh:
                payload[name] = hashlib.sha256(fh.read()).hexdigest()
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _interval_spec(args) -> IntervalSpec | None:
    if not args.intervals:
        return None
    return IntervalSpec(bootstrap_iterations=args.bootstrap, jackknife_block_size=args.block_size)


# ---------------------------------------------------------------------------
# Commands: each does its work and records its outputs and warnings in the report


def cmd_simulate(args, report: RunReport) -> None:
    config = dataio.load_scenario_config(args.config)
    if args.matrices and config.horizon_days < 2:
        # the exported matrix has no row ids, so an untested row of one day would be a blank line
        raise ConfigError(f"--matrices needs horizon_days >= 2, got {config.horizon_days}")
    if args.seed is None:  # no --seed: the config's seed, as the report and digest record
        args.seed = config.seed
        report.seed = args.seed
        report.config_digest = _config_digest(args)
    prefix = seed_prefix(args.seed)
    os.makedirs(args.out, exist_ok=True)
    horizon = config.horizon_days
    totals = np.zeros((horizon + 1, 6))
    defined = np.zeros(horizon + 1)  # replicates with a non-removed population, per day
    for r, sim in simulated_replicates(config, prefix, range(args.replicates)):
        totals[:, 0] += sim.well.sum(axis=1)
        totals[:, 1] += sim.infectious.sum(axis=1)
        totals[:, 2] += sim.removed.sum(axis=1)
        totals[:, 3] += sim.tested.sum(axis=1)
        totals[:, 4] += sim.positive.sum(axis=1)
        prevalence = sim.true_prevalence()
        totals[:, 5] += np.nan_to_num(prevalence)
        defined += ~np.isnan(prevalence)
        if args.matrices:
            matrix = dataio.matrix_from_simulation(sim)
            path = os.path.join(args.out, f"replicate_{r:04d}.csv")
            write_testing_matrix(matrix, path)
            report.outputs.append(path)
        del sim  # a view: it would pin its whole stack while the next one is simulated
    totals[:, :5] /= args.replicates
    with np.errstate(invalid="ignore"):
        totals[:, 5] /= defined  # 0 / 0 leaves a day with nobody non-removed undefined
    rows = [
        {
            "day": day,
            "mean_well": totals[day, 0],
            "mean_infectious": totals[day, 1],
            "mean_removed": totals[day, 2],
            "mean_tests": totals[day, 3],
            "mean_positives": totals[day, 4],
            "mean_prevalence_nonremoved": totals[day, 5],
        }
        for day in range(1, horizon + 1)
    ]
    out = os.path.join(args.out, f"summary.{args.format}")
    dataio.write_table(out, rows, args.format)
    report.outputs.append(out)


def cmd_scenario(args, report: RunReport) -> None:
    population = {} if args.population is None else {"population_size": args.population}
    bundle = build_scenario(args.name, **population)
    if bundle.ht_known_available and args.replicates < HT_K_REFERENCE_REPLICATES:
        report.warnings.append(
            f"known-weight estimator reference runs use {HT_K_REFERENCE_REPLICATES} replicates; "
            f"running {args.replicates}, its aggregates will be noisier"
        )
    if not bundle.ht_known_available:
        report.warnings.append(
            "known-weight estimator is not defined under contact tracing; omitting ht-k columns"
        )
    run = functools.partial(run_scenario, bundle, interval_spec=_interval_spec(args),
                            seed=args.seed, min_stratum_size=args.min_stratum_size)
    jobs = args.jobs
    if jobs == 1 or args.replicates < 2 * jobs:
        result = run(args.replicates)
    else:
        # Replicate seeds are keyed by absolute index, so any partition of the
        # replicate range yields identical results.
        bounds = np.linspace(0, args.replicates, jobs + 1).astype(int)
        spans = [(int(a), int(b - a)) for a, b in zip(bounds, bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda span: run(span[1], first_replicate=span[0]), spans))
        result = ScenarioRunResult.concat(parts)
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, f"{args.name}.{args.format}")
    dataio.write_table(out, result.rows(), args.format)
    report.outputs.append(out)


def _dropped_test_warnings(adjusted: dataio.AdjustedData) -> list[str]:
    out = []
    if adjusted.n_dropped_weekly:
        out.append(f"{adjusted.n_dropped_weekly} repeat within-week test(s) dropped")
    if adjusted.n_dropped_isolation:
        out.append(f"{adjusted.n_dropped_isolation} test(s) during isolation windows dropped")
    return out


def _retained_tests(matrix: dataio.TestingMatrix, policy: AdjustmentPolicy,
                    report: RunReport) -> dataio.TestingMatrix:
    """The tests the analysis keeps.  The anonymizer shuffles these: a dropped
    test would group rows by a schedule state the analysis never sees."""
    adjusted = dataio.apply_adjustments(matrix, policy)
    report.warnings.extend(_dropped_test_warnings(adjusted))
    return adjusted.to_matrix()


def cmd_analyze(args, report: RunReport) -> None:
    matrix = parse_testing_matrix(args.matrix)
    policy = dataio.load_adjustment_policy(args.policy) if args.policy else AdjustmentPolicy()
    adjusted = dataio.apply_adjustments(matrix, policy)
    del matrix  # only the adjusted arrays are read from here on
    series = estimate_panel_series(
        adjusted.panel,
        policy.tests,
        estimators=("tpr", "ht-e"),
        interval_spec=_interval_spec(args),
        excluded_days=adjusted.excluded_days,
        min_stratum_size=args.min_stratum_size,
        seed=args.seed,
    )
    n_excluded = int(adjusted.excluded_days[1:].sum())
    if n_excluded:
        report.warnings.append(f"{n_excluded} day(s) below {policy.min_daily_tests} tests excluded")
    report.warnings.extend(_dropped_test_warnings(adjusted))
    dataio.write_table(args.out, series.rows(), args.format)
    report.outputs.append(args.out)


def cmd_anonymize(args, report: RunReport) -> None:
    matrix = parse_testing_matrix(args.matrix)
    if matrix.n_days == 1 and (untested := matrix.cells[:, 0] == dataio.ABSENT).any():
        # the anonymized matrix has no row ids, so an untested row of one day would be a blank line
        raise ParseError("a one-day matrix with an untested row cannot be anonymized: the "
                         "output has no row ids, so the row's line would be blank",
                         line=dataio.row_line(args.matrix, int(untested.argmax())))
    policy = dataio.load_adjustment_policy(args.policy) if args.policy else AdjustmentPolicy()
    shuffled = dataio.anonymize_shuffle(_retained_tests(matrix, policy, report),
                                        seed=args.seed, policy=policy)
    write_testing_matrix(shuffled, args.out)
    report.outputs.append(args.out)


# ---------------------------------------------------------------------------
# Argument parsing


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prevest",
        description="Simulation and estimation of prevalence under repeated testing "
                    "with isolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_min_stratum=True, seed_help="RNG seed (default 0)"):
        p.add_argument("--seed", type=_non_negative_int, default=0, help=seed_help)
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker threads (default $PREVEST_JOBS or 1)")
        if with_min_stratum:
            p.add_argument("--min-stratum-size", type=_non_negative_int, default=MIN_STRATUM_SIZE,
                           help="headcount fallback below this stratum size (default %(default)s)")

    def interval_flags(p, spec=IntervalSpec()):
        p.add_argument("--intervals", action="store_true", help="also compute BCa intervals")
        p.add_argument("--bootstrap", type=_positive_int, default=spec.bootstrap_iterations,
                       help="bootstrap iterations with --intervals (default %(default)s)")
        p.add_argument("--block-size", type=_positive_int, default=spec.jackknife_block_size,
                       help="jackknife block size for the acceleration (default max(10, "
                            "ceil(n / 200)): at most 200 blocks)")

    p_sim = sub.add_parser("simulate", help="run a scenario config and write summaries")
    p_sim.add_argument("--config", required=True, help="scenario config (JSON)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--replicates", type=_positive_int, default=1)
    p_sim.add_argument("--matrices", action="store_true",
                       help="also export one testing matrix per replicate")
    common(p_sim, with_min_stratum=False, seed_help="RNG seed (default: the config's seed)")
    p_sim.set_defaults(func=cmd_simulate, seed=None)

    p_sc = sub.add_parser("scenario", help="run a named built-in study scenario")
    p_sc.add_argument("--name", required=True, choices=SCENARIO_NAMES)
    p_sc.add_argument("--replicates", type=_positive_int, default=1000)
    p_sc.add_argument("--population", type=_positive_int, default=None,
                      help="override the scenario's population size")
    p_sc.add_argument("--out", required=True, help="output directory")
    interval_flags(p_sc)
    common(p_sc)
    p_sc.set_defaults(func=cmd_scenario)

    p_an = sub.add_parser("analyze", help="estimate prevalence from a testing matrix")
    p_an.add_argument("--matrix", required=True, help="testing-matrix CSV")
    p_an.add_argument("--policy", default=None, help="adjustment policy (JSON)")
    p_an.add_argument("--out", required=True, help="output estimate series file")
    interval_flags(p_an)
    common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sh = sub.add_parser("anonymize", help="shuffle a testing matrix within schedule strata")
    p_sh.add_argument("--matrix", required=True)
    p_sh.add_argument("--policy", default=None,
                      help="adjustment policy for removal bookkeeping (JSON)")
    p_sh.add_argument("--out", required=True)
    common(p_sh, with_min_stratum=False)
    p_sh.set_defaults(func=cmd_anonymize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is None:
        raw = os.environ.get("PREVEST_JOBS", "1")
        try:
            args.jobs = _positive_int(raw)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"PREVEST_JOBS must be a positive integer, got {raw!r}")
    t0 = time.monotonic()
    try:
        report = RunReport(command=args.command, config_digest=_config_digest(args),
                           seed=args.seed)
        args.func(args, report)
        report.wall_time_s = time.monotonic() - t0
        report.check()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except Exception as exc:  # runtime failures get their own exit code
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
