"""Run one benchmark workload of prevest and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Set-up runs five times, each in a fresh process that imports the program
and writes the workload's inputs from the seed; ``setup_s`` is the median of
their wall times.  Two set-ups run before the measuring process and three
after it, so the median spans the run.  The measuring process, also fresh,
runs the workload's timed region back to back for S seconds with ``--jobs 1``
and the BLAS thread count pinned to 1, and checks every output afterwards.

With ``--trace 0`` the end-to-end metrics are reported: the median wall and
CPU time of one timed region in units of a speed probe's kernel run inside it
(``ref``), panel-days estimated per ``ref``, and the peak resident set of the
measuring process.  The same times in seconds are printed too, but are not in
the JSON metrics: on a shared host they follow the host's speed.  With
``--trace 1`` the per-layer metrics of tracing.py are reported instead.  Each
metric is printed on its own line with its unit, followed by the failure
fraction, an environment record, and a final JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

Exits 2 without a result when the checkout has no program source, and 1 when
a benchmark process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "workload.py")
SETUP_REPEATS = 5
SETUP_BEFORE = 2     # set-ups before the measuring process; the rest run after it
# Keeps a hung run within 180 s: five set-ups plus the measured seconds and checks.
SETUP_TIMEOUT_S = 15
CHECK_TIMEOUT_S = 60

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "prevest")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker(mode: str, args, out_dir: str, timeout: float, extra=()) -> float:
    """Run one benchmark process; returns its wall time."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    argv = [sys.executable, WORKER, mode, "--workload", args.workload, "--scale", args.scale,
            "--seed", str(args.seed), "--dir", out_dir, *extra]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=timeout,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run(args, work: str) -> dict:
    setup_dirs = [os.path.join(work, f"setup{i}") for i in range(SETUP_REPEATS)]
    setup_times = [_worker("setup", args, d, SETUP_TIMEOUT_S)
                   for d in setup_dirs[:SETUP_BEFORE]]
    _worker("measure", args, work, args.seconds + CHECK_TIMEOUT_S,
            ["--input", setup_dirs[0], "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
    setup_times += [_worker("setup", args, d, SETUP_TIMEOUT_S)
                    for d in setup_dirs[SETUP_BEFORE:]]
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    # Set-up must be reproducible from the seed.
    for other in setup_dirs[1:]:
        result["attempted"] += 1
        if not workloads.same_files(setup_dirs[0], other):
            result["failures"].append(f"set-up {other} wrote different inputs")
    result["setup_s"] = statistics.median(setup_times)
    return result


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    wall_ref = statistics.median(result["wall_ref"])
    return {
        "setup_s": (result["setup_s"], "s"),
        "wall_ref": (wall_ref, "ref"),
        "cpu_ref": (statistics.median(result["cpu_ref"]), "ref"),
        "days_per_ref": (result["days_per_region"] / wall_ref, "day/ref"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def seconds(result: dict) -> dict[str, tuple[float, str]]:
    """The region's times in seconds: printed, but not JSON metrics."""
    wall = statistics.median(result["wall_s"])
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(result["cpu_s"]), "s"),
        "days_per_s": (result["days_per_region"] / wall, "day/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes: full (default) or tiny (smoke tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prevest", "__init__.py")):
        print(f"error: no program source at {SRC}/prevest; run from a prevest checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(args, work)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(result["failures"])
    attempted = result["attempted"]
    for message in result["failures"][:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        from tracing import METRICS

        metrics = {name: (result["layers"][name], unit) for name, unit in METRICS.items()}
    else:
        metrics = end_to_end(result)
    printed = metrics if args.trace else {**metrics, **seconds(result)}
    for name, (value, unit) in printed.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} frac "
          f"({failed} of {attempted} operations)")
    size = workloads.SIZES[args.scale][args.workload]
    print(json.dumps({"environment": {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "sizes": size.as_dict(), "seconds": args.seconds, "regions": result["regions"],
        "nproc": os.cpu_count(), "git_rev": _git_rev(), "source_digest": _source_digest(),
        **result["versions"],
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
