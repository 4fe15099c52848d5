"""One benchmark process.

``setup`` imports the program and writes a workload's inputs.  ``measure``
runs the workload's timed region back to back for ``--seconds``, then checks
every output and writes ``result.json`` to ``--dir``.  The first region is a
warm-up: it is checked but not timed.  A speed probe samples the core's speed
inside every untraced region, so each region's time is also given in units of
the probe's kernel.  With ``--trace 1`` untraced and traced regions alternate,
so the tracing overhead is measured in the same process and the traced outputs
are compared with untraced ones.
``golden`` runs set-up and one region in ``--dir`` and stores the checked
output as the workload's golden copy; run it at the default seed and full
scale, only when the workload's definition changes.

run.py starts both with ``PYTHONPATH`` at the checkout's ``src`` and the BLAS
thread count pinned to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import filecmp
import glob
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

import workloads


def _cli_main(argv: list[str]) -> int:
    from prevest.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code if isinstance(exc.code, int) else 2


class SpeedProbe:
    """Samples the speed of the core inside a timed region.

    On a shared host the speed of a core changes by up to 1.7x, in phases from
    under a second to minutes long, and CPU time slows with it.  While the
    probe is entered, a wall-clock timer interrupts the region every
    ``INTERVAL_S`` and runs ``kernel``: a fixed mix of work that calls no
    prevest code and follows the program's mix (an interpreted loop, numpy
    calls on small arrays, batched small matrix products, a small BLAS
    product).  A region's time less the kernel runs inside it, over the mean
    time of those runs, follows the program's speed but hardly the host's.
    """

    INTERVAL_S = 0.05
    # One ``ref`` is the time of this many kernel runs: about 1 s on one core.
    KERNELS_PER_REF = 1000

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(7)
        self._matmul = np.matmul
        self._small = [rng.random(50) for _ in range(20)]
        self._v, self._m = rng.random((16, 30)), rng.random((16, 30, 30)) / 30
        self._a = rng.random((64, 64))
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def kernel(self) -> None:
        """Run the fixed work once and record its wall and CPU time."""
        c0, t0 = time.process_time(), time.perf_counter()
        acc = 0
        for i in range(2500):
            acc += i * i % 7
        for _ in range(5):
            for x in self._small:
                (x * 2.0 + 1.0).sum()
        v = self._v
        for _ in range(20):
            v = self._matmul(v[:, None, :], self._m)[:, 0, :]
        for _ in range(4):
            self._a @ self._a
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)

    def _on_alarm(self, signum, frame) -> None:
        self.kernel()

    def __enter__(self) -> "SpeedProbe":
        self.wall, self.cpu = [], []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def refs(self, wall: float, cpu: float) -> tuple[float, float, float, float]:
        """A region's wall and CPU seconds less the kernel runs, and both in ``ref``.

        Call after leaving the probe; a region shorter than the interval gets
        one kernel run after it.
        """
        wall -= sum(self.wall)
        cpu -= sum(self.cpu)
        if not self.wall:
            self.kernel()
        per_ref = self.KERNELS_PER_REF
        return (wall, cpu, wall / (statistics.fmean(self.wall) * per_ref),
                cpu / (statistics.fmean(self.cpu) * per_ref))


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None when it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return int(getter())
    return None


def versions() -> dict:
    import numpy
    import scipy

    import prevest

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "prevest": prevest.__version__,
    }


def measure(args) -> dict:
    size = workloads.SIZES[args.scale][args.workload]
    if args.trace:
        import tracing
    untraced_wall, untraced_cpu, traced_wall, layers = [], [], [], []
    wall_ref, cpu_ref = [], []   # untraced region time in units of the speed probe
    calls = []           # (region index, argv, exit code)
    regions = []         # (output dir, checked output path, traced)
    deadline = time.perf_counter() + args.seconds
    probe = SpeedProbe()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        out_dir = os.path.join(args.dir, f"region{k:03d}")
        os.makedirs(out_dir)
        argvs, checked = workloads.commands(args.workload, size, args.seed, args.input, out_dir)
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        with contextlib.nullcontext() if traced else probe:
            c0, t0 = time.process_time(), time.perf_counter()
            codes = [_cli_main(argv) for argv in argvs]
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.uninstall()
            layers.append(tracer.layer_metrics(t1 - t0))
            traced_wall.append(t1 - t0)
        elif k > 0:
            wall, cpu, wall_r, cpu_r = probe.refs(t1 - t0, c1 - c0)
            untraced_wall.append(wall)
            untraced_cpu.append(cpu)
            wall_ref.append(wall_r)
            cpu_ref.append(cpu_r)
        calls.extend((k, argv, code) for argv, code in zip(argvs, codes))
        regions.append((out_dir, checked, traced))
        k += 1
        if t1 >= deadline and k >= (4 if args.trace else 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks: outside the timed loop, after the peak RSS is read.
    attempted, failures = 0, []
    for index, argv, code in calls:
        attempted += 1
        if code != 0:
            failures.append(f"region {index}: prevest {argv[0]} exited {code}")
    first_dir, first_out, _ = regions[0]
    for out_dir, checked, traced in regions:
        rows, row_failures = workloads.check_output(args.workload, size, args.input, checked)
        attempted += rows
        failures += row_failures
        if out_dir != first_dir:
            attempted += 1
            if not workloads.same_files(first_dir, out_dir):
                kind = "traced" if traced else "repeated"
                failures.append(f"{kind} region {out_dir} wrote different files than {first_dir}")
    if args.seed == workloads.DEFAULT_SEED and args.scale == "full" and os.path.exists(first_out):
        attempted += 1
        failures += workloads.compare_golden(args.workload, first_out)
    if args.workload == "release-long":
        reference = os.path.join(args.dir, "unanonymized-series.csv")
        attempted += 2
        code = _cli_main(workloads.reference_command(size, args.seed, args.input, reference))
        if code != 0:
            failures.append(f"analyze of the un-anonymized matrix exited {code}")
        elif not (os.path.exists(first_out) and filecmp.cmp(reference, first_out, shallow=False)):
            failures.append("anonymized series differs from the un-anonymized series")
    for later in layers[1:]:
        attempted += 1
        drift = [n for n in tracing.COUNTS if later[n] != layers[0][n]]
        if drift:
            failures.append(f"trace counts differ between traced regions: {drift}")

    result = {
        "regions": len(regions),
        "wall_s": untraced_wall,
        "cpu_s": untraced_cpu,
        "wall_ref": wall_ref,
        "cpu_ref": cpu_ref,
        "peak_rss_mb": peak_rss_mb,
        "days_per_region": workloads.days_per_region(args.workload, size, args.input),
        "attempted": attempted,
        "failures": failures,
        "versions": versions(),
    }
    if layers:
        metrics = {name: statistics.median(m[name] for m in layers) for name in tracing.METRICS}
        metrics.update({name: layers[0][name] for name in tracing.COUNTS})
        base = statistics.median(untraced_wall)
        metrics["trace.overhead_frac"] = (statistics.median(traced_wall) - base) / base
        result["layers"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "golden"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--scale", required=True, choices=tuple(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory this process writes")
    parser.add_argument("--input", help="set-up directory holding the inputs (measure)")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import prevest.cli  # noqa: F401  (imports are part of set-up)

    if args.mode == "setup":
        size = workloads.SIZES[args.scale][args.workload]
        workloads.make_inputs(args.workload, size, args.seed, args.dir)
        return 0
    if args.mode == "golden":
        size = workloads.SIZES[args.scale][args.workload]
        workloads.make_inputs(args.workload, size, args.seed, args.dir)
        argvs, checked = workloads.commands(args.workload, size, args.seed, args.dir, args.dir)
        if any(_cli_main(argv) != 0 for argv in argvs):
            return 1
        shutil.copyfile(checked, workloads.golden_path(args.workload))
        return 0
    result = measure(args)
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
