"""End-to-end and per-module benchmark of polarcover's exact scheme verification.

Run from the repository root:

    python3 perfbench/run.py --workload scheme-q9n2 --seed 1 --seconds 30 --trace 0

One caller drives ``polarcover.cli.main`` in a closed loop: each instance
starts when the previous one has returned, and every output is checked
against its certified reference.  polarcover is imported from the ``src/``
of the tree this file sits in, never from an installed copy.  The last
line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-module metrics of a separate traced phase with
``--trace 1``.  See README.md in this directory for the workloads and the
module-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl

COLD_STARTS = 3      # at least this many before the timed passes and after them
DGEMM_N = 1640       # the cover size of scheme-q9n2


def nproc():
    return len(os.sched_getaffinity(0))


def cold_start():
    """Seconds a fresh interpreter takes to a verified result, and whether it failed."""
    # No timeout here: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantize the time.  The child limits its own run time.
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(wl.HERE / "cold.py")],
                          stdout=subprocess.DEVNULL)
    return time.perf_counter() - start, proc.returncode != 0


class ColdStarts:
    """The cold starts of one run, spread over it so that setup_s samples
    the machine from the first second of the run to the last."""

    def __init__(self):
        self.times, self.failed = [], 0

    def run(self, count=1):
        for _ in range(count):
            seconds, failed = cold_start()
            self.times.append(seconds)
            self.failed += failed


def run_passes(cli, instances, seed, seconds, references, tracer=None,
               between=None):
    """Whole passes over the instances, in seeded order, for about `seconds`.

    At least one pass runs; another starts only if a pass of median length
    still fits.  `between`, if given, is called after every pass, outside
    its timing.  Returns (wall, outcomes, trace metrics or None) per pass.
    """
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        outcomes = [wl.run_instance(cli.main, inst, seed, references)
                    for inst in wl.ordered(instances, rng)]
        wall = time.perf_counter() - t0
        passes.append((wall, outcomes,
                       tracer.pass_metrics(wall) if tracer is not None else None))
        if between is not None:
            between()
        median_wall = statistics.median(p[0] for p in passes)
        if time.perf_counter() - start + median_wall > seconds:
            return passes


def dgemm_gflops(n=DGEMM_N, reps=5):
    """Best dense float64 matmul rate at n: the ceiling for verify_gflops."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    a @ b
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = max(best, 2 * n**3 / (time.perf_counter() - t0) / 1e9)
    return best


def machine():
    import numpy as np
    import sympy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": sympy.__version__,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec_path = wl.ROOT / "BENCHMARK.json"
    if not (wl.SRC / "polarcover" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no polarcover source tree at {wl.SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    # Start no more BLAS threads than this process may run on.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())
    # Cold starts always compile polarcover from source, whatever the
    # environment, and the run writes no bytecode into the checkout.
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    references = wl.load_references()
    instances = wl.WORKLOADS[args.workload]
    largest = max(instances, key=lambda inst: inst.size)

    run_start = time.perf_counter()
    setup = ColdStarts()
    setup.run(COLD_STARTS)
    sys.path.insert(0, str(wl.SRC))
    from polarcover import cli

    warm = wl.run_instance(cli.main, wl.WARMUP, args.seed, references)
    # A traced run splits its time between an untraced and a traced phase.
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(cli, instances, args.seed, seconds, references,
                        between=setup.run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(p[0] for p in passes)
    per_layer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = run_passes(cli, instances, args.seed, seconds, references,
                                tracer, between=setup.run)
        per_layer = {name: statistics.median(p[2][name] for p in traced)
                     for name in traced[0][2]}
        per_layer["trace.overhead_ratio"] = per_layer["trace.wall_s"] / wall_s
    # The rest of the run's time goes to more cold starts.
    after = 0
    while after < COLD_STARTS or time.perf_counter() - run_start < args.seconds:
        setup.run()
        after += 1
    setup_times = setup.times
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "largest_instance_s": statistics.median(
            o.seconds for p in passes for o in p[1] if o.instance is largest),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        passes += traced
    ceiling = dgemm_gflops()

    outcomes = [warm] + [o for p in passes for o in p[1]]
    attempted = len(setup_times) + len(outcomes)
    failed = setup.failed + sum(not o.ok for o in outcomes)
    info = machine()
    info["dgemm_gflops"] = ceiling
    print(f"machine {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances "
          f"per pass, {len(passes)} passes, largest {largest.id}")
    print("pass walls " + " ".join(f"{p[0]:.4f}" for p in passes))
    print("cold starts " + " ".join(f"{t:.4f}" for t in setup_times))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"{name:36s} {value:14.6f} {units[name]}")
    print(f"{'fail_frac':36s} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} failed)")
    if per_layer is not None:
        per_layer["machine.dgemm_gflops"] = ceiling
        for name, value in sorted(per_layer.items()):
            print(f"{name:36s} {value:14.6f} {units[name]}")
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
