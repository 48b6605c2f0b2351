"""Pipeline benchmark: FOM -> record -> offline build -> online replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dam_hll_deim --seed 0 --seconds 55 --trace 0

Each run is one process with one caller and one pipeline pass at a time.
It measures for ``--seconds`` seconds, checks every pass, prints one line per metric and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Details and
raw samples go to ``perfbench/out/``.  Exit status: 0 when every pass was
correct, 1 when a pass failed, 2 when the checkout has no package source.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# The pinned seed-0 references hold for one BLAS thread: at two threads the
# last digits of the L1 errors change, and offline time gets slower and
# noisier on a two-core machine.
BLAS_THREADS = 1
SETUP_PROBES = 5
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> int:
    """Set the BLAS thread count; must run before numpy is imported."""
    threads = min(BLAS_THREADS, nproc())
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_bench():
    """Import the benchmark module against this checkout's package source."""
    if not (SRC / "hyporom" / "__init__.py").is_file():
        print(f"error: no hyporom package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hyporom
    if SRC not in Path(hyporom.__file__).resolve().parents:
        print(f"error: imported hyporom from {hyporom.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import bench
    return bench


def environment(threads: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:                  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {"blas_threads": threads, "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def probe_setup(workload: str, seed: int) -> None:
    """Child-process mode: time import + config/grid/model/state once."""
    t0 = time.perf_counter()
    bench = import_bench()
    bench.setup(bench.WORKLOADS[workload], seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, so the package import is counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode or 1)
    return float(done.stdout.strip().splitlines()[-1])


def run_passes(bench, case, seed, seconds, trace, reference, between):
    """Passes until ``seconds`` have elapsed, at least one of each kind.

    A new pass starts only while at least half a pass fits before the
    deadline, so a run overshoots ``seconds`` by at most half a pass.
    ``between()`` runs before each pass.  Returns (passes, attempted,
    failures, build warnings, tracer); the loop stops at the first failed
    pass.  The first pass is timed like the rest: a user's ``rom run`` pays
    its one-off costs too.
    """
    tracer = bench.Tracer() if trace else None
    passes, failures, warnings = [], [], []
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        between()
        traced = trace and len(passes) % 2 == 1
        t0 = clock()
        try:
            if traced:
                tracer.pass_id = len(passes)
                with tracer.installed(case.model):
                    result = bench.run_pass(case, tracer, repeat=False)
            else:
                result = bench.run_pass(case, None, repeat=not trace)
            problems = bench.check_pass(case, seed, result, reference)
        except Exception:              # a raising pass is a failed pass
            failures.append([traceback.format_exc()])
            break
        warnings.extend(w for p in result.points for w in p.warnings)
        if problems:
            failures.append(problems)
            break
        passes.append(result)
        half_pass = (clock() - t0) / 2
        if clock() + half_pass >= deadline and (not trace or len(passes) >= 2):
            break
    return passes, len(passes) + len(failures), failures, warnings, tracer


def _spread(values):
    """Sample count and the highest whole percentile that still has at
    least ten samples above it (None below 20 samples)."""
    n = len(values)
    if n < 20:
        return n, None, None
    pct = int(100 * (1 - 10 / n))
    return n, pct, statistics.quantiles(values, n=100,
                                        method="inclusive")[pct - 1]


def report(bench, args, env, passes, attempted, failures, warnings, tracer,
           setup_s, case):
    """Print the metric lines and the final JSON line; write details."""
    failed = len(failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {attempted}  blas threads "
          f"{env['blas_threads']} of nproc {env['nproc']}  numpy "
          f"{env['numpy']}  scipy {env['scipy']}  blas {env['blas']}")
    for problems in failures:
        for msg in problems:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for msg in sorted(set(warnings)):
        print(f"build_rom warning (x{warnings.count(msg)}): {msg}",
              file=sys.stderr)

    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "environment": env, "attempted": attempted, "failed": failed,
              "failures": failures, "warnings": warnings}
    metrics = {}
    if passes and not failures:
        if args.trace:
            units = bench.PER_LAYER_UNITS
            values = bench.per_layer(case, passes, tracer)
            raw = {}
        else:
            units = bench.END_TO_END_UNITS
            values = bench.end_to_end(case, passes, setup_s)
            raw = detail["samples"] = bench.samples(passes, setup_s)
        for name, unit in units.items():
            line = f"{name:32s} {values[name]:.6g} {unit}"
            if name in raw:
                n, pct, high = _spread(raw[name])
                line += f"  median of {n}"
                if pct is not None:
                    line += f", p{pct} {high:.6g}"
            print(line)
            metrics[name] = {"value": values[name], "unit": unit}
        if not args.trace:
            print(f"{'speedup (not gated)':32s} "
                  f"{values['fom_s'] / values['online_s']:.6g}  "
                  "fom_s / online_s")
        detail["metrics"] = metrics
    print(f"{'fail_rate':32s} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} passes failed)")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"spans_{stem}.csv.gz")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    bench = import_bench()
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(threads)
    reference = json.loads(REFERENCE.read_text())
    case = bench.setup(bench.WORKLOADS[args.workload], args.seed,
                       outdir=OUT / f"report_{args.workload}")
    # Set-up probes are spread between the passes, so that their median
    # does not hang on one stretch of machine load; traced runs skip them.
    setup_s = []

    def probe():
        if not args.trace:
            setup_s.append(measure_setup(args.workload, args.seed))

    outcome = run_passes(bench, case, args.seed, args.seconds, args.trace,
                         reference["workloads"], probe)
    while not args.trace and len(setup_s) < SETUP_PROBES:
        probe()
    return report(bench, args, env, *outcome, setup_s, case)


if __name__ == "__main__":
    sys.exit(main())
