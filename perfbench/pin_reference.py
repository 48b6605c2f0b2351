"""Rewrite ``reference.json`` from one seed-0 pass per workload.

    python3 perfbench/pin_reference.py

Only for a deliberate change of the reference values; a program change
that moves them is what the benchmark's seed-0 check exists to catch.
"""

import json

import run


def main() -> None:
    threads = run.pin_threads()
    bench = run.import_bench()
    pinned = {"blas_threads": threads, "workloads": {}}
    for name, workload in bench.WORKLOADS.items():
        case = bench.setup(workload, 0)
        result = bench.run_pass(case, repeat=False)
        pinned["workloads"][name] = bench.reference_entry(result)
    run.REFERENCE.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
