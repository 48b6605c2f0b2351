"""Run-to-run spread of every end-to-end metric over several seeds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--seconds 25]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for each metric the median and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``),
next to the bound in ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                timeout=600, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:14s} {name:12s} median {med:.6g}  "
                  f"spread {(q3 - q1) / med:.4f}  bound {bounds[name]}  "
                  f"n {len(vals)}", flush=True)


if __name__ == "__main__":
    main()
