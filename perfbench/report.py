"""Run the levelsurf benchmark on every workload and print every metric.

Usage, from the repository root:

    python3 perfbench/report.py                      # seed 0, all workloads
    python3 perfbench/report.py --seeds 0,1,2,3,4,5,6,7,8,9 \\
        --write perfbench/results/baseline.json --label <commit>

For each workload, ``run.py --trace 0`` runs once per seed, each in a
fresh process, for ``run_seconds`` of ``BENCHMARK.json``, and
``run.py --trace 1`` runs once, on the first seed.
The report gives every end-to-end metric as the median over the seeds
with its spread (interquartile range over median), and every per-layer
metric of the traced run, each by name with its unit.  It exits 1 if any
run fails an output check or does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
import workloads
from run import END_TO_END_METRICS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """Run ``run.py`` in a fresh process; return (result, fingerprint)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, None
    finger = next((json.loads(ln.split(" ", 1)[1]) for ln in lines
                   if ln.startswith("fingerprint ")), None)
    return json.loads(lines[-1]), finger


def spread(values: list[float]) -> float:
    """Interquartile range over median, as the benchmark's bounds use it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0",
                        help="comma-separated seeds (default 0)")
    parser.add_argument("--write", metavar="PATH",
                        help="also write the numbers as a JSON entry")
    parser.add_argument("--label", default="",
                        help="what was measured, e.g. a commit id")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]

    ok = True
    entry = {"label": args.label, "seeds": seeds, "seconds": seconds,
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "workloads": {}}
    for workload in workloads.WORKLOADS:
        print(f"== {workload}: {workloads.WORKLOADS[workload]}")
        per_seed = {}
        for seed in seeds:
            result, finger = run_once(workload, seed, seconds, 0)
            entry.setdefault("fingerprint", finger)
            if result is None or not result["correct"]:
                print(f"  seed {seed}: FAILED")
                ok = False
                continue
            per_seed[seed] = result
        if not per_seed:
            continue
        e2e = {}
        print(f"  end to end, median over {len(per_seed)} seeds "
              f"(spread = IQR / median):")
        for name, unit, _ in END_TO_END_METRICS:
            values = [r["metrics"][name]["value"] for r in per_seed.values()]
            e2e[name] = {"unit": unit, "median": statistics.median(values),
                         "spread": spread(values), "values": values}
            print(f"    {name:44s} {e2e[name]['median']:14.6g} {unit:12s} "
                  f"spread {e2e[name]['spread']:.4f}")
        attempted = sum(r["attempted"] for r in per_seed.values())
        failed = sum(r["failed"] for r in per_seed.values())
        print(f"    {'failed_frac':44s} {failed / attempted:14.6g} "
              f"({failed} of {attempted} operations)")

        traced, _ = run_once(workload, seeds[0], seconds, 1)
        if traced is None or not traced["correct"]:
            print(f"  traced run, seed {seeds[0]}: FAILED")
            ok = False
            traced = {"metrics": {}}
        print(f"  per layer, traced run at seed {seeds[0]}:")
        for name, unit, _ in spans.PER_LAYER_METRICS:
            if name in traced["metrics"]:
                value = traced["metrics"][name]["value"]
                print(f"    {name:44s} {value:14.6g} {unit}")
        entry["workloads"][workload] = {
            "end_to_end": e2e,
            "attempted": attempted, "failed": failed,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    if args.write:
        os.makedirs(os.path.dirname(args.write) or ".", exist_ok=True)
        with open(args.write, "w") as f:
            json.dump(entry, f, indent=2, sort_keys=True)
            f.write("\n")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
