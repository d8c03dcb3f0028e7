"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads verify-all,figures]
                             [--out bench/work/set.jsonl]

For every workload and seed it runs ``bench/run.py`` once with tracing off
and BENCHMARK.json's ``run_seconds``, appends the result
line (with the seed and the run's elapsed time) to ``--out`` as JSON lines,
and prints per metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
plus the share of failed operations and the mean time per run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=os.path.join(BENCH, "work", "collect.jsonl"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = str(json.load(fh)["run_seconds"])

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(workload=workload, seed=seed, elapsed_s=time.perf_counter() - t0)
            with open(args.out, "a") as fh:
                fh.write(json.dumps(result) + "\n")
            runs.append(result)
            status |= not result["correct"]
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {shares}, "
              f"{statistics.mean(r['elapsed_s'] for r in runs):.1f} s per run")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:40s} median {med:11.5g}  q1 {q1:11.5g}  q3 {q3:11.5g}  "
                  f"spread {spread:7.2%}  {runs[0]['metrics'][name]['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
