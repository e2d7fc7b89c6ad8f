"""Steadiness study: repeat the benchmark over seeds and report the spread.

    python3 perfbench/study.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs ``run.py`` once per seed and workload, one run at a time, with the
run length from BENCHMARK.json, and prints for each end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the interquartile
range as a share of the median, next to the metric's bound.  The raw runs
are kept in perfbench/out/study-<time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)

    runs = []
    for name in args.workload or names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            *_, reference, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            runs.append({"workload": name, "seed": seed, "exit": proc.returncode,
                         "run_s": time.perf_counter() - t0, "reference": reference,
                         "result": result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed={seed} exit={proc.returncode} run={runs[-1]['run_s']:.1f}s "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"study-{int(time.time())}.json").write_text(json.dumps(runs, indent=1))
    print(f"\n{'workload':24s} {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'iqr/med':>8s} {'bound':>6s}")
    for name in args.workload or names:
        for metric in spec["end_to_end"]:
            vals = [r["result"]["metrics"][metric["name"]]["value"]
                    for r in runs if r["workload"] == name]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"{name:24s} {metric['name']:12s} {med:11.4f} {q1:11.4f} {q3:11.4f} "
                  f"{(q3 - q1) / med:8.2%} {metric['bound']:6.2f}")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
