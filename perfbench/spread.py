#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload prune-desk24 --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median, quartiles and quartile spread ((q3 - q1) /
median) next to the bound in BENCHMARK.json, and flags every metric
whose spread is not below a third of its bound: a change that worsens
such a metric by less than its bound cannot be told from run-to-run noise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=None,
                   help="defaults to run_seconds from BENCHMARK.json")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} checks failed")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({time.perf_counter() - started:.0f} s): {figures}", flush=True)
    print(f"\n{'metric':34s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} "
          f"{'bound':>6s}")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, q2, q3 = stats.quartiles(xs)
        spread = stats.quartile_spread(xs)
        flag = "" if spread < m["bound"] / 3 else "  <- not steady"
        print(f"{m['name']:34s} {q2:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.4f} "
              f"{m['bound']:6.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
