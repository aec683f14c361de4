#!/usr/bin/env python3
"""Run one workload of the blockprune benchmark and print its metrics.

    python3 perfbench/run.py --workload prune-desk24 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
traced run first makes an untraced pass, so it can report the tracing
overhead as the difference in ``wall_s``.

A pass does a fixed amount of work, sized so that an untraced run takes
about ``run_seconds`` of ``BENCHMARK.json`` on a 2-core host; a faster
program then does the same work in less time instead of more work.
``--seconds`` is recorded with the result and does not change the work.
Run artifacts (config, metrics CSVs, checkpoints, spans, ``result.json``)
go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("prune-desk24", "prune-resnet32")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="recorded with the result; the work of a run is fixed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse_args(argv)
    # one compute thread; must be set before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "blockprune" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a blockprune checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import environment
    import workloads

    env = environment.record(ROOT)
    if env["blas_threads_exceed_nproc"]:
        print(f"warning: BLAS uses {env['blas']['threads']} threads on "
              f"{env['nproc']} cores; timings are not comparable", file=sys.stderr)
    out_dir = OUT / args.workload
    metrics, notes, _, checks, _ = workloads.run_pass(
        args.workload, args.seed, out_dir, traced=False)
    attempted, failures = checks.attempted, list(checks.failures)
    if args.trace:
        traced, notes, tracer, traced_checks, timeline = workloads.run_pass(
            args.workload, args.seed, out_dir / "traced", traced=True)
        tracer.dump(out_dir / "traced" / "spans.jsonl")
        for csv_name in ("metrics.csv", "updates.csv"):
            traced_checks.check(
                (out_dir / csv_name).read_bytes()
                == (out_dir / "traced" / csv_name).read_bytes(),
                f"tracing changed {csv_name}")
        report = workloads.layer_metrics(tracer, timeline, metrics["wall_s"][0],
                                         traced["wall_s"][0])
        attempted += traced_checks.attempted
        failures += traced_checks.failures
    else:
        report = metrics

    names = declared_metrics(args.trace)
    if set(names) != set(report):
        print(f"error: benchmark reports {sorted(set(report) ^ set(names))} "
              f"differently from BENCHMARK.json", file=sys.stderr)
        return 3

    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name in names:
        value, unit = report[name]
        print(f"{name:44s} {value:>14.6g} {unit}")
    print(f"step tail: p{notes['step_tail_percentile']} of {notes['step_samples']} steps "
          f"({notes['step_tail_samples_beyond']} beyond); "
          f"timed inference forwards per model: {notes['infer_samples_per_model']}")
    dense = metrics["dense_infer_images_per_s"][0]
    k50 = metrics["compact_infer_images_per_s_k50"][0]
    print(f"derived (not gated): compact k50 / dense = {k50 / dense:.3f}x "
          f"(base: dense {dense:.1f} img/s at batch {workloads.INFER_BATCH})")
    for what in failures:
        print(f"CHECK FAILED: {what}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": report[name][0], "unit": report[name][1]}
                    for name in names},
    }
    with open(out_dir / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "notes": notes, "failures": failures,
                   **result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
