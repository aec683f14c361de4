"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/ab.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N [--out BENCH.json]

Each argument is the root of a blockprune checkout. Pair k (seeds 1..N)
runs the unchanged ``perfbench/run.py --trace 0`` once in each checkout with
seed k, in ABBA order: parent first in odd pairs, change first in even
ones, so a slow drift of the host weighs on both sides alike. Every run is
its own subprocess, started from its checkout's root.

For every end-to-end metric of ``BENCHMARK.json`` it prints the parent's and
the change's median, the median of the per-pair ratios change / parent with
a distribution-free interval for it (``median_interval``; none below 6
pairs), and the pairs the change won, in the metric's ``better`` direction.
It writes every value, both git shas, both checkouts' directory names and
the lengths of their paths, ``nproc``, ``OPENBLAS_NUM_THREADS`` and the numpy and Python
versions to ``--out``; a file that already holds the same two shas keeps
its other workloads. It warns on stderr when the two paths differ in
length, and exits 1 if any run's ``correct`` is false.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("prune-desk24", "prune-resnet32")


def run_once(root, workload, seed, seconds):
    """The result object of one untraced run in checkout ``root``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{root}: perfbench/run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_interval(ratios):
    """(low, high, coverage) of a distribution-free interval for the median of
    ``ratios``: the order statistics r(k) and r(n + 1 - k), with k the largest
    value for which P(Binom(n, 1/2) <= k - 1) <= 0.025, so that the interval
    misses the median with probability 2 P(Binom(n, 1/2) <= k - 1). None
    below 6 values, where no k qualifies."""
    n = len(ratios)

    def below(k):  # P(Binom(n, 1/2) <= k - 1)
        return sum(math.comb(n, j) for j in range(k)) / 2 ** n

    k = 0
    while below(k + 1) <= 0.025:
        k += 1
    if k == 0:
        return None
    r = sorted(ratios)
    return r[k - 1], r[n - k], 1 - 2 * below(k)


def summarize(pairs, declared):
    """Per end-to-end metric: parent and change medians, median per-pair
    ratio and wins. ``pairs`` is a list of (parent result, change result)
    objects as ``perfbench/run.py`` prints them; ``declared`` the
    ``end_to_end`` list of ``BENCHMARK.json``."""
    rows = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [p["metrics"][name]["value"] for p, _ in pairs]
        b = [c["metrics"][name]["value"] for _, c in pairs]
        ratios = [y / x for x, y in zip(a, b)]
        interval = median_interval(ratios)
        rows[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": a,
            "change": b,
            "parent_median": statistics.median(a),
            "change_median": statistics.median(b),
            "ratios": ratios,
            "ratio_median": statistics.median(ratios),
            "ratio_interval": None if interval is None else list(interval[:2]),
            "interval_coverage": None if interval is None else interval[2],
            "wins": sum((y > x) if higher else (y < x) for x, y in zip(a, b)),
        }
    return rows


def all_correct(pairs):
    return all(run["correct"] for pair in pairs for run in pair)


def print_summary(rows, n):
    coverage = next(iter(rows.values()))["interval_coverage"] if rows else None
    label = f"{coverage:.1%} interval" if coverage else "no interval"
    print(f"{'metric':34s} {'parent':>11s} {'change':>11s} {'ratio':>7s} {label:>16s}  wins")
    for name, r in rows.items():
        interval = "[{:.3f}, {:.3f}]".format(*r["ratio_interval"]) if coverage else "-"
        print(f"{name:34s} {r['parent_median']:11.5g} {r['change_median']:11.5g} "
              f"{r['ratio_median']:7.3f} {interval:>16s}  {r['wins']}/{n} "
              f"({r['better']} is better)")


def checkout_paths(parent, change):
    """Both checkouts' directory names and the lengths of their paths, not
    the paths, which name the host. Warns on stderr when the lengths differ:
    ``prune-resnet32``'s ``peak_rss_mb`` was seen to follow the length of the
    checkout's path (about 139 against 141 MB for a path 4 characters
    longer), so such an A/B can show a memory difference that no code made."""
    paths = {"parent": parent.name, "change": change.name,
             "parent_length": len(str(parent)), "change_length": len(str(change))}
    if paths["parent_length"] != paths["change_length"]:
        print(f"warning: the checkout paths differ in length ({paths['parent_length']} "
              f"against {paths['change_length']} characters); peak_rss_mb may follow "
              "the path, not the code", file=sys.stderr)
    return paths


def git_sha(root):
    """HEAD of ``root``, with ``-dirty`` when the tree has uncommitted changes;
    None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True).stdout.strip()
    sha = git("rev-parse", "HEAD")
    return (sha + ("-dirty" if git("status", "--porcelain") else "")) if sha else None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    paths = checkout_paths(parent, change)
    bench = json.loads((change / "BENCHMARK.json").read_text())

    pairs = []
    for k in range(1, args.pairs + 1):
        order = (parent, change) if k % 2 else (change, parent)
        results = {root: run_once(root, args.workload, k, bench["run_seconds"])
                   for root in order}
        pairs.append((results[parent], results[change]))
        print(f"pair {k}/{args.pairs} done", file=sys.stderr)
    rows = summarize(pairs, bench["end_to_end"])
    print_summary(rows, args.pairs)

    shas = {"parent": git_sha(parent), "change": git_sha(change)}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if not record or {k: record.get(k) for k in shas} != shas:
        record = {**shas, "workloads": {}}
    record["paths"] = paths
    record["nproc"] = len(os.sched_getaffinity(0))
    record["openblas_num_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "")
    record["numpy"] = importlib.metadata.version("numpy")
    record["python"] = platform.python_version()
    record["workloads"][args.workload] = {
        "pairs": args.pairs, "seeds": list(range(1, args.pairs + 1)), "order": "ABBA",
        "correct": [[a["correct"], b["correct"]] for a, b in pairs], "metrics": rows}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0 if all_correct(pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
