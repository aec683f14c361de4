"""Check that two source trees give the same bytes, or the same decisions,
for the same seeds.

    python3 tools/same_bytes.py [--tolerance FILE] [--seeds N] PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``blockprune`` package, such as
the ``src/`` of a checkout. For each of four seeded configurations, a micro
run with flips and a checkpoint every epoch, a ResNet-probe variant of it, a
variant whose large per-mask guard fraction makes the guard change the kept
set and a variant with its own sharpness ramp and floor, benefit blend,
learning rate, weight decay and data settings, no mask updates while
sharpening and updates every 3 steps, the script runs ``train``, ``prune``,
``probe`` (on the final and the epoch-1 dense checkpoint), ``report`` (on the
probe directory) and ``eval`` (on the compact and the masked pruned
checkpoint) once per tree. Every command runs in its own subprocess with
that tree alone on ``PYTHONPATH``.

It then compares the two trees' outputs: every ``.csv`` and ``.ckpt`` file
and every command's stdout byte for byte, and every ``.json`` file with the
``started``, ``finished``, ``runtime_sec`` and ``out`` fields left out. It
prints one line per file and exits 1 on any difference. Under each
differing file it prints the first decision that differs, such as a kept
set (the mask elements at 0.5 or above of a masked checkpoint, the
``{kind}_idx`` lists of a compact one), or else the largest relative
difference of a float group; decisions and float groups are as under
``--tolerance`` below.

``--seeds N`` runs every configuration at its own seed and the N - 1 seeds
after it; the runs past the first go to ``{config}-seed{i}``.

``--tolerance FILE`` (JSON, such as ``tools/same_decisions.json``) accepts a
file that differs when it makes the same decisions and its floats agree
within FILE's bounds. Decisions are compared exactly: every CSV, JSON or
stdout value that is not a float literal (phases, epochs, steps, block
indices and types, ``params_remaining``, file names), every checkpoint
header (for a compact one, its ``structure``) and the kept sets of every
masked checkpoint. Floats are compared by group, each group's largest
absolute difference over its largest absolute value in either tree: a CSV
column, a JSON key, the float literals of one stdout file, a checkpoint
tensor. A checkpoint tensor's bound is FILE's ``tensor``; a float group's is
FILE's ``columns`` entry for its name, or else ``float``. The first decision
that differs and every float group out of its bound are printed, and the
script exits 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

MICRO = {
    "model": {"image_size": 8, "patch_size": 4, "embed_dim": 8, "heads": 2,
              "depth": 2, "mlp_ratio": 2.0, "num_classes": 3,
              "patch_head": "pooled-linear"},
    "schedule": {"epochs_warmup": 1, "epochs_sparsify": 1, "epochs_sharpen": 1,
                 "epochs_finetune": 1, "epochs_dense": 2, "batch_size": 16,
                 "probe_epochs": 1, "checkpoint_every": 1},
    "data": {"train_per_class": 6, "val_per_class": 3, "flip": True},
    "pruning": {"keep_ratio": 0.6},
    "seed": 0,
}

# its own seed, patch size, channel count, data noise, budget floor and
# fine-tune learning rate, none at its default, so a run that ignores any of
# them writes other bytes
RESNET = json.loads(json.dumps(MICRO))
RESNET["model"].update(patch_head="resnet", patch_size=2, channels=3)
RESNET["schedule"].update(mask_update_freq=1, epochs_sparsify=2, epochs_finetune=2)
RESNET["data"]["noise"] = 0.5
RESNET["pruning"]["keep_floor"] = 0.4
RESNET["optimizer"] = {"lr_finetune": 2e-3}
RESNET["seed"] = 1

# a guard of 0.3 of every partial mask at keep 0.5 leaves little room above
# the guard floor, so some masks fall short of their guard minimum and the
# guard moves elements across the keep boundary
GUARD = json.loads(json.dumps(MICRO))
GUARD["pruning"].update(keep_ratio=0.5, guard_frac=0.3)

# the sharpness ramp's ends and the sharpen-phase switch come from the config,
# not from defaults of their own; an update every 3 of the 2 steps per epoch
# writes tau between updates, and the floor of 0.1 binds before the last
# sharpen update. The benefit blend, both learning-rate terms and the data
# settings differ from their defaults, so a run that ignores any of them
# writes other bytes
SCHEDULE = json.loads(json.dumps(MICRO))
SCHEDULE["pruning"].update(sharpness=0.2, sharpness_floor=0.1, alpha=1.0)
SCHEDULE["schedule"].update(update_masks_during_sharpen=False, epochs_sparsify=2,
                            epochs_sharpen=2, mask_update_freq=3)
SCHEDULE["data"].update(template_grid=3, normalize=True)
SCHEDULE["optimizer"] = {"lr_model": 1e-3, "weight_decay": 0.01}

CONFIGS = {"micro": MICRO, "resnet": RESNET, "guard": GUARD, "schedule": SCHEDULE}

# (name of the stdout file, command line); paths are relative to the run's
# working directory, so the stdout of both trees names the same paths
COMMANDS = [
    ("train", ["train", "--config", "config.yaml", "--out", "train"]),
    ("prune", ["prune", "--config", "config.yaml", "--out", "prune"]),
    ("probe", ["probe", "--config", "config.yaml", "--out", "probe",
               "train/checkpoint-final.ckpt", "train/checkpoint-epoch0001.ckpt"]),
    ("report", ["report", "probe"]),
    ("eval-compact", ["eval", "--config", "config.yaml", "prune/compact-final.ckpt"]),
    ("eval-masked", ["eval", "--config", "config.yaml", "prune/masked-final.ckpt"]),
]

VOLATILE = {"started", "finished", "runtime_sec", "out"}


def _env(src):
    env = dict(os.environ, PYTHONPATH=str(src))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def _check_import(src):
    """The package a subprocess imports must be the one under ``src``."""
    found = subprocess.run([sys.executable, "-c", "import blockprune; print(blockprune.__file__)"],
                           env=_env(src), capture_output=True, text=True, check=True)
    path = Path(found.stdout.strip()).resolve()
    if src.resolve() not in path.parents:
        sys.exit(f"{src}: imports blockprune from {path}")


def run_tree(src, work, seeds=1):
    """All commands of every configuration at ``seeds`` seeds, with ``src``
    on PYTHONPATH."""
    _check_import(src)
    for (name, raw), i in ((c, i) for c in CONFIGS.items() for i in range(seeds)):
        run_dir = work / (f"{name}-seed{i}" if i else name)
        run_dir.mkdir(parents=True)
        raw = dict(raw, seed=raw["seed"] + i)
        (run_dir / "config.yaml").write_text(yaml.safe_dump(raw, sort_keys=True))
        for label, args in COMMANDS:
            done = subprocess.run([sys.executable, "-m", "blockprune.cli", *args], cwd=run_dir,
                                  env=_env(src), capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"{src}: {name}: blockprune {' '.join(args)} exited "
                         f"{done.returncode}\n{done.stderr}")
            (run_dir / f"stdout-{label}.txt").write_text(done.stdout)


def _without_volatile(value):
    if isinstance(value, dict):
        return {k: _without_volatile(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [_without_volatile(v) for v in value]
    return value


def same(a, b):
    if a.suffix == ".json":
        return _without_volatile(json.loads(a.read_text())) == \
            _without_volatile(json.loads(b.read_text()))
    return a.read_bytes() == b.read_bytes()


def _checkpoint(path):
    """(header, {entry name: array}) of a checkpoint file (docs/format.md)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.read(int(fh.readline().split()[-1])))
        blob = np.frombuffer(fh.read(), dtype="<f4").astype(np.float64)
    return header, {e["name"]: blob[e["offset"]:e["offset"] + math.prod(e["shape"])]
                    .reshape(e["shape"]) for e in header["entries"]}


def _kept_sets(header, tensors):
    if header["kind"] == "compact":
        return header["structure"]
    return {name: (t >= 0.5).tolist() for name, t in tensors.items() if name.startswith("mask.")}


def _relative_difference(a, b):
    """Largest absolute difference over the largest absolute value in either
    array, or over float32's smallest normal number if that is larger."""
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0),
                float(np.finfo(np.float32).tiny))
    return np.max(np.abs(a - b), initial=0.0) / scale


# a float literal as the CLI and the CSV writer print one; integers, names and
# phases are decisions
FLOAT = re.compile(
    r"(?<![\w.])-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|inf|nan)(?![\w.])")


def _parts(path):
    """(decisions, floats) of one output file: ``decisions`` a list of
    (where, value) compared exactly, ``floats`` {group: list of values}
    compared within the group's bound."""
    decisions, floats = [], {}
    if path.suffix == ".ckpt":
        header, tensors = _checkpoint(path)
        decisions += [(f"structure block {i}", b)
                      for i, b in enumerate(header.get("structure", ()))]
        if header["kind"] != "compact":
            decisions += [(f"{name} kept", kept)
                          for name, kept in _kept_sets(header, tensors).items()]
        decisions += [(f"header {k}", v) for k, v in header.items() if k != "structure"]
        floats = {name: t.ravel() for name, t in tensors.items()}
    elif path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        head = rows[0] if rows else []
        decisions.append(("header", head))
        for r, row in enumerate(rows[1:], start=2):
            at = f"line {r} ({head[0]} {row[0]})" if head and row else f"line {r}"
            decisions.append((f"{at} columns", len(row)))
            for col, cell in zip(head, row):
                if FLOAT.fullmatch(cell):
                    floats.setdefault(col, []).append(float(cell))
                else:
                    decisions.append((f"{at} {col}", cell))
    elif path.suffix == ".json":
        def walk(value, at):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, f"{at}.{k}" if at else k)
            elif isinstance(value, list):
                decisions.append((f"{at} length", len(value)))
                for i, v in enumerate(value):
                    walk(v, f"{at}[{i}]")
            elif isinstance(value, float):
                floats.setdefault(re.sub(r"\[\d+\]", "", at), []).append(value)
            else:
                decisions.append((at, value))
        walk(_without_volatile(json.loads(path.read_text())), "")
    else:
        for r, line in enumerate(path.read_text().splitlines(), start=1):
            decisions.append((f"line {r}", FLOAT.sub("#", line)))
            floats.setdefault(path.name, []).extend(map(float, FLOAT.findall(line)))
    return decisions, floats


def _first_difference(decisions_a, decisions_b):
    """One line on the first decision that differs, or None."""
    for (where, x), (_, y) in zip(decisions_a, decisions_b):
        if x != y:
            # down to the first differing element of equal-length lists and dicts
            while (type(x) is type(y) and isinstance(x, (list, dict)) and len(x) == len(y)
                   and (isinstance(x, list) or x.keys() == y.keys())):
                key = next(k for k in (range(len(x)) if isinstance(x, list) else x)
                           if x[k] != y[k])
                where, x, y = f"{where}[{key!r}]", x[key], y[key]
            return f"first decision that differs: {where}: {x!r:.80} != {y!r:.80}"
    if len(decisions_a) != len(decisions_b):
        return "first decision that differs: the number of values"
    return None


def same_decisions(a, b, tolerance):
    """(passes, one line) for two output files: they pass when they make the
    same decisions and every float group agrees within its bound, which is
    unbounded without a ``tolerance``. Equal decisions give equal float
    groups: the same CSV cells, JSON keys, stdout lines and checkpoint
    entries."""
    (da, fa), (db, fb) = _parts(a), _parts(b)
    if failure := _first_difference(da, db):
        return False, failure
    over, largest = [], 0.0
    for group in fa:
        rel = _relative_difference(np.array(fa[group], dtype=np.float64),
                                   np.array(fb[group], dtype=np.float64))
        bound = (math.inf if tolerance is None else tolerance["tensor"] if a.suffix == ".ckpt"
                 else tolerance.get("columns", {}).get(group, tolerance["float"]))
        largest = max(largest, rel)
        if not rel <= bound:
            over.append(f"{group} differs by {rel:.3g} > {bound:g}")
    return not over, "; ".join(over) or f"largest relative difference {largest:.3g}"


def compare(left, right, tolerance=None):
    """Print one line per output file; returns the number that differ, or,
    with a ``tolerance`` dict, the number that fail its check."""
    names = sorted({p.relative_to(left) for p in left.rglob("*") if p.is_file()}
                   | {p.relative_to(right) for p in right.rglob("*") if p.is_file()})
    differ = failed = 0
    for rel in names:
        a, b = left / rel, right / rel
        detail = None
        if not (a.exists() and b.exists()):
            verdict = "only in " + ("parent" if a.exists() else "change")
        elif rel.suffix not in (".csv", ".ckpt", ".json", ".txt", ".yaml"):
            verdict = "unknown file type"
        elif same(a, b):
            verdict = "identical"
        else:
            passes, detail = same_decisions(a, b, tolerance)
            verdict = "DIFFERS" if tolerance is None else "within bounds" if passes else "FAILS"
        differ += verdict != "identical"
        failed += verdict not in ("identical", "within bounds")
        print(f"{verdict:<17} {rel}")
        if detail:
            print(f"{'':<17} {detail}")
    if tolerance is None:
        print(f"{len(names)} files compared, {differ} differ")
        return differ
    print(f"{len(names)} files compared, {differ} differ, {failed} fail the check")
    return failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--tolerance", type=Path)
    p.add_argument("--seeds", type=int, default=1)
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be at least 1")
    tolerance = json.loads(args.tolerance.read_text()) if args.tolerance else None
    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        left, right = Path(tmp) / "parent", Path(tmp) / "change"
        run_tree(parent, left, args.seeds)
        run_tree(change, right, args.seeds)
        return 1 if compare(left, right, tolerance) else 0


if __name__ == "__main__":
    sys.exit(main())
