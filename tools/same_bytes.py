"""Check that two source trees give the same bytes for the same seeds.

    python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``blockprune`` package, such as
the ``src/`` of a checkout. For each of three seeded configurations, a micro
run with flips and a checkpoint every epoch, a ResNet-probe variant of it and
a variant whose zero input-mask scale makes the per-mask guard reorder the
masks, the script runs ``train``, ``prune``, ``probe`` (on the final and the
epoch-1 dense checkpoint), ``report`` (on the probe directory) and ``eval``
(on the compact and the masked pruned checkpoint) once per tree. Every command runs
in its own subprocess with that tree alone on ``PYTHONPATH``.

It then compares the two trees' outputs: every ``.csv`` and ``.ckpt`` file
and every command's stdout byte for byte, and every ``.json`` file with the
``started``, ``finished``, ``runtime_sec`` and ``out`` fields left out. It
prints one line per file and exits 1 on any difference. Under each
differing checkpoint it prints the largest relative difference of a tensor
(its largest absolute difference over the largest absolute value in
either tree) and whether the kept sets are equal: the mask elements at 0.5 or
above of a masked checkpoint, the ``{kind}_idx`` lists of a compact one.
"""

from __future__ import annotations

import json
import math
import os
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

RESNET = json.loads(json.dumps(MICRO))
RESNET["model"]["patch_head"] = "resnet"
RESNET["schedule"].update(mask_update_freq=1, epochs_sparsify=2, epochs_finetune=2)

# scale 0 ranks every input-mask element below the rest of its block, so
# the input mask falls short of its guard minimum and the guard moves
# elements across the keep boundary
GUARD = json.loads(json.dumps(MICRO))
GUARD["pruning"]["scale_in"] = 0.0

CONFIGS = {"micro": MICRO, "resnet": RESNET, "guard": GUARD}

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


def run_tree(src, work):
    """All commands of every configuration, with ``src`` on PYTHONPATH."""
    _check_import(src)
    for name, raw in CONFIGS.items():
        run_dir = work / name
        run_dir.mkdir(parents=True)
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
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return np.max(np.abs(a - b), initial=0.0) / scale if scale else 0.0


def checkpoint_difference(a, b):
    """One line on how two checkpoints differ."""
    (ha, ta), (hb, tb) = _checkpoint(a), _checkpoint(b)
    kept = "kept sets equal" if _kept_sets(ha, ta) == _kept_sets(hb, tb) else "kept sets DIFFER"
    if {k: t.shape for k, t in ta.items()} != {k: t.shape for k, t in tb.items()}:
        return f"tensor names or shapes differ; {kept}"
    rel = max(_relative_difference(ta[k], tb[k]) for k in ta)
    return f"largest relative tensor difference {rel:.3g}; {kept}"


def compare(left, right):
    """Print one line per output file; returns the number that differ."""
    names = sorted({p.relative_to(left) for p in left.rglob("*") if p.is_file()}
                   | {p.relative_to(right) for p in right.rglob("*") if p.is_file()})
    differ = 0
    for rel in names:
        a, b = left / rel, right / rel
        if not (a.exists() and b.exists()):
            verdict = "only in " + ("parent" if a.exists() else "change")
        elif rel.suffix not in (".csv", ".ckpt", ".json", ".txt", ".yaml"):
            verdict = "unknown file type"
        else:
            verdict = "identical" if same(a, b) else "DIFFERS"
        differ += verdict != "identical"
        print(f"{verdict:<17} {rel}")
        if verdict == "DIFFERS" and rel.suffix == ".ckpt":
            print(f"{'':<17} {checkpoint_difference(a, b)}")
    print(f"{len(names)} files compared, {differ} differ")
    return differ


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        left, right = Path(tmp) / "parent", Path(tmp) / "change"
        run_tree(parent, left)
        run_tree(change, right)
        return 1 if compare(left, right) else 0


if __name__ == "__main__":
    sys.exit(main())
