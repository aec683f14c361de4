"""Command-line entry point: train, prune, probe, report, eval."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bpi import BpiHeads, probe_checkpoint
from .checkpoint import load, load_masked, save_compact, save_masked
from .config import FLAGS, load_config
from .data import SyntheticSpec, generate_synthetic, load_idx, normalize_images
from .errors import BlockPruneError, ConfigError, DataFormatError
from .schedule import (MetricsWriter, PruneSchedule, PruningRun, evaluate,
                       format_benefit, train_dense, write_csv, write_json)
from .vit import MaskSet, MaskedVit

PROBE_FIELDS = ["checkpoint", "block_index", "block_type", "bp_class", "bp_patch"]
REPORT_UPDATE_FIELDS = ["step", "block_index", "block_type", "kappa_block", "params_remaining"]


def load_datasets(cfg):
    m, d = cfg.model, cfg.data
    if d.source == "synthetic":
        spec = SyntheticSpec(num_classes=m.num_classes, image_size=m.image_size,
                             channels=m.channels, noise=d.noise,
                             train_per_class=d.train_per_class,
                             val_per_class=d.val_per_class,
                             template_grid=d.template_grid, seed=cfg.seed)
        train, val, _ = generate_synthetic(spec)
    else:
        train = load_idx(d.images, d.labels, m.image_size, m.num_classes)
        val = load_idx(d.val_images, d.val_labels, m.image_size, m.num_classes)
    if d.normalize:
        train.images = normalize_images(train.images)
        val.images = normalize_images(val.images)
    return train, val


def write_manifest(out_dir, cfg, command):
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": cfg.resolved(),
        "version": __version__,
        "seed": cfg.seed,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "threads": {
            "cpu_count": os.cpu_count(),
            "openblas": os.environ.get("OPENBLAS_NUM_THREADS", ""),
            "omp": os.environ.get("OMP_NUM_THREADS", ""),
        },
    }
    write_json(out_dir / "manifest.json", manifest)


def read_json_object(path):
    """A JSON file that must hold an object; DataFormatError (exit 5) otherwise."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise DataFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    return obj


def is_number(value):
    """A finite JSON number; a bool is not one."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def read_csv_rows(path, fields):
    """Rows of a CSV file that must have ``fields`` among its columns;
    DataFormatError (exit 5) otherwise."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [f for f in fields if f not in (reader.fieldnames or ())]
    if missing:
        raise DataFormatError(f"{path}: missing columns {', '.join(missing)}")
    return rows


def baseline_accuracy(baseline):
    """``val_acc_final`` of a baseline run directory, or None (with a warning)
    when it has no summary.json."""
    path = Path(baseline) / "summary.json"
    if not path.exists():
        print(f"warning: baseline summary not found under {baseline}", file=sys.stderr)
        return None
    acc = read_json_object(path).get("val_acc_final")
    if not is_number(acc):
        raise DataFormatError(f"{path}: val_acc_final is not a number")
    return acc


def finish_summary(out_dir, summary):
    summary = dict(summary)
    summary["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    summary["files"] = sorted(p.name for p in out_dir.iterdir() if p.is_file())
    write_json(out_dir / "summary.json", summary)


def cmd_train(cfg):
    out_dir = Path(cfg.out)
    write_manifest(out_dir, cfg, "train")
    train_ds, val_ds = load_datasets(cfg)
    model = MaskedVit(cfg.model.vit_config(), seed=cfg.seed)
    metrics = MetricsWriter(out_dir)

    def save_periodic(epoch, model_, masks_):
        save_masked(out_dir / f"checkpoint-epoch{epoch + 1:04d}.ckpt", model_, masks_)

    try:
        masks, acc = train_dense(model, train_ds, val_ds, cfg,
                                 epochs=cfg.schedule.epochs_dense, metrics=metrics,
                                 checkpoint_fn=save_periodic)
    finally:
        metrics.flush()
    save_masked(out_dir / "checkpoint-final.ckpt", model, masks)
    finish_summary(out_dir, {"val_acc_final": acc, "epochs": cfg.schedule.epochs_dense,
                             "mode": "dense"})
    print(f"dense training done: val acc {acc:.4f} -> {out_dir}")
    return 0


def cmd_prune(cfg, baseline=None):
    base_acc = baseline_accuracy(baseline) if baseline else None
    out_dir = Path(cfg.out)
    write_manifest(out_dir, cfg, "prune")
    train_ds, val_ds = load_datasets(cfg)
    model = MaskedVit(cfg.model.vit_config(), seed=cfg.seed)
    masks = MaskSet(model.config)
    heads = BpiHeads(model.config, patch_head=cfg.model.patch_head, seed=cfg.seed + 1)
    metrics = MetricsWriter(out_dir)
    run = PruningRun(model, masks, heads, PruneSchedule.from_config(cfg),
                     train_ds, val_ds, cfg, metrics)
    try:
        compact, summary = run.run()
    finally:
        metrics.flush()
    save_compact(out_dir / "compact-final.ckpt", compact)
    save_masked(out_dir / "masked-final.ckpt", model, masks)
    if base_acc is not None:
        summary["baseline_acc"] = base_acc
        summary["acc_delta_vs_baseline"] = summary["val_acc_final"] - base_acc
    finish_summary(out_dir, summary)
    print(f"pruning done: keep {summary['keep_ratio_achieved']:.4f} "
          f"(target {summary['keep_ratio_target']}), "
          f"val acc {summary['val_acc_final']:.4f} -> {out_dir}")
    return 0


def cmd_probe(cfg, checkpoints):
    out_dir = Path(cfg.out)
    write_manifest(out_dir, cfg, "probe")
    train_ds, val_ds = load_datasets(cfg)
    rows = []
    for path in checkpoints:
        digest_before = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        model, masks = load_masked(path)
        if model.config != cfg.model.vit_config():
            raise ConfigError(f"{path}: checkpoint geometry does not match config")
        frozen_before = [p.data.copy() for p in model.parameters()]
        bp_class, bp_patch = probe_checkpoint(
            model, masks, train_ds, val_ds, epochs=cfg.schedule.probe_epochs,
            patch_head=cfg.model.patch_head, batch_size=cfg.schedule.batch_size,
            seed=cfg.seed)
        for p, before in zip(model.parameters(), frozen_before):
            if not np.array_equal(p.data, before):
                raise AssertionError("probe must leave the backbone untouched")
        if hashlib.sha256(Path(path).read_bytes()).hexdigest() != digest_before:
            raise AssertionError("probe must leave checkpoint files byte-identical")
        for i in range(model.config.num_blocks):
            rows.append({
                "checkpoint": Path(path).name,
                "block_index": i + 1,
                "block_type": model.config.block_type(i),
                "bp_class": format_benefit(bp_class[i]),
                "bp_patch": format_benefit(bp_patch[i]),
            })
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "probe.csv", PROBE_FIELDS, rows)
    print(f"probe done: {len(rows)} rows -> {out_dir / 'probe.csv'}")
    return 0


_NORMS = {"max": lambda v: np.max(np.abs(v)), "mean": lambda v: np.abs(np.mean(v))}


def _normalized_tables(rows):
    """Max- and mean-normalized benefit tables per checkpoint."""
    tables = {flavor: [] for flavor in _NORMS}
    by_ckpt = {}
    for row in rows:
        by_ckpt.setdefault(row["checkpoint"], []).append(row)
    for ckpt, group in by_ckpt.items():
        vals = {col: np.array([float(r[col]) for r in group]) for col in ("bp_class", "bp_patch")}
        for flavor, norm in _NORMS.items():
            scaled = {col: v / (norm(v) or 1.0) for col, v in vals.items()}
            tables[flavor] += [{"checkpoint": ckpt, "block_index": r["block_index"],
                                "block_type": r["block_type"],
                                **{col: format_benefit(v[j]) for col, v in scaled.items()}}
                               for j, r in enumerate(group)]
    return tables


def cmd_report(run_dir):
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataFormatError(f"missing metrics file: {manifest_path}")
    manifest = read_json_object(manifest_path)
    lines = [f"run directory: {run_dir}", f"command: {manifest.get('command')}",
             f"seed: {manifest.get('seed')}"]
    summary_path = run_dir / "summary.json"
    if summary_path.exists():
        summary = read_json_object(summary_path)
        for key in ("val_acc_final", "val_acc_masked", "keep_ratio_achieved",
                    "keep_ratio_target", "params_total", "params_remaining",
                    "baseline_acc", "acc_delta_vs_baseline"):
            if key in summary:
                lines.append(f"{key}: {summary[key]}")
        if "params_total" in summary and "params_remaining" in summary:
            total, remaining = summary["params_total"], summary["params_remaining"]
            if not (is_number(total) and is_number(remaining)) or total == 0:
                raise DataFormatError(f"{summary_path}: params_total and params_remaining "
                                      "must be numbers, params_total not 0")
            reduction = 1 - remaining / total
            lines.append(f"parameter_reduction: {reduction:.4f}")
    metrics_path = run_dir / "metrics.csv"
    if manifest.get("command") in ("train", "prune") and not metrics_path.exists():
        raise DataFormatError(f"missing metrics file: {metrics_path}")
    updates_path = run_dir / "updates.csv"
    if updates_path.exists():
        update_rows = read_csv_rows(updates_path, REPORT_UPDATE_FIELDS)
        if update_rows:
            last_step = update_rows[-1]["step"]
            lines.append("final per-block keep ratios:")
            for row in update_rows:
                if row["step"] == last_step:
                    lines.append(f"  block {row['block_index']:>2} ({row['block_type']}): "
                                 f"kappa {row['kappa_block']}, params {row['params_remaining']}")
    probe_path = run_dir / "probe.csv"
    if probe_path.exists():
        try:
            tables = _normalized_tables(read_csv_rows(probe_path, PROBE_FIELDS))
        except ValueError:
            raise DataFormatError(f"{probe_path}: bp_class and bp_patch must be numbers") from None
        for flavor, table in tables.items():
            out = run_dir / f"probe_norm_{flavor}.csv"
            write_csv(out, PROBE_FIELDS, table)
            lines.append(f"wrote {out.name} ({flavor}-normalized benefit)")
    print("\n".join(lines))
    return 0


def cmd_eval(cfg, checkpoint):
    _, val_ds = load_datasets(cfg)
    model, masks = load(checkpoint)
    if model.config != cfg.model.vit_config():
        raise ConfigError(f"{checkpoint}: checkpoint geometry does not match config")
    acc, loss = evaluate(model, val_ds, masks=masks)
    print(f"{checkpoint}: val acc {acc:.4f}, val loss {loss:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="blockprune",
                                     description="benefit-driven transformer pruning")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output run directory")
        p.add_argument("--keep-ratio", type=float, default=None, dest="keep_ratio")
        p.add_argument("--frozen", action="store_true", default=None,
                       help="freeze the backbone during the pruning phases")

    p_train = sub.add_parser("train", help="train an unpruned baseline")
    common(p_train)
    p_prune = sub.add_parser("prune", help="run the full pruning schedule")
    common(p_prune)
    p_prune.add_argument("--baseline", default=None,
                         help="run directory of a dense baseline for the accuracy delta")
    p_probe = sub.add_parser("probe", help="benefit curves of frozen checkpoints")
    common(p_probe)
    p_probe.add_argument("checkpoints", nargs="+")
    p_report = sub.add_parser("report", help="summarize a finished run directory")
    p_report.add_argument("run_dir")
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the val split")
    common(p_eval)
    p_eval.add_argument("checkpoint")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.run_dir)
        cfg = load_config(args.config, {key: getattr(args, key) for key in FLAGS})
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "prune":
            return cmd_prune(cfg, baseline=args.baseline)
        if args.command == "probe":
            return cmd_probe(cfg, args.checkpoints)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        raise ConfigError(f"unknown command {args.command}")
    except BlockPruneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return DataFormatError.exit_code


if __name__ == "__main__":
    sys.exit(main())
