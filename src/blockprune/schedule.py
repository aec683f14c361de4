"""Four-phase pruning schedule: warm up, sparsify, sharpen, fine-tune.

Every step trains the backbone and the benefit heads together and
accumulates benefit and mask-sensitivity statistics. At update steps past
warm-up, block budgets are recomputed at the current intermediate keep
target and all masks are rebuilt; during sharpening the keep target pins to
its final value, the mask sharpness decays linearly, and (by default) mask
updates stay live so channel reordering continues. After the pruning epochs
the masked channels are physically removed and the compact model trains on.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .bpi import BpAccumulator, BpiHeads
from .budget import allocate, block_importance
from .data import batch_iter
from .errors import BudgetInfeasibleError
from .masking import (BlockGeometry, TaylorAccumulator, guard_minimums,
                      normalize_and_concat, plan_block_budgets, split_by_kind,
                      values_from_order, _guarded_order)
from .optim import AdamW, finite_loss, train_epoch
from .vit import CompactVit, MaskSet, MaskedVit

FROZEN_LR = 1e-8

WARMUP, SPARSIFY, SHARPEN, FINETUNE = "warmup", "sparsify", "sharpen", "finetune"


def intermediate_target(progress, keep_target):
    """Linear ramp of the global keep ratio over the sparsify phase."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError("progress must be in [0, 1]")
    return 1.0 - progress * (1.0 - keep_target)


def sharpness_ramp(progress, init, floor):
    """Linear decay of mask sharpness over the sharpen phase, floored."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError("progress must be in [0, 1]")
    return max(floor, init * (1.0 - progress))


@dataclass
class PruneSchedule:
    epochs_warmup: int
    epochs_sparsify: int
    epochs_sharpen: int
    epochs_finetune: int
    mask_update_freq: int          # steps between updates; 0 resolves to one epoch
    keep_target: float
    sharpness_init: float = 0.1
    sharpness_floor: float = 5e-3
    update_masks_during_sharpen: bool = True

    @classmethod
    def from_config(cls, cfg):
        s, p = cfg.schedule, cfg.pruning
        return cls(epochs_warmup=s.epochs_warmup,
                   epochs_sparsify=s.epochs_sparsify,
                   epochs_sharpen=s.epochs_sharpen,
                   epochs_finetune=s.epochs_finetune,
                   mask_update_freq=s.mask_update_freq,
                   keep_target=p.keep_ratio,
                   sharpness_init=p.sharpness,
                   sharpness_floor=p.sharpness_floor,
                   update_masks_during_sharpen=s.update_masks_during_sharpen)

    @property
    def pruning_epochs(self):
        return self.epochs_warmup + self.epochs_sparsify + self.epochs_sharpen

    def phase_of(self, epoch):
        if epoch < self.epochs_warmup:
            return WARMUP
        if epoch < self.epochs_warmup + self.epochs_sparsify:
            return SPARSIFY
        if epoch < self.pruning_epochs:
            return SHARPEN
        return FINETUNE


def evaluate(model, dataset, batch_size=256, masks=None):
    """Classification accuracy and mean loss over a dataset."""
    correct, total, loss_sum = 0, 0, 0.0
    with ag.no_grad():
        for images, labels in batch_iter(dataset, batch_size, seed=0, epoch=0):
            x = Tensor(images)
            if masks is not None:
                logits, _ = model.forward(x, masks, collect_trace=False)
            else:
                logits = model.forward(x)
            loss = ag.softmax_cross_entropy(logits, labels)
            pred = logits.data.argmax(axis=1)
            correct += int((pred == labels).sum())
            total += len(labels)
            loss_sum += float(loss.data) * len(labels)
    return correct / max(total, 1), loss_sum / max(total, 1)


class MetricsWriter:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.epoch_rows = []
        self.update_rows = []

    def epoch(self, epoch, phase, loss, acc, kappa_global, sharpness):
        self.epoch_rows.append({
            "epoch": epoch, "phase": phase, "loss": f"{loss:.6f}",
            "acc": f"{acc:.6f}", "kappa_global": f"{kappa_global:.6f}",
            "tau": f"{sharpness:.6f}",
        })

    def update(self, step, block_index, block_type, bp_class, bp_patch,
               kappa_block, params_remaining):
        self.update_rows.append({
            "step": step, "block_index": block_index, "block_type": block_type,
            "bp_class": f"{bp_class:.6f}", "bp_patch": f"{bp_patch:.6f}",
            "kappa_block": f"{kappa_block:.6f}", "params_remaining": params_remaining,
        })

    def flush(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(self.out_dir / "metrics.csv",
                  ["epoch", "phase", "loss", "acc", "kappa_global", "tau"], self.epoch_rows)
        write_csv(self.out_dir / "updates.csv",
                  ["step", "block_index", "block_type", "bp_class",
                   "bp_patch", "kappa_block", "params_remaining"], self.update_rows)


class PruningRun:
    """One pruning run over a model/dataset pair."""

    def __init__(self, model: MaskedVit, masks: MaskSet, heads: BpiHeads,
                 schedule: PruneSchedule, train_ds, val_ds, run_config,
                 metrics: MetricsWriter = None, step_callback=None,
                 verify_stop_gradient=False):
        self.model = model
        self.masks = masks
        self.heads = heads
        self.schedule = schedule
        self.train_ds = train_ds
        self.val_ds = val_ds
        self.cfg = run_config
        self.metrics = metrics
        self.step_callback = step_callback
        self.verify_stop_gradient = verify_stop_gradient

        self.steps_per_epoch = max(1, -(-len(train_ds) // run_config.schedule.batch_size))
        freq = schedule.mask_update_freq or self.steps_per_epoch
        self.update_freq = max(1, freq)
        self.sharpness = schedule.sharpness_init
        self.global_step = 0
        self.current_keep = 1.0

        c = model.config
        self.geoms = [BlockGeometry(c.block_type(i), c.mask_sizes(i), c.heads)
                      for i in range(c.num_blocks)]
        sizes = [c.mask_sizes(i) for i in range(c.num_blocks)]
        self.taylor = TaylorAccumulator(sizes)
        self.bp_acc = BpAccumulator(c.num_blocks)
        self.scales = run_config.pruning.mask_scales()

        lr = FROZEN_LR if run_config.frozen else run_config.optimizer.lr_model
        self.model_opt = AdamW(model.parameters(), lr=lr,
                               weight_decay=run_config.optimizer.weight_decay)
        self._check_feasible()

    def _check_feasible(self):
        p = self.cfg.pruning
        totals = np.array([g.total_params for g in self.geoms], dtype=float)
        floor_params = sum(
            g.params_of_counts(guard_minimums(g.sizes, p.guard_frac)) for g in self.geoms)
        if p.keep_ratio * totals.sum() < floor_params:
            raise BudgetInfeasibleError(
                f"keep ratio {p.keep_ratio} is below the guard floor "
                f"({floor_params / totals.sum():.4f} of parameters)")
        if len(self.train_ds) == 0:
            raise ValueError("empty training dataset")

    # -- single training step ---------------------------------------------

    def _train_step(self, x, labels):
        self.global_step += 1
        logits, trace = self.model.forward(x, self.masks)
        task_loss = finite_loss(logits, labels, f"at step {self.global_step}")
        bp_class, bp_patch, head_loss = self.heads.step(trace, labels)
        if self.verify_stop_gradient:
            ag.backward(head_loss)
            for p in self.model.parameters():
                if p.grad is not None and np.any(p.grad != 0):
                    raise AssertionError("benefit-head loss leaked into the backbone")
            ag.backward(task_loss)
        else:
            ag.backward(ag.add(task_loss, head_loss))
        self.taylor.add(self.masks.values(), self.masks.gradients())
        self.bp_acc.add(bp_class, bp_patch)
        self.masks.zero_grads()
        return task_loss

    # -- budget + mask update ----------------------------------------------

    def _update_masks(self, keep_target):
        p = self.cfg.pruning
        bp_class, bp_patch = self.bp_acc.read_and_reset()
        scores = self.taylor.read_and_reset()
        totals, remaining = self.model.param_totals(self.masks)
        denom = remaining if p.remaining_param_importance else totals
        imp = block_importance(bp_class, bp_patch, denom, alpha=p.alpha, eps=p.eps)
        solution = allocate(imp.merged, totals, keep_target, p.keep_floor)
        ranked = [normalize_and_concat(scores[i],
                                       {k: self.scales[k] for k in self.geoms[i].sizes},
                                       tuple(self.geoms[i].sizes))
                  for i in range(len(self.geoms))]
        ks = plan_block_budgets(ranked, self.geoms, solution.keep_ratios, p.guard_frac)
        for i, (r, k) in enumerate(zip(ranked, ks)):
            guards = guard_minimums(r.sizes, p.guard_frac)
            order = _guarded_order(r, k, guards)
            vals = values_from_order(order, k, self.sharpness, p.mask_ref)
            self.masks.set_block(i, split_by_kind(r, vals))
        totals, remaining = self.model.param_totals(self.masks)
        if self.metrics:
            for i in range(len(self.geoms)):
                self.metrics.update(
                    self.global_step, i + 1, self.geoms[i].block_type,
                    bp_class[i], bp_patch[i], remaining[i] / totals[i], int(remaining[i]))

    # -- phase loops ---------------------------------------------------------

    def kappa_global(self):
        totals, remaining = self.model.param_totals(self.masks)
        return float(remaining.sum() / totals.sum())

    def _after_step(self, phase):
        """Mask update when one is due, then the step callback."""
        if self.global_step % self.update_freq == 0:
            s = self.schedule
            sparsify_steps = max(1, s.epochs_sparsify * self.steps_per_epoch)
            sharpen_steps = max(1, s.epochs_sharpen * self.steps_per_epoch)
            warm_steps = s.epochs_warmup * self.steps_per_epoch
            past_warm = self.global_step > warm_steps
            if phase == SHARPEN:
                q = (self.global_step - warm_steps - sparsify_steps) / sharpen_steps
                self.sharpness = sharpness_ramp(min(max(q, 0.0), 1.0),
                                                s.sharpness_init, s.sharpness_floor)
            if past_warm:
                if phase == SPARSIFY:
                    prog = min(1.0, (self.global_step - warm_steps) / sparsify_steps)
                    self.current_keep = intermediate_target(prog, s.keep_target)
                else:
                    self.current_keep = s.keep_target
                if phase != SHARPEN or s.update_masks_during_sharpen:
                    self._update_masks(self.current_keep)
        if self.step_callback:
            self.step_callback(self)

    def _batches(self, epoch):
        return batch_iter(self.train_ds, self.cfg.schedule.batch_size, self.cfg.seed,
                          epoch, flip=self.cfg.data.flip)

    def _run_pruning_epochs(self):
        for epoch in range(self.schedule.pruning_epochs):
            phase = self.schedule.phase_of(epoch)
            loss = train_epoch(self._batches(epoch), [self.model_opt, self.heads.optimizer],
                               self._train_step, lambda: self._after_step(phase))
            acc, _ = evaluate(self.model, self.val_ds, masks=self.masks)
            if self.metrics:
                self.metrics.epoch(epoch, phase, loss, acc, self.kappa_global(),
                                   self.sharpness)

    def _finetune(self, compact, acc):
        """Train the compact model; returns its last validation accuracy, or
        ``acc`` when there are no fine-tune epochs."""
        s, cfg = self.schedule, self.cfg
        lr = cfg.optimizer.lr_finetune or cfg.optimizer.lr_model
        opt = AdamW(compact.parameters(), lr=lr, weight_decay=cfg.optimizer.weight_decay)
        kappa = self.kappa_global()

        def step(x, labels):
            self.global_step += 1
            loss = finite_loss(compact.forward(x), labels, f"at step {self.global_step}")
            ag.backward(loss)
            return loss

        for epoch in range(s.pruning_epochs, s.pruning_epochs + s.epochs_finetune):
            loss = train_epoch(self._batches(epoch), [opt], step)
            acc, _ = evaluate(compact, self.val_ds)
            if self.metrics:
                self.metrics.epoch(epoch, FINETUNE, loss, acc, kappa, self.sharpness)
        return acc

    def run(self):
        """Execute all four phases; returns (compact model, summary dict)."""
        started = time.time()
        self._run_pruning_epochs()
        masked_acc, _ = evaluate(self.model, self.val_ds, masks=self.masks)
        compact = CompactVit.from_masked(self.model, self.masks)
        compact_acc, _ = evaluate(compact, self.val_ds)
        final_acc = self._finetune(compact, compact_acc)
        totals, remaining = self.model.param_totals(self.masks)
        summary = {
            "val_acc_masked": masked_acc,
            "val_acc_compacted": compact_acc,
            "val_acc_final": final_acc,
            "params_total": int(totals.sum()),
            "params_remaining": int(remaining.sum()),
            "keep_ratio_achieved": float(remaining.sum() / totals.sum()),
            "keep_ratio_target": self.schedule.keep_target,
            "per_block_remaining": [int(r) for r in remaining],
            "frozen": self.cfg.frozen,
            "steps": self.global_step,
            "runtime_sec": time.time() - started,
        }
        return compact, summary


def train_dense(model, train_ds, val_ds, cfg, epochs, metrics=None,
                checkpoint_fn=None):
    """Plain supervised training with identity masks (the unpruned baseline)."""
    masks = MaskSet(model.config, dtype=model.dtype)
    opt = AdamW(model.parameters(), lr=cfg.optimizer.lr_model,
                weight_decay=cfg.optimizer.weight_decay)
    acc = 0.0
    for epoch in range(epochs):
        def step(x, labels):
            logits, _ = model.forward(x, masks, collect_trace=False)
            loss = finite_loss(logits, labels, f"in epoch {epoch}")
            ag.backward(loss)
            return loss

        batches = batch_iter(train_ds, cfg.schedule.batch_size, cfg.seed, epoch,
                             flip=cfg.data.flip)
        loss = train_epoch(batches, [opt], step)
        acc, _ = evaluate(model, val_ds, masks=masks)
        if metrics:
            metrics.epoch(epoch, "dense", loss, acc, 1.0, 0.0)
        if checkpoint_fn and cfg.schedule.checkpoint_every and \
                (epoch + 1) % cfg.schedule.checkpoint_every == 0:
            checkpoint_fn(epoch, model, masks)
    return masks, acc


def write_csv(path, fields, rows):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fields)
        w.writeheader()
        w.writerows(rows)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
