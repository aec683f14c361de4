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
from .bpi import BpiHeads
from .budget import allocate, block_importance
from .checkpoint import atomic_open
from .data import batch_iter
from .errors import BudgetInfeasibleError
from .masking import (RunningMean, TaylorAccumulator, guard_minimums,
                      normalize_and_concat, plan_block_budgets, split_by_kind,
                      values_from_order, _guarded_order)
from .optim import AdamW, train_epoch
from .vit import BlockGeometry, CompactVit, MaskSet, MaskedVit

WARMUP, SPARSIFY, SHARPEN, FINETUNE = "warmup", "sparsify", "sharpen", "finetune"

# every CSV writes benefit columns with 7 significant digits: a benefit can be far below 1e-3
format_benefit = "{:.6e}".format


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
    """The run's clock; every other setting comes from the run config."""
    epochs_warmup: int
    epochs_sparsify: int
    epochs_sharpen: int
    epochs_finetune: int
    mask_update_freq: int          # steps between updates; 0 resolves to one epoch
    keep_target: float

    @classmethod
    def from_config(cls, cfg):
        s = cfg.schedule
        return cls(s.epochs_warmup, s.epochs_sparsify, s.epochs_sharpen, s.epochs_finetune,
                   s.mask_update_freq, cfg.pruning.keep_ratio)

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


def evaluate(model, dataset, masks=None):
    """Classification accuracy and mean loss over a dataset, in batches of 256."""
    correct, total, loss_sum = 0, 0, 0.0
    with ag.no_grad():
        for images, labels in batch_iter(dataset, 256, seed=0, epoch=0):
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
            "bp_class": format_benefit(bp_class), "bp_patch": format_benefit(bp_patch),
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
        self.metrics = metrics or MetricsWriter(None)  # in memory unless given
        self.step_callback = step_callback
        self.verify_stop_gradient = verify_stop_gradient

        self.steps_per_epoch = max(1, -(-len(train_ds) // run_config.schedule.batch_size))
        freq = schedule.mask_update_freq or self.steps_per_epoch
        self.update_freq = max(1, freq)
        # the last step of the last phase that updates masks always updates them
        last = (schedule.pruning_epochs if run_config.schedule.update_masks_during_sharpen
                else schedule.epochs_warmup + schedule.epochs_sparsify)
        self.last_update_step = last * self.steps_per_epoch
        self.sharpness = run_config.pruning.sharpness
        self.global_step = 0
        self.current_keep = 1.0

        c = model.config
        self.geoms = [BlockGeometry(c.block_type(i), c.mask_sizes(i), c.heads)
                      for i in range(c.num_blocks)]
        sizes = [c.mask_sizes(i) for i in range(c.num_blocks)]
        self.taylor = TaylorAccumulator(sizes)
        self.bp_acc = RunningMean([{"class": c.num_blocks, "patch": c.num_blocks}])

        for t in model.parameters():  # frozen: constants, yet the masks still get gradients
            t.requires_grad = not run_config.frozen
        self.model_opt = AdamW([t for t in model.parameters() if t.requires_grad],
                               lr=run_config.optimizer.lr_model,
                               weight_decay=run_config.optimizer.weight_decay)
        self._check_feasible()

    def _check_feasible(self):
        """The schedule's keep target must be at most 1 and reach both the
        allocator's keep floor and the parameter share the per-mask guard
        minimums keep."""
        p, target = self.cfg.pruning, self.schedule.keep_target
        guard_share = sum(g.params_of_counts(guard_minimums(g.sizes, p.guard_frac))
                          for g in self.geoms) / sum(g.total_params for g in self.geoms)
        if not max(p.keep_floor, guard_share) <= target <= 1:
            raise BudgetInfeasibleError(
                f"keep target {target} is above 1, or below the keep floor "
                f"{p.keep_floor} or the guard floor ({guard_share:.4f} of parameters)")
        if len(self.train_ds) == 0:
            raise ValueError("empty training dataset")

    # -- single training step ---------------------------------------------

    def _train_step(self, x, labels):
        self.global_step += 1
        logits, trace = self.model.forward(x, self.masks)
        task_loss = ag.softmax_cross_entropy(logits, labels)
        bp_class, bp_patch, _ = self.heads.step(trace, labels)  # heads' backward runs here
        if self.verify_stop_gradient:
            for p in self.model.parameters():
                if p.grad is not None and np.any(p.grad != 0):
                    raise AssertionError("benefit-head loss leaked into the backbone")
        ag.backward(task_loss)
        self.taylor.add(self.masks.values(), self.masks.gradients())
        self.bp_acc.add([{"class": bp_class, "patch": bp_patch}])
        self.masks.zero_grads()
        return task_loss

    # -- budget + mask update ----------------------------------------------

    def _update_masks(self, keep_target):
        p = self.cfg.pruning
        (bp,) = self.bp_acc.read_and_reset()
        bp_class, bp_patch = bp["class"], bp["patch"]
        scores = self.taylor.read_and_reset()
        totals, remaining = self.model.param_totals(self.masks)
        imp = block_importance(bp_class, bp_patch, remaining, alpha=p.alpha)
        solution = allocate(imp.merged, totals, keep_target, p.keep_floor)
        ranked = [normalize_and_concat(scores[i], dict.fromkeys(g.sizes, 1.0), tuple(g.sizes))
                  for i, g in enumerate(self.geoms)]
        ks = plan_block_budgets(ranked, self.geoms, solution.keep_ratios, p.guard_frac)
        for i, (r, k) in enumerate(zip(ranked, ks)):
            guards = guard_minimums(r.sizes, p.guard_frac)
            order = _guarded_order(r, k, guards)
            vals = values_from_order(order, k, self.sharpness)
            self.masks.set_block(i, split_by_kind(r, vals))
        totals, remaining = self.model.param_totals(self.masks)
        for i in range(len(self.geoms)):
            self.metrics.update(
                self.global_step, i + 1, self.geoms[i].block_type,
                bp_class[i], bp_patch[i], remaining[i] / totals[i], int(remaining[i]))

    # -- phase loops ---------------------------------------------------------

    def kappa_global(self):
        totals, remaining = self.model.param_totals(self.masks)
        return float(remaining.sum() / totals.sum())

    def _after_step(self, phase):
        """Mask update when one is due past warm-up, then the step callback."""
        due = self.global_step % self.update_freq == 0 or self.global_step == self.last_update_step
        if phase != WARMUP and due:
            s, p = self.schedule, self.cfg.pruning
            warm_steps = s.epochs_warmup * self.steps_per_epoch
            sparsify_steps = s.epochs_sparsify * self.steps_per_epoch
            if phase == SPARSIFY:
                prog = (self.global_step - warm_steps) / sparsify_steps
                self.current_keep = intermediate_target(prog, s.keep_target)
            else:
                self.current_keep = s.keep_target
            if phase == SHARPEN:
                q = ((self.global_step - warm_steps - sparsify_steps)
                     / (s.epochs_sharpen * self.steps_per_epoch))
                self.sharpness = sharpness_ramp(q, p.sharpness, p.sharpness_floor)
            if phase != SHARPEN or self.cfg.schedule.update_masks_during_sharpen:
                self._update_masks(self.current_keep)
        if self.step_callback:
            self.step_callback(self)

    def _where(self):
        return f"at step {self.global_step}"

    def _batches(self, epoch):
        return batch_iter(self.train_ds, self.cfg.schedule.batch_size, self.cfg.seed,
                          epoch, flip=self.cfg.data.flip)

    def _epochs(self, epochs, model, masks, optimizers, step, after_step=None, acc=None):
        """Each epoch in ``epochs``: train ``model`` on its batches, evaluate
        it and write one metrics row. Returns the last validation accuracy,
        or ``acc`` when ``epochs`` is empty."""
        for epoch in epochs:
            phase = self.schedule.phase_of(epoch)
            loss = train_epoch(self._batches(epoch), optimizers, step, self._where,
                               after_step and (lambda: after_step(phase)))
            acc, _ = evaluate(model, self.val_ds, masks=masks)
            self.metrics.epoch(epoch, phase, loss, acc, self.kappa_global(), self.sharpness)
        return acc

    def run(self):
        """Execute all four phases; returns (compact model, summary dict)."""
        started = time.time()
        s, opt_cfg = self.schedule, self.cfg.optimizer
        self._epochs(range(s.pruning_epochs), self.model, self.masks,
                     [self.model_opt, self.heads.optimizer], self._train_step, self._after_step)
        masked_acc, _ = evaluate(self.model, self.val_ds, masks=self.masks)
        compact = CompactVit.from_masked(self.model, self.masks)
        compact_acc, _ = evaluate(compact, self.val_ds)
        lr = opt_cfg.lr_model if opt_cfg.lr_finetune is None else opt_cfg.lr_finetune
        opt = AdamW(compact.parameters(), lr=lr, weight_decay=opt_cfg.weight_decay)

        def finetune_step(x, labels):
            self.global_step += 1
            loss = ag.softmax_cross_entropy(compact.forward(x), labels)
            ag.backward(loss)
            return loss

        final_acc = self._epochs(range(s.pruning_epochs, s.pruning_epochs + s.epochs_finetune),
                                 compact, None, [opt], finetune_step, acc=compact_acc)
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
    for t in masks.tensors():  # constants: only a pruning run reads mask gradients
        t.requires_grad = False
    opt = AdamW(model.parameters(), lr=cfg.optimizer.lr_model,
                weight_decay=cfg.optimizer.weight_decay)
    acc = 0.0
    for epoch in range(epochs):
        def step(x, labels):
            logits, _ = model.forward(x, masks, collect_trace=False)
            loss = ag.softmax_cross_entropy(logits, labels)
            ag.backward(loss)
            return loss

        batches = batch_iter(train_ds, cfg.schedule.batch_size, cfg.seed, epoch,
                             flip=cfg.data.flip)
        loss = train_epoch(batches, [opt], step, lambda: f"in epoch {epoch}")
        acc, _ = evaluate(model, val_ds, masks=masks)
        if metrics:
            metrics.epoch(epoch, "dense", loss, acc, 1.0, 0.0)
        if checkpoint_fn and cfg.schedule.checkpoint_every and \
                (epoch + 1) % cfg.schedule.checkpoint_every == 0:
            checkpoint_fn(epoch, model, masks)
    return masks, acc


def write_csv(path, fields, rows):
    with atomic_open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fields)
        w.writeheader()
        w.writerows(rows)


def write_json(path, obj):
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
