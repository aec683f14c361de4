"""Workloads of the blockprune benchmark.

Every workload is one closed loop with a single client, the training or
inference loop itself, on one compute thread. A pass does a fixed amount
of work, whatever the speed of the host or of the program:

1. inference set-up: masks at keep 0.3/0.5/0.7 from seeded scores through
   the public budget and masking functions, ``CompactVit.from_masked``,
   ``save_compact`` then ``load_compact``;
2. ``cli.cmd_prune`` on the workload's config, the ``blockprune prune``
   path itself, with ``cli.PruningRun`` rebound to a subclass that passes
   the benchmark's step callback. Its set-up, from ``load_config`` to
   ``PruningRun.run``, is timed; so are ``SETUP_REPEATS - 1`` more
   set-ups, ``cmd_prune`` calls stopped where ``run`` would start, made
   in the step callback at evenly spaced pruning steps. The callback also
   times ``INFER_PER_MODEL`` no-grad forwards at batch 256 of each
   inference model, rotating over the models at evenly spaced pruning
   steps. The callbacks' time is taken out of the step times, the phase
   times and ``wall_s``;
3. output checks, counted into ``attempted``/``failed``.

Spreading the set-ups and inference forwards over the run makes their
median sample the same stretch of time as the step times: on a shared
host, speed drifts by 10-30 % within a minute, and samples bunched at one
end of a run measured that drift instead of the program.

The program only sees the generated config file and synthetic data.
"""

from __future__ import annotations

import csv
import math
import os
import resource
import shutil
import statistics
from collections import Counter
from time import perf_counter

import numpy as np
import yaml

from blockprune import autograd as ag
from blockprune import bpi, budget, checkpoint, cli, config, data, masking, optim, schedule, vit

import stats
from tracer import ATTRS, END, NAME, PARENT, START, Tracer, duration, has_ancestor, \
    outermost_busy, self_times

# The data and learning rate make the shortened schedule train: on every
# seed tried the training loss falls through the pruning phases and
# fine-tuning ends at 0.9-1.0 accuracy, so a change that breaks training
# shows in the loss checks below and in val_acc_final. Per-image
# normalisation, a coarse template grid and low noise make the classes
# separable in a few epochs; with the program's default data (noise 0.3,
# grid 8, no normalisation) the model stays at chance for this many steps.
# At learning rates of 1.5e-3 and up, some seeds stall for epochs at a few
# classes right.
DATA = {"noise": 0.02, "template_grid": 3, "normalize": True}
LR = 1e-3

WORKLOADS = {
    "prune-desk24": {
        "model": {"image_size": 24, "patch_size": 4, "embed_dim": 64, "heads": 4,
                  "depth": 6, "mlp_ratio": 4.0, "num_classes": 10,
                  "patch_head": "pooled-linear"},
        "schedule": {"epochs_warmup": 1, "epochs_sparsify": 2, "epochs_sharpen": 1,
                     "epochs_finetune": 4, "batch_size": 64},
        "data": {"train_per_class": 60, "val_per_class": 24, **DATA},
        "pruning": {"keep_ratio": 0.5},
        "optimizer": {"lr_model": LR},
    },
    "prune-resnet32": {
        "model": {"image_size": 32, "patch_size": 4, "embed_dim": 64, "heads": 4,
                  "depth": 6, "mlp_ratio": 4.0, "num_classes": 10,
                  "patch_head": "resnet"},
        "schedule": {"epochs_warmup": 1, "epochs_sparsify": 1, "epochs_sharpen": 1,
                     "epochs_finetune": 8, "batch_size": 16},
        "data": {"train_per_class": 16, "val_per_class": 10, **DATA},
        "pruning": {"keep_ratio": 0.5},
        "optimizer": {"lr_model": LR},
    },
}

SETUP_REPEATS = 15
INFER_BATCH = 256
INFER_KEEPS = (0.3, 0.5, 0.7)
INFER_PER_MODEL = 5      # timed forwards of each inference model
INFER_SHARPNESS = 5e-3
CHECK_BATCH = 32  # images in the compact-vs-dense and save/load logit checks
# compact vs hard-masked dense logits in float32, |a - b| <= ATOL + RTOL * |b|
# elementwise: the compact model drops terms that the hard masks zero, so
# the two differ by rounding only (at most 1.4e-7 on logits below 0.31 at
# 24 and 32 px); the tolerance leaves about a hundredfold margin
LOGIT_ATOL = 1e-5
LOGIT_RTOL = 1e-4
# training must show in metrics.csv: the last epoch's mean training loss of
# the pruning phases, and of fine-tuning, at most this share of the first
LOSS_FALL = 0.9
# and the fine-tuned model well above chance (0.1 for ten classes)
MIN_VAL_ACC = 0.5

PRIMITIVES = ("matmul", "mul", "add", "gelu", "layernorm", "softmax",
              "softmax_cross_entropy", "transpose", "slice_axis", "concat", "mean",
              "conv2d_3x3", "take_last", "scatter_last")
PHASES = (schedule.WARMUP, schedule.SPARSIFY, schedule.SHARPEN, schedule.FINETUNE)


class Checks:
    """Output checks; every check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)


# ---------------------------------------------------------------------------
# set-up


def write_config(name, out_dir):
    path = out_dir / f"{name}.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(WORKLOADS[name], fh, sort_keys=True)
    return path


class SetupDone(Exception):
    """Ends a set-up-only ``cmd_prune`` where ``PruningRun.run`` would start."""


# ---------------------------------------------------------------------------
# instrumentation


def forward_namer(base):
    return lambda args: base if ag.tape.enabled else base + "_nograd"


def patch_timeline(tracer):
    """The few spans the end-to-end metrics need: the run, ``evaluate`` and
    the compact model's forward, whose training calls delimit fine-tune steps.

    They fire a few times per epoch, so they stay on in untraced runs.
    """
    tracer.patch_attr(schedule.PruningRun, "run",
                      tracer.wrap("schedule.run", schedule.PruningRun.run))
    tracer.patch_function(schedule.evaluate, tracer.wrap("schedule.evaluate", schedule.evaluate))
    tracer.patch_attr(vit.CompactVit, "forward", tracer.wrap(
        None, vit.CompactVit.forward, namer=forward_namer("vit.compact_forward")))


def patch_layers(tracer):
    """Spans at every public function the per-layer metrics name."""
    for prim in PRIMITIVES:
        fn = getattr(ag, prim)
        tracer.patch_function(fn, tracer.wrap(f"autograd.{prim}", fn))
    tracer.patch_function(ag.backward, tracer.wrap(
        "autograd.backward", ag.backward, note=lambda args: {"tape": len(ag.tape)}))
    tracer.patch_attr(vit.MaskedVit, "forward", tracer.wrap(
        None, vit.MaskedVit.forward, namer=forward_namer("vit.masked_forward")))
    from_masked = vit.CompactVit.__dict__["from_masked"].__func__
    tracer.patch_attr(vit.CompactVit, "from_masked",
                      classmethod(tracer.wrap("vit.from_masked", from_masked)))

    tracer.patch_attr(bpi.BpiHeads, "step", tracer.wrap("bpi.heads_step", bpi.BpiHeads.step))
    tracer.patch_attr(optim.AdamW, "step", tracer.wrap("optim.adamw_step", optim.AdamW.step))

    tracer.patch_attr(masking.TaylorAccumulator, "add", tracer.wrap(
        "masking.taylor_add", masking.TaylorAccumulator.add))
    tracer.patch_function(masking.plan_block_budgets, tracer.wrap(
        "masking.plan_block_budgets", masking.plan_block_budgets))
    # the per-block mask build inside the schedule's update; only the
    # schedule's names are rebound, because plan_block_budgets calls
    # _guarded_order many times from inside masking
    for name in ("normalize_and_concat", "_guarded_order", "values_from_order"):
        tracer.patch_attr(schedule, name,
                          tracer.wrap("masking.mask_build", getattr(schedule, name)))
    set_block = vit.MaskSet.set_block

    def set_block_noting_change(self, i, new_values):
        before = {k: self.blocks[i][k].data >= 0.5 for k in new_values}
        set_block(self, i, new_values)
        changed = any(not np.array_equal(before[k], self.blocks[i][k].data >= 0.5)
                      for k in new_values)
        tracer.annotate({"changed": changed})

    tracer.patch_attr(vit.MaskSet, "set_block",
                      tracer.wrap("masking.mask_build", set_block_noting_change))

    tracer.patch_function(budget.block_importance, tracer.wrap(
        "budget.block_importance", budget.block_importance))
    tracer.patch_function(budget.allocate, tracer.wrap("budget.allocate", budget.allocate))

    tracer.patch_attr(schedule.MetricsWriter, "flush", tracer.wrap(
        "schedule.metrics_flush", schedule.MetricsWriter.flush))
    for fn in (checkpoint.save_compact, checkpoint.save_masked):
        tracer.patch_function(fn, tracer.wrap(
            "checkpoint.save", fn, note=lambda args: {"path": str(args[0])}))
    tracer.patch_function(checkpoint.load_compact, tracer.wrap(
        "checkpoint.load", checkpoint.load_compact))

    tracer.patch_function(data.generate_synthetic, tracer.wrap(
        "data.generate_synthetic", data.generate_synthetic))
    tracer.patch_function(data.batch_iter, tracer.wrap_generator(
        "data.batch_iter", data.batch_iter))
    tracer.patch_function(config.load_config, tracer.wrap(
        "config.load_config", config.load_config))


# ---------------------------------------------------------------------------
# one pass of a workload


def run_pass(name, seed, out_dir, traced):
    """One full pass; returns (end-to-end metrics, notes, tracer, checks, timeline)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cfg_path = write_config(name, out_dir)
    checks = Checks()
    tracer = Tracer(run_id=f"{name}-seed{seed}-{'traced' if traced else 'untraced'}")
    callbacks = []  # (entered, left) of every step callback
    setup_times = []
    setup_due, infer_due = Counter(), Counter()
    pruned = {}  # the pass's PruningRun, when its set-up began and when it ran

    def load_config(out):
        return config.load_config(str(cfg_path), {"seed": seed, "out": str(out)})

    class BenchRun(schedule.PruningRun):
        """The run ``cmd_prune`` builds, with the benchmark's step callback.
        The pass's first run trains; every later one is a set-up, stopped
        where training would start."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, step_callback=on_step, **kwargs)

        def run(self):
            if "run" in pruned:
                raise SetupDone
            pruned.update(run=self, started=perf_counter())
            setup_times.append(pruned["started"] - pruned["entered"])
            steps = self.steps_per_epoch * self.schedule.pruning_epochs
            setup_due.update(spaced(steps, SETUP_REPEATS - 1))
            infer_due.update(spaced(steps, INFER_PER_MODEL * len(inference.forwards)))
            compact, pruned["summary"] = super().run()
            return compact, pruned["summary"]

    def timed_setup():
        t = perf_counter()
        with tracer.span("bench.setup"):
            try:
                cli.cmd_prune(load_config(out_dir / "setup"))
            except SetupDone:
                pass
        setup_times.append(perf_counter() - t)

    def on_step(run):
        entered = perf_counter()
        step = len(callbacks)
        for _ in range(setup_due[step]):
            timed_setup()
        if infer_due[step]:
            with tracer.span("bench.infer"):
                for _ in range(infer_due[step]):
                    inference.sample()
        callbacks.append((entered, perf_counter()))

    tracer.patch_attr(cli, "PruningRun", BenchRun)
    patch_timeline(tracer)
    if traced:
        patch_layers(tracer)
    try:
        with tracer.span("bench.infer"):
            inference = Inference(load_config(out_dir).model.vit_config(), seed, out_dir,
                                  tracer, checks)
        pruned["entered"] = perf_counter()
        cli.cmd_prune(load_config(out_dir))
        ended = perf_counter()
        run, summary = pruned["run"], pruned["summary"]
        with tracer.span("bench.check"):
            check_prune(run, summary, out_dir, checks)
    finally:
        tracer.unpatch()

    timeline = prune_timeline(tracer.spans, callbacks, run)
    rates = inference.rates()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (ended - pruned["started"] - timeline["paused_s"], "s"),
        "train_images_per_s": (timeline["train_images"] / sum(timeline["steps"]), "img/s"),
        "step_ms_p50": (1e3 * statistics.median(timeline["steps"]), "ms"),
        "step_ms_tail": (1e3 * timeline["tail"][1], "ms"),
        "finetune_images_per_s": (statistics.median(timeline["finetune_rates"]), "img/s"),
        "eval_images_per_s": (statistics.median(timeline["eval_rates"]), "img/s"),
        "dense_infer_images_per_s": (rates["dense"], "img/s"),
    }
    for keep in INFER_KEEPS:
        key = f"k{round(100 * keep)}"
        metrics[f"compact_infer_images_per_s_{key}"] = (rates[key], "img/s")
    metrics["val_acc_final"] = (summary["val_acc_final"], "frac")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["checks_ok_frac"] = (1.0 - checks.failed / checks.attempted, "frac")
    notes = {
        "step_tail_percentile": timeline["tail"][0],
        "step_tail_samples_beyond": timeline["tail"][2],
        "step_samples": len(timeline["steps"]),
        "infer_samples_per_model": inference.fewest(),
        "keep_ratio_achieved": summary["keep_ratio_achieved"],
        "setup_s_samples": setup_times,
    }
    return metrics, notes, tracer, checks, timeline


def spaced(steps, n):
    """``n`` evenly spaced indices among ``steps`` step indices, as a count
    per index; an index repeats when ``n`` exceeds ``steps``."""
    return Counter((2 * j + 1) * steps // (2 * n) for j in range(n))


def prune_timeline(spans, callbacks, pruning):
    """Steps, phases and throughput of the prune path from the recorded spans.

    A step runs from the end of the previous step's callback (or of the
    epoch's ``evaluate``, or from the start of ``run``) to the start of its
    own callback, so it includes mask updates and leaves out evaluation and
    the benchmark's callbacks, whose total is ``paused_s``. Step spans are
    added to ``spans`` as children of the run span, and the run span's
    direct children inside a step are moved under it.
    """
    run_i = next(i for i, sp in enumerate(spans) if sp[NAME] == "schedule.run")
    run = spans[run_i]
    evals = [i for i, sp in enumerate(spans)
             if sp[NAME] == "schedule.evaluate" and sp[PARENT] == run_i]
    sched, n_train, n_val = pruning.schedule, len(pruning.train_ds), len(pruning.val_ds)
    pruning_epochs = sched.pruning_epochs

    intervals, prev, ends = [], run[START], sorted(spans[i][END] for i in evals)
    k = 0
    for entered, left in callbacks:
        while k < len(ends) and ends[k] <= entered:
            prev = max(prev, ends[k])
            k += 1
        intervals.append((prev, entered))
        prev = left
    first_step = len(spans)
    for a, b in intervals:
        spans.append(["schedule.step", a, b, run_i, None])
    step_of = {}
    for i, sp in enumerate(spans[:first_step]):
        if sp[PARENT] == run_i:
            for j, (a, b) in enumerate(intervals):
                if a <= sp[START] and sp[END] <= b:
                    step_of[i] = first_step + j
                    break
    for i, j in step_of.items():
        spans[i][PARENT] = j

    def paused(a, b):
        return sum(left - entered for entered, left in callbacks if a <= entered < b)

    phase_s = dict.fromkeys(PHASES, 0.0)
    prev = run[START]
    for epoch, i in enumerate(evals[:pruning_epochs]):
        phase_s[sched.phase_of(epoch)] += spans[i][END] - prev - paused(prev, spans[i][END])
        prev = spans[i][END]
    phase_s[schedule.FINETUNE] = run[END] - prev

    # a fine-tune step runs from its training forward to the next one, or
    # to the evaluation that ends its epoch
    starts = [sp[START] for sp in spans[:first_step]
              if sp[NAME] == "vit.compact_forward" and sp[PARENT] == run_i]
    eval_starts = [spans[i][START] for i in evals]
    batch = pruning.cfg.schedule.batch_size
    sizes = [min(batch, n_train - k) for k in range(0, n_train, batch)]
    finetune_rates = []
    for j, (a, size) in enumerate(zip(starts, sizes * sched.epochs_finetune)):
        b = min([t for t in starts[j + 1:] + eval_starts if t > a])
        finetune_rates.append(size / (b - a))
    steps = [b - a for a, b in intervals]
    return {
        "steps": steps,
        "tail": stats.tail_percentile(steps),
        "train_images": pruning_epochs * n_train,
        "finetune_rates": finetune_rates,
        "eval_rates": [n_val / duration(spans[i]) for i in evals],
        "phase_s": phase_s,
        "paused_s": paused(run[START], run[END]),
        "step_spans": range(first_step, len(spans)),
    }


# ---------------------------------------------------------------------------
# compact inference


def seeded_masks(model, keep, rng):
    """Masks at a global keep target from seeded statistics, built through
    the program's budget and masking functions as the schedule does."""
    c = model.config
    masks = vit.MaskSet(c, dtype=model.dtype)
    geoms = [masking.BlockGeometry(c.block_type(i), c.mask_sizes(i), c.heads)
             for i in range(c.num_blocks)]
    totals = np.array([g.total_params for g in geoms], dtype=float)
    imp = rng.uniform(0.5, 1.5, c.num_blocks)
    solution = budget.allocate(imp / imp.sum(), totals, keep, keep_floor=0.05)
    ranked = [masking.normalize_and_concat({k: rng.uniform(size=n) for k, n in g.sizes.items()},
                                           {k: 1.0 for k in g.sizes}, tuple(g.sizes))
              for g in geoms]
    ks = masking.plan_block_budgets(ranked, geoms, solution.keep_ratios)
    for i, (r, k) in enumerate(zip(ranked, ks)):
        order = masking._guarded_order(r, k, masking.guard_minimums(r.sizes))
        vals = masking.values_from_order(order, k, INFER_SHARPNESS)
        out, start = {}, 0
        for kind, size in r.sizes.items():
            out[kind] = vals[start:start + size]
            start += size
        masks.set_block(i, out)
    return masks, geoms


def channel_quantum(geoms):
    """Largest parameter step of one kept element (the acceptance-8 rule)."""
    return max(3 * g.heads * g.sizes[g.inner_kind] + 1 for g in geoms)


class Inference:
    """The compact-inference loop: a fresh model of the run's geometry, its
    compact versions at each keep, and timed no-grad forwards at batch 256.

    ``sample`` times one forward of the next model in rotation, so the
    forwards can be spread over the run. There is no untimed warm-up
    forward; the median leaves out a slow first one."""

    def __init__(self, c, seed, out_dir, tracer, checks):
        rng = np.random.default_rng([seed, 1])
        model = vit.MaskedVit(c, seed=seed + 2)
        images = ag.Tensor(rng.uniform(size=(INFER_BATCH, c.image_size, c.image_size,
                                             c.channels)).astype(np.float32))
        dense_masks = vit.MaskSet(c)
        self.forwards = {
            "dense": lambda: model.forward(images, dense_masks, collect_trace=False)[0]}
        for keep in INFER_KEEPS:
            key = f"k{round(100 * keep)}"
            with tracer.span("masking.mask_build"):
                masks, geoms = seeded_masks(model, keep, rng)
            compact = vit.CompactVit.from_masked(model, masks)
            path = out_dir / f"compact-{key}.ckpt"
            checkpoint.save_compact(path, compact)
            loaded = checkpoint.load_compact(path)
            with tracer.span("bench.check"):
                check_compact(model, masks, geoms, keep, compact, loaded,
                              ag.Tensor(images.data[:CHECK_BATCH]), checks, key)
            self.forwards[key] = lambda m=loaded: m.forward(images)
        self.refs = {}  # each model's logits at its first timed forward
        self.checks = checks
        self.times = {key: [] for key in self.forwards}
        self._order = list(self.forwards)
        self._taken = 0

    def sample(self):
        key = self._order[self._taken % len(self._order)]
        self._taken += 1
        with ag.no_grad():
            t = perf_counter()
            out = self.forwards[key]()
            self.times[key].append(perf_counter() - t)
        if key not in self.refs:
            self.refs[key] = out.data.copy()
            return
        self.checks.check(np.array_equal(out.data, self.refs[key]),
                          f"{key}: batch-{INFER_BATCH} logits changed between forwards")

    def fewest(self):
        return min(len(ts) for ts in self.times.values())

    def rates(self):
        return {key: INFER_BATCH / statistics.median(ts) for key, ts in self.times.items()}


# ---------------------------------------------------------------------------
# output checks


def check_prune(run, summary, out_dir, checks):
    cfg, geoms = run.cfg, run.geoms
    target = cfg.pruning.keep_ratio * summary["params_total"]
    checks.check(abs(summary["params_remaining"] - target) <= channel_quantum(geoms),
                 f"keep ratio {summary['keep_ratio_achieved']:.4f} misses target "
                 f"{cfg.pruning.keep_ratio} by more than one channel quantum")
    c = run.model.config
    for i in range(c.num_blocks):
        kept = run.masks.kept_indices(i)
        for kind, size in c.mask_sizes(i).items():
            checks.check(len(kept[kind]) >= max(1, math.ceil(cfg.pruning.guard_frac * size)),
                         f"block {i} mask '{kind}' fell below its guard")
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    phases = [row["phase"] for row in rows]
    checks.check(set(phases) == set(PHASES), f"metrics.csv phases {sorted(set(phases))}")
    for what, losses in (
            ("pruning", [float(r["loss"]) for r in rows if r["phase"] != schedule.FINETUNE]),
            ("fine-tune", [float(r["loss"]) for r in rows if r["phase"] == schedule.FINETUNE])):
        checks.check(len(losses) >= 2 and losses[-1] <= LOSS_FALL * losses[0],
                     f"{what} training loss went from {losses[:1]} to {losses[-1:]}, "
                     f"not below {LOSS_FALL} of the first epoch's")
    checks.check(summary["val_acc_final"] >= MIN_VAL_ACC,
                 f"val_acc_final {summary['val_acc_final']:.3f} is below {MIN_VAL_ACC}")
    reloaded = checkpoint.load_compact(out_dir / "compact-final.ckpt")
    acc, _ = schedule.evaluate(reloaded, run.val_ds)
    checks.check(acc == summary["val_acc_final"],
                 f"reloaded compact-final.ckpt evaluates to {acc}, run said "
                 f"{summary['val_acc_final']}")


def check_compact(model, masks, geoms, keep, compact, loaded, images, checks, key):
    hard = vit.MaskSet(model.config, dtype=model.dtype)
    for i, block in enumerate(masks.binarized()):
        hard.set_block(i, block)
    with ag.no_grad():
        ref = model.forward(images, hard, collect_trace=False)[0].data
        got = compact.forward(images).data
        again = loaded.forward(images).data
    checks.check(np.all(np.abs(got - ref) <= LOGIT_ATOL + LOGIT_RTOL * np.abs(ref)),
                 f"{key}: compact logits deviate from hard-masked dense by "
                 f"{np.max(np.abs(got - ref)):.3g}")
    checks.check(np.array_equal(again, got), f"{key}: save/load changed the compact logits")
    totals, remaining = model.param_totals(masks)
    checks.check(np.array_equal(loaded.block_param_counts(), remaining),
                 f"{key}: block_param_counts() differs from param_totals")
    checks.check(abs(remaining.sum() - keep * totals.sum()) <= channel_quantum(geoms),
                 f"{key}: keep {remaining.sum() / totals.sum():.4f} misses {keep}")


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass


def layer_metrics(tracer, timeline, wall_untraced, wall_traced):
    spans = tracer.spans
    out = {}

    def busy(name):
        total, calls = outermost_busy(spans, name, skip_under="bench.check")
        return 1e3 * total, calls

    ms, _ = busy("autograd.backward")
    out["autograd.backward.ms"] = (ms, "ms")
    tapes = [sp[ATTRS]["tape"] for sp in spans
             if sp[NAME] == "autograd.backward" and sp[PARENT] >= 0
             and spans[sp[PARENT]][NAME] == "schedule.step"]
    out["autograd.tape_nodes_per_step"] = (int(np.median(tapes)) if tapes else 0, "count")
    for prim in PRIMITIVES:
        ms, calls = busy(f"autograd.{prim}")
        out[f"autograd.{prim}.fwd_ms"] = (ms, "ms")
        out[f"autograd.{prim}.calls"] = (calls, "count")
    for name in ("vit.masked_forward", "vit.masked_forward_nograd", "vit.compact_forward",
                 "vit.compact_forward_nograd", "vit.from_masked"):
        out[f"{name}.ms"] = (busy(name)[0], "ms")
    for name in ("bpi.heads_step", "optim.adamw_step"):
        ms, calls = busy(name)
        out[f"{name}.ms"] = (ms, "ms")
        out[f"{name}.calls"] = (calls, "count")
    for name in ("masking.taylor_add", "masking.plan_block_budgets", "masking.mask_build"):
        out[f"{name}.ms"] = (busy(name)[0], "ms")
    in_run = [i for i, sp in enumerate(spans) if has_ancestor(spans, i, "schedule.run")]
    out["masking.updates"] = (sum(spans[i][NAME] == "masking.plan_block_budgets"
                                  for i in in_run), "count")
    changes = [spans[i][ATTRS]["changed"] for i in in_run
               if spans[i][NAME] == "masking.mask_build" and spans[i][ATTRS]]
    out["masking.kept_set_changed_frac"] = (
        sum(changes) / len(changes) if changes else 0.0, "frac")
    for name in ("budget.block_importance", "budget.allocate", "schedule.evaluate"):
        out[f"{name}.ms"] = (busy(name)[0], "ms")
    selfs = self_times(spans)
    out["schedule.step_self.ms"] = (1e3 * sum(selfs[i] for i in timeline["step_spans"]), "ms")
    for phase, secs in timeline["phase_s"].items():
        out[f"schedule.phase_s.{phase}"] = (secs, "s")
    out["schedule.metrics_flush.ms"] = (busy("schedule.metrics_flush")[0], "ms")
    out["checkpoint.save.ms"] = (busy("checkpoint.save")[0], "ms")
    out["checkpoint.load.ms"] = (busy("checkpoint.load")[0], "ms")
    written = {sp[ATTRS]["path"] for sp in spans if sp[NAME] == "checkpoint.save"}
    out["checkpoint.bytes_written"] = (sum(os.path.getsize(p) for p in written), "B")
    for name in ("data.generate_synthetic", "data.batch_iter", "config.load_config"):
        out[f"{name}.ms"] = (busy(name)[0], "ms")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    out["trace.overhead_frac"] = ((wall_traced - wall_untraced) / wall_untraced, "frac")
    return out
