"""Per-block benefit measurement.

Every block gets its own pair of lightweight classifiers: a linear head on
the classification token and a patch head on the token grid. Both are
evaluated on the residual stream entering and leaving the block; the drop
in cross-entropy between the two evaluations is the block's measured benefit
(bp_class / bp_patch). Heads train on the block outputs only, and only
through detached features, so no gradient ever reaches the backbone.
``BpiHeads.step`` backpropagates each block's head loss as soon as it
exists, so a probe graph is freed before the next block's is built.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import batch_iter
from .optim import AdamW, train_epoch
from .vit import VitConfig, _trunc_normal

PATCH_HEAD_KINDS = ("resnet", "pooled-linear")
PROBE_LR = 5e-4


class BpiHeads:
    """Independent class/patch classifier pair per block, with own optimizer."""

    def __init__(self, config: VitConfig, patch_head="resnet", seed=0, dtype=np.float32):
        if patch_head not in PATCH_HEAD_KINDS:
            raise ValueError(f"unknown patch head '{patch_head}'")
        self.config = config
        self.patch_head = patch_head
        self.grid = config.image_size // config.patch_size
        rng = np.random.default_rng(seed)
        e, k = config.embed_dim, config.num_classes

        def param(arr):
            return Tensor(arr.astype(dtype), requires_grad=True)

        self.class_heads = []
        self.patch_heads = []
        for _ in range(config.num_blocks):
            self.class_heads.append({
                "w": param(_trunc_normal(rng, (e, k))),
                "b": param(np.zeros(k)),
            })
            ph = {"w": param(_trunc_normal(rng, (e, k))), "b": param(np.zeros(k))}
            if patch_head == "resnet":
                ph.update({
                    "conv1": param(_trunc_normal(rng, (3, 3, e, e))),
                    "ln1_g": param(np.ones(e)), "ln1_b": param(np.zeros(e)),
                    "conv2": param(_trunc_normal(rng, (3, 3, e, e))),
                    "ln2_g": param(np.ones(e)), "ln2_b": param(np.zeros(e)),
                })
            self.patch_heads.append(ph)
        self.optimizer = AdamW(self.parameters(), lr=PROBE_LR)

    def parameters(self):
        ps = []
        for ch, ph in zip(self.class_heads, self.patch_heads):
            ps.extend(ch.values())
            ps.extend(ph.values())
        return ps

    # -- head forwards ------------------------------------------------------

    def _class_logits(self, i, x):
        n = x.shape[0]
        cls = ag.reshape(ag.slice_axis(x, 1, 0, 1), (n, self.config.embed_dim))
        h = self.class_heads[i]
        return ag.linear(cls, h["w"], h["b"])

    def _patch_logits(self, i, x):
        n, _, e = x.shape
        ph = self.patch_heads[i]
        tokens = ag.slice_axis(x, 1, 1, 1 + self.config.num_patches)
        if self.patch_head == "pooled-linear":
            pooled = ag.mean(tokens, axis=(1,))
        else:
            g = self.grid
            grid = ag.reshape(tokens, (n, g, g, e))
            h = ag.conv2d_3x3(grid, ph["conv1"])
            h = ag.layernorm(h, ph["ln1_g"], ph["ln1_b"])
            h = ag.gelu(h)
            h = ag.conv2d_3x3(h, ph["conv2"])
            h = ag.layernorm(h, ph["ln2_g"], ph["ln2_b"])
            h = ag.gelu(ag.add(grid, h))
            pooled = ag.mean(h, axis=(1, 2))
        return ag.linear(pooled, ph["w"], ph["b"])

    # -- measurement ---------------------------------------------------------

    def step(self, trace, labels):
        """Evaluate benefit of every block and train the heads' gradients.

        ``trace`` holds a forward's ``num_blocks + 1`` residual-stream states.
        Returns (bp_class, bp_patch, loss) where the bp arrays hold the
        cross-entropy improvement from block i's input, state i, to its
        output, state i + 1, under the same head, and loss is the sum of
        per-head losses on the block outputs (what the head optimizer
        minimizes), a value without a graph: while the tape records, each
        block's term is backpropagated before the next block is evaluated, so
        one probe graph is alive at a time.
        """
        b = self.config.num_blocks
        if len(trace) != b + 1:
            raise ValueError("trace length does not match block count + 1")
        bp_class = np.zeros(b)
        bp_patch = np.zeros(b)
        loss = None
        for i, (before, after) in enumerate(zip(trace, trace[1:])):
            with ag.no_grad():
                before_c = ag.softmax_cross_entropy(self._class_logits(i, before), labels)
                before_p = ag.softmax_cross_entropy(self._patch_logits(i, before), labels)
            after_c = ag.softmax_cross_entropy(self._class_logits(i, after), labels)
            after_p = ag.softmax_cross_entropy(self._patch_logits(i, after), labels)
            bp_class[i] = float(before_c.data) - float(after_c.data)
            bp_patch[i] = float(before_p.data) - float(after_p.data)
            term = ag.add(after_c, after_p)
            if term.requires_grad:
                ag.backward(term)
            term = term.detach()
            loss = term if loss is None else ag.add(loss, term)
        return bp_class, bp_patch, loss


def probe_checkpoint(model, masks, train_ds, val_ds, epochs,
                     patch_head="resnet", batch_size=64, seed=0):
    """Benefit curves of a frozen backbone.

    Trains fresh heads for the given epochs on the train split (backbone in
    no-grad mode, parameters untouched), then averages per-block benefit
    over the evaluation split. Returns (bp_class, bp_patch) arrays of length
    num_blocks with raw, unnormalized values.
    """
    heads = BpiHeads(model.config, patch_head=patch_head, seed=seed)

    def step(x, labels):
        with ag.no_grad():
            _, trace = model.forward(x, masks)
        return heads.step(trace, labels)[2]

    for epoch in range(epochs):
        train_epoch(batch_iter(train_ds, batch_size, seed, epoch), [heads.optimizer], step,
                    lambda: f"in probe epoch {epoch}")
    b = model.config.num_blocks
    sum_class, sum_patch, total = np.zeros(b), np.zeros(b), 0
    for images, labels in batch_iter(val_ds, batch_size, seed, 0):
        with ag.no_grad():
            _, trace = model.forward(Tensor(images), masks)
            bp_class, bp_patch, _ = heads.step(trace, labels)
        sum_class += bp_class * len(labels)
        sum_patch += bp_patch * len(labels)
        total += len(labels)
    return sum_class / max(total, 1), sum_patch / max(total, 1)
