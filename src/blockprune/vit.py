"""Small vision transformer with per-block soft channel masks.

The residual stream keeps full width everywhere; each Attention/MLP block
reads it through an input mask, masks its internal channels (per-head q/k/v
channels or the MLP hidden layer), and writes back through an output mask.
Block i (0-based) is Attention for even i, MLP for odd i, so 1-based block
indices put Attention on odd positions.

Both models share one trunk (``_Trunk``): the patch embedding, class token
and position embedding before the blocks, and the readout (final layernorm,
class token, head) after them. Pruning never narrows the trunk; the masked
and the compact model differ only inside their blocks, whose attention core
(``_attention``) is shared too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import NumericError

ATTN = "attn"
MLP = "mlp"

MASK_KINDS = {ATTN: ("in", "out", "e"), MLP: ("in", "out", "hid")}


@dataclass
class VitConfig:
    image_size: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    heads: int = 4
    depth: int = 6
    mlp_ratio: float = 4.0
    num_classes: int = 10
    channels: int = 1

    def __post_init__(self):
        for name in ("image_size", "patch_size", "embed_dim", "heads", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError("mlp_ratio * embed_dim must be >= 1")
        if self.image_size % self.patch_size:
            raise ValueError("image_size must be divisible by patch_size")
        if self.embed_dim % self.heads:
            raise ValueError("embed_dim must be divisible by heads")

    @property
    def head_dim(self):
        return self.embed_dim // self.heads

    @property
    def hidden_dim(self):
        return int(self.mlp_ratio * self.embed_dim)

    @property
    def num_patches(self):
        return (self.image_size // self.patch_size) ** 2

    @property
    def num_blocks(self):
        return 2 * self.depth

    def block_type(self, i):
        return ATTN if i % 2 == 0 else MLP

    def mask_sizes(self, i):
        """Sizes of the block's partial masks, in concatenation order."""
        e = self.embed_dim
        if self.block_type(i) == ATTN:
            return {"in": e, "out": e, "e": self.head_dim}
        return {"in": e, "out": e, "hid": self.hidden_dim}

    def to_dict(self):
        return {
            "image_size": self.image_size, "patch_size": self.patch_size,
            "embed_dim": self.embed_dim, "heads": self.heads, "depth": self.depth,
            "mlp_ratio": self.mlp_ratio, "num_classes": self.num_classes,
            "channels": self.channels,
        }


class MaskSet:
    """Per-block soft masks, kept outside every optimizer.

    Values live in (0, 1] as plain differentiable leaves; the masking engine
    overwrites them in place at each update step.
    """

    def __init__(self, config: VitConfig, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.blocks = []
        for i in range(config.num_blocks):
            block = {}
            for kind, size in config.mask_sizes(i).items():
                block[kind] = Tensor(np.ones(size, dtype=dtype), requires_grad=True)
            self.blocks.append(block)

    def __len__(self):
        return len(self.blocks)

    def tensors(self):
        for block in self.blocks:
            yield from block.values()

    def values(self):
        """Copy of all mask values as {block: {kind: array}}."""
        return [{k: t.data.copy() for k, t in block.items()} for block in self.blocks]

    def set_block(self, i, new_values):
        for kind, vals in new_values.items():
            t = self.blocks[i][kind]
            if vals.shape != t.data.shape:
                raise ValueError(f"mask '{kind}' of block {i}: shape mismatch")
            t.data = np.asarray(vals, dtype=self.dtype)

    def zero_grads(self):
        for t in self.tensors():
            t.grad = None

    def gradients(self):
        """Raw dL/dM for every mask element; requires a completed backward."""
        out = []
        for i, block in enumerate(self.blocks):
            grads = {}
            for kind, t in block.items():
                if t.grad is None:
                    raise RuntimeError(f"mask gradient of block {i} '{kind}' read before backward")
                grads[kind] = t.grad.copy()
            out.append(grads)
        return out

    def binarized(self):
        """Hard 0/1 masks at the 0.5 keep threshold."""
        return [{k: (t.data >= 0.5).astype(self.dtype) for k, t in block.items()}
                for block in self.blocks]

    def kept_indices(self, i):
        return {k: np.flatnonzero(t.data >= 0.5) for k, t in self.blocks[i].items()}


@dataclass
class BlockRecord:
    index: int
    block_type: str
    before: Tensor  # detached feature map entering the block
    after: Tensor   # detached feature map after the residual add


def block_param_count(block_type, a_in, a_out, a_inner, heads):
    """Prunable parameters (projection weights + biases) at the given channel counts."""
    if block_type == ATTN:
        qkv_out = 3 * heads * a_inner
        return a_in * qkv_out + qkv_out + heads * a_inner * a_out + a_out
    return a_in * a_inner + a_inner + a_inner * a_out + a_out


@dataclass
class BlockGeometry:
    block_type: str
    sizes: dict      # partial mask sizes in concatenation order
    heads: int

    @property
    def inner_kind(self):
        return "e" if self.block_type == ATTN else "hid"

    def params_of_counts(self, counts):
        return block_param_count(self.block_type, counts["in"], counts["out"],
                                 counts[self.inner_kind], self.heads)

    @property
    def total_params(self):
        return self.params_of_counts(self.sizes)


def _trunc_normal(rng, shape, std=0.02):
    # resample out-of-band draws; two-sigma truncation as in common ViT inits
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=bad.sum())
        bad = np.abs(vals) > 2 * std
    return vals


def _attention(qkv, head_dim):
    """Multi-head self-attention over a (n, t, 3, heads, width) q/k/v tensor;
    returns the heads merged as (n * t, heads * width).

    The temperature stays at the unpruned ``head_dim``: neither masking nor
    compaction may retune the softmax.
    """
    n, t, _, heads, width = qkv.shape
    qkv = ag.transpose(qkv, (2, 0, 3, 1, 4))
    q = ag.reshape(ag.slice_axis(qkv, 0, 0, 1), (n, heads, t, width))
    k = ag.reshape(ag.slice_axis(qkv, 0, 1, 2), (n, heads, t, width))
    v = ag.reshape(ag.slice_axis(qkv, 0, 2, 3), (n, heads, t, width))
    scores = ag.scale(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(head_dim))
    out = ag.matmul(ag.softmax(scores), v)
    return ag.reshape(ag.transpose(out, (0, 2, 1, 3)), (n * t, heads * width))


class _Trunk:
    """The full-width parts of a model that pruning never narrows.

    ``STEM`` tensors run before the blocks, ``HEAD`` tensors after them; a
    model keeps each as an attribute of that name and supplies its block
    tensors through ``_block_parameters()``.
    """

    STEM = ("patch_w", "patch_b", "cls_token", "pos_embed")
    HEAD = ("ln_f_g", "ln_f_b", "head_w", "head_b")

    def parameters(self):
        return ([getattr(self, name) for name in self.STEM] + list(self._block_parameters())
                + [getattr(self, name) for name in self.HEAD])

    def embed(self, images):
        c = self.config
        if images.shape[1] != c.image_size or images.shape[2] != c.image_size:
            raise ValueError("input images do not match the configured size")
        n = images.shape[0]
        g = c.image_size // c.patch_size
        x = ag.reshape(images, (n, g, c.patch_size, g, c.patch_size, c.channels))
        x = ag.transpose(x, (0, 1, 3, 2, 4, 5))
        x = ag.reshape(x, (n * g * g, c.patch_size * c.patch_size * c.channels))
        x = ag.add(ag.matmul(x, self.patch_w), self.patch_b)
        x = ag.reshape(x, (n, g * g, c.embed_dim))
        cls = ag.repeat_axis0(self.cls_token, n)
        x = ag.concat([cls, x], axis=1)
        return ag.add(x, self.pos_embed)

    def readout(self, x):
        """Logits from the class token of the final residual stream."""
        x = ag.layernorm(x, self.ln_f_g, self.ln_f_b)
        cls = ag.reshape(ag.slice_axis(x, 1, 0, 1), (x.shape[0], self.config.embed_dim))
        logits = ag.add(ag.matmul(cls, self.head_w), self.head_b)
        if not np.all(np.isfinite(logits.data)):
            raise NumericError("non-finite activations in forward pass")
        return logits


class MaskedVit(_Trunk):
    """Transformer backbone whose blocks read/write through soft masks."""

    def __init__(self, config: VitConfig, seed=0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        c = config
        pdim = c.patch_size * c.patch_size * c.channels
        t = 1 + c.num_patches

        def param(arr):
            return Tensor(arr.astype(dtype), requires_grad=True)

        self.patch_w = param(_trunc_normal(rng, (pdim, c.embed_dim)))
        self.patch_b = param(np.zeros(c.embed_dim))
        self.cls_token = param(_trunc_normal(rng, (1, 1, c.embed_dim)))
        self.pos_embed = param(_trunc_normal(rng, (1, t, c.embed_dim)))
        self.layers = []
        for _ in range(c.depth):
            layer = {
                "ln1_g": param(np.ones(c.embed_dim)),
                "ln1_b": param(np.zeros(c.embed_dim)),
                "w_qkv": param(_trunc_normal(rng, (c.embed_dim, 3 * c.embed_dim))),
                "b_qkv": param(np.zeros(3 * c.embed_dim)),
                "w_proj": param(_trunc_normal(rng, (c.embed_dim, c.embed_dim))),
                "b_proj": param(np.zeros(c.embed_dim)),
                "ln2_g": param(np.ones(c.embed_dim)),
                "ln2_b": param(np.zeros(c.embed_dim)),
                "w_fc1": param(_trunc_normal(rng, (c.embed_dim, c.hidden_dim))),
                "b_fc1": param(np.zeros(c.hidden_dim)),
                "w_fc2": param(_trunc_normal(rng, (c.hidden_dim, c.embed_dim))),
                "b_fc2": param(np.zeros(c.embed_dim)),
            }
            self.layers.append(layer)
        self.ln_f_g = param(np.ones(c.embed_dim))
        self.ln_f_b = param(np.zeros(c.embed_dim))
        self.head_w = param(_trunc_normal(rng, (c.embed_dim, c.num_classes)))
        self.head_b = param(np.zeros(c.num_classes))

    def _block_parameters(self):
        for layer in self.layers:
            yield from layer.values()

    # -- forward ----------------------------------------------------------

    def _attn_block(self, x, layer, masks):
        c = self.config
        n, t, e = x.shape
        h = ag.layernorm(x, layer["ln1_g"], layer["ln1_b"])
        h = ag.mul(h, masks["in"])
        qkv = ag.add(ag.matmul(ag.reshape(h, (n * t, e)), layer["w_qkv"]), layer["b_qkv"])
        qkv = ag.reshape(qkv, (n, t, 3, c.heads, c.head_dim))
        # the same mask instance gates q, k and v in every head
        qkv = ag.mul(qkv, masks["e"])
        out = ag.add(ag.matmul(_attention(qkv, c.head_dim), layer["w_proj"]), layer["b_proj"])
        out = ag.reshape(out, (n, t, e))
        return ag.mul(out, masks["out"])

    def _mlp_block(self, x, layer, masks):
        n, t, e = x.shape
        h = ag.layernorm(x, layer["ln2_g"], layer["ln2_b"])
        h = ag.mul(h, masks["in"])
        h = ag.add(ag.matmul(ag.reshape(h, (n * t, e)), layer["w_fc1"]), layer["b_fc1"])
        h = ag.gelu(h)
        h = ag.mul(h, masks["hid"])
        h = ag.add(ag.matmul(h, layer["w_fc2"]), layer["b_fc2"])
        h = ag.reshape(h, (n, t, e))
        return ag.mul(h, masks["out"])

    def forward(self, images, masks: MaskSet, collect_trace=True):
        """Masked forward pass; returns (logits, per-block trace)."""
        x = self.embed(images)
        trace = []
        for d, layer in enumerate(self.layers):
            for sub, fn in ((0, self._attn_block), (1, self._mlp_block)):
                i = 2 * d + sub
                before = x
                x = ag.add(x, fn(x, layer, masks.blocks[i]))
                if collect_trace:
                    trace.append(BlockRecord(i, self.config.block_type(i),
                                             before.detach(), x.detach()))
        return self.readout(x), trace

    # -- accounting -------------------------------------------------------

    def count_params(self, masks: MaskSet, i):
        """(total, remaining) prunable parameters of block i at threshold 0.5."""
        c = self.config
        geom = BlockGeometry(c.block_type(i), c.mask_sizes(i), c.heads)
        kept = {k: int((masks.blocks[i][k].data >= 0.5).sum()) for k in geom.sizes}
        return geom.total_params, geom.params_of_counts(kept)

    def param_totals(self, masks: MaskSet):
        counts = np.array([self.count_params(masks, i) for i in range(self.config.num_blocks)])
        return counts[:, 0], counts[:, 1]


# ---------------------------------------------------------------------------
# physically compacted model


class CompactVit(_Trunk):
    """Mask-free model produced by deleting sub-threshold channels.

    Per-block channel index lists describe where the (narrower) block
    output scatters back into the full-width residual stream. Attention
    keeps the original softmax temperature of the unpruned head width.
    """

    # weight tensors of a block, in parameter and checkpoint order
    BLOCK_KEYS = {ATTN: ("ln_g", "ln_b", "w_qkv", "b_qkv", "w_proj", "b_proj"),
                  MLP: ("ln_g", "ln_b", "w_fc1", "b_fc1", "w_fc2", "b_fc2")}

    def __init__(self, config: VitConfig, trunk, blocks, dtype=np.float32):
        """``trunk`` maps every ``STEM`` and ``HEAD`` name to its tensor;
        ``blocks`` holds one dict of weights and index arrays per block."""
        self.config = config
        self.dtype = dtype
        for name in self.STEM + self.HEAD:
            setattr(self, name, trunk[name])
        self.blocks = blocks

    @classmethod
    def from_masked(cls, model: MaskedVit, masks: MaskSet):
        c = model.config

        def clone(t):
            return Tensor(t.data.copy(), requires_grad=True)

        trunk = {name: clone(getattr(model, name)) for name in cls.STEM + cls.HEAD}
        blocks = []
        for i in range(c.num_blocks):
            layer = model.layers[i // 2]
            idx = masks.kept_indices(i)
            for kind, kept in idx.items():
                if kept.size == 0:
                    raise ValueError(f"block {i} mask '{kind}' compacted to zero channels")
            b = {"type": c.block_type(i), "in_idx": idx["in"], "out_idx": idx["out"]}
            if b["type"] == ATTN:
                e, h, d = c.embed_dim, c.heads, c.head_dim
                ei = idx["e"]
                b["e_idx"] = ei
                w4 = layer["w_qkv"].data.reshape(e, 3, h, d)
                b["w_qkv"] = Tensor(np.ascontiguousarray(
                    w4[idx["in"]][:, :, :, ei]).reshape(len(idx["in"]), -1), requires_grad=True)
                b["b_qkv"] = Tensor(np.ascontiguousarray(
                    layer["b_qkv"].data.reshape(3, h, d)[:, :, ei]).reshape(-1), requires_grad=True)
                wp = layer["w_proj"].data.reshape(h, d, e)
                b["w_proj"] = Tensor(np.ascontiguousarray(
                    wp[:, ei][:, :, idx["out"]]).reshape(h * len(ei), len(idx["out"])), requires_grad=True)
                b["b_proj"] = Tensor(layer["b_proj"].data[idx["out"]].copy(), requires_grad=True)
                b["ln_g"], b["ln_b"] = clone(layer["ln1_g"]), clone(layer["ln1_b"])
            else:
                hi = idx["hid"]
                b["hid_idx"] = hi
                b["w_fc1"] = Tensor(np.ascontiguousarray(
                    layer["w_fc1"].data[idx["in"]][:, hi]), requires_grad=True)
                b["b_fc1"] = Tensor(layer["b_fc1"].data[hi].copy(), requires_grad=True)
                b["w_fc2"] = Tensor(np.ascontiguousarray(
                    layer["w_fc2"].data[hi][:, idx["out"]]), requires_grad=True)
                b["b_fc2"] = Tensor(layer["b_fc2"].data[idx["out"]].copy(), requires_grad=True)
                b["ln_g"], b["ln_b"] = clone(layer["ln2_g"]), clone(layer["ln2_b"])
            blocks.append(b)
        return cls(c, trunk, blocks, model.dtype)

    def _block_parameters(self):
        for b in self.blocks:
            yield from (b[key] for key in self.BLOCK_KEYS[b["type"]])

    def block_param_counts(self):
        counts = []
        for b in self.blocks:
            if b["type"] == ATTN:
                counts.append(b["w_qkv"].size + b["b_qkv"].size + b["w_proj"].size + b["b_proj"].size)
            else:
                counts.append(b["w_fc1"].size + b["b_fc1"].size + b["w_fc2"].size + b["b_fc2"].size)
        return np.array(counts)

    def _attn_block(self, x, b):
        c = self.config
        n, t, e = x.shape
        nk = len(b["e_idx"])
        h = ag.layernorm(x, b["ln_g"], b["ln_b"])
        h = ag.take_last(h, b["in_idx"])
        qkv = ag.add(ag.matmul(ag.reshape(h, (n * t, len(b["in_idx"]))), b["w_qkv"]), b["b_qkv"])
        qkv = ag.reshape(qkv, (n, t, 3, c.heads, nk))
        o = ag.add(ag.matmul(_attention(qkv, c.head_dim), b["w_proj"]), b["b_proj"])
        o = ag.reshape(o, (n, t, len(b["out_idx"])))
        return ag.scatter_last(o, b["out_idx"], e)

    def _mlp_block(self, x, b):
        n, t, e = x.shape
        h = ag.layernorm(x, b["ln_g"], b["ln_b"])
        h = ag.take_last(h, b["in_idx"])
        h = ag.add(ag.matmul(ag.reshape(h, (n * t, len(b["in_idx"]))), b["w_fc1"]), b["b_fc1"])
        h = ag.gelu(h)
        h = ag.add(ag.matmul(h, b["w_fc2"]), b["b_fc2"])
        h = ag.reshape(h, (n, t, len(b["out_idx"])))
        return ag.scatter_last(h, b["out_idx"], e)

    def forward(self, images):
        x = self.embed(images)
        for b in self.blocks:
            fn = self._attn_block if b["type"] == ATTN else self._mlp_block
            x = ag.add(x, fn(x, b))
        return self.readout(x)
