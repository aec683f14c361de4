"""Small vision transformer with per-block soft channel masks.

The residual stream keeps full width everywhere; each Attention/MLP block
reads it through an input mask, masks its internal channels (per-head q/k/v
channels or the MLP hidden layer), and writes back through an output mask.
Block i (0-based) is Attention for even i, MLP for odd i, so 1-based block
indices put Attention on odd positions.

Both models share one trunk (``_Trunk``): the patch embedding, class token
and position embedding before the blocks, the one attention/MLP block body
(``_Trunk._block``), and the readout (final layernorm, class token, head)
after them. Pruning never narrows the trunk. The masked and the compact
model differ only in the weights they hand the block body: every channel
gate sits on the weights, not on the activations. The masked model folds its
masks into the rows and columns of the projections, so a mask costs a
weight-sized multiply whatever the batch; the compact model widens its
narrowed output projection back to full width with zero columns, so its
delta adds straight into the residual stream, and gathers only its kept
input channels.
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


def inner_groups(block_type, heads):
    """(g1, g2): a block's first projection has g1 groups of its inner
    channels as outputs and its second projection g2 groups as inputs. An
    attention block's groups are q, k and v of every head, then every head;
    an MLP block has one group."""
    return (3 * heads, heads) if block_type == ATTN else (1, 1)


def block_shapes(config, block_type, a_in, a_out, a_inner):
    """Shapes of a block's tensors, in ``BLOCK_KEYS`` order, at the given channel counts."""
    g1, g2 = inner_groups(block_type, config.heads)
    e = config.embed_dim
    return [(e,), (e,), (a_in, g1 * a_inner), (g1 * a_inner,), (g2 * a_inner, a_out), (a_out,)]


def trunk_shapes(c):
    """Shapes of the ``_Trunk.STEM`` and ``_Trunk.HEAD`` tensors of config ``c``."""
    e = c.embed_dim
    return {"patch_w": (c.patch_size * c.patch_size * c.channels, e), "patch_b": (e,),
            "cls_token": (1, 1, e), "pos_embed": (1, 1 + c.num_patches, e),
            "ln_f_g": (e,), "ln_f_b": (e,), "head_w": (e, c.num_classes),
            "head_b": (c.num_classes,)}


def block_param_count(block_type, a_in, a_out, a_inner, heads):
    """Prunable parameters (projection weights + biases) at the given channel counts."""
    g1, g2 = inner_groups(block_type, heads)
    return (a_in + 1) * g1 * a_inner + (g2 * a_inner + 1) * a_out


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
    """The full-width parts of a model that pruning never narrows, and the
    one block body.

    ``STEM`` tensors run before the blocks, ``HEAD`` tensors after them; a
    model keeps each as an attribute of that name and supplies block i's
    tensors, in ``BLOCK_KEYS`` order, through ``block_weights(i)``.
    """

    STEM = ("patch_w", "patch_b", "cls_token", "pos_embed")
    HEAD = ("ln_f_g", "ln_f_b", "head_w", "head_b")
    # weight tensors of a block, in parameter and checkpoint order
    BLOCK_KEYS = {ATTN: ("ln_g", "ln_b", "w_qkv", "b_qkv", "w_proj", "b_proj"),
                  MLP: ("ln_g", "ln_b", "w_fc1", "b_fc1", "w_fc2", "b_fc2")}

    def parameters(self):
        return ([getattr(self, name) for name in self.STEM]
                + [t for i in range(self.config.num_blocks) for t in self.block_weights(i)]
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
        x = ag.linear(x, self.patch_w, self.patch_b)
        x = ag.reshape(x, (n, g * g, c.embed_dim))
        cls = ag.repeat_axis0(self.cls_token, n)
        x = ag.concat([cls, x], axis=1)
        return ag.add(x, self.pos_embed)

    def readout(self, x):
        """Logits from the class token of the final residual stream."""
        x = ag.layernorm(x, self.ln_f_g, self.ln_f_b)
        cls = ag.reshape(ag.slice_axis(x, 1, 0, 1), (x.shape[0], self.config.embed_dim))
        logits = ag.linear(cls, self.head_w, self.head_b)
        if not np.all(np.isfinite(logits.data)):
            raise NumericError("non-finite activations in forward pass")
        return logits

    def _block(self, x, block_type, weights, read):
        """Full-width residual delta of one attention or MLP block.

        ``weights`` are the block's six tensors in ``BLOCK_KEYS`` order with
        every channel gate already applied, the output projection at full
        width. ``read`` selects the block's input channels from the
        layernormed stream. The input and inner widths come from the
        tensors, so one body serves full-width and narrowed blocks.
        """
        c = self.config
        n, t, _ = x.shape
        ln_g, ln_b, w1, b1, w2, b2 = weights
        h = read(ag.layernorm(x, ln_g, ln_b))
        h = ag.linear(ag.reshape(h, (n * t, h.shape[-1])), w1, b1)
        if block_type == ATTN:
            h = _attention(ag.reshape(h, (n, t, 3, c.heads, -1)), c.head_dim)
        else:
            h = ag.gelu(h)
        return ag.reshape(ag.linear(h, w2, b2), (n, t, -1))


def _layer_key(key, i):
    """Name in ``MaskedVit.layers[i // 2]`` of block i's ``BLOCK_KEYS`` entry
    ``key``: the attention block has layernorm 1, the MLP block layernorm 2."""
    return key.replace("ln_", f"ln{i % 2 + 1}_")


class MaskedVit(_Trunk):
    """Transformer backbone whose blocks read/write through soft masks."""

    def __init__(self, config: VitConfig, seed=0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        c = config

        def param(name, shape):
            if name.endswith("_g"):
                arr = np.ones(shape)
            elif name.endswith("_b") or name.startswith("b_"):
                arr = np.zeros(shape)
            else:
                arr = _trunc_normal(rng, shape)
            return Tensor(arr.astype(dtype), requires_grad=True)

        shapes = trunk_shapes(c)
        for name in self.STEM:
            setattr(self, name, param(name, shapes[name]))
        self.layers = [{} for _ in range(c.depth)]
        for i in range(c.num_blocks):
            btype = c.block_type(i)
            for key, shape in zip(self.BLOCK_KEYS[btype],
                                  block_shapes(c, btype, *c.mask_sizes(i).values())):
                self.layers[i // 2][_layer_key(key, i)] = param(key, shape)
        for name in self.HEAD:
            setattr(self, name, param(name, shapes[name]))

    def block_weights(self, i):
        """Block i's tensors in ``BLOCK_KEYS`` order."""
        return [self.layers[i // 2][_layer_key(key, i)]
                for key in self.BLOCK_KEYS[self.config.block_type(i)]]

    def gated_weights(self, i, masks: MaskSet):
        """Block i's tensors with its masks folded in: ``in`` scales the rows
        of the first projection; ``e`` the q/k/v columns of every head in the
        first projection and its bias, or ``hid`` the rows of the second
        projection; ``out`` the columns of the second projection and its bias.
        """
        btype = self.config.block_type(i)
        ln_g, ln_b, w1, b1, w2, b2 = self.block_weights(i)
        m_in, m_out, m_inner = masks.blocks[i].values()
        w1 = ag.mul(w1, ag.reshape(m_in, (-1, 1)))
        if btype == ATTN:
            # one e gate scales q, k and v of every head
            g1, _ = inner_groups(btype, self.config.heads)
            w1 = ag.reshape(ag.mul(ag.reshape(w1, (-1, g1, m_inner.shape[0])), m_inner), w1.shape)
            b1 = ag.reshape(ag.mul(ag.reshape(b1, (g1, -1)), m_inner), b1.shape)
        else:
            w2 = ag.mul(w2, ag.reshape(m_inner, (-1, 1)))
        return [ln_g, ln_b, w1, b1, ag.mul(w2, m_out), ag.mul(b2, m_out)]

    def forward(self, images, masks: MaskSet, collect_trace=True):
        """Masked forward pass; returns (logits, per-block trace)."""
        x = self.embed(images)
        trace = []
        for i in range(self.config.num_blocks):
            before = x
            x = ag.add(x, self._block(x, self.config.block_type(i), self.gated_weights(i, masks),
                                      lambda h: h))
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

    A block is its type, its kept index list ``{kind}_idx`` for each kind of
    ``MASK_KINDS[type]`` and its narrowed tensors under ``BLOCK_KEYS``; the
    index lists alone fix the tensors' widths. The block gathers its input
    channels from the full-width residual stream; its output projection and
    bias are scattered to full width, zero outside ``out_idx``, so its delta
    adds into the stream as it is. Checkpoints keep the narrow tensors.
    Attention keeps the original softmax temperature of the unpruned head
    width.
    """

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

        def leaf(a):
            return Tensor(np.array(a, order="C"), requires_grad=True)

        trunk = {name: leaf(getattr(model, name).data) for name in cls.STEM + cls.HEAD}
        e = c.embed_dim
        blocks = []
        for i in range(c.num_blocks):
            btype = c.block_type(i)
            idx = masks.kept_indices(i)
            for kind, kept in idx.items():
                if kept.size == 0:
                    raise ValueError(f"block {i} mask '{kind}' compacted to zero channels")
            i_in, i_out, i_inner = idx.values()
            # every group of inner channels keeps the same channels
            g1, g2 = inner_groups(btype, c.heads)
            ln_g, ln_b, w1, b1, w2, b2 = (t.data for t in model.block_weights(i))
            w1 = w1.reshape(e, g1, -1)[i_in][:, :, i_inner].reshape(len(i_in), -1)
            b1 = b1.reshape(g1, -1)[:, i_inner].reshape(-1)
            w2 = w2.reshape(g2, -1, e)[:, i_inner][:, :, i_out].reshape(-1, len(i_out))
            b = {"type": btype, **{f"{kind}_idx": kept for kind, kept in idx.items()}}
            b.update(zip(cls.BLOCK_KEYS[btype], map(leaf, (ln_g, ln_b, w1, b1, w2, b2[i_out]))))
            blocks.append(b)
        return cls(c, trunk, blocks, model.dtype)

    def block_weights(self, i):
        b = self.blocks[i]
        return [b[key] for key in self.BLOCK_KEYS[b["type"]]]

    def block_param_counts(self):
        """Prunable parameters of every block, counted from its index lists."""
        counts = []
        for b in self.blocks:
            kept = (len(b[f"{kind}_idx"]) for kind in MASK_KINDS[b["type"]])
            counts.append(block_param_count(b["type"], *kept, self.config.heads))
        return np.array(counts)

    def forward(self, images):
        x = self.embed(images)
        e = self.config.embed_dim
        for i, b in enumerate(self.blocks):
            ln_g, ln_b, w1, b1, w2, b2 = self.block_weights(i)
            weights = (ln_g, ln_b, w1, b1, ag.scatter_last(w2, b["out_idx"], e),
                       ag.scatter_last(b2, b["out_idx"], e))
            x = ag.add(x, self._block(x, b["type"], weights,
                                      lambda h: ag.take_last(h, b["in_idx"])))
        return self.readout(x)
