import math

import numpy as np
import pytest

from blockprune import autograd as ag
from blockprune.autograd import Tensor
from blockprune.errors import NumericError
from blockprune.vit import CompactVit, MaskSet, MaskedVit, VitConfig

from conftest import check_gradients

TINY = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=2,
                 mlp_ratio=2.0, num_classes=3, channels=1)


def tiny_model(seed=0, dtype=np.float64):
    model = MaskedVit(TINY, seed=seed, dtype=dtype)
    masks = MaskSet(TINY, dtype=dtype)
    return model, masks


def tiny_forward(kind):
    """A tiny model of ``kind`` ('masked' or 'compact') and its forward."""
    model, masks = tiny_model()
    if kind == "compact":
        compact = CompactVit.from_masked(model, masks)
        return compact, compact.forward
    return model, lambda images: model.forward(images, masks)


def rand_images(n, config=TINY, seed=1, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(size=(n, config.image_size, config.image_size,
                                    config.channels)).astype(dtype))


class TestConfig:
    def test_divisibility_checks(self):
        with pytest.raises(ValueError):
            VitConfig(image_size=30, patch_size=4)
        with pytest.raises(ValueError):
            VitConfig(embed_dim=65, heads=4)
        # non-positive geometry is rejected before any division by it
        for bad in ({"heads": 0}, {"patch_size": 0}, {"image_size": 0}, {"embed_dim": 0},
                    {"channels": 0}, {"mlp_ratio": 0.0}, {"heads": -4}, {"embed_dim": -64},
                    {"depth": 0}, {"num_classes": 1},
                    # wrong types, as a checkpoint header can hold them
                    {"image_size": 32.0}, {"heads": True}, {"depth": "2"},
                    {"mlp_ratio": "2"}, {"mlp_ratio": math.inf}, {"mlp_ratio": False}):
            with pytest.raises(ValueError):
                VitConfig(**bad)

    def test_block_layout(self):
        cfg = VitConfig()
        assert cfg.num_blocks == 12
        # 1-based odd indices are attention blocks
        assert [cfg.block_type(i) for i in range(4)] == ["attn", "mlp", "attn", "mlp"]


class TestMaskedForward:
    def test_identity_masks_match_compact_full_model(self):
        # unit masks and full index lists run the same block body on the
        # same weights, so the logits agree to the bit
        for dtype in (np.float32, np.float64):
            model, masks = tiny_model(dtype=dtype)
            x = rand_images(3, dtype=dtype)
            logits, _ = model.forward(x, masks)
            compact = CompactVit.from_masked(model, masks)
            logits_c = compact.forward(x)
            assert logits_c.data.dtype == dtype
            assert np.array_equal(logits.data, logits_c.data)

    def test_hidden_mask_scales_second_layer_column(self):
        model, masks = tiny_model()
        x = rand_images(2)
        delta = 1e-9
        vals = np.ones(TINY.hidden_dim)
        vals[5] = delta
        masks.set_block(1, {"hid": vals})  # block 1 is the first MLP
        out_masked, _ = model.forward(x, masks)

        masks.set_block(1, {"hid": np.ones(TINY.hidden_dim)})
        w = model.layers[0]["w_fc2"]
        orig = w.data.copy()
        w.data = orig.copy()
        w.data[5, :] *= delta
        b = model.layers[0]["b_fc1"]
        out_scaled, _ = model.forward(x, masks)
        w.data = orig
        # masking h*delta before ll2 == scaling that input row of ll2
        assert np.allclose(out_masked.data, out_scaled.data, rtol=1e-9)
        assert b is model.layers[0]["b_fc1"]

    def test_halving_out_mask_halves_residual_delta(self):
        model, masks = tiny_model()
        x = rand_images(2)
        _, trace_full = model.forward(x, masks)
        for i in range(TINY.num_blocks):
            masks.set_block(i, {"out": np.full(TINY.embed_dim, 0.5)})
        _, trace_half = model.forward(x, masks)
        # first block sees identical input, its residual delta must halve
        d_full = trace_full[0].after.data - trace_full[0].before.data
        d_half = trace_half[0].after.data - trace_half[0].before.data
        assert np.allclose(d_half, 0.5 * d_full, rtol=1e-10)

    def test_residual_identity(self):
        model, masks = tiny_model()
        x = rand_images(2)
        _, trace = model.forward(x, masks)
        for a, b in zip(trace[:-1], trace[1:]):
            assert np.array_equal(a.after.data, b.before.data)

    def test_wrong_image_size(self):
        for kind in ("masked", "compact"):
            _, forward = tiny_forward(kind)
            # 4 x 16 has the pixel count of 8 x 8: only the size check rejects it
            for shape in ((1, 6, 6, 1), (1, 4, 16, 1)):
                with pytest.raises(ValueError):
                    forward(Tensor(np.zeros(shape)))

    def test_nonfinite_activation_detected(self):
        for kind in ("masked", "compact"):
            model, forward = tiny_forward(kind)
            model.head_b.data[:] = np.inf
            with pytest.raises(NumericError):
                forward(rand_images(1))

    def test_mlp_mask_fold_equivalence(self):
        # ll2(h * M) == h @ (diag(M) @ W2) for a random soft mask
        model, masks = tiny_model()
        rng = np.random.default_rng(8)
        m = rng.uniform(0.1, 1.0, TINY.hidden_dim)
        x = rand_images(2)
        masks.set_block(1, {"hid": m})
        out_masked, _ = model.forward(x, masks)
        masks.set_block(1, {"hid": np.ones(TINY.hidden_dim)})
        w = model.layers[0]["w_fc2"]
        orig = w.data.copy()
        w.data = orig * m[:, None]
        out_folded, _ = model.forward(x, masks)
        w.data = orig
        assert np.allclose(out_masked.data, out_folded.data, rtol=1e-6)

    def test_qkv_mask_shared_across_heads(self):
        # masking one per-head channel zeroes that channel in q, k and v of
        # every head: fold it into the qkv weight columns instead and compare
        model, masks = tiny_model()
        x = rand_images(2)
        m = np.ones(TINY.head_dim)
        m[1] = 0.0  # hard zero for exact fold
        masks.set_block(0, {"e": np.maximum(m, 1e-300)})
        out_masked, _ = model.forward(x, masks)
        masks.set_block(0, {"e": np.ones(TINY.head_dim)})
        layer = model.layers[0]
        worig, borig = layer["w_qkv"].data.copy(), layer["b_qkv"].data.copy()
        w4 = worig.reshape(TINY.embed_dim, 3, TINY.heads, TINY.head_dim).copy()
        w4[:, :, :, 1] = 0.0
        b4 = borig.reshape(3, TINY.heads, TINY.head_dim).copy()
        b4[:, :, 1] = 0.0
        layer["w_qkv"].data = w4.reshape(worig.shape)
        layer["b_qkv"].data = b4.reshape(borig.shape)
        out_folded, _ = model.forward(x, masks)
        layer["w_qkv"].data, layer["b_qkv"].data = worig, borig
        assert np.allclose(out_masked.data, out_folded.data, rtol=1e-9, atol=1e-12)


class TestBlockLayout:
    def test_layers_view_holds_the_block_tensors(self):
        model, _ = tiny_model()
        assert len(model.layers) == TINY.depth
        for d, layer in enumerate(model.layers):
            attn, mlp = model.blocks[2 * d], model.blocks[2 * d + 1]
            expected = {"ln1_g": attn["ln_g"], "ln1_b": attn["ln_b"], "w_qkv": attn["w_qkv"],
                        "b_qkv": attn["b_qkv"], "w_proj": attn["w_proj"], "b_proj": attn["b_proj"],
                        "ln2_g": mlp["ln_g"], "ln2_b": mlp["ln_b"], "w_fc1": mlp["w_fc1"],
                        "b_fc1": mlp["b_fc1"], "w_fc2": mlp["w_fc2"], "b_fc2": mlp["b_fc2"]}
            assert list(layer) == list(expected)
            assert all(layer[key] is t for key, t in expected.items())

    def test_masked_index_lists_are_full_ranges(self):
        model, _ = tiny_model()
        for i, b in enumerate(model.blocks):
            assert b["type"] == TINY.block_type(i)
            for kind, size in TINY.mask_sizes(i).items():
                assert np.array_equal(b[f"{kind}_idx"], np.arange(size))

    def test_index_lists_give_every_shape(self):
        e, c = TINY.embed_dim, TINY.num_classes
        blocks = [{"type": "attn", "in_idx": [0, 3, 5], "out_idx": [1], "e_idx": [0, 2]},
                  {"type": "mlp", "in_idx": [7], "out_idx": [2, 4], "hid_idx": [0, 1, 9, 15]}]
        model = CompactVit(TINY, blocks * TINY.depth, np.float64)
        shapes = [(16, e), (e,), (1, 1, e), (1, 5, e)]
        shapes += [(e,), (e,), (3, 3 * 2 * 2), (3 * 2 * 2,), (2 * 2, 1), (1,),
                   (e,), (e,), (1, 4), (4,), (4, 2), (2,)] * TINY.depth
        shapes += [(e,), (e,), (e, c), (c,)]
        assert [t.shape for t in model.parameters()] == shapes
        for t in model.parameters():
            assert t.requires_grad and t.dtype == np.float64 and not t.data.any()
        assert np.array_equal(model.blocks[1]["hid_idx"], [0, 1, 9, 15])


class TestMaskGradients:
    def test_shapes_match_masks(self):
        model, masks = tiny_model()
        logits, _ = model.forward(rand_images(2), masks)
        loss = ag.softmax_cross_entropy(logits, np.array([0, 1]))
        ag.backward(loss)
        grads = masks.gradients()
        for i, block in enumerate(grads):
            for kind, g in block.items():
                assert g.shape == masks.blocks[i][kind].data.shape

    def test_read_before_backward_rejected(self):
        model, masks = tiny_model()
        model.forward(rand_images(1), masks)
        with pytest.raises(RuntimeError):
            masks.gradients()

    def test_zero_when_loss_ignores_output(self):
        model, masks = tiny_model()
        logits, _ = model.forward(rand_images(2), masks)
        loss = ag.tsum(ag.scale(logits, 0.0))
        ag.backward(loss)
        for block in masks.gradients():
            for g in block.values():
                assert np.allclose(g, 0.0)

    def test_matches_finite_differences(self):
        model, masks = tiny_model()
        x = rand_images(2)
        labels = np.array([0, 2])

        def loss_fn():
            logits, _ = model.forward(x, masks, collect_trace=False)
            return ag.softmax_cross_entropy(logits, labels)

        tensors = [masks.blocks[0]["e"], masks.blocks[1]["hid"], masks.blocks[2]["in"],
                   masks.blocks[3]["out"]]
        check_gradients(loss_fn, tensors, rtol=1e-5, sample=6,
                        rng=np.random.default_rng(9))


class TestCountParams:
    def test_full_mask_counts(self):
        cfg = VitConfig(image_size=32, patch_size=4, embed_dim=64, heads=4, depth=1)
        model = MaskedVit(cfg, seed=0)
        masks = MaskSet(cfg)
        totals, remaining = model.param_totals(masks)
        assert totals[0] == remaining[0] == 16640

    def test_half_head_dim(self):
        cfg = VitConfig(image_size=32, patch_size=4, embed_dim=64, heads=4, depth=1)
        model = MaskedVit(cfg, seed=0)
        masks = MaskSet(cfg)
        e_vals = np.full(16, 0.01)
        e_vals[:8] = 0.99
        masks.set_block(0, {"e": e_vals})
        _, remaining = model.param_totals(masks)
        assert remaining[0] == 8352

    def test_guard_floor_never_zero(self):
        cfg = VitConfig(image_size=32, patch_size=4, embed_dim=64, heads=4, depth=1)
        model = MaskedVit(cfg, seed=0)
        masks = MaskSet(cfg)
        # everything below threshold except a minimal guard per mask
        for kind, size in cfg.mask_sizes(0).items():
            vals = np.full(size, 0.01)
            vals[0] = 0.99
            masks.set_block(0, {kind: vals})
        _, remaining = model.param_totals(masks)
        assert remaining[0] == 1 * 12 + 12 + 4 * 1 + 1


class TestBackboneGradients:
    def test_full_model_gradcheck(self):
        model, masks = tiny_model(seed=3)
        x = rand_images(2, seed=4)
        labels = np.array([1, 2])

        def loss_fn():
            logits, _ = model.forward(x, masks, collect_trace=False)
            return ag.softmax_cross_entropy(logits, labels)

        params = [model.patch_w, model.cls_token, model.layers[0]["w_qkv"],
                  model.layers[1]["w_fc1"], model.ln_f_g, model.head_w]
        check_gradients(loss_fn, params, rtol=1e-6, sample=5,
                        rng=np.random.default_rng(10))

    def test_masks_not_in_parameters(self):
        model, masks = tiny_model()
        param_ids = {id(p) for p in model.parameters()}
        for t in masks.tensors():
            assert id(t) not in param_ids


class TestCompaction:
    @pytest.mark.parametrize("keep", [0.4, 0.7])
    def test_binarized_equivalence(self, keep):
        model, masks = tiny_model(seed=5)
        rng = np.random.default_rng(6)
        for i in range(TINY.num_blocks):
            vals = {}
            for kind, size in TINY.mask_sizes(i).items():
                soft = rng.uniform(0.0, 1.0, size)
                k = max(1, int(round(keep * size)))
                idx = np.argsort(soft)[::-1]
                v = np.full(size, 0.01)
                v[idx[:k]] = rng.uniform(0.6, 1.0, k)
                vals[kind] = v
            masks.set_block(i, vals)
        x = rand_images(4, seed=7)

        hard = MaskSet(TINY, dtype=np.float64)
        for i, block in enumerate(masks.binarized()):
            hard.set_block(i, block)
        logits_hard, _ = model.forward(x, hard)
        compact = CompactVit.from_masked(model, masks)
        logits_compact = compact.forward(x)
        assert np.allclose(logits_hard.data, logits_compact.data, rtol=1e-7)

        counts = compact.block_param_counts()
        _, remaining = model.param_totals(masks)
        for i in range(TINY.num_blocks):
            assert counts[i] == remaining[i]

    def test_compact_tensors_are_own_c_order_arrays(self):
        # fine-tuning trains these arrays in place: each must be C-ordered
        # and must not share memory with the masked model it came from
        model, masks = tiny_model()
        rng = np.random.default_rng(11)
        for i in range(TINY.num_blocks):
            masks.set_block(i, {kind: np.where(np.arange(size) == 0, 1.0,
                                               rng.uniform(0.0, 1.0, size))
                                for kind, size in TINY.mask_sizes(i).items()})
        compact = CompactVit.from_masked(model, masks)
        for p in compact.parameters():
            assert p.data.flags["C_CONTIGUOUS"]
            assert not any(np.shares_memory(p.data, q.data) for q in model.parameters())

    def test_block_delta_is_zero_outside_out_idx(self, monkeypatch):
        # the widened output projection must add nothing to pruned channels
        model, masks = tiny_model(dtype=np.float32)
        rng = np.random.default_rng(12)
        for i in range(TINY.num_blocks):
            masks.set_block(i, {kind: np.where(np.arange(size) == 0, 1.0,
                                               rng.uniform(0.0, 1.0, size))
                                for kind, size in TINY.mask_sizes(i).items()})
        compact = CompactVit.from_masked(model, masks)
        deltas = []
        block = CompactVit._block
        monkeypatch.setattr(CompactVit, "_block",
                            lambda self, *args: deltas.append(block(self, *args)) or deltas[-1])
        compact.forward(rand_images(3, dtype=np.float32))
        assert len(deltas) == TINY.num_blocks
        for b, delta in zip(compact.blocks, deltas):
            assert delta.dtype == np.float32 and delta.shape[-1] == TINY.embed_dim
            assert b["out_idx"].size < TINY.embed_dim
            assert np.all(np.delete(delta.data, b["out_idx"], axis=-1) == 0.0)
            assert np.any(delta.data[..., b["out_idx"]] != 0.0)

    def test_zero_channel_block_rejected(self):
        model, masks = tiny_model()
        masks.set_block(0, {"e": np.full(TINY.head_dim, 0.01)})
        with pytest.raises(ValueError):
            CompactVit.from_masked(model, masks)

    def test_compact_model_trains(self):
        model, masks = tiny_model()
        compact = CompactVit.from_masked(model, masks)
        x = rand_images(2)
        logits = compact.forward(x)
        loss = ag.softmax_cross_entropy(logits, np.array([0, 1]))
        ag.backward(loss)
        grads = [p.grad is not None for p in compact.parameters()]
        assert any(grads)
