import tracemalloc

import numpy as np
import pytest

from blockprune import autograd as ag
from blockprune.bpi import BpiHeads
from blockprune.errors import NumericError
from blockprune.masking import RunningMean
from blockprune.vit import MaskSet, MaskedVit, VitConfig
from test_vit import TINY, rand_images, tiny_model


def run_step(model, masks, heads, x, labels):
    ag.tape.clear()
    logits, trace = model.forward(x, masks)
    task_loss = ag.softmax_cross_entropy(logits, labels)
    bp_c, bp_p, head_loss = heads.step(trace, labels)
    return task_loss, head_loss, bp_c, bp_p


class TestHeads:
    @pytest.mark.parametrize("patch_head", ["resnet", "pooled-linear"])
    def test_identity_block_has_zero_benefit(self, patch_head):
        model, masks = tiny_model()
        heads = BpiHeads(TINY, patch_head=patch_head, seed=2, dtype=np.float64)
        # silence block 3 entirely: its output write is (numerically) zero
        masks.set_block(3, {"out": np.full(TINY.embed_dim, 1e-300)})
        x = rand_images(3)
        labels = np.array([0, 1, 2])
        _, trace = model.forward(x, masks)
        assert np.allclose(trace[3].before.data, trace[3].after.data)
        bp_c, bp_p, _ = heads.step(trace, labels)
        assert bp_c[3] == 0.0
        assert bp_p[3] == 0.0

    def test_benefit_sign_matches_loss_change(self):
        model, masks = tiny_model()
        heads = BpiHeads(TINY, patch_head="pooled-linear", seed=3, dtype=np.float64)
        x = rand_images(4)
        labels = np.array([0, 1, 2, 0])
        _, trace = model.forward(x, masks)
        bp_c, _, _ = heads.step(trace, labels)
        for rec in trace:
            with ag.no_grad():
                before = float(ag.softmax_cross_entropy(
                    heads._class_logits(rec.index, rec.before), labels).data)
                after = float(ag.softmax_cross_entropy(
                    heads._class_logits(rec.index, rec.after), labels).data)
            assert (bp_c[rec.index] > 0) == (after < before)

    def test_same_head_evaluates_both_sides(self):
        model, masks = tiny_model()
        heads = BpiHeads(TINY, patch_head="pooled-linear", seed=4, dtype=np.float64)
        x = rand_images(2)
        _, trace = model.forward(x, masks)
        # evaluating the same features on both sides must give benefit 0 for
        # every block: the head pair shares parameters across the two calls
        for rec in trace:
            rec_equal = type(rec)(rec.index, rec.before, rec.before)
            bp_c, bp_p, _ = heads.step(
                [rec_equal if r.index == rec.index else r for r in trace],
                np.array([0, 1]))
            assert bp_c[rec.index] == 0.0
            assert bp_p[rec.index] == 0.0

    def test_stop_gradient_isolation(self):
        model, masks = tiny_model()
        heads = BpiHeads(TINY, patch_head="resnet", seed=5, dtype=np.float64)
        x = rand_images(3)
        labels = np.array([0, 1, 2])
        ag.tape.clear()
        _, trace = model.forward(x, masks)
        heads.step(trace, labels)  # the heads' backward runs inside step
        for p in model.parameters():
            assert p.grad is None  # backbone untouched by the head loss
        assert any(p.grad is not None and np.any(p.grad != 0)
                   for p in heads.parameters())

    def test_joint_step_keeps_gradients_separate(self):
        model, masks = tiny_model()
        heads = BpiHeads(TINY, patch_head="pooled-linear", seed=6, dtype=np.float64)
        x = rand_images(3)
        labels = np.array([0, 1, 2])
        task_loss, head_loss, _, _ = run_step(model, masks, heads, x, labels)

        ag.backward(ag.add(task_loss, head_loss))
        task_w = model.layers[0]["w_qkv"]
        assert task_w.grad is not None and np.any(task_w.grad != 0)

        # gradients on backbone must equal a task-only backward
        joint = task_w.grad.copy()
        for p in model.parameters() + heads.parameters():
            p.grad = None
        task_loss2, _, _, _ = run_step(model, masks, heads, x, labels)
        ag.backward(task_loss2)
        assert np.allclose(task_w.grad, joint, rtol=1e-12)

    def test_trace_length_checked(self):
        heads = BpiHeads(TINY, patch_head="pooled-linear")
        with pytest.raises(ValueError):
            heads.step([], np.array([0]))

    def test_unknown_patch_head(self):
        with pytest.raises(ValueError):
            BpiHeads(TINY, patch_head="mlp-mixer")


def resnet_step_setup(config=TINY, n=3, seed=7):
    """A float32 model, ResNet-probe heads, labels and a trace taken under no_grad."""
    model = MaskedVit(config, seed=0)
    heads = BpiHeads(config, patch_head="resnet", seed=seed)
    labels = np.arange(n) % config.num_classes
    with ag.no_grad():
        _, trace = model.forward(rand_images(n, config, dtype=np.float32), MaskSet(config))
    return heads, trace, labels


class TestStepBackward:
    """``step`` backpropagates each block's head term as soon as it exists."""

    def test_tape_is_as_long_after_step(self):
        model, masks = tiny_model(dtype=np.float32)
        heads = BpiHeads(TINY, patch_head="resnet", seed=7)
        labels = np.array([0, 1, 2])
        _, trace = model.forward(rand_images(3, dtype=np.float32), masks)
        before = len(ag.tape)
        assert before > 0  # the backbone's nodes
        _, _, loss = heads.step(trace, labels)
        assert len(ag.tape) == before
        assert not loss.requires_grad

    def test_gradients_equal_one_joint_backward(self):
        heads, trace, labels = resnet_step_setup()
        _, _, loss = heads.step(trace, labels)
        stepped = [p.grad for p in heads.parameters()]
        for p in heads.parameters():
            p.grad = None
        joint = None
        for rec in trace:
            term = ag.add(
                ag.softmax_cross_entropy(heads._class_logits(rec.index, rec.after), labels),
                ag.softmax_cross_entropy(heads._patch_logits(rec.index, rec.after), labels))
            joint = term if joint is None else ag.add(joint, term)
        ag.backward(joint)
        assert loss.data.tobytes() == joint.data.tobytes()
        for got, p in zip(stepped, heads.parameters()):
            assert got is not None
            assert got.tobytes() == p.grad.tobytes()

    def test_no_grad_step_makes_no_gradient(self):
        heads, trace, labels = resnet_step_setup()
        with ag.no_grad():
            heads.step(trace, labels)
        assert all(p.grad is None for p in heads.parameters())

    def test_non_finite_term_raises(self):
        heads, trace, labels = resnet_step_setup()
        heads.class_heads[1]["b"].data[0] = np.nan
        with pytest.raises(NumericError):
            heads.step(trace, labels)

    def test_peak_memory_does_not_grow_with_the_probe_graphs(self):
        # one probe graph alive at a time: keeping every block's graph until
        # the step ends made the peak 4x from depth 1 to depth 4
        def peak(depth):
            cfg = VitConfig(image_size=16, patch_size=4, embed_dim=16, heads=2, depth=depth,
                            mlp_ratio=2.0, num_classes=3, channels=1)
            heads, trace, labels = resnet_step_setup(cfg, n=8)
            tracemalloc.start()
            try:
                heads.step(trace, labels)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) < 1.5 * peak(1)


def benefit_mean(num_blocks):
    return RunningMean([{"class": num_blocks, "patch": num_blocks}])


def read_benefit(acc):
    (means,) = acc.read_and_reset()
    return means["class"], means["patch"]


class TestAccumulator:
    def test_single_step_mean(self):
        acc = benefit_mean(2)
        acc.add([{"class": np.array([0.2, 0.4]), "patch": np.array([0.1, 0.3])}])
        mc, mp = read_benefit(acc)
        assert np.allclose(mc, [0.2, 0.4])
        assert np.allclose(mp, [0.1, 0.3])

    def test_two_step_mean(self):
        acc = benefit_mean(1)
        acc.add([{"class": np.array([0.2]), "patch": np.array([0.0])}])
        acc.add([{"class": np.array([0.4]), "patch": np.array([0.0])}])
        mc, _ = read_benefit(acc)
        assert np.allclose(mc, [0.3])

    def test_reset_contract(self):
        acc = benefit_mean(1)
        acc.add([{"class": np.array([1.0]), "patch": np.array([1.0])}])
        acc.read_and_reset()
        assert acc.steps == 0
        with pytest.raises(RuntimeError):
            acc.read_and_reset()
