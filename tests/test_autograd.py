import ctypes
import math

import numpy as np
import pytest

from blockprune import autograd as ag
from blockprune.autograd import Tensor
from blockprune.errors import NumericError
from blockprune.optim import AdamW

from conftest import check_gradients, tensor64


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.allclose(ag.matmul(a, b).data, b.data)

    def test_hand_value(self):
        out = ag.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.allclose(out.data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = tensor64(rng.normal(size=(3, 4)))
        b = tensor64(rng.normal(size=(4, 2)))
        check_gradients(lambda: ag.tsum(ag.matmul(a, b)), [a, b])

    def test_batched_gradient(self):
        rng = np.random.default_rng(4)
        a = tensor64(rng.normal(size=(2, 3, 4)))
        b = tensor64(rng.normal(size=(2, 4, 3)))
        check_gradients(lambda: ag.tsum(ag.matmul(a, b)), [a, b])

    def test_linear_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        x = tensor64(rng.normal(size=(5, 4)))
        w = tensor64(rng.normal(size=(4, 3)))
        b = tensor64(rng.normal(size=3))
        r = tensor64(rng.normal(size=(5, 3)), requires_grad=False)
        check_gradients(lambda: ag.tsum(ag.mul(ag.linear(x, w, b), r)), [x, w, b])
        with pytest.raises(ValueError):
            ag.linear(x, w, tensor64(np.ones(4)))


class TestHeap:
    def test_applied_on_glibc(self):
        try:
            ctypes.CDLL(None).mallopt
        except (OSError, AttributeError, TypeError):
            pytest.skip("the C library has no mallopt")
        assert ag._keep_large_temporaries_in_heap() is True
        core = getattr(np, "_core", None) or np.core
        # the setter returns the previous setting: numpy's huge-page advice is off
        assert core.multiarray._set_madvise_hugepage(False) is False

    def test_missing_c_library_is_skipped(self, monkeypatch):
        def no_library(*args, **kwargs):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert ag._keep_large_temporaries_in_heap() is False


class TestElementwise:
    def test_sigmoid_zero(self):
        assert float(ag.sigmoid(Tensor(np.zeros(1))).data[0]) == 0.5

    def test_softplus_zero(self):
        out = float(ag.softplus(Tensor(np.zeros(1, dtype=np.float64))).data[0])
        assert abs(out - math.log(2.0)) < 1e-12

    def test_hadamard(self):
        out = ag.mul(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 1.0, 0.5]))
        assert np.allclose(out.data, [0.0, 2.0, 1.5])

    def test_broadcast_error(self):
        with pytest.raises(ValueError):
            ag.add(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))

    @pytest.mark.parametrize("op", [ag.gelu, ag.sigmoid, ag.softplus])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(5)
        x = tensor64(rng.normal(size=(4, 3)))
        check_gradients(lambda: ag.tsum(op(x)), [x])

    def test_binary_broadcast_gradients(self):
        rng = np.random.default_rng(6)
        a = tensor64(rng.normal(size=(2, 5, 3)))
        b = tensor64(rng.normal(size=(3,)))
        check_gradients(lambda: ag.tsum(ag.mul(a, b)), [a, b])
        check_gradients(lambda: ag.tsum(ag.add(a, b)), [a, b])


class TestLayernorm:
    def test_constant_input_is_zero(self):
        x = Tensor(np.full((2, 4), 3.7))
        g = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        assert np.allclose(ag.layernorm(x, g, b).data, 0.0)

    def test_two_point_example(self):
        x = tensor64([[1.0, 3.0]])
        g = tensor64(np.ones(2))
        b = tensor64(np.zeros(2))
        out = ag.layernorm(x, g, b).data
        expect = 1.0 / math.sqrt(1.0 + 1e-5)  # variance 1 with eps in the denominator
        assert np.allclose(out, [[-expect, expect]], atol=1e-9)

    def test_empty_channel_dim(self):
        with pytest.raises(ValueError):
            ag.layernorm(Tensor(np.ones((2, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = tensor64(rng.normal(size=(3, 6)))
        g = tensor64(rng.normal(size=6))
        b = tensor64(rng.normal(size=6))
        weights = tensor64(rng.normal(size=(3, 6)), requires_grad=False)
        check_gradients(lambda: ag.tsum(ag.mul(ag.layernorm(x, g, b), weights)), [x, g, b])


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((5, 4), dtype=np.float64))
        loss = ag.softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert abs(float(loss.data) - math.log(4.0)) < 1e-12

    def test_saturated(self):
        logits = np.zeros((2, 3))
        logits[:, 1] = 1e6
        loss = ag.softmax_cross_entropy(Tensor(logits), np.array([1, 1]))
        assert float(loss.data) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ag.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = tensor64(rng.normal(size=(4, 5)))
        labels = np.array([0, 2, 4, 1])
        check_gradients(lambda: ag.softmax_cross_entropy(logits, labels), [logits])


class TestDetach:
    def test_values_equal(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert np.array_equal(x.detach().data, x.data)

    def test_blocks_gradient(self):
        w = tensor64(np.ones((2, 2)))
        x = ag.matmul(w, tensor64(np.ones((2, 2)), requires_grad=False))
        loss = ag.tsum(x.detach())
        ag.backward(loss)
        assert w.grad is None

    def test_two_loss_split(self):
        # the same upstream feeds one detached and one live consumer
        w = tensor64([[2.0]])
        x = ag.matmul(w, tensor64([[3.0]], requires_grad=False))
        head = tensor64([[5.0]])
        task = ag.tsum(x)
        aux = ag.tsum(ag.matmul(x.detach(), head))
        ag.backward(ag.add(task, aux))
        assert np.allclose(w.grad, [[3.0]])  # only the task path
        assert np.allclose(head.grad, [[6.0]])


class TestConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 5, 5, 3)))
        k = np.zeros((3, 3, 3, 3))
        for c in range(3):
            k[1, 1, c, c] = 1.0
        out = ag.conv2d_3x3(x, Tensor(k))
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_ones_kernel_corner_vs_center(self):
        x = Tensor(np.ones((1, 3, 3, 1)))
        out = ag.conv2d_3x3(x, Tensor(np.ones((3, 3, 1, 1)))).data[0, :, :, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == 4.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ag.conv2d_3x3(Tensor(np.ones((1, 3, 4, 1))), Tensor(np.ones((3, 3, 1, 1))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        x = tensor64(rng.normal(size=(2, 4, 4, 2)))
        k = tensor64(rng.normal(size=(3, 3, 2, 3)))
        check_gradients(lambda: ag.tsum(ag.conv2d_3x3(x, k)), [x, k])
        # a detached input, as the first conv of a probe reads
        r = tensor64(rng.normal(size=(2, 4, 4, 3)), requires_grad=False)
        x.requires_grad, x.grad = False, None
        check_gradients(lambda: ag.tsum(ag.mul(ag.conv2d_3x3(x, k), r)), [k])
        assert x.grad is None


class TestShapeOps:
    def test_reshape_transpose_roundtrip_gradients(self):
        rng = np.random.default_rng(11)
        x = tensor64(rng.normal(size=(2, 3, 4)))
        w = tensor64(rng.normal(size=(2, 3, 4)), requires_grad=False)

        def f():
            y = ag.transpose(x, (1, 0, 2))
            y = ag.reshape(y, (3, 8))
            y = ag.reshape(y, (3, 2, 4))
            y = ag.transpose(y, (1, 0, 2))
            return ag.tsum(ag.mul(y, w))

        check_gradients(f, [x])

    def test_concat_slice_gradients(self):
        rng = np.random.default_rng(12)
        a = tensor64(rng.normal(size=(2, 2)))
        b = tensor64(rng.normal(size=(3, 2)))
        w = tensor64(rng.normal(size=(2, 2)), requires_grad=False)

        def f():
            cat = ag.concat([a, b], axis=0)
            piece = ag.slice_axis(cat, 0, 1, 3)
            return ag.tsum(ag.mul(piece, w))

        check_gradients(f, [a, b])

    def test_take_scatter_gradients(self):
        rng = np.random.default_rng(13)
        x = tensor64(rng.normal(size=(3, 5)))
        idx = np.array([0, 2, 4])

        def f():
            y = ag.take_last(x, idx)
            return ag.tsum(ag.scatter_last(y, np.array([1, 3, 6]), 8))

        check_gradients(f, [x])
        # a narrowed weight and bias widened to full width, as the compact model does
        r = tensor64(rng.normal(size=(4, 8)), requires_grad=False)
        for shape in ((4, 3), (3,)):
            t = tensor64(rng.normal(size=shape))
            wide = ag.scatter_last(t, np.array([1, 3, 6]), 8)
            assert wide.shape == shape[:-1] + (8,)
            assert np.all(np.delete(wide.data, [1, 3, 6], axis=-1) == 0.0)
            check_gradients(lambda: ag.tsum(ag.mul(ag.scatter_last(t, np.array([1, 3, 6]), 8),
                                                   r)), [t])

    def test_mean_axis_gradients(self):
        rng = np.random.default_rng(14)
        x = tensor64(rng.normal(size=(2, 3, 4)))
        check_gradients(lambda: ag.tsum(ag.mean(x, axis=(1,))), [x])
        check_gradients(lambda: ag.mean(x), [x])


class TestTapeMechanics:
    def test_fanout_accumulates(self):
        x = tensor64([2.0])
        y = ag.add(ag.mul(x, x), ag.mul(x, x))  # 2x^2, dy/dx = 4x
        ag.backward(ag.tsum(y))
        assert np.allclose(x.grad, [8.0])

    def test_backward_visits_each_node_once(self):
        x = tensor64([1.0, 2.0])
        mid = ag.mul(x, x)
        top = ag.add(mid, mid)
        calls = []
        orig = top._backward

        def counting(g):
            calls.append(1)
            orig(g)

        top._backward = counting
        ag.backward(ag.tsum(top))
        assert len(calls) == 1
        assert np.allclose(x.grad, 4 * x.data)

    def test_no_grad_suppresses_recording(self):
        x = tensor64([1.0])
        with ag.no_grad():
            y = ag.mul(x, x)
        assert not y.requires_grad
        assert len(ag.tape) == 0

    def test_nonscalar_backward_rejected(self):
        x = tensor64([1.0, 2.0])
        with pytest.raises(ValueError):
            ag.backward(ag.mul(x, x))

    def test_nonfinite_loss_rejected(self):
        x = tensor64([np.inf])
        with pytest.raises(NumericError):
            ag.backward(ag.tsum(x))


class TestAdamW:
    def test_zero_gradient_only_decays(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert np.allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_first_step_magnitude(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.ones(1)
        opt.step()
        assert abs(float(p.data[0]) - 0.9) < 1e-6

    def test_nonfinite_gradient_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError):
            opt.step()

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(21)
            p = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
            opt = AdamW([p], lr=1e-2, weight_decay=0.01)
            for _ in range(5):
                ag.tape.clear()
                loss = ag.tsum(ag.mul(p, p))
                ag.backward(loss)
                opt.step()
                opt.zero_grad()
            return p.data.copy()

        assert np.array_equal(run(), run())
