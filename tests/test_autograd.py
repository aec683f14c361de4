import ctypes
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from blockprune import autograd as ag
from blockprune.autograd import Tensor
from blockprune.errors import NumericError
from blockprune.optim import AdamW

from conftest import check_gradients, tensor64


def relative_difference(a, b):
    """Largest absolute difference over the largest magnitude of ``b``."""
    return np.max(np.abs(a.astype(np.float64) - b)) / np.max(np.abs(b))


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

    @pytest.mark.parametrize("op", [ag.gelu, ag.sigmoid, ag.softplus])
    def test_unary_gradients_0d(self, op):
        x = tensor64(np.float64(-0.7))
        check_gradients(lambda: ag.tsum(op(x)), [x])
        assert x.grad.shape == ()

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

    def test_constant_input_float32_bound(self):
        # only the mean's rounding error is left, times 1/sqrt(eps)
        ones, zeros = Tensor(np.ones(64, np.float32)), Tensor(np.zeros(64, np.float32))
        for value in np.linspace(-5.0, 5.0, 200):
            x = Tensor(np.full((1, 64), value, dtype=np.float32))
            assert np.abs(ag.layernorm(x, ones, zeros).data).max() < 1e-3

    @pytest.mark.parametrize("shape", [(3, 37, 64), (2, 65, 48), (5, 17, 7)])
    def test_float32_close_to_float64(self, shape):
        rng = np.random.default_rng(shape[-1])
        arrays = [rng.normal(size=shape) * 3 + 1, rng.normal(size=shape[-1]),
                  rng.normal(size=shape[-1])]
        weights = rng.normal(size=shape)
        results = []
        for dtype in (np.float64, np.float32):
            x, g, b = (Tensor(a.astype(dtype), requires_grad=True) for a in arrays)
            out = ag.layernorm(x, g, b)
            ag.backward(ag.tsum(ag.mul(out, Tensor(weights.astype(dtype)))))
            results.append((out.data, x.grad, g.grad, b.grad))
        for want, got in zip(*results):
            assert got.dtype == np.float32
            assert relative_difference(got, want) <= 2e-6

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


def unfused_attention(h, n, t, heads, scale):
    """The transpose/slice/matmul/scale/softmax chain that ``ag.attention``
    fuses, kept as its reference."""
    width = h.shape[1] // (3 * heads)
    qkv = ag.transpose(ag.reshape(h, (n, t, 3, heads, width)), (2, 0, 3, 1, 4))
    q, k, v = (ag.reshape(ag.slice_axis(qkv, 0, j, j + 1), (n, heads, t, width))
               for j in range(3))
    scores = ag.scale(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), scale)
    out = ag.matmul(ag.softmax(scores), v)
    return ag.reshape(ag.transpose(out, (0, 2, 1, 3)), (n * t, heads * width))


class TestAttention:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        n, t, heads, width = 2, 5, 4, 3
        h = tensor64(rng.normal(size=(n * t, 3 * heads * width)))
        r = tensor64(rng.normal(size=(n * t, heads * width)), requires_grad=False)
        check_gradients(lambda: ag.tsum(ag.mul(ag.attention(h, n, t, heads, 0.5), r)), [h])

    @pytest.mark.parametrize("t", [37, 65])
    @pytest.mark.parametrize("width", [16, 5, 1])
    def test_close_to_unfused_chain(self, t, width):
        # the key-major node reorders the chain's ops, so it agrees to rounding:
        # relative to the largest magnitude, 1e-14 in float64 and 2e-6 in float32
        rng = np.random.default_rng(t * width)
        n, heads = 3, 4
        h_data = rng.normal(size=(n * t, 3 * heads * width))
        r_data = rng.normal(size=(n * t, heads * width))
        for dtype, bound in ((np.float64, 1e-14), (np.float32, 2e-6)):
            results = []
            for fn in (unfused_attention, ag.attention, ag.attention):
                ag.tape.clear()
                h = Tensor(h_data.astype(dtype), requires_grad=True)
                out = fn(h, n, t, heads, 1.0 / math.sqrt(16))
                ag.backward(ag.tsum(ag.mul(out, Tensor(r_data.astype(dtype)))))
                results.append((out.data, h.grad))
            want, got, again = results
            assert [a.tobytes() for a in got] == [a.tobytes() for a in again]
            for a, b in zip(got, want):
                assert a.dtype == dtype
                assert relative_difference(a, b) <= bound

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            ag.attention(Tensor(np.ones((6, 10))), 2, 3, 2, 1.0)


class TestGeluNoGrad:
    @pytest.mark.parametrize("shape", [(1, 7), (512, 7), (513, 7), (1000, 33), (9,),
                                       (2, 3, 4, 5), ()])
    def test_bit_equal_to_recorded_forward(self, shape):
        x = Tensor(np.random.default_rng(8).normal(size=shape).astype(np.float32),
                   requires_grad=True)
        recorded = ag.gelu(x)
        assert recorded.requires_grad
        with ag.no_grad():
            plain = ag.gelu(x)
        assert plain.shape == shape
        assert plain.data.tobytes() == recorded.data.tobytes()

    def test_no_tape_node_under_no_grad(self):
        x = tensor64(np.ones((3, 4)))
        ag.tape.clear()
        with ag.no_grad():
            ag.gelu(x)
        assert len(ag.tape) == 0

    def test_detached_input_records_no_gradient(self):
        x = tensor64(np.ones((3, 4)))
        ag.tape.clear()
        y = ag.gelu(x.detach())
        assert not y.requires_grad
        assert len(ag.tape) == 0


def traced_bytes_held(fn):
    """Bytes allocated by ``fn()`` and still held when it returns, with its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[0], result
    finally:
        tracemalloc.stop()


def unblocked_gelu(xa, g):
    """The recorded GELU rule before it joined the blocked loop, as the
    reference for its bytes: output and input gradient for upstream ``g``."""
    shape = xa.shape
    xa = np.atleast_1d(xa)
    x2 = xa * xa
    th = x2 * ag._GELU_A
    th += 1.0
    th *= xa
    th *= ag._GELU_C
    np.tanh(th, out=th)
    data = th + 1.0
    data *= xa
    data *= 0.5
    dx = th * th
    np.subtract(1.0, dx, out=dx)
    dx *= xa
    dinner = np.multiply(x2, 3.0 * ag._GELU_A, out=x2)
    dinner += 1.0
    dx *= dinner
    dx *= ag._GELU_C
    dx += th
    dx += 1.0
    dx *= 0.5
    dx *= g
    return data.reshape(shape), dx.reshape(shape)


class TestGeluRecorded:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 7), (512, 7), (513, 7), (1000, 33), (9,),
                                       (2, 3, 4, 5), ()])
    def test_bit_equal_to_the_unblocked_rule(self, shape, dtype):
        rng = np.random.default_rng(15)
        x = Tensor((3 * rng.normal(size=shape)).astype(dtype), requires_grad=True)
        g = rng.normal(size=shape).astype(dtype)
        y = ag.gelu(x)
        ag.backward(ag.tsum(ag.mul(y, Tensor(g))))  # hands gelu exactly g
        ref_out, ref_grad = unblocked_gelu(x.data, g)
        assert y.data.tobytes() == ref_out.tobytes()
        assert x.grad.shape == shape
        assert x.grad.tobytes() == ref_grad.tobytes()

    def test_graph_holds_output_and_tanh_only(self):
        x = Tensor(np.random.default_rng(16).normal(size=(1040, 256)).astype(np.float32),
                   requires_grad=True)
        held, y = traced_bytes_held(lambda: ag.gelu(x))
        assert y.requires_grad
        assert held <= 2.01 * x.data.nbytes


class TestDetach:
    def test_values_equal(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert np.array_equal(x.detach().data, x.data)

    def test_blocks_gradient(self):
        w = tensor64(np.ones((2, 2)))
        x = ag.matmul(w, tensor64(np.ones((2, 2)), requires_grad=False))
        loss = ag.tsum(x.detach())
        with pytest.raises(ValueError):
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

    def test_graph_holds_output_and_columns_only(self):
        # output 1x, im2col columns 9x; the padded input is not kept for the backward
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(16, 8, 8, 64)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 64, 64)).astype(np.float32), requires_grad=True)
        held, y = traced_bytes_held(lambda: ag.conv2d_3x3(x, k))
        assert y.requires_grad
        assert held <= 10.01 * x.data.nbytes

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

    def test_shared_gradient_is_never_written_in_place(self):
        # the outer add hands one array to both of its operands and the inner
        # add hands it on to a and b; a then takes a second gradient
        a, b = (Tensor(np.ones(3, dtype=np.float32), requires_grad=True) for _ in range(2))
        c = Tensor(np.array([2.0, 3.0, 4.0], dtype=np.float32))
        other = ag.mul(a, c)
        ag.backward(ag.tsum(ag.add(ag.add(a, b), other)))
        assert b.grad.tobytes() == np.ones(3, dtype=np.float32).tobytes()
        assert np.array_equal(a.grad, [3.0, 4.0, 5.0])

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

    def test_fired_node_is_freed_unless_held(self):
        x = tensor64(np.linspace(-2.0, 2.0, 6))
        y = ag.gelu(x)
        data = weakref.ref(y.data)  # Tensor has no __weakref__ slot
        loss = ag.mean(y)
        del y
        ag.backward(loss)
        assert data() is None
        assert len(ag.tape) == 0
        assert x.grad is not None

    def test_held_tensor_keeps_its_gradient(self):
        x = tensor64([1.0, -2.0])
        y = ag.mul(x, x)
        ag.backward(ag.tsum(y))
        assert np.array_equal(y.grad, [1.0, 1.0])
        assert np.array_equal(x.grad, [2.0, -4.0])

    def test_second_backward_runs_the_branch_the_first_left(self):
        a, b = tensor64([2.0]), tensor64([3.0])
        loss_a = ag.tsum(ag.mul(a, a))
        loss_b = ag.tsum(ag.mul(b, b))
        ag.backward(loss_a)
        assert b.grad is None
        assert len(ag.tape) == 2  # loss_b's nodes, which did not fire
        ag.backward(loss_b)
        assert np.array_equal(a.grad, [4.0])
        assert np.array_equal(b.grad, [6.0])
        assert len(ag.tape) == 0

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
