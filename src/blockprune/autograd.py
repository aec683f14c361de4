"""Dense-tensor core with reverse-mode automatic differentiation.

Tensors wrap numpy arrays. Every primitive that produces a tensor from
tensors with ``requires_grad`` registers itself on the global tape in
creation order, which is a valid topological order; ``backward`` walks the
tape once in reverse and accumulates gradients additively across fan-out.
The tape is cleared at the start of each training step.

Broadcasting is restricted to numpy's trailing-dimension alignment so every
backward rule reduces to summing the leading/size-1 axes back out.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np

from .errors import NumericError

DEFAULT_DTYPE = np.float32

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

_M_TRIM_THRESHOLD = -1  # glibc malloc.h
_M_MMAP_THRESHOLD = -3


def _keep_large_temporaries_in_heap():
    """Serve allocations up to 32 MiB from the heap and keep freed heap memory.

    glibc gives each allocation above its mmap threshold pages of its own and
    unmaps them on free, so every fresh forward temporary of a few MiB
    (activations at batch 256) faults its pages in again; the heap reuses
    pages it already holds. numpy asks the kernel to back every array of
    4 MiB or more with huge pages; on a reused heap that advice marks
    scattered heap ranges, which the kernel collapses into huge pages in the
    background at times of its own, and the same forward then runs at a speed
    that changes from run to run. With the heap in use, numpy's advice is
    switched off. Returns False where the C library has no ``mallopt`` (not
    glibc), leaving the allocator and numpy as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if not (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1):
        return False
    core = getattr(np, "_core", None) or np.core  # numpy 2 / numpy 1.x
    advise = getattr(core.multiarray, "_set_madvise_hugepage", None)
    if advise is not None:
        advise(False)
    return True


_keep_large_temporaries_in_heap()


class Tape:
    """Ordered record of the primitives executed since the last clear."""

    def __init__(self):
        self.nodes = []
        self.enabled = True

    def record(self, tensor):
        self.nodes.append(tensor)

    def clear(self):
        self.nodes.clear()

    def __len__(self):
        return len(self.nodes)


tape = Tape()


@contextmanager
def no_grad():
    """Disable tape recording (evaluation / frozen forward passes)."""
    prev = tape.enabled
    tape.enabled = False
    try:
        yield
    finally:
        tape.enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_grad_owned")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._grad_owned = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self):
        """Value-equal tensor through which no gradient flows."""
        return Tensor(self.data, requires_grad=False)

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def _out(data, parents, backward):
    """Create the result tensor of a primitive and register it."""
    rg = tape.enabled and any(p.requires_grad for p in parents)
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = rg
    t._backward = backward if rg else None
    t._grad_owned = False
    if rg:
        tape.record(t)
    return t


def _accum(t, g):
    # the first gradient is adopted without copying; in-place accumulation
    # only ever happens on a buffer this tensor owns
    if not t.requires_grad:
        return
    if t.grad is None:
        if g.dtype != t.data.dtype:
            t.grad = g.astype(t.data.dtype)
            t._grad_owned = True
        else:
            t.grad = g
            t._grad_owned = False
    elif t._grad_owned:
        t.grad += g
    else:
        t.grad = t.grad + g
        t._grad_owned = True


def _unbroadcast(grad, shape):
    """Sum gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_trailing_broadcast(sa, sb):
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db and da != 1 and db != 1:
            raise ValueError(f"shapes {sa} and {sb} are not trailing-broadcastable")


def backward(loss):
    """Reverse pass from a scalar loss over the current tape.

    Each node fires at most once per tape lifetime, so a second backward on
    the same tape (e.g. from a different loss head) only propagates through
    nodes the first pass did not reach.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if not np.isfinite(loss.data):
        raise NumericError("non-finite loss")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)
            node._backward = None


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    _check_trailing_broadcast(a.shape, b.shape)
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _out(data, (a, b), bwd)


def sub(a, b):
    _check_trailing_broadcast(a.shape, b.shape)
    data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape))

    return _out(data, (a, b), bwd)


def mul(a, b):
    """Hadamard product with trailing-dimension broadcasting."""
    _check_trailing_broadcast(a.shape, b.shape)
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            if b.ndim == 1 and a.shape == g.shape and b.shape[0] == g.shape[-1]:
                # channel-mask case: fused product-reduce over leading axes
                gb = np.einsum("ij,ij->j", g.reshape(-1, b.shape[0]),
                               a.data.reshape(-1, b.shape[0]))
            else:
                gb = _unbroadcast(g * a.data, b.shape)
            _accum(b, gb)

    return _out(data, (a, b), bwd)


def scale(a, s):
    """Multiply by a python scalar (no tape node for the constant)."""
    s = float(s)
    data = a.data * np.asarray(s, dtype=a.dtype)

    def bwd(g):
        _accum(a, g * np.asarray(s, dtype=a.dtype))

    return _out(data, (a,), bwd)


def matmul(a, b):
    """2-D or batched (equal leading dims) matrix product."""
    sa, sb = a.shape, b.shape
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects tensors of rank >= 2")
    if sa[-1] != sb[-2]:
        raise ValueError(f"matmul inner dims disagree: {sa} x {sb}")
    if a.ndim > 2 and b.ndim > 2 and sa[:-2] != sb[:-2]:
        raise ValueError(f"matmul batch dims disagree: {sa} x {sb}")
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _out(data, (a, b), bwd)


def linear(x, w, b):
    """``x @ w + b`` for a 2-D ``x``, with the bias added in place."""
    if x.ndim != 2 or w.ndim != 2 or b.shape != w.shape[1:] or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear expects (n, i) x (i, o) + (o,): {x.shape} {w.shape} {b.shape}")
    data = x.data @ w.data
    data += b.data

    def bwd(g):
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _out(data, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# activations


def gelu(x):
    """GELU in its tanh form, with the matching exact derivative."""
    xa = x.data
    x2 = xa * xa
    th = x2 * _GELU_A
    th += 1.0
    th *= xa
    th *= _GELU_C
    np.tanh(th, out=th)
    data = th + 1.0
    data *= xa
    data *= 0.5

    def bwd(g):
        # d/dx = 0.5(1+th) + 0.5·x·(1-th²)·C·(1+3A·x²)
        dx = th * th
        np.subtract(1.0, dx, out=dx)
        dx *= xa
        dinner = np.multiply(x2, 3.0 * _GELU_A, out=x2)
        dinner += 1.0
        dx *= dinner
        dx *= _GELU_C
        dx += th
        dx += 1.0
        dx *= 0.5
        dx *= g
        _accum(x, dx)

    return _out(data, (x,), bwd)


def sigmoid(x):
    data = _sigmoid_np(x.data)

    def bwd(g):
        _accum(x, g * (data * (1.0 - data)))

    return _out(data, (x,), bwd)


def softplus(x):
    data = np.logaddexp(0.0, x.data).astype(x.dtype)

    def bwd(g):
        _accum(x, g * _sigmoid_np(x.data))

    return _out(data, (x,), bwd)


def _sigmoid_np(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# normalization / losses

LAYERNORM_EPS = 1e-5


def layernorm(x, gain, bias, eps=LAYERNORM_EPS):
    """Normalize over the last (channel) axis, then affine.

    Zero-variance input maps to zero before the affine thanks to the
    eps-stabilized denominator.
    """
    if x.shape[-1] == 0:
        raise ValueError("layernorm over an empty channel dimension")
    xa = x.data
    mu = xa.mean(axis=-1, keepdims=True)
    xhat = xa - mu
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    var += eps
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def bwd(g):
        # d/dx of xhat·gain with mean/var functions of x
        gi = g * gain.data
        term_mu = gi.mean(axis=-1, keepdims=True)
        term_var = (gi * xhat).mean(axis=-1, keepdims=True)
        dx = xhat * term_var
        dx += term_mu
        np.subtract(gi, dx, out=dx)
        dx *= inv
        _accum(x, dx)
        red = tuple(range(g.ndim - 1))
        gi = np.multiply(g, xhat, out=gi)
        _accum(gain, gi.sum(axis=red))
        _accum(bias, g.sum(axis=red))

    return _out(data, (x, gain, bias), bwd)


def softmax(x):
    """Softmax over the last axis."""
    data = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def bwd(g):
        dx = g * data
        dot = dx.sum(axis=-1, keepdims=True)
        dx -= data * dot
        _accum(x, dx)

    return _out(data, (x,), bwd)


def softmax_cross_entropy(logits, labels):
    """Mean of -log softmax(logits)[label] over the batch."""
    la = np.asarray(labels)
    if la.ndim != 1 or logits.ndim != 2 or la.shape[0] != logits.shape[0]:
        raise ValueError("expected logits (n, K) and labels (n,)")
    k = logits.shape[1]
    if la.min(initial=0) < 0 or la.max(initial=0) >= k:
        raise ValueError(f"label outside [0, {k})")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    n = la.shape[0]
    data = np.asarray(-logp[np.arange(n), la].mean(), dtype=logits.dtype)

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(n), la] -= 1.0
        _accum(logits, (g * p / n).astype(logits.dtype))

    return _out(data, (logits,), bwd)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x, shape):
    data = x.data.reshape(shape)

    def bwd(g):
        _accum(x, g.reshape(x.shape))

    return _out(data, (x,), bwd)


def transpose(x, axes):
    axes = tuple(axes)
    data = np.ascontiguousarray(x.data.transpose(axes))
    inv = np.argsort(axes)

    def bwd(g):
        _accum(x, np.ascontiguousarray(g.transpose(inv)))

    return _out(data, (x,), bwd)


def concat(tensors, axis):
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _out(data, tuple(tensors), bwd)


def slice_axis(x, axis, start, stop):
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = np.ascontiguousarray(x.data[idx])

    def bwd(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        _accum(x, full)

    return _out(data, (x,), bwd)


def repeat_axis0(x, n):
    """Tile a leading axis of size 1 up to n (class-token expansion)."""
    if x.shape[0] != 1:
        raise ValueError("repeat_axis0 expects leading dim 1")
    data = np.broadcast_to(x.data, (n,) + x.shape[1:]).copy()

    def bwd(g):
        _accum(x, g.sum(axis=0, keepdims=True))

    return _out(data, (x,), bwd)


def mean(x, axis=None):
    data = np.asarray(x.data.mean(axis=axis), dtype=x.dtype)
    count = x.size if axis is None else int(np.prod([x.shape[a] for a in np.atleast_1d(axis)]))

    def bwd(g):
        if axis is None:
            _accum(x, np.full_like(x.data, g / count))
        else:
            ge = np.expand_dims(g, axis) / count
            _accum(x, np.broadcast_to(ge, x.shape).astype(x.dtype))

    return _out(data, (x,), bwd)


def tsum(x):
    data = np.asarray(x.data.sum(), dtype=x.dtype)

    def bwd(g):
        _accum(x, np.full_like(x.data, g))

    return _out(data, (x,), bwd)


def take_last(x, idx):
    """Gather channels of the last axis (compacted-model column read)."""
    idx = np.asarray(idx, dtype=np.int64)
    data = np.take(x.data, idx, axis=-1)

    def bwd(g):
        full = np.zeros_like(x.data)
        full[..., idx] = g
        _accum(x, full)

    return _out(data, (x,), bwd)


def scatter_last(x, idx, width):
    """Place channels into a zero-initialized wider last axis."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape[0] != x.shape[-1]:
        raise ValueError("index count must match channel count")
    data = np.zeros(x.shape[:-1] + (width,), dtype=x.dtype)
    data[..., idx] = x.data

    def bwd(g):
        _accum(x, np.ascontiguousarray(g[..., idx]))

    return _out(data, (x,), bwd)


# ---------------------------------------------------------------------------
# convolution


def conv2d_3x3(x, kernel):
    """Same-padded 3x3 convolution on an n,h,w,c grid via im2col + matmul."""
    n, h, w, c = x.shape
    if h != w:
        raise ValueError("conv2d_3x3 requires a square spatial grid")
    kh, kw, cin, cout = kernel.shape
    if (kh, kw) != (3, 3) or cin != c:
        raise ValueError("kernel must be 3x3 with matching input channels")
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.empty((n, h, w, 9 * c), dtype=x.dtype)
    for dy in range(3):
        for dx in range(3):
            j = (dy * 3 + dx) * c
            cols[..., j:j + c] = xp[:, dy:dy + h, dx:dx + w, :]
    flat = cols.reshape(n * h * w, 9 * c)
    kmat = kernel.data.reshape(9 * c, cout)
    data = (flat @ kmat).reshape(n, h, w, cout)

    def bwd(g):
        gf = g.reshape(n * h * w, cout)
        _accum(kernel, (flat.T @ gf).reshape(3, 3, c, cout))
        if not x.requires_grad:
            return
        dcols = (gf @ kmat.T).reshape(n, h, w, 9 * c)
        dxp = np.zeros_like(xp)
        for dy in range(3):
            for dx in range(3):
                j = (dy * 3 + dx) * c
                dxp[:, dy:dy + h, dx:dx + w, :] += dcols[..., j:j + c]
        _accum(x, dxp[:, 1:h + 1, 1:w + 1, :])

    return _out(data, (x, kernel), bwd)
