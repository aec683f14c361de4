"""Dense-tensor core with reverse-mode automatic differentiation.

Tensors wrap numpy arrays. Every primitive that produces a tensor from
tensors with ``requires_grad`` registers itself on the global tape in
creation order, which is a valid topological order; ``backward`` walks the
tape once in reverse and accumulates gradients additively across fan-out.
A node leaves the tape as soon as it has fired, so the tape only holds nodes
no backward has reached yet; ``optim.train_epoch`` clears what is left at
the start of each training step.

A tensor adopts its first gradient and takes each later one as a new sum:
a gradient buffer may be shared (``add`` hands one array to both operands,
``reshape`` a view), so no gradient is ever written in place.

Broadcasting is restricted to numpy's trailing-dimension alignment so every
backward rule reduces to summing the leading/size-1 axes back out.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError

DEFAULT_DTYPE = np.float32

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_ROWS = 512  # rows per block of gelu

_M_TRIM_THRESHOLD = -1  # glibc malloc.h
_M_MMAP_THRESHOLD = -3


def _keep_large_temporaries_in_heap():
    """Serve allocations up to 32 MiB from the heap and keep freed heap memory.

    glibc gives each allocation above its mmap threshold pages of its own and
    unmaps them on free, so every fresh temporary of a few MiB faults its
    pages in again; the heap reuses pages it already holds. Grouped no-grad
    forwards make few such temporaries; recorded training steps, whose graphs
    span the whole batch, make many: without this, the median step of
    ``prune-desk24`` took 1.095× as long (6 pairs). numpy asks the kernel to
    back every array of 4 MiB or more with huge pages; on a reused heap that
    advice marks scattered heap ranges, which the kernel collapses into huge
    pages in the background at times of its own, and the same forward then
    runs at a speed that changes from run to run. With the heap in use,
    numpy's advice is switched off. Returns False where the C library has no
    ``mallopt`` (not glibc), leaving the allocator and numpy as they are.
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
    __slots__ = ("data", "grad", "requires_grad", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None

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
    if rg:
        tape.nodes.append(t)
    return t


def _accum(t, g):
    if not t.requires_grad:
        return
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    t.grad = g if t.grad is None else t.grad + g


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

    Each node that fires leaves the tape and drops its backward rule, so its
    output and gradient are freed once it has passed its gradient on, unless
    the caller still holds the tensor. Nodes the pass did not reach stay on
    the tape, so a second backward (e.g. from a different loss head) runs
    through them.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if not loss.requires_grad:
        raise ValueError("backward expects a loss with a graph (requires_grad)")
    if not np.isfinite(loss.data):
        raise NumericError("non-finite loss")
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        if node.grad is not None:
            node._backward(node.grad)
            node._backward = None
            del nodes[i]


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
            _accum(b, _unbroadcast(g * a.data, b.shape))

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
    """GELU in its tanh form, with the matching exact derivative.

    It runs in cache-sized blocks of rows. The tanh term goes to a buffer of
    its own, kept for the backward, only when a gradient is recorded;
    otherwise it is computed in the output buffer.
    """
    xa = x.data
    recorded = tape.enabled and x.requires_grad
    data = np.empty(xa.shape, dtype=xa.dtype)
    rows = xa.reshape(math.prod(xa.shape[:-1]), xa.shape[-1] if xa.ndim else 1)
    out = data.reshape(rows.shape)
    th = np.empty_like(out) if recorded else out
    for lo in range(0, rows.shape[0], _GELU_ROWS):
        xb, tb, ob = (a[lo:lo + _GELU_ROWS] for a in (rows, th, out))
        np.multiply(xb, xb, out=tb)
        tb *= _GELU_A
        tb += 1.0
        tb *= xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=ob)
        ob *= xb
        ob *= 0.5

    def bwd(g):
        # d/dx = 0.5(1+th) + 0.5·x·(1-th²)·C·(1+3A·x²)
        dx = th * th
        np.subtract(1.0, dx, out=dx)
        dx *= rows
        dinner = rows * rows
        dinner *= 3.0 * _GELU_A
        dinner += 1.0
        dx *= dinner
        dx *= _GELU_C
        dx += th
        dx += 1.0
        dx *= 0.5
        dx *= g.reshape(dx.shape)
        _accum(x, dx.reshape(x.shape))

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
    return np.exp(-np.logaddexp(0.0, -z))  # exp(-softplus(-z)): no overflow


# ---------------------------------------------------------------------------
# normalization / losses

LAYERNORM_EPS = 1e-5


def layernorm(x, gain, bias):
    """Normalize over the last (channel) axis, then affine; every row mean is a
    product with a column of 1/c. Zero-variance input keeps only its mean's
    rounding error, times 1/sqrt(eps) ~ 316: in float32, a constant row of
    |x| <= 5 at width 64 maps to |out| < 1e-3 before the affine."""
    c = x.shape[-1]
    if c == 0:
        raise ValueError("layernorm over an empty channel dimension")
    col = np.full((c, 1), 1.0 / c, dtype=x.dtype)
    xa = x.data.reshape(-1, c)
    xhat = xa - xa @ col
    sq = xhat * xhat
    inv = sq @ col
    inv += LAYERNORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    data = np.multiply(xhat, gain.data, out=sq)
    data += bias.data

    def bwd(g):
        # d/dx of xhat·gain with mean/var functions of x
        g = g.reshape(xhat.shape)
        gi = g * gain.data
        dx = gi * xhat
        np.multiply(xhat, dx @ col, out=dx)
        dx += gi @ col
        np.subtract(gi, dx, out=dx)
        dx *= inv
        _accum(x, dx.reshape(x.shape))
        _accum(gain, np.multiply(g, xhat, out=gi).sum(axis=0))
        _accum(bias, g.sum(axis=0))

    return _out(data.reshape(x.shape), (x, gain, bias), bwd)


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


def attention(h, n, t, heads, scale):
    """Multi-head self-attention as one node, from the (n * t, 3 * heads *
    width) q/k/v projection ``h`` to the merged heads (n * t, heads * width),
    with the scores multiplied by ``scale``. The probabilities are key-major,
    one (t, n * heads * t) buffer, so the softmax's max and sum reduce over
    long contiguous rows. ``scale`` rides on a transposed copy of q (of g in
    the backward); k and v are strided views of ``h``."""
    if h.ndim != 2 or h.shape[0] != n * t or h.shape[1] % (3 * heads):
        raise ValueError(f"attention expects (n * t, 3 * heads * width): {h.shape}")
    width = h.shape[1] // (3 * heads)
    q, k, v = h.data.reshape(n, t, 3, heads, width).transpose(2, 0, 3, 1, 4)
    scale = np.asarray(scale, dtype=h.dtype)

    def scaled_t(a):  # scale·aᵀ, contiguous: BLAS is slow on a transposed operand
        return np.multiply(a.swapaxes(-1, -2), scale, out=np.empty((n, heads, width, t), h.dtype))

    qst = scaled_t(q)  # before p, so the heap frees both as one hole at return
    p = np.empty((t, n * heads * t), dtype=h.dtype)
    pk = p.reshape(t, n, heads, t).transpose(1, 2, 0, 3)  # (n, heads, key, query)
    np.matmul(k, qst, out=pk)
    p -= p.max(axis=0)
    np.exp(p, out=p)
    total = p.sum(axis=0)
    p *= np.divide(1.0, total, out=total)
    data = np.empty((n, t, heads, width), dtype=h.dtype)
    np.matmul(pk.swapaxes(-1, -2), v, out=data.transpose(0, 2, 1, 3))

    def bwd(g):
        g = g.reshape(n, t, heads, width)
        # per query, the softmax's sum of p·dp is g·out (FlashAttention's D);
        # it and gᵀ carry the scale, so ds is the gradient of the unscaled q·k
        dot = (g * data).reshape(-1, width) @ np.full(width, scale, dtype=h.dtype)
        g = g.transpose(0, 2, 1, 3)
        ds = np.empty_like(p)
        dsk = ds.reshape(t, n, heads, t).transpose(1, 2, 0, 3)
        np.matmul(v, scaled_t(g), out=dsk)
        ds -= dot.reshape(n, t, heads).transpose(0, 2, 1).reshape(-1)
        ds *= p
        dh = np.empty((n, t, 3, heads, width), dtype=h.dtype)
        dq, dk, dv = dh.transpose(2, 0, 3, 1, 4)
        np.matmul(pk, g, out=dv)
        np.matmul(dsk, q, out=dk)
        np.matmul(dsk.swapaxes(-1, -2), k, out=dq)
        _accum(h, dh.reshape(h.shape))

    return _out(data.reshape(n * t, heads * width), (h,), bwd)


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
    axes = tuple(range(x.ndim)) if axis is None else axis
    count = int(np.prod([x.shape[a] for a in np.atleast_1d(axes)]))

    def bwd(g):
        _accum(x, np.broadcast_to(np.expand_dims(g, axes) / count, x.shape).astype(x.dtype))

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
    xp = np.zeros((n, h + 2, w + 2, c), x.dtype)
    xp[:, 1:h + 1, 1:w + 1] = x.data
    # the nine taps in one strided copy, tap-major: column (dy·3 + dx)·c + channel
    cols = np.empty((n, h, w, 3, 3, c), dtype=x.dtype)
    cols[...] = sliding_window_view(xp, (3, 3), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    flat = cols.reshape(n * h * w, 9 * c)
    kmat = kernel.data.reshape(9 * c, cout)
    data = (flat @ kmat).reshape(n, h, w, cout)

    def bwd(g):
        gf = g.reshape(n * h * w, cout)
        _accum(kernel, (flat.T @ gf).reshape(3, 3, c, cout))
        if not x.requires_grad:
            return
        dcols = (gf @ kmat.T).reshape(n, h, w, 9 * c)
        dxp = np.zeros((n, h + 2, w + 2, c), x.dtype)
        for dy in range(3):
            for dx in range(3):
                j = (dy * 3 + dx) * c
                dxp[:, dy:dy + h, dx:dx + w, :] += dcols[..., j:j + c]
        _accum(x, dxp[:, 1:h + 1, 1:w + 1, :])

    return _out(data, (x, kernel), bwd)
