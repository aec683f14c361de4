import os
import struct

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # 2-core box: avoid thread thrash

import numpy as np
import pytest

from blockprune import autograd as ag
from blockprune.autograd import Tensor


@pytest.fixture(autouse=True)
def fresh_tape():
    ag.tape.clear()
    ag.tape.enabled = True
    yield
    ag.tape.clear()


def fd_gradient(fn, tensors, index, h=1e-5):
    """Central finite-difference gradient of scalar fn w.r.t. tensors[index]."""
    target = tensors[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        step = h * max(1.0, abs(orig))
        flat[j] = orig + step
        with ag.no_grad():
            hi = float(fn().data)
        flat[j] = orig - step
        with ag.no_grad():
            lo = float(fn().data)
        flat[j] = orig
        gflat[j] = (hi - lo) / (2 * step)
    return grad


def check_gradients(fn, tensors, rtol=1e-6, h=1e-5, sample=None, rng=None):
    """Compare reverse-mode gradients of scalar fn() against central differences.

    With `sample`, only that many randomly chosen coordinates per tensor are
    probed (needed for model-sized parameter tensors). A loss without a graph
    is taken as already backpropagated inside fn(), as ``BpiHeads.step`` does.
    """
    ag.tape.clear()
    for t in tensors:
        t.grad = None
    loss = fn()
    if loss.requires_grad:
        ag.backward(loss)
    for i, t in enumerate(tensors):
        assert t.grad is not None, f"tensor {i} received no gradient"
        if sample is None:
            fd = fd_gradient(fn, tensors, i, h=h)
            num = np.abs(t.grad - fd)
            den = np.maximum(np.abs(fd), 1e-4)
            assert np.max(num / den) < rtol, f"tensor {i}: rel err {np.max(num / den):.3e}"
        else:
            flat = t.data.reshape(-1)
            gflat = t.grad.reshape(-1)
            count = min(sample, flat.size)
            coords = (rng or np.random.default_rng(0)).choice(flat.size, size=count, replace=False)
            for j in coords:
                orig = flat[j]
                step = h * max(1.0, abs(orig))
                flat[j] = orig + step
                with ag.no_grad():
                    hi = float(fn().data)
                flat[j] = orig - step
                with ag.no_grad():
                    lo = float(fn().data)
                flat[j] = orig
                fd = (hi - lo) / (2 * step)
                err = abs(gflat[j] - fd) / max(abs(fd), 1e-4)
                assert err < rtol, f"tensor {i} coord {j}: rel err {err:.3e}"


def tensor64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def write_idx_pair(directory, images, labels):
    """IDX image and label files ``imgs.idx`` and ``lbls.idx`` in ``directory``."""
    ipath, lpath = directory / "imgs.idx", directory / "lbls.idx"
    n, h, w = images.shape
    with open(ipath, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, h, w))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lpath, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.astype(np.uint8).tobytes())
    return str(ipath), str(lpath)
