"""AdamW with decoupled weight decay and bias correction, and the one
training epoch every phase of a run is built from."""

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import NumericError


class AdamW:
    def __init__(self, params, lr=5e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """Apply one update to every parameter that has a gradient."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.all(np.isfinite(g)):
                raise NumericError("non-finite gradient in optimizer step")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= np.asarray(self.lr * update, dtype=p.data.dtype)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def finite_loss(logits, labels, where):
    """Task cross-entropy; raises NumericError if it is not finite."""
    loss = ag.softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss.data):
        raise NumericError(f"non-finite loss {where}; aborting run")
    return loss


def train_epoch(batches, optimizers, step, after_step=None):
    """One pass over ``batches``; returns the sample-weighted mean task loss.

    Per batch: clear the tape, run ``step(x, labels)`` (forward and backward;
    it returns the task loss), step and zero every optimizer, then call
    ``after_step()``.
    """
    loss_sum, count = 0.0, 0
    for images, labels in batches:
        ag.tape.clear()
        loss = step(Tensor(images), labels)
        for opt in optimizers:
            opt.step()
            opt.zero_grad()
        loss_sum += float(loss.data) * len(labels)
        count += len(labels)
        if after_step:
            after_step()
    return loss_sum / max(count, 1)
