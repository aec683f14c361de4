"""Channel ranking and soft-mask construction within a block.

Per-element importance is the squared product of mask value and mask
gradient, averaged between updates. Scores are reduced to within-mask ranks
(scaled by a per-mask factor), concatenated across the block's partial
masks, and globally ordered; the new mask value of an element depends only
on its position in that order:

    value(rank) = sigmoid( slope * (rank - (N - k)) / (sharpness * N) )

with slope = logit(REF_MASK_VALUE). The least important kept element
therefore sits exactly at 0.5, the element `sharpness * N` ranks above it at
REF_MASK_VALUE (0.9), and no element is ever exactly zero, so pruned
channels keep competing and can be reactivated by a later update.

The per-mask guard keeps at least ``guards[kind]`` elements of every partial
mask. A mask's top ``guards[kind]`` elements in the order are *protected*;
the kept set at k is every protected element plus the top ``k - floor``
elements of the rest, where floor is the sum of the guards. Each +1 in k
keeps one more element of the rest, so a block's kept parameters at every k
from the floor to N form one table of running sums, which the planner
reads instead of rebuilding the masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .vit import BlockGeometry  # noqa: F401  (masking.BlockGeometry is public)

REF_MASK_VALUE = 0.9
GUARD_FRACTION = 0.05     # minimum kept share per partial mask
# floor of a mask value: strictly positive and a normal float32 (the
# smallest is 1.18e-38), as is the product of two floors and a factor of 1e-6,
# so no mask or gated weight is stored as a slow subnormal
MIN_MASK_VALUE = 1e-12


def taylor_score(mask_value, grad):
    """Squared first-order sensitivity of the loss to one mask element."""
    g = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite mask gradient")
    prod = np.asarray(mask_value, dtype=np.float64) * g
    return prod * prod


class RunningMean:
    """Element-wise mean of the values added since the last read.

    ``sizes`` holds one {name: length} dict per block; every ``add`` takes
    one {name: array} dict per block.
    """

    def __init__(self, sizes):
        self._sizes = sizes
        self._reset()

    def _reset(self):
        self.steps = 0
        self._sums = [{name: np.zeros(n) for name, n in block.items()}
                      for block in self._sizes]

    def add(self, values):
        for block_sums, block_values in zip(self._sums, values):
            for name in block_sums:
                block_sums[name] += block_values[name]
        self.steps += 1

    def read_and_reset(self):
        if self.steps == 0:
            raise RuntimeError("running mean read while empty")
        means = [{name: s / self.steps for name, s in block.items()}
                 for block in self._sums]
        self._reset()
        return means


class TaylorAccumulator(RunningMean):
    """Running mean of per-element importance since the last mask update."""

    def add(self, mask_values, mask_grads):
        super().add([{kind: taylor_score(vals[kind], grads[kind]) for kind in sizes}
                     for sizes, vals, grads in zip(self._sizes, mask_values, mask_grads)])


@dataclass
class RankedBlockScore:
    """Concatenated rank-normalized scores with element provenance."""

    values: np.ndarray      # normalized score per element
    kinds: np.ndarray       # partial-mask kind per element
    sizes: dict             # per-kind element count, in concatenation order
    order: np.ndarray       # elements ascending by (score, mask scale, index)

    @property
    def total(self):
        return self.values.size


def normalize_and_concat(scores, scales, kind_order):
    """Rank-normalize each partial mask and concatenate.

    Within a mask of size N the normalized scores are a permutation of
    scale * {0, ..., N-1} / N, ascending with raw importance; ties keep
    original element order.
    """
    values = []
    sizes = {}
    for kind in kind_order:
        s = np.asarray(scores[kind], dtype=np.float64)
        if s.size == 0:
            raise ValueError(f"partial mask '{kind}' is empty")
        order = np.argsort(s, kind="stable")
        ranks = np.empty(s.size, dtype=np.int64)
        ranks[order] = np.arange(s.size)
        values.append(scales[kind] * ranks / s.size)
        sizes[kind] = s.size
    values = np.concatenate(values)
    kinds = np.repeat(list(sizes), list(sizes.values()))
    element_scales = np.repeat([scales[kind] for kind in sizes], list(sizes.values()))
    order = np.lexsort((np.arange(values.size), element_scales, values))
    return RankedBlockScore(values, kinds, sizes, order)


def guard_minimums(sizes, guard_frac=GUARD_FRACTION):
    return {kind: max(1, math.ceil(guard_frac * n)) for kind, n in sizes.items()}


def _protected(ranked, guards):
    """Boolean mask over the positions of ``ranked.order``: each partial
    mask's top ``guards[kind]`` elements."""
    kinds = ranked.kinds[ranked.order]
    protected = np.zeros(ranked.total, dtype=bool)
    for kind, guard in guards.items():
        of_kind = np.flatnonzero(kinds == kind)
        protected[of_kind[of_kind.size - guard:]] = True
    return protected


def _guarded_order(ranked, k, guards):
    """Reorder so the top k elements are the protected ones plus the top
    ``k - floor`` of the rest; relative order is otherwise preserved."""
    protected = _protected(ranked, guards)
    top_rest = k - sum(guards.values())
    if top_rest < 0:
        raise ValueError("keep count below the per-mask guard floor")
    rest = np.flatnonzero(~protected)
    kept = protected.copy()
    kept[rest[rest.size - top_rest:]] = True
    positions = np.concatenate([np.flatnonzero(~kept), np.flatnonzero(kept)])
    return ranked.order[positions]


def values_from_order(order, k, sharpness):
    """Soft mask values for elements in the given ascending order."""
    if not sharpness > 0:
        raise ValueError("sharpness must be positive")
    n = order.size
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(n)
    slope = math.log(REF_MASK_VALUE / (1.0 - REF_MASK_VALUE))
    t = slope * (ranks - (n - k)) / (sharpness * n)
    vals = np.where(t >= 0, 1.0 / (1.0 + np.exp(-t)), np.exp(t) / (1.0 + np.exp(t)))
    return np.maximum(vals, MIN_MASK_VALUE)


def split_by_kind(ranked, flat):
    """Per-kind slices of a block's concatenated element values."""
    out = {}
    start = 0
    for kind, size in ranked.sizes.items():
        out[kind] = flat[start:start + size]
        start += size
    return out


def mask_update(ranked, keep_ratio, sharpness):
    """New soft mask values for one block at the given keep ratio.

    Keeps k = round-half-up(keep_ratio * N) elements at or above 0.5,
    subject to the per-mask guard minimum. Equal scores are ordered by
    element position (see normalize_and_concat), so the masks are
    permutation-equivariant only up to that tie-break: the values of a tie
    group, read in index order, are the same under any permutation.
    """
    if not 0 < keep_ratio <= 1:
        raise ValueError("keep ratio must be in (0, 1]")
    n = ranked.total
    k = min(n, int(math.floor(keep_ratio * n + 0.5)))
    guards = guard_minimums(ranked.sizes)
    if k < sum(guards.values()):
        raise ValueError(
            f"keep ratio {keep_ratio} keeps {k} of {n} elements, below the "
            f"guard floor {sum(guards.values())}")
    order = _guarded_order(ranked, k, guards)
    return split_by_kind(ranked, values_from_order(order, k, sharpness))


# ---------------------------------------------------------------------------
# parameter-aware keep-count planning


def _params_by_count(ranked, geom, guards):
    """Parameters kept at every k from the guard floor to N, as a list
    indexed by ``k - floor``: each +1 in k keeps the next element of the rest."""
    kinds = ranked.kinds[ranked.order]
    added = kinds[~_protected(ranked, guards)][::-1]
    counts = {kind: guards[kind] + np.concatenate([[0], np.cumsum(added == kind)])
              for kind in ranked.sizes}
    return geom.params_of_counts(counts).tolist()


def plan_block_budgets(ranked_blocks, geoms, keep_ratios, guard_frac=GUARD_FRACTION):
    """Per-block kept-element counts realizing the global parameter budget.

    Each block starts at the count whose parameters are closest to
    keep_ratio * its total (ties resolved upward), then the block with the
    largest parameter budget is stepped one element at a time until the
    global sum is within one channel quantum of the target.
    """
    floors, tables, ks = [], [], []
    targets = [kr * g.total_params for kr, g in zip(keep_ratios, geoms)]
    for r, g, target in zip(ranked_blocks, geoms, targets):
        guards = guard_minimums(r.sizes, guard_frac)
        table = _params_by_count(r, g, guards)
        err = np.abs(np.asarray(table) - target)
        floors.append(sum(guards.values()))
        tables.append(table)
        ks.append(r.total - int(np.argmin(err[::-1])))  # reversed: a tie takes the larger k

    def params_at(i, k):
        return tables[i][k - floors[i]]

    achieved = [params_at(i, ks[i]) for i in range(len(geoms))]
    global_target = sum(targets)
    by_budget = sorted(range(len(geoms)), key=lambda i: -targets[i])
    for _ in range(sum(r.total for r in ranked_blocks)):
        err = sum(achieved) - global_target
        step = -1 if err > 0 else 1
        for i in by_budget:
            k_new = ks[i] + step
            if k_new < floors[i] or k_new > ranked_blocks[i].total:
                continue
            p_new = params_at(i, k_new)
            if abs(err - achieved[i] + p_new) < abs(err):
                ks[i], achieved[i] = k_new, p_new
                break
        else:  # no block's step brings the sum closer
            break
    return ks
