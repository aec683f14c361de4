"""Channel ranking and soft-mask construction within a block.

Per-element importance is the squared product of mask value and mask
gradient, averaged between updates. Scores are reduced to within-mask ranks
(scaled by a per-mask factor), concatenated across the block's partial
masks, and globally ordered; the new mask value of an element depends only
on its position in that order:

    value(rank) = sigmoid( slope * (rank - (N - k)) / (sharpness * N) )

with slope = logit(ref_value). The least important kept element therefore
sits exactly at 0.5, the element `sharpness * N` ranks above it at
ref_value, and no element is ever exactly zero, so pruned channels keep
competing and can be reactivated by a later update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .vit import ATTN, block_param_count

REF_MASK_VALUE = 0.9
GUARD_FRACTION = 0.05     # minimum kept share per partial mask
MIN_MASK_VALUE = 1e-38    # keeps float32 storage strictly positive


def taylor_score(mask_value, grad):
    """Squared first-order sensitivity of the loss to one mask element."""
    g = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite mask gradient")
    prod = np.asarray(mask_value, dtype=np.float64) * g
    return prod * prod


class TaylorAccumulator:
    """Running mean of per-element importance since the last mask update."""

    def __init__(self, mask_sizes_per_block):
        self._sizes = mask_sizes_per_block
        self.steps = 0
        self._sums = [
            {kind: np.zeros(size) for kind, size in sizes.items()}
            for sizes in mask_sizes_per_block
        ]

    def add(self, mask_values, mask_grads):
        for block_sums, vals, grads in zip(self._sums, mask_values, mask_grads):
            for kind in block_sums:
                block_sums[kind] += taylor_score(vals[kind], grads[kind])
        self.steps += 1

    def read_and_reset(self):
        if self.steps == 0:
            raise RuntimeError("importance accumulator read while empty")
        means = [
            {kind: s / self.steps for kind, s in block.items()}
            for block in self._sums
        ]
        self._sums = [
            {kind: np.zeros(size) for kind, size in sizes.items()}
            for sizes in self._sizes
        ]
        self.steps = 0
        return means


@dataclass
class RankedBlockScore:
    """Concatenated rank-normalized scores with element provenance."""

    values: np.ndarray      # normalized score per element
    kinds: list             # partial-mask kind per element
    local_idx: np.ndarray   # index within the partial mask
    scales: dict            # per-kind rank scale factor
    sizes: dict             # per-kind element count, in concatenation order

    @property
    def total(self):
        return self.values.size


def normalize_and_concat(scores, scales, kind_order):
    """Rank-normalize each partial mask and concatenate.

    Within a mask of size N the normalized scores are a permutation of
    scale * {0, ..., N-1} / N, ascending with raw importance; ties keep
    original element order.
    """
    values, kinds, local = [], [], []
    sizes = {}
    for kind in kind_order:
        s = np.asarray(scores[kind], dtype=np.float64)
        if s.size == 0:
            raise ValueError(f"partial mask '{kind}' is empty")
        order = np.argsort(s, kind="stable")
        ranks = np.empty(s.size, dtype=np.int64)
        ranks[order] = np.arange(s.size)
        values.append(scales[kind] * ranks / s.size)
        kinds.extend([kind] * s.size)
        local.append(np.arange(s.size))
        sizes[kind] = s.size
    return RankedBlockScore(np.concatenate(values), kinds,
                            np.concatenate(local), dict(scales), sizes)


def guard_minimums(sizes, guard_frac=GUARD_FRACTION):
    return {kind: max(1, math.ceil(guard_frac * n)) for kind, n in sizes.items()}


def _global_order(ranked):
    """Ascending element order by (score, mask scale, concatenation index)."""
    n = ranked.total
    scale_arr = np.array([ranked.scales[k] for k in ranked.kinds])
    return np.lexsort((np.arange(n), scale_arr, ranked.values))


def _guarded_order(ranked, k, guards):
    """Reorder so every partial mask keeps at least its guard minimum.

    The deficient mask's most important pruned elements move just above the
    keep boundary; the least important kept elements of masks with surplus
    move just below it. Relative order is otherwise preserved.
    """
    order = _global_order(ranked)
    n = ranked.total
    kept = list(order[n - k:])
    pruned = list(order[:n - k])
    counts = {kind: 0 for kind in ranked.sizes}
    for e in kept:
        counts[ranked.kinds[e]] += 1
    deficits = {kind: max(0, guards[kind] - counts[kind]) for kind in counts}
    need = sum(deficits.values())
    if need == 0:
        return np.asarray(order)

    promote = []
    for e in reversed(pruned):  # highest-ranked pruned first
        kind = ranked.kinds[e]
        if deficits[kind] > 0:
            promote.append(e)
            deficits[kind] -= 1
    promote.reverse()  # back to ascending old-rank order
    promote_set = set(promote)
    surplus = {kind: counts[kind] - guards[kind] for kind in counts}
    demote = []
    for e in kept:  # lowest-ranked kept first
        kind = ranked.kinds[e]
        if surplus[kind] > 0 and len(demote) < len(promote):
            demote.append(e)
            surplus[kind] -= 1
    if len(demote) < len(promote):
        raise ValueError("keep count below the per-mask guard floor")
    demote_set = set(demote)
    new_pruned = [e for e in pruned if e not in promote_set] + demote
    new_kept = promote + [e for e in kept if e not in demote_set]
    return np.asarray(new_pruned + new_kept)


def values_from_order(order, k, sharpness, ref_value=REF_MASK_VALUE):
    """Soft mask values for elements in the given ascending order."""
    if not sharpness > 0:
        raise ValueError("sharpness must be positive")
    n = order.size
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(n)
    slope = math.log(ref_value / (1.0 - ref_value))
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


def mask_update(ranked, keep_ratio, sharpness, ref_value=REF_MASK_VALUE,
                guard_frac=GUARD_FRACTION):
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
    guards = guard_minimums(ranked.sizes, guard_frac)
    if k < sum(guards.values()):
        raise ValueError(
            f"keep ratio {keep_ratio} keeps {k} of {n} elements, below the "
            f"guard floor {sum(guards.values())}")
    order = _guarded_order(ranked, k, guards)
    return split_by_kind(ranked, values_from_order(order, k, sharpness, ref_value))


# ---------------------------------------------------------------------------
# parameter-aware keep-count planning


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


def _counts_at_k(ranked, k, guards):
    order = _guarded_order(ranked, k, guards)
    counts = {kind: 0 for kind in ranked.sizes}
    for e in order[ranked.total - k:]:
        counts[ranked.kinds[e]] += 1
    return counts


def plan_kept_elements(ranked, geom, target_params, guard_frac=GUARD_FRACTION):
    """Smallest-error kept-element count whose remaining parameters match target.

    Parameter count grows monotonically with k, so binary search plus a
    short local scan finds the count whose parameter total is closest to the
    requested per-block budget (ties resolved upward).
    """
    guards = guard_minimums(ranked.sizes, guard_frac)
    k_min = sum(guards.values())
    n = ranked.total

    def params_at(k):
        return geom.params_of_counts(_counts_at_k(ranked, k, guards))

    lo, hi = k_min, n
    while lo < hi:
        mid = (lo + hi) // 2
        if params_at(mid) < target_params:
            lo = mid + 1
        else:
            hi = mid
    best_k, best_err = lo, abs(params_at(lo) - target_params)
    for k in range(max(k_min, lo - 3), min(n, lo + 3) + 1):
        err = abs(params_at(k) - target_params)
        if err < best_err or (err == best_err and k > best_k):
            best_k, best_err = k, err
    return best_k


def plan_block_budgets(ranked_blocks, geoms, keep_ratios, guard_frac=GUARD_FRACTION):
    """Per-block kept-element counts realizing the global parameter budget.

    Each block is planned against keep_ratio * its total parameters, then the
    block with the largest parameter budget is stepped one element at a time
    until the global sum is within one channel quantum of the target.
    """
    guards = [guard_minimums(r.sizes, guard_frac) for r in ranked_blocks]
    targets = [kr * g.total_params for kr, g in zip(keep_ratios, geoms)]
    ks = [plan_kept_elements(r, g, t, guard_frac)
          for r, g, t in zip(ranked_blocks, geoms, targets)]

    def params_at(i, k):
        return geoms[i].params_of_counts(_counts_at_k(ranked_blocks[i], k, guards[i]))

    achieved = [params_at(i, ks[i]) for i in range(len(geoms))]
    global_target = sum(targets)
    by_budget = sorted(range(len(geoms)), key=lambda i: -targets[i])
    for _ in range(sum(r.total for r in ranked_blocks)):
        err = sum(achieved) - global_target
        stepped = False
        for i in by_budget:
            step = -1 if err > 0 else 1
            k_new = ks[i] + step
            if k_new < sum(guards[i].values()) or k_new > ranked_blocks[i].total:
                continue
            p_new = params_at(i, k_new)
            if abs(err - achieved[i] + p_new) < abs(err):
                ks[i], achieved[i] = k_new, p_new
                stepped = True
                break
        if not stepped:
            break
    return ks
