"""Global parameter budget balancing across blocks.

Measured per-block benefit is max-normalized, squashed through a softplus
window that suppresses negative scores and saturates peaks, divided by the
block's parameter count, and merged class/patch-wise. Keep ratios are then
scaled proportionally to merged importance, with out-of-range blocks clipped
to their bound and the remainder rescaled so that the global target holds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import BudgetInfeasibleError

logger = logging.getLogger(__name__)

SMOOTH_SCALE = 10.0  # window width; input pre-scaled by 1.4x
EPS_PARAMS = 1e-8


def _softplus(x):
    return np.logaddexp(0.0, x)


def smooth_importance(x):
    """Softplus window: ~0 below 0, near-linear on (0, 1), saturating near 10.

    Expects benefit values already normalized by their maximum over blocks.
    """
    x = np.asarray(x, dtype=np.float64)
    z = 1.4 * SMOOTH_SCALE * x
    return _softplus(z) - _softplus(z - SMOOTH_SCALE)


def _max_normalize(bp):
    m = np.max(bp)
    if m > 1e-12:
        return bp / m
    return bp


def _normalize_sum(v, label):
    s = v.sum()
    if s <= 0.0:
        logger.warning("degenerate %s importance (all zero); using uniform", label)
        return np.full_like(v, 1.0 / v.size)
    return v / s


@dataclass
class BlockImportance:
    class_imp: np.ndarray   # per-block, parameter-density of class benefit
    patch_imp: np.ndarray
    merged: np.ndarray      # alpha-blend of the normalized components, sums to 1


def merge_importance(class_imp, patch_imp, alpha):
    """Alpha-weighted sum of the sum-normalized class and patch importances."""
    class_imp = np.asarray(class_imp, dtype=np.float64)
    patch_imp = np.asarray(patch_imp, dtype=np.float64)
    return (alpha * _normalize_sum(patch_imp, "patch")
            + (1 - alpha) * _normalize_sum(class_imp, "class"))


def block_importance(bp_class, bp_patch, param_counts, alpha=0.5):
    """Merge class and patch benefit into one normalized importance per block."""
    bp_class = np.asarray(bp_class, dtype=np.float64)
    bp_patch = np.asarray(bp_patch, dtype=np.float64)
    counts = np.asarray(param_counts, dtype=np.float64)
    if bp_class.size < 1:
        raise ValueError("need at least one block")
    if np.any(counts <= 0):
        raise ValueError("parameter counts must be positive")
    class_imp = smooth_importance(_max_normalize(bp_class)) / (counts + EPS_PARAMS)
    patch_imp = smooth_importance(_max_normalize(bp_patch)) / (counts + EPS_PARAMS)
    return BlockImportance(class_imp, patch_imp,
                           merge_importance(class_imp, patch_imp, alpha))


@dataclass
class BudgetSolution:
    keep_ratios: np.ndarray
    achieved: float          # global keep ratio realized by the continuous solution


def allocate(merged_importance, param_counts, keep_target, keep_floor=0.05):
    """Per-block keep ratios proportional to importance under a global budget.

    Solves sum(w_i * clamp(c * I_i, floor, 1)) == keep_target * sum(w_i) for
    the scale c. The left side is piecewise linear and nondecreasing in c,
    bending where a block leaves its floor (c = floor / I_i) or reaches 1
    (c = 1 / I_i). One table holds the budget at c = 0 and at every bend; a
    binary search over it finds the first bend that meets the target, and c
    is interpolated on the segment that ends there: the exact single-scale
    solution.
    """
    imp = np.asarray(merged_importance, dtype=np.float64)
    w = np.asarray(param_counts, dtype=np.float64)
    if not (0.0 <= keep_floor <= keep_target <= 1.0):
        raise BudgetInfeasibleError(
            f"keep target {keep_target} outside [{keep_floor}, 1]")
    if not np.all(imp >= 0):
        raise ValueError("importance must be nonnegative")
    target = keep_target * w.sum()
    if np.all(imp == 0):
        logger.warning("all-zero merged importance; falling back to uniform")
        imp = np.full(imp.size, 1.0 / imp.size)
    pos = imp[imp > 0]
    cs = np.concatenate([[0.0], keep_floor / pos, 1.0 / pos])
    cs = np.unique(cs[np.isfinite(cs)])
    totals = (w * np.clip(cs[:, None] * imp, keep_floor, 1.0)).sum(axis=1)
    j = int(np.searchsorted(totals, target))
    if j == 0:
        c = 0.0
    elif j < cs.size:
        # the budget is linear on (cs[j-1], cs[j]): clipped blocks are pinned
        # at their bound, the free remainder rescales
        slope = (totals[j] - totals[j - 1]) / (cs[j] - cs[j - 1])
        c = cs[j - 1] + (target - totals[j - 1]) / slope
    elif abs(totals[-1] - target) <= 1e-6 * max(1.0, target):
        c = cs[-1]
    else:
        raise BudgetInfeasibleError(
            f"cannot reach keep ratio {keep_target}: all blocks at bounds "
            f"give {totals[-1] / w.sum():.6f}")
    kappa = np.clip(c * imp, keep_floor, 1.0)
    return BudgetSolution(kappa, float((w * kappa).sum() / w.sum()))
