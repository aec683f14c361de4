import math
import re

import numpy as np
import pytest

from blockprune.budget import (BudgetSolution, allocate, block_importance,
                               merge_importance, smooth_importance)
from blockprune.errors import BudgetInfeasibleError


def softplus(x):
    return math.log1p(math.exp(-abs(x))) + max(x, 0.0)


def direct_window(x):
    return softplus(14 * x) - softplus(14 * x - 10)


class TestSmoothing:
    def test_at_zero(self):
        assert abs(float(smooth_importance(0.0)) - direct_window(0.0)) < 1e-12
        assert abs(float(smooth_importance(0.0)) - 0.693102) < 1e-6

    def test_at_one(self):
        assert abs(float(smooth_importance(1.0)) - direct_window(1.0)) < 1e-12
        assert abs(float(smooth_importance(1.0)) - 9.98185) < 1e-5

    def test_negative_restrained(self):
        v = float(smooth_importance(-1.0))
        assert abs(v - direct_window(-1.0)) < 1e-12
        assert v < 1e-5

    def test_monotone(self):
        xs = np.linspace(-2, 2, 200)
        ys = smooth_importance(xs)
        assert np.all(np.diff(ys) >= 0)


class TestBlockImportance:
    def test_uniform_symmetry(self):
        imp = block_importance(np.full(4, 0.2), np.full(4, 0.1), np.full(4, 1000))
        assert np.allclose(imp.merged, 0.25)

    def test_merge_hand_example(self):
        merged = merge_importance([0.5, 0.5], [0.75, 0.25], alpha=0.5)
        assert np.allclose(merged, [0.625, 0.375])

    def test_alpha_zero_is_class_only(self):
        rng = np.random.default_rng(0)
        bp_c, bp_p = rng.uniform(0.1, 1, 3), rng.uniform(0.1, 1, 3)
        imp = block_importance(bp_c, bp_p, np.full(3, 500), alpha=0.0)
        assert np.allclose(imp.merged, imp.class_imp / imp.class_imp.sum())

    def test_merged_sums_to_one_and_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bp_c = rng.normal(size=5)  # may be negative
            bp_p = rng.normal(size=5)
            imp = block_importance(bp_c, bp_p, rng.integers(100, 10000, 5))
            assert abs(imp.merged.sum() - 1.0) < 1e-12
            assert np.all(imp.merged >= 0)
            assert np.all(imp.class_imp >= 0)

    def test_all_zero_falls_back_to_uniform(self):
        imp = block_importance(np.full(3, -5.0), np.full(3, -5.0), np.full(3, 100))
        assert np.allclose(imp.merged, 1 / 3)


def oracle_allocate(imp, w, target, floor, resolution=1e-6):
    """Grid-refinement search over the proportionality scale."""
    imp = np.asarray(imp, float)
    w = np.asarray(w, float)
    goal = target * w.sum()

    def total(c):
        return (w * np.clip(c * imp, floor, 1.0)).sum()

    lo, hi = 0.0, max(1.0 / imp[imp > 0].min(), 1.0) if (imp > 0).any() else 1.0
    while hi - lo > resolution:
        grid = np.linspace(lo, hi, 1001)
        vals = np.array([total(c) for c in grid])
        j = int(np.searchsorted(vals, goal))
        j = min(max(j, 1), len(grid) - 1)
        lo, hi = grid[j - 1], grid[j]
    return np.clip(0.5 * (lo + hi) * imp, floor, 1.0)


def scan_allocate(imp, w, target, floor):
    """The breakpoint scan ``allocate`` used before its table search, as the
    reference for its bytes: walk the bends upward to the first whose budget
    meets the target and interpolate on the segment that ends there."""
    imp, w = np.asarray(imp, float), np.asarray(w, float)
    goal = target * w.sum()
    if np.all(imp == 0):
        imp = np.full(imp.size, 1.0 / imp.size)

    def total(c):
        return float((w * np.clip(c * imp, floor, 1.0)).sum())

    pos = imp > 0
    events = np.concatenate([floor / imp[pos] if floor > 0 else [], 1.0 / imp[pos]])
    prev_c, prev_f = 0.0, total(0.0)
    if prev_f >= goal:
        return np.clip(0.0 * imp, floor, 1.0)
    for c_evt in np.unique(events[np.isfinite(events)]):
        f_evt = total(c_evt)
        if f_evt >= goal:
            slope = (f_evt - prev_f) / (c_evt - prev_c) if c_evt > prev_c else 0.0
            c_star = c_evt if slope == 0.0 else prev_c + (goal - prev_f) / slope
            return np.clip(c_star * imp, floor, 1.0)
        prev_c, prev_f = c_evt, f_evt
    if abs(prev_f - goal) > 1e-6 * max(1.0, goal):
        raise BudgetInfeasibleError(f"cannot reach keep ratio {target}: all blocks at bounds "
                                    f"give {prev_f / w.sum():.6f}")
    return np.clip(prev_c * imp, floor, 1.0)


class TestAllocate:
    def test_worked_clip_example(self):
        sol = allocate([0.9, 0.1], [100, 100], keep_target=0.6, keep_floor=0.0)
        assert np.allclose(sol.keep_ratios, [1.0, 0.2], atol=1e-9)
        assert abs(sol.achieved - 0.6) < 1e-12

    def test_uniform_importance(self):
        sol = allocate(np.full(5, 0.2), np.full(5, 321), keep_target=0.4, keep_floor=0.0)
        assert np.allclose(sol.keep_ratios, 0.4)

    def test_keep_everything(self):
        sol = allocate([0.7, 0.3], [10, 20], keep_target=1.0)
        assert np.allclose(sol.keep_ratios, 1.0)

    def test_floor_respected(self):
        sol = allocate([0.99, 0.01], [100, 100], keep_target=0.55, keep_floor=0.1)
        assert sol.keep_ratios[1] >= 0.1 - 1e-12
        assert abs((sol.keep_ratios * [100, 100]).sum() - 110) < 1e-6

    def test_infeasible_target(self):
        with pytest.raises(BudgetInfeasibleError):
            allocate([0.5, 0.5], [10, 10], keep_target=0.02, keep_floor=0.05)
        # a zero-importance block stays at the floor, so the rest cannot fill 0.9
        with pytest.raises(BudgetInfeasibleError, match="all blocks at bounds give 0.525000"):
            allocate([1, 0], [10, 10], keep_target=0.9, keep_floor=0.05)

    # the second target lies past the last clip event, within the solver's tolerance
    @pytest.mark.parametrize("target", [0.525, 0.525 + 1e-8])
    def test_target_reached_with_every_block_at_a_bound(self, target):
        sol = allocate([1, 0], [10, 10], keep_target=target, keep_floor=0.05)
        assert np.array_equal(sol.keep_ratios, [1.0, 0.05])
        assert abs(sol.achieved - 0.525) < 1e-12

    def test_floor_at_target_gives_every_block_the_target(self):
        # the floor alone fills the budget, so the scale is 0 and every block
        # sits at the floor, whatever its importance
        sol = allocate([0.7, 0.2, 0.1, 0.0], [10, 20, 30, 40], keep_target=0.3, keep_floor=0.3)
        assert np.array_equal(sol.keep_ratios, np.full(4, 0.3))
        assert sol.achieved == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, math.nan])
    def test_importance_must_be_nonnegative(self, bad):
        with pytest.raises(ValueError, match="importance must be nonnegative"):
            allocate([0.5, bad], [10, 10], keep_target=0.5, keep_floor=0.05)

    def test_all_zero_importance_falls_back_to_uniform(self):
        sol = allocate([0.0, 0.0, 0.0], [10, 20, 30], keep_target=0.4, keep_floor=0.05)
        assert np.allclose(sol.keep_ratios, 0.4, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        imp = rng.uniform(0.01, 1, 4)
        w = rng.integers(50, 500, 4)
        a = allocate(imp, w, 0.5, 0.05)
        b = allocate(imp * 37.5, w, 0.5, 0.05)
        assert np.allclose(a.keep_ratios, b.keep_ratios, atol=1e-12)

    def test_monotone_in_importance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            imp = rng.uniform(0.05, 1, 5)
            w = rng.integers(100, 1000, 5)
            base = allocate(imp, w, 0.5, 0.0).keep_ratios
            raised = imp.copy()
            raised[2] *= 1.5
            boosted = allocate(raised, w, 0.5, 0.0).keep_ratios
            assert boosted[2] >= base[2] - 1e-9

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(120):
            b = int(rng.integers(1, 7))
            imp = rng.uniform(0.001, 1.0, b)
            imp /= imp.sum()
            w = rng.integers(10, 5000, b).astype(float)
            floor = float(rng.choice([0.0, 0.05, 0.1]))
            target = float(rng.uniform(max(floor, 0.05), 1.0))
            sol = allocate(imp, w, target, floor)
            ref = oracle_allocate(imp, w, target, floor)
            assert np.max(np.abs(sol.keep_ratios - ref)) < 1e-6, (
                f"trial {trial}: {sol.keep_ratios} vs {ref}")
            assert isinstance(sol, BudgetSolution)

    def test_bit_equal_to_the_breakpoint_scan(self):
        rng = np.random.default_rng(5)
        for trial in range(3000):
            b = int(rng.integers(1, 25))
            imp = rng.choice([rng.uniform(0, 1, b), 10.0 ** rng.uniform(-6, 1, b),
                              rng.choice([0.1, 0.2, 0.5], b)])  # the last repeats bends
            imp[rng.uniform(size=b) < 0.2] = 0.0
            w = rng.integers(1, 20000, b).astype(float)
            floor = float(rng.choice([0.0, 0.05, 0.1, 0.3]))
            target = float(rng.choice([floor, 1.0, rng.uniform(floor, 1.0)]))
            try:
                ref = scan_allocate(imp, w, target, floor)
            except BudgetInfeasibleError as exc:
                with pytest.raises(BudgetInfeasibleError, match=f"^{re.escape(str(exc))}$"):
                    allocate(imp, w, target, floor)
                continue
            sol = allocate(imp, w, target, floor)
            assert sol.keep_ratios.tobytes() == ref.tobytes(), f"trial {trial}"
            assert sol.achieved == float((w * ref).sum() / w.sum())
