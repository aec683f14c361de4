"""Property tests for the allocator and mask-construction invariants."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from blockprune import autograd as ag
from blockprune.autograd import Tensor
from blockprune.budget import allocate, block_importance
from blockprune.errors import BudgetInfeasibleError
from blockprune.masking import (BlockGeometry, _guarded_order, _params_by_count,
                                guard_minimums, mask_update, normalize_and_concat)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


@st.composite
def allocation_instance(draw):
    b = draw(st.integers(min_value=1, max_value=8))
    imp = np.array(draw(st.lists(st.floats(1e-4, 1.0), min_size=b, max_size=b)))
    w = np.array(draw(st.lists(st.integers(10, 10000), min_size=b, max_size=b)),
                 dtype=float)
    floor = draw(st.sampled_from([0.0, 0.02, 0.05]))
    target = draw(st.floats(min_value=max(floor, 0.01), max_value=1.0))
    return imp, w, floor, target


class TestAllocatorProperties:
    @settings(max_examples=150, deadline=None)
    @given(allocation_instance())
    def test_constraint_and_bounds(self, inst):
        imp, w, floor, target = inst
        sol = allocate(imp, w, target, floor)
        assert np.all(sol.keep_ratios <= 1.0 + 1e-12)
        assert np.all(sol.keep_ratios >= floor - 1e-12)
        assert abs((w * sol.keep_ratios).sum() - target * w.sum()) < 1e-6 * w.sum()

    @settings(max_examples=80, deadline=None)
    @given(allocation_instance(), st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariance(self, inst, lam):
        imp, w, floor, target = inst
        a = allocate(imp, w, target, floor).keep_ratios
        b = allocate(imp * lam, w, target, floor).keep_ratios
        assert np.max(np.abs(a - b)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(allocation_instance(), st.data())
    def test_monotone_in_importance(self, inst, data):
        imp, w, floor, target = inst
        if imp.size < 2:
            return
        i = data.draw(st.integers(0, imp.size - 1))
        base = allocate(imp, w, target, floor).keep_ratios
        raised = imp.copy()
        raised[i] *= data.draw(st.floats(1.0, 10.0))
        boosted = allocate(raised, w, target, floor).keep_ratios
        assert boosted[i] >= base[i] - 1e-9


@st.composite
def budget_instance(draw):
    """Up to 24 blocks, some of zero importance, at any target from the
    floor to 1; a zero block stays at the floor, so some are infeasible."""
    b = draw(st.integers(min_value=1, max_value=24))
    imp = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
                                 min_size=b, max_size=b)))
    w = np.array(draw(st.lists(st.integers(1, 100000), min_size=b, max_size=b)), dtype=float)
    floor = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    target = draw(st.one_of(st.just(floor), st.just(1.0), st.floats(max(floor, 1e-6), 1.0)))
    return imp, w, floor, target


class TestAllocateExactness:
    @settings(max_examples=400, deadline=None)
    @given(budget_instance())
    def test_one_scale_meets_the_target_or_raises(self, inst):
        imp, w, floor, target = inst
        eff = imp if imp.any() else np.ones_like(imp)  # all zero: uniform
        goal, tol = target * w.sum(), 1e-6 * max(1.0, target * w.sum())
        at_bounds = (w * np.where(eff > 0, 1.0, floor)).sum()
        # this sum and allocate's may round apart: skip targets at the tolerance edge
        assume(abs(goal - at_bounds - tol) > 1e-9 * tol)
        if goal - at_bounds > tol:
            with pytest.raises(BudgetInfeasibleError, match="all blocks at bounds"):
                allocate(imp, w, target, floor)
            return
        kappa = allocate(imp, w, target, floor).keep_ratios
        reached = (w * kappa).sum()
        if at_bounds >= goal:
            assert abs(reached - goal) <= 1e-12 * goal
        else:  # within the tolerance: every block at its bound
            assert abs(reached - at_bounds) <= 1e-12 * at_bounds
        # one scale c gives every ratio as clip(c * imp, floor, 1): a zero
        # block sits at the floor, and the scales the others allow overlap
        pos = eff > 0
        assert np.all(kappa[~pos] == floor)
        k, c = kappa[pos], kappa[pos] / eff[pos]
        free = (k > floor) & (k < 1.0)
        assert np.all(free | (k == floor) | (k == 1.0))
        lo = np.max(c, where=free | (k == 1.0), initial=0.0)
        hi = np.min(c, where=free | (k == floor), initial=np.inf)
        assert lo <= hi * (1 + 1e-12)


class TestImportanceProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=10), st.data())
    def test_merged_is_distribution(self, bp_class, data):
        n = len(bp_class)
        bp_patch = data.draw(st.lists(finite, min_size=n, max_size=n))
        counts = data.draw(st.lists(st.integers(1, 100000), min_size=n, max_size=n))
        alpha = data.draw(st.floats(0.0, 1.0))
        imp = block_importance(np.array(bp_class), np.array(bp_patch),
                               np.array(counts), alpha=alpha)
        assert abs(imp.merged.sum() - 1.0) < 1e-9
        assert np.all(imp.merged >= 0)


@st.composite
def mask_instance(draw):
    n = draw(st.integers(min_value=8, max_value=256))
    scores = np.array(draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n)))
    keep = draw(st.floats(min_value=0.15, max_value=1.0))
    sharp = draw(st.floats(min_value=5e-3, max_value=0.5))
    return scores, keep, sharp


class TestMaskProperties:
    @settings(max_examples=150, deadline=None)
    @given(mask_instance())
    def test_keep_count_boundary_positivity(self, inst):
        scores, keep, sharp = inst
        n = scores.size
        k = int(math.floor(keep * n + 0.5))
        if k < max(1, math.ceil(0.05 * n)):
            return
        ranked = normalize_and_concat({"hid": scores}, {"hid": 1.0}, ("hid",))
        vals = mask_update(ranked, keep, sharp)["hid"]
        assert int((vals >= 0.5).sum()) == k
        assert int((vals == 0.5).sum()) == 1
        assert vals.min() > 0.0

    @settings(max_examples=100, deadline=None)
    @given(mask_instance(), st.randoms(use_true_random=False))
    @example(inst=(np.zeros(8), 1.0, 0.5), rnd=random.Random(0))
    def test_permutation_equivariance(self, inst, rnd):
        """Equivariance up to the positional tie-break of equal scores.

        Equal scores take consecutive ranks in element order, so a tie group
        fills the same rank range under any permutation: its mask values,
        read in index order, must agree. Untied elements are checked exactly.
        """
        scores, keep, sharp = inst
        n = scores.size
        k = int(math.floor(keep * n + 0.5))
        if k < max(1, math.ceil(0.05 * n)):
            return
        perm = np.array(rnd.sample(range(n), n))
        permuted = scores[perm]
        a = mask_update(normalize_and_concat({"hid": scores}, {"hid": 1.0},
                                             ("hid",)), keep, sharp)["hid"]
        b = mask_update(normalize_and_concat({"hid": permuted}, {"hid": 1.0},
                                             ("hid",)), keep, sharp)["hid"]
        for v in np.unique(scores):
            assert np.allclose(a[scores == v], b[permuted == v], atol=1e-12)


@st.composite
def guard_instance(draw):
    """A block of 2-3 partial masks with tied scores, a scale that can push
    every element of one mask below the rest, and a keep count."""
    kinds = draw(st.sampled_from([("in", "out"), ("in", "out", "e"), ("in", "out", "hid")]))
    sizes = {kind: draw(st.integers(1, 40)) for kind in kinds}
    scores = {kind: np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
                             dtype=float) for kind, n in sizes.items()}
    scales = {kind: draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for kind in kinds}
    ranked = normalize_and_concat(scores, scales, kinds)
    guards = guard_minimums(sizes, draw(st.sampled_from([0.05, 0.2, 0.5])))
    return ranked, draw(st.integers(0, ranked.total)), guards


@st.composite
def planned_block(draw):
    """An attention or MLP block with tied scores, per-mask scales and a
    guard fraction."""
    inner = draw(st.sampled_from(["e", "hid"]))
    geom = BlockGeometry("attn" if inner == "e" else "mlp",
                         {kind: draw(st.integers(1, 30)) for kind in ("in", "out", inner)},
                         draw(st.integers(1, 4)))
    scores = {kind: np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
                             dtype=float) for kind, n in geom.sizes.items()}
    scales = {kind: draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for kind in geom.sizes}
    ranked = normalize_and_concat(scores, scales, tuple(geom.sizes))
    guards = guard_minimums(geom.sizes, draw(st.sampled_from([0.05, 0.2, 0.5, 1.0])))
    return ranked, geom, guards


class TestGuardProperties:
    @settings(max_examples=300, deadline=None)
    @given(guard_instance())
    def test_guarded_order(self, inst):
        ranked, k, guards = inst
        n = ranked.total
        if k < sum(guards.values()):
            with pytest.raises(ValueError):
                _guarded_order(ranked, k, guards)
            return
        assert np.all(np.diff(ranked.values[ranked.order]) >= 0)
        order = _guarded_order(ranked, k, guards)
        assert np.array_equal(np.sort(order), np.arange(n))
        kept = ranked.kinds[order[n - k:]]
        for kind, guard in guards.items():
            assert np.count_nonzero(kept == kind) >= guard
        plain_kept = ranked.kinds[ranked.order[n - k:]]
        if all(np.count_nonzero(plain_kept == kind) >= g for kind, g in guards.items()):
            assert np.array_equal(order, ranked.order)

    @settings(max_examples=200, deadline=None)
    @given(planned_block())
    def test_kept_set_and_parameter_table(self, inst):
        """At every k from the floor to N the kept set is each mask's top
        guard elements plus the top k - floor of the rest, and the table
        holds the parameters of those kept kinds."""
        ranked, geom, guards = inst
        n, floor = ranked.total, sum(guards.values())
        by_rank = list(ranked.order)
        protected = set()
        for kind, guard in guards.items():
            protected |= set([i for i in by_rank if ranked.kinds[i] == kind][-guard:])
        rest = [i for i in by_rank if i not in protected]
        table = _params_by_count(ranked, geom, guards)
        assert len(table) == n - floor + 1
        for k in range(floor, n + 1):
            kept = _guarded_order(ranked, k, guards)[n - k:]
            assert set(kept) == protected | set(rest[len(rest) - (k - floor):])
            counts = {kind: int(np.count_nonzero(ranked.kinds[kept] == kind))
                      for kind in geom.sizes}
            assert table[k - floor] == geom.params_of_counts(counts)


class TestAutogradProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    def test_detach_blocks_all_paths(self, values):
        x = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
        y = ag.mul(x, x)
        loss = ag.tsum(ag.add(y.detach(), ag.scale(y.detach(), 2.0)))
        ag.tape.clear()
        x.grad = None
        y2 = ag.mul(x, x)
        loss = ag.tsum(ag.add(y2.detach(), ag.scale(y2.detach(), 2.0)))
        assert not loss.requires_grad
        with pytest.raises(ValueError):
            ag.backward(loss)
        assert x.grad is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    def test_matmul_agrees_with_numpy(self, m, k, n):
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        out = ag.matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.data, a @ b)
