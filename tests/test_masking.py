import math

import numpy as np
import pytest

from blockprune.errors import NumericError
from blockprune.masking import (BlockGeometry, TaylorAccumulator, _guarded_order,
                                guard_minimums, mask_update, normalize_and_concat,
                                plan_block_budgets, taylor_score, values_from_order)
from blockprune.vit import ATTN, MLP, block_param_count

LN9 = math.log(9.0)


def single_mask(scores, scale=1.0, kind="hid"):
    return normalize_and_concat({kind: np.asarray(scores, float)}, {kind: scale}, (kind,))


class TestTaylorScore:
    def test_zero_gradient(self):
        assert taylor_score(0.7, 0.0) == 0.0

    def test_hand_value(self):
        assert abs(float(taylor_score(0.8, -0.25)) - 0.04) < 1e-12

    def test_sign_invariance(self):
        assert np.allclose(taylor_score(0.3, 1.7), taylor_score(0.3, -1.7))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            taylor_score(0.5, np.nan)


class TestAccumulator:
    def test_mean_and_reset(self):
        acc = TaylorAccumulator([{"hid": 2}])
        acc.add([{"hid": np.array([1.0, 0.0])}], [{"hid": np.array([0.2, 0.4])}])
        acc.add([{"hid": np.array([1.0, 1.0])}], [{"hid": np.array([0.4, 0.4])}])
        means = acc.read_and_reset()
        assert np.allclose(means[0]["hid"], [(0.04 + 0.16) / 2, (0.0 + 0.16) / 2])
        assert acc.steps == 0
        with pytest.raises(RuntimeError):
            acc.read_and_reset()


class TestNormalizeAndConcat:
    def test_hand_example(self):
        ranked = single_mask([0.5, 0.1, 0.9])
        assert np.allclose(ranked.values, [1 / 3, 0.0, 2 / 3])

    def test_ties_stable(self):
        ranked = single_mask([0.2, 0.2, 0.2])
        assert np.allclose(ranked.values, [0.0, 1 / 3, 2 / 3])

    def test_permutation_of_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            s = float(rng.choice([0.5, 1.0, 2.0]))
            ranked = single_mask(rng.normal(size=n) ** 2, scale=s)
            assert np.allclose(np.sort(ranked.values), s * np.arange(n) / n)

    def test_order_preserved(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=30)
        ranked = single_mask(scores)
        for a in range(30):
            for b in range(30):
                if scores[a] > scores[b]:
                    assert ranked.values[a] > ranked.values[b]

    def test_zero_scale_ranks_below_everything(self):
        scores = {"in": np.arange(4.0) + 1, "out": np.arange(4.0) + 1}
        ranked = normalize_and_concat(scores, {"in": 0.0, "out": 1.0}, ("in", "out"))
        # all four zero-scaled elements occupy the lowest ranks
        assert set(ranked.order[:4]) == {0, 1, 2, 3}

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            normalize_and_concat({"in": np.zeros(0)}, {"in": 1.0}, ("in",))


class TestMaskUpdate:
    def test_boundary_and_reference_values(self):
        ranked = single_mask(np.arange(10.0))  # importance == index
        vals = mask_update(ranked, keep_ratio=0.5, sharpness=0.1)["hid"]
        assert vals[5] == pytest.approx(0.5, abs=1e-12)     # rank 5: boundary
        assert vals[6] == pytest.approx(0.9, abs=1e-9)      # rank 6: reference value
        assert vals[0] == pytest.approx(1.0 / (1.0 + 9.0 ** 5), rel=1e-9)

    def test_exact_keep_count(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(8, 200))
            kr = float(rng.uniform(0.15, 1.0))
            tau = float(rng.uniform(0.005, 0.5))
            ranked = single_mask(rng.uniform(size=n))
            vals = mask_update(ranked, kr, tau)["hid"]
            k = int(math.floor(kr * n + 0.5))
            k = max(k, 1)
            assert int((vals >= 0.5).sum()) == k
            assert np.min(vals) > 0.0

    def test_single_element_at_half(self):
        ranked = single_mask(np.random.default_rng(3).uniform(size=64))
        vals = mask_update(ranked, 0.4, 0.1)["hid"]
        assert int((vals == 0.5).sum()) == 1

    def test_equidistant_presigmoid(self):
        ranked = single_mask(np.arange(20.0))
        vals = mask_update(ranked, 0.5, 0.2)["hid"]
        logits = np.log(vals / (1 - vals))
        assert np.allclose(np.diff(logits), LN9 / (0.2 * 20), atol=1e-9)

    def test_sharpness_limit(self):
        n = 96
        ranked = single_mask(np.arange(float(n)))
        vals = mask_update(ranked, 0.5, sharpness=5e-3)["hid"]
        non_boundary = vals[np.abs(vals - 0.5) > 1e-12]
        assert np.all((non_boundary < 0.02) | (non_boundary > 0.98))

    def test_no_subnormal_mask_values(self):
        # subnormal float32 values make every product with them slow
        order = np.random.default_rng(4).permutation(4096)
        for k in (1, 2048, 4095):
            vals = values_from_order(order, k, 5e-3).astype(np.float32)
            assert np.all(vals >= np.finfo(np.float32).tiny)

    def test_invalid_inputs(self):
        ranked = single_mask(np.arange(10.0))
        with pytest.raises(ValueError):
            mask_update(ranked, 0.0, 0.1)
        with pytest.raises(ValueError):
            mask_update(ranked, 0.5, 0.0)

    def test_below_guard_floor_rejected(self):
        ranked = normalize_and_concat(
            {"in": np.arange(40.0), "out": np.arange(40.0)},
            {"in": 1.0, "out": 1.0}, ("in", "out"))
        with pytest.raises(ValueError):
            mask_update(ranked, keep_ratio=0.02, sharpness=0.1)  # k=2 < guard 2+2

    def test_guard_promotes_starved_mask(self):
        # scale 0 pushes all pruning pressure onto 'in'; the guard still
        # keeps ceil(0.05*40)=2 of its elements
        scores = {"in": np.arange(40.0), "out": np.arange(40.0)}
        ranked = normalize_and_concat(scores, {"in": 0.0, "out": 1.0}, ("in", "out"))
        vals = mask_update(ranked, keep_ratio=0.5, sharpness=0.1)
        assert int((vals["in"] >= 0.5).sum()) == 2
        assert int((vals["out"] >= 0.5).sum()) == 38


class TestReactivation:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=30)
        perm = rng.permutation(30)
        a = mask_update(single_mask(scores), 0.5, 0.1)["hid"]
        b = mask_update(single_mask(scores[perm]), 0.5, 0.1)["hid"]
        assert np.allclose(a[perm], b, atol=1e-12)

    def test_rank_climb_crosses_half(self):
        n, kr = 10, 0.5
        first = np.arange(float(n))  # element 3 has rank 3: masked
        old = mask_update(single_mask(first), kr, 0.1)
        assert old["hid"][3] < 0.5
        second = first.copy()
        second[3] = 6.5  # climbs to rank 7
        new = mask_update(single_mask(second), kr, 0.1)
        assert new["hid"][3] > 0.5

    def test_monotone_in_rank(self):
        ranked = single_mask(np.arange(50.0))
        vals = mask_update(ranked, 0.3, 0.1)["hid"]
        assert np.all(np.diff(vals) > 0)


def geometry(block_type, e=64, heads=4, hidden=256):
    if block_type == ATTN:
        return BlockGeometry(ATTN, {"in": e, "out": e, "e": e // heads}, heads)
    return BlockGeometry(MLP, {"in": e, "out": e, "hid": hidden}, heads)


def ranked_for(geom, rng):
    scores = {k: rng.uniform(size=n) for k, n in geom.sizes.items()}
    scales = {k: 1.0 for k in geom.sizes}
    return normalize_and_concat(scores, scales, tuple(geom.sizes))


def kept_params(ranked, geom, k):
    """Parameters of the kinds ``_guarded_order`` keeps at k."""
    order = _guarded_order(ranked, k, guard_minimums(ranked.sizes))
    kept = ranked.kinds[order[ranked.total - k:]]
    return geom.params_of_counts({kind: np.count_nonzero(kept == kind) for kind in geom.sizes})


class TestParameterPlanning:
    def test_full_budget_keeps_everything(self):
        rng = np.random.default_rng(5)
        geom = geometry(ATTN)
        ranked = ranked_for(geom, rng)
        assert plan_block_budgets([ranked], [geom], [1.0]) == [ranked.total]

    def test_attention_param_formula(self):
        assert block_param_count(ATTN, 64, 64, 16, 4) == 16640
        assert block_param_count(ATTN, 64, 64, 8, 4) == 8352
        assert block_param_count(MLP, 64, 64, 256, 4) == 64 * 256 + 256 + 256 * 64 + 64

    def test_half_param_budget_lands_close(self):
        rng = np.random.default_rng(6)
        for geom in (geometry(ATTN), geometry(MLP)):
            ranked = ranked_for(geom, rng)
            target = 0.5 * geom.total_params
            (k,) = plan_block_budgets([ranked], [geom], [0.5])
            got = kept_params(ranked, geom, k)
            # within one element's parameter step of the target
            step = kept_params(ranked, geom, min(k + 1, ranked.total)) - got
            assert abs(got - target) <= max(step, 600)

    def test_global_budget_within_quantum(self):
        rng = np.random.default_rng(7)
        geoms = [geometry(ATTN), geometry(MLP)] * 3
        ranked = [ranked_for(g, rng) for g in geoms]
        for kr in (0.3, 0.5, 0.7):
            ks = plan_block_budgets(ranked, geoms, [kr] * len(geoms))
            achieved = sum(kept_params(r, g, k) for g, r, k in zip(geoms, ranked, ks))
            total = sum(g.total_params for g in geoms)
            quantum = max(3 * g.heads * g.sizes[g.inner_kind] + 1 for g in geoms)
            assert abs(achieved - kr * total) <= quantum
