import numpy as np
import pytest

from blockprune import schedule
from blockprune.bpi import BpiHeads
from blockprune.budget import allocate
from blockprune.config import config_from_dict
from blockprune.data import SyntheticSpec, generate_synthetic
from blockprune.errors import BudgetInfeasibleError, NumericError
from blockprune.schedule import (FINETUNE, SHARPEN, SPARSIFY, WARMUP,
                                 MetricsWriter, PruneSchedule, PruningRun,
                                 intermediate_target, sharpness_ramp, train_dense,
                                 write_csv, write_json)
from blockprune.vit import CompactVit, MaskSet, MaskedVit


class TestRamps:
    def test_keep_target_endpoints(self):
        assert intermediate_target(0.0, 0.3) == 1.0
        assert intermediate_target(1.0, 0.3) == pytest.approx(0.3)
        assert intermediate_target(0.5, 0.3) == pytest.approx(0.65)

    def test_sharpness_endpoints(self):
        assert sharpness_ramp(0.0, 0.1, 5e-3) == pytest.approx(0.1)
        assert sharpness_ramp(1.0, 0.1, 5e-3) == pytest.approx(5e-3)
        assert sharpness_ramp(0.5, 0.1, 5e-3) == pytest.approx(0.05)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            intermediate_target(1.5, 0.3)
        with pytest.raises(ValueError):
            sharpness_ramp(-0.1, 0.1, 5e-3)

    def test_phase_boundaries(self):
        s = PruneSchedule(2, 3, 4, 5, 0, 0.5)
        assert [s.phase_of(e) for e in (0, 1, 2, 4, 5, 8, 9)] == [
            WARMUP, WARMUP, SPARSIFY, SPARSIFY, SHARPEN, SHARPEN, FINETUNE]


def micro_setup(keep=0.5, warm=1, sparsify=2, sharpen=2, finetune=1, seed=0,
                frozen=False, batch=16, per_class=8, **pruning_extra):
    raw = {
        "model": {"image_size": 8, "patch_size": 4, "embed_dim": 8, "heads": 2,
                  "depth": 2, "mlp_ratio": 2.0, "num_classes": 3,
                  "patch_head": "pooled-linear"},
        "schedule": {"epochs_warmup": warm, "epochs_sparsify": sparsify,
                     "epochs_sharpen": sharpen, "epochs_finetune": finetune,
                     "batch_size": batch},
        "data": {"train_per_class": per_class, "val_per_class": 4},
        "pruning": {"keep_ratio": keep, **pruning_extra},
        "seed": seed,
        "frozen": frozen,
    }
    cfg = config_from_dict(raw)
    spec = SyntheticSpec(num_classes=3, image_size=8, noise=0.3,
                         train_per_class=per_class, val_per_class=4, seed=seed)
    train, val, _ = generate_synthetic(spec)
    model = MaskedVit(cfg.model.vit_config(), seed=seed)
    masks = MaskSet(model.config)
    heads = BpiHeads(model.config, patch_head="pooled-linear", seed=seed + 1)
    sched = PruneSchedule(warm, sparsify, sharpen, finetune, 0, keep)
    return cfg, model, masks, heads, sched, train, val


class TestPruningRun:
    def test_warmup_masks_untouched(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(warm=2, sparsify=1,
                                                                  sharpen=1)
        warm_steps = 2 * -(-len(train) // cfg.schedule.batch_size)
        seen = []

        def cb(run):
            if run.global_step <= warm_steps:
                seen.append(all(np.all(t.data == 1.0) for t in masks.tensors()))

        run = PruningRun(model, masks, heads, sched, train, val, cfg, step_callback=cb)
        run.run()
        assert seen and all(seen)

    def test_masks_change_after_warmup(self):
        cfg, model, masks, heads, sched, train, val = micro_setup()
        run = PruningRun(model, masks, heads, sched, train, val, cfg)
        run.run()
        assert any(np.any(t.data != 1.0) for t in masks.tensors())

    def test_sharpness_decays_only_in_sharpen(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(sharpen=3)
        trail = []

        def cb(run):
            trail.append((sched.phase_of(min(
                (run.global_step - 1) // run.steps_per_epoch, sched.pruning_epochs - 1)),
                run.sharpness))

        run = PruningRun(model, masks, heads, sched, train, val, cfg, step_callback=cb)
        run.run()
        for phase, tau in trail:
            if phase in (WARMUP, SPARSIFY):
                assert tau == pytest.approx(cfg.pruning.sharpness)
        sharpen_taus = [tau for phase, tau in trail if phase == SHARPEN]
        assert sharpen_taus[-1] < cfg.pruning.sharpness
        assert all(a >= b for a, b in zip(sharpen_taus, sharpen_taus[1:]))
        assert sharpen_taus[-1] >= cfg.pruning.sharpness_floor

    def test_sharpness_comes_from_the_config(self):
        # the schedule holds only the clock; the ramp's ends are the config's
        cfg, model, masks, heads, sched, train, val = micro_setup(
            sharpen=3, sharpness=0.2, sharpness_floor=0.02)
        metrics = MetricsWriter(None)
        run = PruningRun(model, masks, heads, sched, train, val, cfg, metrics)
        assert run.sharpness == 0.2
        run.run()
        taus = [float(r["tau"]) for r in metrics.epoch_rows]
        phases = [r["phase"] for r in metrics.epoch_rows]
        assert taus[phases.index(SPARSIFY)] == 0.2
        # the ramp reaches its floor at the last sharpen step, an update step
        assert taus[len(phases) - 1 - phases[::-1].index(SHARPEN)] == 0.02
        assert run.sharpness == pytest.approx(0.02)

    @pytest.mark.parametrize("sparsify", [0, 1])
    def test_sharpen_ramp_reaches_the_floor(self, sparsify):
        # one sharpen epoch of 3 steps with an update at every step, after a
        # sparsify phase or straight after warm-up
        cfg, model, masks, heads, _, train, val = micro_setup(
            sparsify=sparsify, sharpen=1, finetune=0, batch=8, sharpness=0.2,
            sharpness_floor=0.005)
        sched = PruneSchedule(1, sparsify, 1, 0, 1, 0.5)
        taus = []
        run = PruningRun(model, masks, heads, sched, train, val, cfg,
                         step_callback=lambda r: taus.append(r.sharpness))
        run.run()
        assert run.steps_per_epoch == 3
        assert taus[-3:] == pytest.approx([0.2 * 2 / 3, 0.2 / 3, 0.005])

    def test_masks_frozen_in_sharpen_when_updates_are_off(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(sharpen=3)
        cfg.schedule.update_masks_during_sharpen = False
        trail = []

        def cb(run):
            epoch = (run.global_step - 1) // run.steps_per_epoch
            trail.append((sched.phase_of(epoch), masks.values(), run.sharpness))

        run = PruningRun(model, masks, heads, sched, train, val, cfg, step_callback=cb)
        run.run()
        before = [vals for phase, vals, _ in trail if phase == SPARSIFY][-1]
        sharpen = [(vals, tau) for phase, vals, tau in trail if phase == SHARPEN]
        assert len(sharpen) == 3 * run.steps_per_epoch
        for vals, _ in sharpen:
            for a, b in zip(before, vals):
                assert all(np.array_equal(a[k], b[k]) for k in a)
        taus = [tau for _, tau in sharpen]
        assert taus[-1] < cfg.pruning.sharpness
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_keep_ratio_tracks_schedule(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(
            keep=0.4, warm=1, sparsify=4, sharpen=1, finetune=0, per_class=16)
        checks = []

        def cb(run):
            if run.global_step % run.update_freq == 0 and \
                    sched.phase_of((run.global_step - 1) // run.steps_per_epoch) == SPARSIFY:
                checks.append((run.current_keep, run.kappa_global()))

        run = PruningRun(model, masks, heads, sched, train, val, cfg, step_callback=cb)
        run.run()
        assert checks
        for target, got in checks:
            assert abs(got - target) < 0.08  # one update interval of slack
        # monotone nonincreasing targets
        targets = [t for t, _ in checks]
        assert all(a >= b - 1e-12 for a, b in zip(targets, targets[1:]))

    def test_stop_gradient_enforced_every_step(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(finetune=0)
        run = PruningRun(model, masks, heads, sched, train, val, cfg,
                         verify_stop_gradient=True)
        run.run()  # raises if any backbone gradient leaks

    def test_frozen_mode_keeps_backbone(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(frozen=True,
                                                                  finetune=1)
        before = [p.data.copy() for p in model.parameters()]
        run = PruningRun(model, masks, heads, sched, train, val, cfg)
        compact, summary = run.run()
        # every step reads the mask gradients (MaskSet.gradients raises when
        # one is missing); fine-tuning trains a compact copy; the backbone is
        # a constant
        assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))
        assert any(not np.array_equal(p.data, q.data)
                   for p, q in zip(compact.parameters(), CompactVit.from_masked(model, masks)
                                   .parameters()))
        assert summary["frozen"] is True

    def test_nonfinite_loss_aborts(self):
        # pruning step
        cfg, model, masks, heads, sched, train, val = micro_setup()
        model.pos_embed.data[0, 0, 0] = np.nan
        run = PruningRun(model, masks, heads, sched, train, val, cfg)
        with pytest.raises(NumericError, match=r"^non-finite activations in forward pass "
                                               r"at step 1; aborting run$"):
            run.run()
        # dense training
        cfg, model, masks, heads, sched, train, val = micro_setup()
        model.pos_embed.data[0, 0, 0] = np.nan
        with pytest.raises(NumericError, match=r"forward pass in epoch 0; aborting run$"):
            train_dense(model, train, val, cfg, epochs=1)
        # fine-tuning: the first step's update overflows the compact weights
        cfg, model, masks, heads, sched, train, val = micro_setup(finetune=1)
        cfg.optimizer.lr_finetune = 1e30
        metrics = MetricsWriter(None)
        run = PruningRun(model, masks, heads, sched, train, val, cfg, metrics)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as info:
            run.run()
        assert run.global_step > sched.pruning_epochs * run.steps_per_epoch + 1
        assert info.match(rf" at step {run.global_step}; aborting run$")
        assert [r["phase"] for r in metrics.epoch_rows] == [
            sched.phase_of(e) for e in range(sched.pruning_epochs)]

    def test_infeasible_keep_ratio_rejected(self):
        cfg, model, masks, heads, sched, train, val = micro_setup()
        sched.keep_target = 0.001
        cfg.pruning.keep_ratio = 0.001
        cfg.pruning.keep_floor = 0.0
        with pytest.raises(BudgetInfeasibleError):
            PruningRun(model, masks, heads, sched, train, val, cfg)
        # the run prunes to the schedule's target, not to the config's keep ratio;
        # 0.02 is below the guard floor, 0.04 below the keep floor only, 1.5 above 1
        for target in (0.02, 0.04, 1.5):
            cfg, model, masks, heads, _, train, val = micro_setup(
                keep=0.5, sparsify=1, sharpen=1, finetune=0)
            sched = PruneSchedule(1, 1, 1, 0, 0, target)
            with pytest.raises(BudgetInfeasibleError):
                PruningRun(model, masks, heads, sched, train, val, cfg)

    def test_uniform_arm_validates_and_runs(self, monkeypatch):
        # keep_floor == keep_ratio: the allocator gives every block the target
        cfg, model, masks, heads, sched, train, val = micro_setup(
            keep=0.5, keep_floor=0.5, sparsify=1, sharpen=1, finetune=0)
        solutions = []
        monkeypatch.setattr(schedule, "allocate",
                            lambda *args: solutions.append(allocate(*args)) or solutions[-1])
        PruningRun(model, masks, heads, sched, train, val, cfg).run()
        assert np.array_equal(solutions[-1].keep_ratios, np.full(model.config.num_blocks, 0.5))

    def test_keep_everything_endpoint(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(keep=1.0)
        run = PruningRun(model, masks, heads, sched, train, val, cfg)
        compact, summary = run.run()
        assert summary["params_remaining"] == summary["params_total"]
        assert compact.block_param_counts().sum() == summary["params_total"]

    def test_deterministic_replay(self):
        def one(seed):
            cfg, model, masks, heads, sched, train, val = micro_setup(seed=seed)
            metrics = MetricsWriter(None)
            run = PruningRun(model, masks, heads, sched, train, val, cfg, metrics)
            run.run()
            return metrics.epoch_rows, metrics.update_rows

        a_rows, a_up = one(3)
        b_rows, b_up = one(3)
        assert a_rows == b_rows
        assert a_up == b_up

    def test_update_rows_schema(self):
        cfg, model, masks, heads, sched, train, val = micro_setup()
        metrics = MetricsWriter(None)
        run = PruningRun(model, masks, heads, sched, train, val, cfg, metrics)
        run.run()
        assert metrics.update_rows
        row = metrics.update_rows[0]
        assert list(row) == ["step", "block_index", "block_type", "bp_class",
                             "bp_patch", "kappa_block", "params_remaining"]
        indices = {r["block_index"] for r in metrics.update_rows}
        assert indices == set(range(1, model.config.num_blocks + 1))
        for r in metrics.update_rows:
            expect = "attn" if r["block_index"] % 2 == 1 else "mlp"
            assert r["block_type"] == expect


class TestCompactionPipeline:
    @pytest.mark.parametrize("keep", [0.3, 0.5, 0.7])
    def test_global_accounting(self, keep):
        cfg, model, masks, heads, sched, train, val = micro_setup(
            keep=keep, warm=1, sparsify=3, sharpen=2, finetune=0, keep_floor=0.05)
        run = PruningRun(model, masks, heads, sched, train, val, cfg)
        compact, summary = run.run()
        totals = summary["params_total"]
        quantum = max(
            3 * g.heads * g.sizes[g.inner_kind] + 1 for g in run.geoms)
        assert abs(summary["params_remaining"] - keep * totals) <= quantum
        assert compact.block_param_counts().sum() == summary["params_remaining"]

    def test_finetune_zero_epochs_keeps_model(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(finetune=0)
        run = PruningRun(model, masks, heads, sched, train, val, cfg)
        compact, _ = run.run()
        again = CompactVit.from_masked(model, masks)
        for a, b in zip(compact.parameters(), again.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_finetune_trains(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(finetune=2)
        run = PruningRun(model, masks, heads, sched, train, val, cfg)
        compact, _ = run.run()
        again = CompactVit.from_masked(model, masks)
        diffs = [not np.array_equal(a.data, b.data)
                 for a, b in zip(compact.parameters(), again.parameters())]
        assert any(diffs)


class TestDenseTraining:
    def test_zero_epochs_keeps_initialization(self):
        cfg, model, masks, heads, sched, train, val = micro_setup()
        before = [p.data.copy() for p in model.parameters()]
        train_dense(model, train, val, cfg, epochs=0)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_masks_carry_no_gradient(self, monkeypatch):
        # only a pruning run reads mask gradients, so a dense step computes none
        cfg, model, _, _, _, train, val = micro_setup()
        forward, grads = model.forward, []

        def spy(x, masks, **kwargs):
            grads.append([t.grad for t in masks.tensors()])
            return forward(x, masks, **kwargs)

        monkeypatch.setattr(model, "forward", spy)
        masks, _ = train_dense(model, train, val, cfg, epochs=2)
        grads.append([t.grad for t in masks.tensors()])
        assert len(grads) > 3
        assert all(g is None for step in grads for g in step)

    def test_loss_improves(self):
        cfg, model, masks, heads, sched, train, val = micro_setup(per_class=16)
        metrics = MetricsWriter(None)
        train_dense(model, train, val, cfg, epochs=6, metrics=metrics)
        losses = [float(r["loss"]) for r in metrics.epoch_rows]
        assert losses[-1] < losses[0]


class TestRunFiles:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # json.dump and csv write row by row, so both fail with part of the
        # new content out
        path = tmp_path / "summary.json"
        write_json(path, {"a": 1, "b": 2})
        old = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"a": 1, "b": object()})
        assert path.read_bytes() == old
        path = tmp_path / "metrics.csv"
        write_csv(path, ["a"], [{"a": 1}])
        with pytest.raises(ValueError):
            write_csv(path, ["a"], [{"a": 2}, {"b": 3}])
        assert path.read_bytes() == b"a\r\n1\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "summary.json"]
