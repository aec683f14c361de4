import json

import numpy as np
import pytest
import yaml

from blockprune import cli
from blockprune.checkpoint import load_compact, load_masked, save_compact, save_masked
from blockprune.config import config_from_dict, load_config
from blockprune.errors import ConfigError, DataFormatError, NumericError
from blockprune.vit import CompactVit, MaskSet, MaskedVit, VitConfig

MICRO = {
    "model": {"image_size": 8, "patch_size": 4, "embed_dim": 8, "heads": 2,
              "depth": 2, "mlp_ratio": 2.0, "num_classes": 3,
              "patch_head": "pooled-linear"},
    "schedule": {"epochs_warmup": 1, "epochs_sparsify": 1, "epochs_sharpen": 1,
                 "epochs_finetune": 1, "epochs_dense": 2, "batch_size": 16,
                 "probe_epochs": 1},
    "data": {"train_per_class": 6, "val_per_class": 3},
    "pruning": {"keep_ratio": 0.6},
}

# each of these once ended in a traceback or in a run reported as a success
BAD_CONFIGS = [
    {"seed": "abc"},
    {"schedule": {"batch_size": "64"}},
    {"model": {"num_classes": 1}},
    {"model": {"depth": 0}},
    {"data": {"train_per_class": 0}},
    {"data": {"val_per_class": 0}},
]


def micro_config_file(tmp_path, **extra):
    raw = json.loads(json.dumps(MICRO))
    for key, val in extra.items():
        raw.setdefault(key, {})
        if isinstance(val, dict):
            raw[key].update(val)
        else:
            raw[key] = val
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


class TestConfig:
    def test_defaults_mirror_published_settings(self):
        cfg = config_from_dict({})
        assert cfg.pruning.alpha == 0.5
        assert cfg.pruning.mask_ref == 0.9
        assert cfg.pruning.sharpness == 0.1
        assert cfg.optimizer.lr_model == 5e-4
        assert cfg.optimizer.lr_bpi == 5e-4
        assert (cfg.schedule.epochs_warmup, cfg.schedule.epochs_sparsify,
                cfg.schedule.epochs_sharpen) == (3, 22, 25)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"modle": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"pruning": {"keep_ratio": 0.5, "kep_floor": 0.1}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"pruning": {"keep_ratio": 1.5}})
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"embed_dim": 65}})
        with pytest.raises(ConfigError):
            config_from_dict({"data": {"source": "imagenet"}})
        for raw in BAD_CONFIGS:
            with pytest.raises(ConfigError):
                config_from_dict(raw)

    def test_idx_requires_paths(self):
        with pytest.raises(ConfigError):
            config_from_dict({"data": {"source": "idx"}})

    def test_overrides(self, tmp_path):
        # PyYAML reads 1e-3 (no dot) as a string; float fields convert it
        path = micro_config_file(tmp_path, optimizer={"lr_model": "1e-3"})
        cfg = load_config(path, {"seed": 9, "keep_ratio": 0.4, "frozen": True,
                                 "out": "elsewhere"})
        assert cfg.seed == 9
        assert cfg.pruning.keep_ratio == 0.4
        assert cfg.frozen is True
        assert cfg.out == "elsewhere"
        assert cfg.optimizer.lr_model == 1e-3

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.yaml")


class TestCheckpoints:
    def test_masked_round_trip(self, tmp_path):
        cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=2,
                        mlp_ratio=2.0, num_classes=3)
        model = MaskedVit(cfg, seed=4)
        masks = MaskSet(cfg)
        rng = np.random.default_rng(0)
        for i in range(cfg.num_blocks):
            masks.set_block(i, {k: rng.uniform(0.1, 1, s).astype(np.float32)
                                for k, s in cfg.mask_sizes(i).items()})
        path = tmp_path / "m.ckpt"
        save_masked(path, model, masks)
        model2, masks2 = load_masked(path)
        for a, b in zip(model.parameters(), model2.parameters()):
            assert np.array_equal(a.data, b.data)
        for ba, bb in zip(masks.blocks, masks2.blocks):
            for kind in ba:
                assert np.array_equal(ba[kind].data, bb[kind].data)

    def test_compact_round_trip(self, tmp_path):
        cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=2,
                        mlp_ratio=2.0, num_classes=3)
        model = MaskedVit(cfg, seed=5)
        masks = MaskSet(cfg)
        vals = np.ones(cfg.hidden_dim, dtype=np.float32)
        vals[::2] = 0.01
        masks.set_block(1, {"hid": vals})
        compact = CompactVit.from_masked(model, masks)
        path = tmp_path / "c.ckpt"
        save_compact(path, compact)
        loaded = load_compact(path)
        rng = np.random.default_rng(1)
        x = cli.np.asarray(rng.uniform(size=(2, 8, 8, 1)), dtype=np.float32)
        from blockprune.autograd import Tensor, no_grad
        with no_grad():
            a = compact.forward(Tensor(x)).data
            b = loaded.forward(Tensor(x)).data
        assert np.allclose(a, b, atol=1e-7)

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"hello world")
        with pytest.raises(DataFormatError):
            load_masked(p)

    def test_truncated_blob(self, tmp_path):
        cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=1,
                        mlp_ratio=2.0, num_classes=3)
        model = MaskedVit(cfg, seed=0)
        path = tmp_path / "t.ckpt"
        save_masked(path, model, MaskSet(cfg))
        data = path.read_bytes()
        path.write_bytes(data[:-64])
        with pytest.raises(DataFormatError):
            load_masked(path)


class TestCommands:
    def test_train_zero_epochs_checkpoint_equals_init(self, tmp_path):
        path = micro_config_file(tmp_path, schedule={"epochs_dense": 0},
                                 out=str(tmp_path / "run0"))
        assert cli.main(["train", "--config", path]) == 0
        model2, _ = load_masked(tmp_path / "run0" / "checkpoint-final.ckpt")
        cfg = load_config(path)
        fresh = MaskedVit(cfg.model.vit_config(), seed=cfg.seed)
        for a, b in zip(fresh.parameters(), model2.parameters()):
            assert np.allclose(a.data, b.data, atol=1e-7)  # f32 round trip

    def test_train_deterministic_metrics(self, tmp_path):
        p1 = micro_config_file(tmp_path, out=str(tmp_path / "a"))
        assert cli.main(["train", "--config", p1]) == 0
        assert cli.main(["train", "--config", p1, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "metrics.csv").read_text()
        b = (tmp_path / "b" / "metrics.csv").read_text()
        assert a == b

    def test_prune_end_to_end(self, tmp_path):
        path = micro_config_file(tmp_path, out=str(tmp_path / "prune"))
        assert cli.main(["prune", "--config", path]) == 0
        out = tmp_path / "prune"
        assert (out / "manifest.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "updates.csv").exists()
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["params_remaining"] < summary["params_total"]
        compact = load_compact(out / "compact-final.ckpt")
        assert compact.block_param_counts().sum() == summary["params_remaining"]

    def test_prune_records_baseline_delta(self, tmp_path):
        base = micro_config_file(tmp_path, out=str(tmp_path / "base"))
        assert cli.main(["train", "--config", base]) == 0
        path = micro_config_file(tmp_path, out=str(tmp_path / "pr"))
        assert cli.main(["prune", "--config", path, "--baseline",
                         str(tmp_path / "base")]) == 0
        with open(tmp_path / "pr" / "summary.json") as fh:
            summary = json.load(fh)
        assert "acc_delta_vs_baseline" in summary

    def test_probe_rows_and_determinism(self, tmp_path):
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "t1"))
        assert cli.main(["train", "--config", cfgp]) == 0
        ckpt = tmp_path / "t1" / "checkpoint-final.ckpt"
        raw_before = ckpt.read_bytes()
        assert cli.main(["probe", "--config", cfgp, "--out", str(tmp_path / "p1"),
                         str(ckpt)]) == 0
        assert ckpt.read_bytes() == raw_before
        rows = (tmp_path / "p1" / "probe.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4  # header + 2*depth rows
        assert rows[0] == "checkpoint,block_index,block_type,bp_class,bp_patch"
        assert cli.main(["probe", "--config", cfgp, "--out", str(tmp_path / "p2"),
                         str(ckpt)]) == 0
        assert (tmp_path / "p1" / "probe.csv").read_text() == \
               (tmp_path / "p2" / "probe.csv").read_text()

    def test_probe_geometry_mismatch(self, tmp_path):
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "t2"))
        assert cli.main(["train", "--config", cfgp]) == 0
        other = json.loads(json.dumps(MICRO))
        other["model"]["depth"] = 1
        p2 = tmp_path / "other.yaml"
        p2.write_text(yaml.safe_dump(other))
        code = cli.main(["probe", "--config", str(p2), "--out", str(tmp_path / "p3"),
                         str(tmp_path / "t2" / "checkpoint-final.ckpt")])
        assert code == ConfigError.exit_code

    def test_report_outputs(self, tmp_path, capsys):
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "rep"))
        assert cli.main(["prune", "--config", cfgp]) == 0
        assert cli.main(["report", str(tmp_path / "rep")]) == 0
        text = capsys.readouterr().out
        assert "keep_ratio_achieved" in text
        assert "final per-block keep ratios:" in text
        assert "(attn)" in text and "(mlp)" in text

    def test_report_normalized_probe_tables(self, tmp_path, capsys):
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "t3"))
        assert cli.main(["train", "--config", cfgp]) == 0
        ckpt = str(tmp_path / "t3" / "checkpoint-final.ckpt")
        assert cli.main(["probe", "--config", cfgp, "--out", str(tmp_path / "t3"),
                         ckpt]) == 0
        assert cli.main(["report", str(tmp_path / "t3")]) == 0
        assert (tmp_path / "t3" / "probe_norm_max.csv").exists()
        assert (tmp_path / "t3" / "probe_norm_mean.csv").exists()

    def test_report_missing_run(self, tmp_path, capsys):
        code = cli.main(["report", str(tmp_path / "nothing")])
        assert code == DataFormatError.exit_code
        assert "manifest.json" in capsys.readouterr().err

    def test_eval_checkpoint(self, tmp_path, capsys):
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "t4"))
        assert cli.main(["train", "--config", cfgp]) == 0
        code = cli.main(["eval", "--config", cfgp,
                         str(tmp_path / "t4" / "checkpoint-final.ckpt")])
        assert code == 0
        assert "val acc" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("pruning: {keep_ratio: 2.0}\n")
        assert cli.main(["train", "--config", str(bad)]) == ConfigError.exit_code
        for i, raw in enumerate(BAD_CONFIGS):
            path = micro_config_file(tmp_path, out=str(tmp_path / f"bad{i}"), **raw)
            for command in ("train", "prune"):
                assert cli.main([command, "--config", path]) == ConfigError.exit_code, raw

    def test_abort_keeps_completed_epochs(self, tmp_path, monkeypatch):
        class AbortInSecondEpoch(cli.PruningRun):
            def __init__(self, *args, **kwargs):
                def abort(run):
                    if run.global_step > run.steps_per_epoch:
                        raise NumericError("non-finite loss")
                super().__init__(*args, step_callback=abort, **kwargs)

        monkeypatch.setattr(cli, "PruningRun", AbortInSecondEpoch)
        path = micro_config_file(tmp_path, out=str(tmp_path / "ab"))
        assert cli.main(["prune", "--config", path]) == NumericError.exit_code
        rows = (tmp_path / "ab" / "metrics.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,warmup,")
        assert (tmp_path / "ab" / "updates.csv").exists()

    def test_manifest_written_before_run_and_reproducible(self, tmp_path):
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "m1"))
        assert cli.main(["train", "--config", cfgp]) == 0
        with open(tmp_path / "m1" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["pruning"]["keep_ratio"] == 0.6
        assert manifest["seed"] == 0
        assert "started" in manifest
