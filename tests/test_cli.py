import json
import math

import numpy as np
import pytest
import yaml

from blockprune import checkpoint, cli
from blockprune.autograd import Tensor, no_grad
from blockprune.checkpoint import MAGIC, load_compact, load_masked, save_compact, save_masked
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
    {"model": {"heads": 0}},
    {"model": {"patch_size": 0}},
    {"model": {"image_size": 0}},
    {"model": {"embed_dim": 0}},
    {"model": {"channels": 0}},
    {"model": {"mlp_ratio": 0.0}},
    {"data": {"template_grid": 0}},
    {"data": {"noise": -1.0}},
    {"schedule": {"probe_epochs": -1}},
    {"schedule": {"checkpoint_every": -1}},
    {"pruning": {"guard_frac": math.nan}},
    {"pruning": {"guard_frac": 1.5}},
    {"pruning": {"guard_frac": -0.1}},
    {"pruning": {"sharpness": math.nan}},
    {"pruning": {"sharpness_floor": math.inf}},
    {"pruning": {"scale_in": math.nan}},
    {"pruning": {"scale_in": "nan"}},
]

# ways to break a compact checkpoint's header; each ended in a traceback or
# loaded without an error
CORRUPTIONS = ["missing kind", "missing structure", "unknown config key", "zero heads",
               "not json", "header length past header", "missing entry",
               "structure one block short", "structure block type swapped",
               "structure not a list", "structure item not an object",
               "entry without shape", "entries not a list", "offset past the blob",
               "repeated entry name", "block entry shape swapped", "trunk entry shape swapped",
               "attention item without e_idx", "index list empty", "index at its width",
               "negative index", "duplicate index", "unsorted index list",
               "index list not a list", "index list one short"]


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


def corrupted(case, header, blob):
    """Checkpoint bytes from a parsed header and blob, broken as ``case`` names."""
    if case == "missing kind":
        del header["kind"]
    elif case == "missing structure":
        del header["structure"]
    elif case == "unknown config key":
        header["config"]["dropout"] = 0.1
    elif case == "zero heads":
        header["config"]["heads"] = 0
    elif case == "missing entry":
        entry = header["entries"].pop()
        assert entry["name"] == "head_b"
        blob = blob[:4 * entry["offset"]]
    elif case == "structure one block short":
        header["structure"].pop()
    elif case == "structure block type swapped":
        header["structure"][0]["type"] = "mlp"
    elif case == "structure not a list":
        header["structure"] = 5
    elif case == "structure item not an object":
        header["structure"][1] = 1
    elif case == "entry without shape":
        del header["entries"][0]["shape"]
    elif case == "entries not a list":
        header["entries"] = 5
    elif case == "offset past the blob":
        header["entries"][-1]["offset"] = len(blob)
    elif case == "repeated entry name":
        last = header["entries"][-1]
        header["entries"].append({**last, "offset": last["offset"] + math.prod(last["shape"])})
        blob = blob + blob[4 * last["offset"]:]
    elif case in ("block entry shape swapped", "trunk entry shape swapped"):
        name = "block.0.w_qkv" if case.startswith("block") else "pos_embed"
        entry = next(e for e in header["entries"] if e["name"] == name)
        entry["shape"] = entry["shape"][::-1]
    elif case == "attention item without e_idx":
        del header["structure"][0]["e_idx"]
    elif case == "index list empty":
        header["structure"][0]["e_idx"] = []
    elif case == "index at its width":  # every channel is kept, so width == length
        hid = header["structure"][1]["hid_idx"]
        hid[-1] = len(hid)
    elif case == "negative index":
        header["structure"][0]["in_idx"][0] = -1
    elif case == "duplicate index":
        header["structure"][0]["out_idx"][1] = 0
    elif case == "unsorted index list":
        header["structure"][2]["in_idx"].reverse()
    elif case == "index list not a list":
        header["structure"][3]["hid_idx"] = "0-15"
    elif case == "index list one short":
        header["structure"][1]["hid_idx"].pop()
    payload = b"{kind: compact}" if case == "not json" else json.dumps(header).encode()
    nbytes = len(payload) + (8 if case == "header length past header" else 0)
    return f"{MAGIC} {nbytes}\n".encode() + payload + blob


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
        assert len(compact.parameters()) == len(loaded.parameters())
        for a, b in zip(compact.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)
        for ba, bb in zip(compact.blocks, loaded.blocks):
            assert ba["type"] == bb["type"]
            for key in ("in_idx", "out_idx", "e_idx" if ba["type"] == "attn" else "hid_idx"):
                assert np.array_equal(ba[key], bb[key])
        rng = np.random.default_rng(1)
        x = np.asarray(rng.uniform(size=(2, 8, 8, 1)), dtype=np.float32)
        with no_grad():
            a = compact.forward(Tensor(x)).data
            b = loaded.forward(Tensor(x)).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corrupt_header_exits_5(self, tmp_path, case):
        cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=2,
                        mlp_ratio=2.0, num_classes=3)
        model = MaskedVit(cfg, seed=0)
        path = tmp_path / "compact.ckpt"
        save_compact(path, CompactVit.from_masked(model, MaskSet(cfg)))
        first, rest = path.read_bytes().split(b"\n", 1)
        nbytes = int(first.split()[-1])
        path.write_bytes(corrupted(case, json.loads(rest[:nbytes]), rest[nbytes:]))
        with pytest.raises(DataFormatError):
            load_compact(path)
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "ev"))
        assert cli.main(["eval", "--config", cfgp, str(path)]) == DataFormatError.exit_code

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

    @pytest.mark.parametrize("text", ["{not json", "[0.9]", '{"mode": "dense"}',
                                      '{"val_acc_final": "0.9"}'])
    def test_prune_rejects_bad_baseline_before_the_run(self, tmp_path, capsys, text):
        (tmp_path / "base").mkdir()
        (tmp_path / "base" / "summary.json").write_text(text)
        path = micro_config_file(tmp_path, out=str(tmp_path / "pr"))
        code = cli.main(["prune", "--config", path, "--baseline", str(tmp_path / "base")])
        assert code == DataFormatError.exit_code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "pr").exists()

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

    @pytest.mark.parametrize("name,text", [("manifest.json", "{not json"),
                                           ("manifest.json", "[]"),
                                           ("summary.json", "{not json"),
                                           ("summary.json", '"done"'),
                                           ("updates.csv", "a,b\n1,2\n"),
                                           ("probe.csv", "a,b\n1,2\n"),
                                           ("probe.csv", ",".join(cli.PROBE_FIELDS)
                                            + "\nc.ckpt,1,attn,abc,0.5\n"),
                                           ("summary.json",
                                            '{"params_total": "10", "params_remaining": 5}'),
                                           ("summary.json",
                                            '{"params_total": 0, "params_remaining": 0}')])
    def test_report_rejects_malformed_files(self, tmp_path, capsys, name, text):
        (tmp_path / "manifest.json").write_text('{"command": "probe", "seed": 0}')
        (tmp_path / name).write_text(text)
        assert cli.main(["report", str(tmp_path)]) == DataFormatError.exit_code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and name in err[0]

    def test_eval_checkpoint(self, tmp_path, capsys, monkeypatch):
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "t4"))
        assert cli.main(["train", "--config", cfgp]) == 0
        reads = []
        read = checkpoint._read
        monkeypatch.setattr(checkpoint, "_read", lambda *a: reads.append(a) or read(*a))
        code = cli.main(["eval", "--config", cfgp,
                         str(tmp_path / "t4" / "checkpoint-final.ckpt")])
        assert code == 0
        assert "val acc" in capsys.readouterr().out
        assert len(reads) == 1

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
