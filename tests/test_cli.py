import csv
import json
import math

import numpy as np
import pytest
import yaml

from blockprune import checkpoint, cli, vit
from blockprune.autograd import Tensor, no_grad
from blockprune.bpi import BpiHeads
from blockprune.checkpoint import MAGIC, load_compact, load_masked, save_compact, save_masked
from blockprune.config import FLAGS, config_from_dict, load_config
from blockprune.data import normalize_images
from blockprune.errors import ConfigError, DataFormatError, NumericError
from blockprune.masking import REF_MASK_VALUE
from blockprune.schedule import MetricsWriter
from blockprune.vit import CompactVit, MaskSet, MaskedVit, VitConfig

from conftest import write_idx_pair

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
    {"pruning": {"keep_floor": math.nan}},
    {"pruning": {"keep_floor": "nan"}},
    # the remaining checks of validate() and _typed, and a section that is not a mapping
    {"pruning": {"alpha": 1.5}},
    {"pruning": {"alpha": "abc"}},
    {"pruning": {"sharpness": 0.0}},
    {"pruning": {"keep_ratio": 0.3, "keep_floor": 0.4}},
    {"schedule": {"batch_size": 0}},
    {"schedule": {"mask_update_freq": -1}},
    {"model": {"patch_head": "vit"}},
    {"pruning": 5},
    # optimizer and sharpness settings a run cannot use
    {"optimizer": {"lr_model": -1.0}},
    {"optimizer": {"lr_model": 0.0}},
    {"optimizer": {"lr_finetune": 0.0}},
    {"optimizer": {"lr_finetune": -1e-3}},
    {"optimizer": {"weight_decay": -5.0}},
    {"pruning": {"sharpness": 0.01, "sharpness_floor": 0.5}},
    {"seed": -1},  # numpy's generators take no negative seed
]

# keys that no run set to anything but their default, each with the constant
# value it became
REMOVED_KEYS = [("pruning", "mask_ref", 0.9), ("pruning", "eps", 1e-8),
                ("pruning", "scale_in", 1.0), ("pruning", "scale_out", 1.0),
                ("pruning", "scale_e", 1.0), ("pruning", "scale_hid", 1.0),
                ("pruning", "remaining_param_importance", True),
                ("optimizer", "lr_bpi", 5e-4)]

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
               "index list not a list", "index list one short", "non-finite entry",
               "float image size", "bool heads", "string mlp ratio", "extra entry",
               "zero depth", "one class"]


def header_of(path):
    first, rest = path.read_bytes().split(b"\n", 1)
    return json.loads(rest[:int(first.split()[-1])])


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
    elif case == "float image size":
        header["config"]["image_size"] = 8.0
    elif case == "bool heads":
        header["config"]["heads"] = True
    elif case == "string mlp ratio":  # int("2" * 8) channels wide, if taken
        header["config"]["mlp_ratio"] = "2"
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
    elif case == "extra entry":  # read as depth 1, block.2 and block.3 are left over
        header["config"]["depth"] = 1
        del header["structure"][2:]
    elif case in ("zero depth", "one class"):  # a consistent file of a model VitConfig rejects
        values = {e["name"]: np.frombuffer(blob, dtype="<f4")[e["offset"]:][:math.prod(e["shape"])]
                  .reshape(e["shape"]) for e in header["entries"]}
        if case == "zero depth":
            header["config"]["depth"], header["structure"] = 0, []
            values = {k: v for k, v in values.items() if not k.startswith("block.")}
        else:
            header["config"]["num_classes"] = 1
            values["head_w"], values["head_b"] = values["head_w"][:, :1], values["head_b"][:1]
        offsets = np.cumsum([0] + [v.size for v in values.values()]).tolist()
        header["entries"] = [{"name": k, "shape": list(v.shape), "offset": o}
                             for (k, v), o in zip(values.items(), offsets)]
        blob = b"".join(np.ascontiguousarray(v).tobytes() for v in values.values())
    elif case == "non-finite entry":
        values = np.frombuffer(blob, dtype="<f4").copy()
        values[-1] = np.nan
        blob = values.tobytes()
    payload = b"{kind: compact}" if case == "not json" else json.dumps(header).encode()
    nbytes = len(payload) + (8 if case == "header length past header" else 0)
    return f"{MAGIC} {nbytes}\n".encode() + payload + blob


class TestConfig:
    def test_defaults_mirror_published_settings(self):
        cfg = config_from_dict({})
        assert cfg.pruning.alpha == 0.5
        assert REF_MASK_VALUE == 0.9
        assert cfg.pruning.sharpness == 0.1
        assert cfg.optimizer.lr_model == 5e-4
        assert BpiHeads(cfg.model.vit_config()).optimizer.lr == 5e-4
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

    @pytest.mark.parametrize("flags", [{"seed": "3"}, {"seed": 2.0}, {"out": 5},
                                       {"frozen": 1}, {"keep_ratio": True},
                                       {"keep_ratio": "x"}, {"keep_ratio": 1.5}])
    def test_flags_are_checked_as_file_values(self, tmp_path, flags):
        with pytest.raises(ConfigError, match=next(iter(flags))):
            load_config(micro_config_file(tmp_path), flags)

    def test_validated_after_the_flags(self, tmp_path):
        # a keep floor above the file's keep ratio but below the flag's
        path = micro_config_file(tmp_path, pruning={"keep_ratio": 0.3, "keep_floor": 0.4})
        with pytest.raises(ConfigError):
            load_config(path)
        assert load_config(path, {"keep_ratio": 0.5}).pruning.keep_ratio == 0.5

    def test_every_flag_reaches_the_config(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_train", lambda cfg: seen.append(cfg) or 0)
        assert cli.main(["train", "--config", micro_config_file(tmp_path), "--seed", "7",
                         "--out", "elsewhere", "--keep-ratio", "0.4", "--frozen"]) == 0
        cfg, = seen
        assert set(FLAGS) == {"seed", "out", "frozen", "keep_ratio"}
        assert (cfg.seed, cfg.out, cfg.frozen, cfg.pruning.keep_ratio) == (7, "elsewhere",
                                                                           True, 0.4)

    def test_normalize_applies_to_both_splits(self):
        raw = json.loads(json.dumps(MICRO))
        plain = cli.load_datasets(config_from_dict(raw))
        raw["data"]["normalize"] = True
        normed = cli.load_datasets(config_from_dict(raw))
        for ds, ref in zip(normed, plain):
            assert np.array_equal(ds.labels, ref.labels)
            assert np.array_equal(ds.images, normalize_images(ref.images))
            flat = ds.images.reshape(len(ds), -1)
            assert np.allclose(flat.mean(axis=1), 0.0, atol=1e-5)
            assert np.allclose(flat.std(axis=1), 1.0, atol=1e-4)

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
        with pytest.raises(ConfigError, match="unknown override 'bogus'"):
            load_config(path, {"bogus": 1})

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

    def test_masked_load_draws_no_weights(self, tmp_path, monkeypatch):
        cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=2,
                        mlp_ratio=2.0, num_classes=3)
        model = MaskedVit(cfg, seed=4)
        save_masked(tmp_path / "m.ckpt", model, MaskSet(cfg))

        def refuse(*args, **kwargs):
            raise AssertionError("a masked load drew weights that the file overwrites")

        monkeypatch.setattr(vit, "_trunc_normal", refuse)
        loaded, _ = load_masked(tmp_path / "m.ckpt")
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)

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

    def test_compact_load_builds_no_masked_model(self, tmp_path, monkeypatch):
        cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=2,
                        mlp_ratio=2.0, num_classes=3)
        masks = MaskSet(cfg)
        masks.set_block(2, {"in": np.where(np.arange(8) % 3, 1.0, 0.0)})
        compact = CompactVit.from_masked(MaskedVit(cfg, seed=2), masks)
        path = tmp_path / "c.ckpt"
        save_compact(path, compact)

        def refuse(*args, **kwargs):
            raise AssertionError("a compact load built a masked model")

        for name in ("MaskedVit", "MaskSet"):
            monkeypatch.setattr(checkpoint, name, refuse)
        monkeypatch.setattr(CompactVit, "from_masked", refuse)
        loaded, masks = checkpoint.load(path)
        assert masks is None and np.array_equal(loaded.blocks[2]["in_idx"], [1, 2, 4, 5, 7])
        for a, b in zip(compact.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)

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

    def test_entry_names(self, tmp_path):
        # the v1 entry names and their order, which every file keeps
        cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=1,
                        mlp_ratio=2.0, num_classes=3)
        model, masks = MaskedVit(cfg, seed=0), MaskSet(cfg)
        save_masked(tmp_path / "m.ckpt", model, masks)
        save_compact(tmp_path / "c.ckpt", CompactVit.from_masked(model, masks))
        stem = ["patch_w", "patch_b", "cls_token", "pos_embed"]
        head = ["ln_f_g", "ln_f_b", "head_w", "head_b"]
        assert [e["name"] for e in header_of(tmp_path / "m.ckpt")["entries"]] == stem + [
            "layer.0.ln1_g", "layer.0.ln1_b", "layer.0.w_qkv", "layer.0.b_qkv",
            "layer.0.w_proj", "layer.0.b_proj", "layer.0.ln2_g", "layer.0.ln2_b",
            "layer.0.w_fc1", "layer.0.b_fc1", "layer.0.w_fc2", "layer.0.b_fc2"] + head + [
            "mask.0.in", "mask.0.out", "mask.0.e", "mask.1.in", "mask.1.out", "mask.1.hid"]
        assert [e["name"] for e in header_of(tmp_path / "c.ckpt")["entries"]] == stem + [
            "block.0.ln_g", "block.0.ln_b", "block.0.w_qkv", "block.0.b_qkv",
            "block.0.w_proj", "block.0.b_proj", "block.1.ln_g", "block.1.ln_b",
            "block.1.w_fc1", "block.1.b_fc1", "block.1.w_fc2", "block.1.b_fc2"] + head

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=1,
                        mlp_ratio=2.0, num_classes=3)
        model, masks = MaskedVit(cfg, seed=0), MaskSet(cfg)
        path = tmp_path / "m.ckpt"
        save_masked(path, model, masks)
        old = path.read_bytes()
        # the last entry cannot be written as float32: the write fails after
        # the header and every other entry are out
        masks.blocks[-1]["hid"].data = np.full(cfg.hidden_dim, "x", dtype=object)
        with pytest.raises(ValueError):
            save_masked(path, MaskedVit(cfg, seed=1), masks)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"hello world")
        with pytest.raises(DataFormatError):
            load_masked(p)

    def test_entry_the_model_does_not_read(self, tmp_path):
        # a depth-2 masked file whose header says depth 1 once loaded as a
        # 1-layer model, silently dropping layer.1.* and mask.2.*/mask.3.*
        cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=2,
                        mlp_ratio=2.0, num_classes=3)
        path = tmp_path / "m.ckpt"
        save_masked(path, MaskedVit(cfg, seed=0), MaskSet(cfg))
        first, rest = path.read_bytes().split(b"\n", 1)
        nbytes = int(first.split()[-1])
        header = json.loads(rest[:nbytes])
        header["config"]["depth"] = 1
        payload = json.dumps(header).encode()
        path.write_bytes(f"{MAGIC} {len(payload)}\n".encode() + payload + rest[nbytes:])
        with pytest.raises(DataFormatError, match="'layer.1.ln1_g' is not in the model"):
            load_masked(path)

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

    @pytest.mark.parametrize("change", [{"image_size": 12}, {"num_classes": 4}])
    def test_eval_geometry_mismatch(self, tmp_path, capsys, change):
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "t2"))
        assert cli.main(["train", "--config", cfgp]) == 0
        other = json.loads(json.dumps(MICRO))
        other["model"].update(change)
        p2 = tmp_path / "other.yaml"
        p2.write_text(yaml.safe_dump(other))
        capsys.readouterr()
        code = cli.main(["eval", "--config", str(p2),
                         str(tmp_path / "t2" / "checkpoint-final.ckpt")])
        assert code == ConfigError.exit_code
        err = capsys.readouterr().err
        assert "geometry does not match" in err and len(err.strip().splitlines()) == 1

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

    def test_benefits_keep_six_digits(self, tmp_path, monkeypatch):
        # benefits are 1e-5 to 1e-4: updates.csv, probe.csv and the normalized
        # tables built from them keep six significant digits of each
        bp_class = np.array([3.2145e-5, 1.0e-4, -2.5e-6, 7.77777e-5])
        bp_patch = 3 * bp_class[::-1]
        metrics = MetricsWriter(tmp_path / "run")
        for i, (c, p) in enumerate(zip(bp_class, bp_patch)):
            metrics.update(1, i + 1, "attn", c, p, 0.5, 10)
        metrics.flush()
        cfgp = micro_config_file(tmp_path, out=str(tmp_path / "probe"))
        model = MaskedVit(load_config(cfgp).model.vit_config())
        save_masked(tmp_path / "m.ckpt", model, MaskSet(model.config))
        monkeypatch.setattr(cli, "probe_checkpoint", lambda *a, **k: (bp_class, bp_patch))
        assert cli.main(["probe", "--config", cfgp, str(tmp_path / "m.ckpt")]) == 0
        assert cli.main(["report", str(tmp_path / "probe")]) == 0

        def column(path, col):
            with open(path, newline="") as fh:
                return np.array([float(row[col]) for row in csv.DictReader(fh)])

        for col, v in (("bp_class", bp_class), ("bp_patch", bp_patch)):
            assert column(tmp_path / "run" / "updates.csv", col) == pytest.approx(v, rel=1e-6)
            assert column(tmp_path / "probe" / "probe.csv", col) == pytest.approx(v, rel=1e-6)
            assert column(tmp_path / "probe" / "probe_norm_mean.csv", col) == \
                pytest.approx(v / abs(v.mean()), rel=1e-6)

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

    @pytest.mark.parametrize("channels", [1, 3])
    def test_idx_data(self, tmp_path, capsys, channels):
        rng = np.random.default_rng(0)
        data = {"source": "idx"}
        for split, n in (("train", 12), ("val", 6)):
            (tmp_path / split).mkdir()
            keys = ("images", "labels") if split == "train" else ("val_images", "val_labels")
            data.update(zip(keys, write_idx_pair(tmp_path / split, rng.integers(0, 256, (n, 8, 8)),
                                                 np.arange(n) % 3)))
        out = tmp_path / "run"
        cfgp = micro_config_file(tmp_path, out=str(out), model={"channels": channels}, data=data)
        capsys.readouterr()
        if channels != 1:
            for command in ("train", "prune"):
                assert cli.main([command, "--config", cfgp]) == ConfigError.exit_code
                assert len(capsys.readouterr().err.strip().splitlines()) == 1
            assert not out.exists()
            return
        assert cli.main(["train", "--config", cfgp]) == 0
        assert cli.main(["eval", "--config", cfgp, str(out / "checkpoint-final.ckpt")]) == 0
        assert "val acc" in capsys.readouterr().out
        # a split of 0 images once trained on nothing or ended in a traceback
        for split, keys in (("train", ("images", "labels")), ("val", ("val_images", "val_labels"))):
            (tmp_path / f"empty-{split}").mkdir()
            paths = write_idx_pair(tmp_path / f"empty-{split}", np.zeros((0, 8, 8)), np.zeros(0))
            cfgp = micro_config_file(tmp_path, out=str(tmp_path / f"run-{split}"),
                                     data={**data, **dict(zip(keys, paths))})
            for command in ("train", "prune"):
                assert cli.main([command, "--config", cfgp]) == DataFormatError.exit_code
                err = capsys.readouterr().err.strip().splitlines()
                assert len(err) == 1 and paths[0] in err[0]

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        # a bad value, a root that is not a mapping, a YAML syntax error whose
        # message spans four lines, and bytes that are not UTF-8
        for text in (b"pruning: {keep_ratio: 2.0}\n", b"- 1\n- 2\n",
                     b"model: {image_size: 8\nseed: 1\n", b"seed: \xff\xfe\n"):
            bad.write_bytes(text)
            capsys.readouterr()
            assert cli.main(["train", "--config", str(bad)]) == ConfigError.exit_code
            assert len(capsys.readouterr().err.strip().splitlines()) == 1, text
        for i, raw in enumerate(BAD_CONFIGS):
            path = micro_config_file(tmp_path, out=str(tmp_path / f"bad{i}"), **raw)
            for command in ("train", "prune"):
                assert cli.main([command, "--config", path]) == ConfigError.exit_code, raw

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        path = micro_config_file(tmp_path, out=str(tmp_path / "run"))
        for command in ("train", "prune"):
            capsys.readouterr()
            assert cli.main([command, "--config", path, "--seed", "-1"]) == ConfigError.exit_code
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "seed" in err[0]

    @pytest.mark.parametrize("section,key,value", REMOVED_KEYS)
    def test_removed_key_exits_2(self, tmp_path, capsys, section, key, value):
        path = micro_config_file(tmp_path, **{section: {key: value}})
        capsys.readouterr()
        assert cli.main(["eval", "--config", path, str(tmp_path / "none.ckpt")]) == \
            ConfigError.exit_code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0]

    def test_out_under_a_file_exits_5(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        path = micro_config_file(tmp_path)
        capsys.readouterr()
        assert cli.main(["train", "--config", path, "--out",
                         str(tmp_path / "file" / "run")]) == DataFormatError.exit_code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")

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
