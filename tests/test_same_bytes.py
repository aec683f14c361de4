import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from blockprune import checkpoint
from blockprune.vit import CompactVit, MaskSet, MaskedVit, VitConfig

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("same_bytes", TOOLS / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bytes)

TOLERANCE = json.loads((TOOLS / "same_decisions.json").read_text())
TINY = VitConfig(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=2,
                 mlp_ratio=2.0, num_classes=3, channels=1)
UPDATES = (2, 4)  # steps of the canned run's two mask updates


def _ulps(a, k):
    """``a`` moved k float32 ulps up."""
    a = np.asarray(a, dtype=np.float32)
    for _ in range(k):
        a = np.nextafter(a, np.float32(np.inf))
    return a


def write_tree(root, ulps=0, flip_at=None):
    """A canned run: per-epoch metrics, per-update block rows, a masked
    checkpoint at each update and a compact one at the end, a summary and a
    stdout line. Every float moves ``ulps`` float32 ulps up; ``flip_at``
    drops one kept element of block 0's ``e`` mask from that update on."""
    rng = np.random.default_rng(0)
    run = root / "micro" / "prune"
    run.mkdir(parents=True)
    model = MaskedVit(TINY, seed=0, dtype=np.float32)
    masks = MaskSet(TINY)
    for t in [*model.parameters(), *masks.tensors()]:
        t.data = _ulps(t.data, ulps)
    with open(run / "metrics.csv", "w") as fh:
        fh.write("epoch,phase,loss,acc,kappa_global,tau\n")
        for epoch, phase in enumerate(("warmup", "sparsify", "sharpen", "finetune")):
            loss, kappa = _ulps([1.1 - 0.01 * epoch, 1.0 - 0.1 * epoch], ulps)
            fh.write(f"{epoch},{phase},{loss:.6f},0.333333,{kappa:.6f},0.100000\n")
    rows = ["step,block_index,block_type,bp_class,bp_patch,kappa_block,params_remaining"]
    for step in UPDATES:
        for i in range(TINY.num_blocks):
            values = masks.blocks[i]["in" if i else "e"].data
            values[:] = _ulps(rng.choice([0.2, 0.8], size=values.shape), ulps)
            if i == 0:
                values[0] = 0.8  # element 0 of block 0's e mask is kept ...
                if flip_at is not None and step >= flip_at:
                    values[0] = 0.2  # ... unless the mutant drops it
            kept = int((values >= 0.5).sum())
            bp = _ulps(rng.normal(size=2) * 1e-4, ulps)
            rows.append(f"{step},{i + 1},{TINY.block_type(i)},{bp[0]:.6f},{bp[1]:.6f},"
                        f"{kept / values.size:.6f},{10 * kept}")
        checkpoint.save_masked(run / f"masked-step{step}.ckpt", model, masks)
    (run / "updates.csv").write_text("\n".join(rows) + "\n")
    checkpoint.save_compact(run / "compact-final.ckpt", CompactVit.from_masked(model, masks))
    keep = float(_ulps(0.5960, ulps))
    (run / "summary.json").write_text(json.dumps(
        {"keep_ratio_achieved": keep, "params_remaining": 677, "steps": 12,
         "finished": "2026-01-01T00:00:00"}))
    (root / "micro" / "stdout-prune.txt").write_text(
        f"pruning done: keep {keep:.4f} (target 0.6), val acc 0.3333 -> prune\n")
    return root


@pytest.fixture
def parent(tmp_path):
    return write_tree(tmp_path / "parent")


def test_identical_trees_pass(parent, tmp_path, capsys):
    change = write_tree(tmp_path / "change")
    assert same_bytes.compare(parent, change) == 0
    assert same_bytes.compare(parent, change, TOLERANCE) == 0
    out = capsys.readouterr().out
    assert "7 files compared, 0 differ\n" in out
    assert "7 files compared, 0 differ, 0 fail the check\n" in out


def test_one_flipped_kept_element_fails(parent, tmp_path, capsys):
    change = write_tree(tmp_path / "change", flip_at=UPDATES[1])
    assert same_bytes.compare(parent, change, TOLERANCE) == 3
    out = capsys.readouterr().out
    # the update's row, its checkpoint and the compact model each name the decision
    assert "first decision that differs: line 6 (step 4) params_remaining: '40' != '30'" in out
    assert "first decision that differs: mask.0.e kept[0]: True != False" in out
    assert "first decision that differs: structure block 0['e_idx']: [0, 1, 2, 3] != [1, 2, 3]" in out
    assert "identical         micro/prune/masked-step2.ckpt" in out


def test_byte_mode_names_what_differs(parent, tmp_path, capsys):
    flipped = write_tree(tmp_path / "flipped", flip_at=UPDATES[1])
    assert same_bytes.compare(parent, flipped) == 3
    out = capsys.readouterr().out
    assert "first decision that differs: mask.0.e kept[0]: True != False" in out
    assert "7 files compared, 3 differ\n" in out
    moved = write_tree(tmp_path / "moved", ulps=3)
    assert same_bytes.compare(parent, moved) == 4  # the printed floats keep their digits
    out = capsys.readouterr().out
    assert "DIFFERS           micro/prune/masked-step2.ckpt\n" in out
    assert "first decision" not in out and "largest relative difference" in out


def test_floats_moved_a_few_ulps_pass(parent, tmp_path, capsys):
    change = write_tree(tmp_path / "change", ulps=3)
    assert same_bytes.compare(parent, change) > 0  # the bytes differ
    assert same_bytes.compare(parent, change, TOLERANCE) == 0
    assert "within bounds     micro/prune/masked-step2.ckpt" in capsys.readouterr().out


def test_float_out_of_bound_fails(parent, tmp_path, capsys):
    change = write_tree(tmp_path / "change")
    path = change / "micro" / "prune" / "metrics.csv"
    path.write_text(path.read_text().replace("1.100000", "1.101000"))
    assert same_bytes.compare(parent, change, TOLERANCE) == 1
    assert "loss differs by 0.000908 > 0.0001" in capsys.readouterr().out


def test_integers_and_names_are_decisions(parent):
    decisions, floats = same_bytes._parts(parent / "micro" / "stdout-prune.txt")
    assert decisions == [("line 1", "pruning done: keep # (target #), val acc # -> prune")]
    assert floats == {"stdout-prune.txt": [0.596, 0.6, 0.3333]}
    decisions, floats = same_bytes._parts(parent / "micro" / "prune" / "summary.json")
    assert ("params_remaining", 677) in decisions
    assert list(floats) == ["keep_ratio_achieved"]
