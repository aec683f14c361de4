"""Unit tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, outermost_busy, self_times  # noqa: E402

# small enough for a unit test, and still trains past the output checks
MICRO = {
    "model": {"image_size": 8, "patch_size": 4, "embed_dim": 16, "heads": 2, "depth": 2,
              "mlp_ratio": 2.0, "num_classes": 3, "patch_head": "resnet"},
    "schedule": {"epochs_warmup": 2, "epochs_sparsify": 1, "epochs_sharpen": 1,
                 "epochs_finetune": 3, "batch_size": 8},
    "data": {"train_per_class": 16, "val_per_class": 8, **workloads.DATA},
    "pruning": {"keep_ratio": 0.5},
    "optimizer": {"lr_model": 3e-3},
}


def declared(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.fixture(scope="module")
def micro_runs(tmp_path_factory, monkeypatch_module):
    from blockprune import cli, config
    monkeypatch_module.setitem(workloads.WORKLOADS, "micro", MICRO)
    out = tmp_path_factory.mktemp("micro")
    plain = workloads.run_pass("micro", 1, out / "plain", traced=False)
    traced = workloads.run_pass("micro", 1, out / "traced", traced=True)
    # the same config through the command itself, with no benchmark around it
    (out / "cli").mkdir()
    cfg_path = workloads.write_config("micro", out / "cli")
    cli.cmd_prune(config.load_config(str(cfg_path), {"seed": 1, "out": str(out / "cli")}))
    return plain, traced, out


@pytest.fixture(scope="module")
def monkeypatch_module():
    mp = pytest.MonkeyPatch()
    yield mp
    mp.undo()


def test_end_to_end_names_and_units_match_benchmark_json(micro_runs):
    metrics, _, _, checks, _ = micro_runs[0]
    assert {k: unit for k, (_, unit) in metrics.items()} == declared("end_to_end")
    assert checks.attempted > 0 and checks.failures == []
    assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_names_and_units_match_benchmark_json(micro_runs):
    plain, (traced, _, tracer, checks, timeline), _ = micro_runs
    report = workloads.layer_metrics(tracer, timeline, plain[0]["wall_s"][0],
                                     traced["wall_s"][0])
    assert {k: unit for k, (_, unit) in report.items()} == declared("per_layer")
    assert checks.failures == []
    # every layer ran: the micro config uses the ResNet patch probe
    for name in ("autograd.conv2d_3x3.calls", "bpi.heads_step.calls",
                 "optim.adamw_step.calls", "masking.updates",
                 "autograd.take_last.calls", "autograd.tape_nodes_per_step"):
        assert report[name][0] > 0, name


def test_benchmark_and_tracing_leave_the_run_unchanged(micro_runs):
    out = micro_runs[2]
    for name in ("metrics.csv", "updates.csv"):
        reference = (out / "cli" / name).read_bytes()
        assert (out / "plain" / name).read_bytes() == reference
        assert (out / "traced" / name).read_bytes() == reference


def test_tracing_leaves_the_program_unpatched(micro_runs):
    from blockprune import autograd, cli, schedule, vit
    assert autograd.matmul.__module__ == "blockprune.autograd"
    assert not hasattr(autograd.matmul, "__wrapped__")
    assert not hasattr(schedule.evaluate, "__wrapped__")
    assert not hasattr(schedule.allocate, "__wrapped__")
    assert not hasattr(vit.MaskedVit.forward, "__wrapped__")
    assert cli.PruningRun is schedule.PruningRun


def test_tail_percentile_rule():
    assert stats.tail_percentile(range(1, 41)) == (75, 30, 10)
    assert stats.tail_percentile(range(1, 101)) == (90, 90, 10)
    assert stats.tail_percentile(range(1, 21)) == (50, 10, 10)
    # order of the input does not matter
    assert stats.tail_percentile([5, 1, 4, 2, 3] * 5)[0] == 60
    # too few samples for any percentile to have ten beyond it
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0, 0)
    for n in range(11, 200):
        p, _, beyond = stats.tail_percentile(range(n))
        assert beyond >= 10
        # one percentile higher would leave fewer than ten beyond
        assert p == 99 or n - -(-(p + 1) * n // 100) < 10


def test_spaced_places_every_sample_within_the_steps():
    for steps, n in ((40, 14), (30, 20), (9, 20), (1, 5)):
        due = workloads.spaced(steps, n)
        assert sum(due.values()) == n
        assert set(due) <= set(range(steps))
        assert max(due.values()) == -(-n // steps)


def test_self_time_on_a_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 2.0, 5.0, 0, None],     # overlaps a: covered union is [1, 5]
        ["c", 6.0, 7.0, 0, None],
        ["a.1", 1.5, 2.5, 1, None],   # grandchild: not subtracted from root
        ["late", 9.5, 12.0, 0, None],  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1 - 0.5, 1.0, 3.0, 1.0, 1.0, 2.5])


def test_outermost_busy_counts_nested_same_name_once():
    spans = [
        ["x", 0.0, 4.0, -1, None],
        ["x", 1.0, 2.0, 0, None],
        ["check", 5.0, 9.0, -1, None],
        ["x", 6.0, 7.0, 2, None],
    ]
    assert outermost_busy(spans, "x") == (5.0, 2)
    assert outermost_busy(spans, "x", skip_under="check") == (4.0, 1)


def test_tracer_patches_every_lookup_and_restores(tmp_path):
    from blockprune import budget, schedule
    original = budget.allocate
    tracer = Tracer("t")
    assert tracer.patch_function(original, tracer.wrap("budget.allocate", original)) >= 2
    assert schedule.allocate is budget.allocate is not original
    budget.allocate([0.5, 0.5], [10, 10], 0.5)
    tracer.unpatch()
    assert schedule.allocate is original and budget.allocate is original
    assert [s[0] for s in tracer.spans] == ["budget.allocate"]
    tracer.dump(tmp_path / "spans.jsonl")
    row = json.loads((tmp_path / "spans.jsonl").read_text())
    assert row["name"] == "budget.allocate" and row["run"] == "t" and row["parent"] == -1


def test_timeline_leaves_evaluation_out_of_steps():
    # two pruning epochs of two steps, then one fine-tune epoch of two steps
    spans = [
        ["schedule.run", 0.0, 20.0, -1, None],
        ["schedule.evaluate", 4.0, 5.0, 0, None],
        ["schedule.evaluate", 9.0, 10.0, 0, None],
        ["schedule.evaluate", 10.0, 11.0, 0, None],   # masked model
        ["vit.from_masked", 11.0, 12.0, 0, None],
        ["schedule.evaluate", 12.0, 12.5, 0, None],   # compact model
        ["vit.compact_forward", 13.0, 14.0, 0, None],
        ["vit.compact_forward", 15.0, 16.0, 0, None],
        ["schedule.evaluate", 18.0, 19.0, 0, None],   # fine-tune epoch
    ]
    sched = SimpleNamespace(pruning_epochs=2, epochs_finetune=1,
                            phase_of=lambda e: ("warmup", "sparsify")[e])
    s = SimpleNamespace(schedule=sched, train_ds=[0] * 48, val_ds=[0] * 16,
                        cfg=SimpleNamespace(schedule=SimpleNamespace(batch_size=32)))
    # the benchmark's first callback spends 0.5 s on an inference forward
    callbacks = [(2.0, 2.5), (4.0, 4.0), (7.0, 7.0), (9.0, 9.0)]
    t = workloads.prune_timeline(spans, callbacks, s)
    assert t["steps"] == [2.0, 1.5, 2.0, 2.0]
    assert t["train_images"] == 96
    assert t["paused_s"] == 0.5
    assert t["phase_s"] == {"warmup": 4.5, "sparsify": 5.0, "sharpen": 0.0, "finetune": 10.0}
    assert t["finetune_rates"] == [32 / 2.0, 16 / 3.0]
    assert t["eval_rates"] == [16.0, 16.0, 16.0, 32.0, 16.0]
    # one step span per step, appended to the span list
    assert [sp[0] for sp in spans[9:]] == ["schedule.step"] * 4
