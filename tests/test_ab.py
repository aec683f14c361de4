import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

DECLARED = [{"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
            {"name": "compact_infer_images_per_s_k50", "unit": "img/s",
             "better": "higher", "bound": 0.25}]


def result(step, k50, correct=True):
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {"step_ms_p50": {"value": step, "unit": "ms"},
                        "compact_infer_images_per_s_k50": {"value": k50, "unit": "img/s"}}}


PAIRS = [(result(100.0, 600.0), result(90.0, 900.0)),
         (result(110.0, 700.0), result(120.0, 840.0)),
         (result(100.0, 650.0), result(80.0, 650.0))]


def test_summary_medians_ratios_and_wins():
    rows = ab.summarize(PAIRS, DECLARED)
    step = rows["step_ms_p50"]
    assert (step["parent_median"], step["change_median"]) == (100.0, 90.0)
    assert step["ratio_median"] == pytest.approx(0.9)  # ratios 0.9, 120/110, 0.8
    assert step["wins"] == 2  # lower is better; the second pair lost
    k50 = rows["compact_infer_images_per_s_k50"]
    assert (k50["parent_median"], k50["change_median"]) == (650.0, 840.0)
    assert k50["ratio_median"] == pytest.approx(1.2)  # ratios 1.5, 1.2, 1.0
    assert k50["wins"] == 2  # a tie is not a win
    assert k50["parent"] == [600.0, 700.0, 650.0] and k50["better"] == "higher"


def test_any_incorrect_run_fails_the_comparison(capsys):
    assert ab.all_correct(PAIRS)
    assert not ab.all_correct(PAIRS + [(result(1.0, 1.0), result(1.0, 1.0, correct=False))])
    ab.print_summary(ab.summarize(PAIRS, DECLARED), len(PAIRS))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(DECLARED)
    assert lines[2].split()[:4] == ["compact_infer_images_per_s_k50", "650", "840", "1.200"]


# change / parent ratios of ten pairs; sorted: 0.7 0.8 0.9 0.95 1.0 1.05 1.1 1.2 1.3 1.4
RATIOS = [1.0, 0.9, 1.3, 1.1, 0.8, 1.2, 1.05, 0.95, 1.4, 0.7]


def test_median_interval_of_ten_ratios_is_second_to_ninth():
    low, high, coverage = ab.median_interval(RATIOS)
    assert (low, high) == (0.8, 1.3)
    assert coverage == pytest.approx(1 - 2 * 11 / 1024)  # 97.9 %
    assert ab.median_interval(RATIOS[:6])[:2] == (0.8, 1.3)  # r(1), r(6) of six


def test_no_interval_below_six_ratios():
    assert ab.median_interval(RATIOS[:5]) is None


@pytest.mark.parametrize("n", [10, 5])
def test_summary_prints_the_interval_beside_the_ratio(capsys, n):
    pairs = [(result(100.0, 500.0), result(100.0 * r, 500.0 / r)) for r in RATIOS[:n]]
    rows = ab.summarize(pairs, DECLARED)
    ab.print_summary(rows, n)
    header, step, _ = capsys.readouterr().out.splitlines()
    if n == 10:
        assert rows["step_ms_p50"]["ratio_interval"] == pytest.approx([0.8, 1.3])
        assert rows["step_ms_p50"]["interval_coverage"] == pytest.approx(0.9785, abs=1e-4)
        assert "97.9% interval" in header
        assert step.split()[3:6] == ["1.025", "[0.800,", "1.300]"]
    else:
        assert rows["step_ms_p50"]["ratio_interval"] is None
        assert "no interval" in header
        assert step.split()[3:5] == ["1.000", "-"]


def test_out_file_records_the_environment_and_intervals(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]

    def run_once(run_root, workload, seed, seconds):
        return {"correct": True, "metrics": {m["name"]: {"value": float(seed)} for m in declared}}

    monkeypatch.setattr(ab, "run_once", run_once)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "bench.json"
    assert ab.main([str(root), str(root), "--workload", "prune-desk24", "--pairs", "6",
                    "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["openblas_num_threads"] == "1"
    assert record["numpy"] == np.__version__
    assert record["python"] == platform.python_version()
    row = record["workloads"]["prune-desk24"]["metrics"]["wall_s"]
    assert row["ratio_interval"] == [1.0, 1.0] and row["interval_coverage"] == 1 - 2 / 64


def test_paths_of_different_length_warn_and_are_recorded(tmp_path, monkeypatch, capsys):
    bench = (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    declared = json.loads(bench)["end_to_end"]
    parent, change = tmp_path / "parent", tmp_path / "change-2"
    for root in (parent, change):
        root.mkdir()
        (root / "BENCHMARK.json").write_text(bench)
    monkeypatch.setattr(ab, "run_once", lambda run_root, workload, seed, seconds: {
        "correct": True, "metrics": {m["name"]: {"value": 1.0} for m in declared}})
    monkeypatch.setattr(ab, "git_sha", lambda root: None)
    out = tmp_path / "bench.json"
    assert ab.main([str(parent), str(change), "--workload", "prune-resnet32", "--pairs", "1",
                    "--out", str(out)]) == 0
    n = len(str(parent.resolve()))
    assert f"checkout paths differ in length ({n} against {n + 2} characters)" in \
        capsys.readouterr().err
    # the directory names and path lengths, never the absolute paths
    assert json.loads(out.read_text())["paths"] == {
        "parent": "parent", "change": "change-2", "parent_length": n, "change_length": n + 2}
    assert str(tmp_path) not in out.read_text()
    # paths of one length give no warning
    assert ab.checkout_paths(Path("/a/parent"), Path("/a/change"))["change_length"] == 9
    assert capsys.readouterr().err == ""
