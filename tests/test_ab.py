import importlib.util
from pathlib import Path

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
