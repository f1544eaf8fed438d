"""``tools/bench_pairs.summarize`` on synthetic runs: the pairs won, the
claim rule and the bound check, for a higher-better and a lower-better
metric; and ``measured_changes`` on synthetic ``git status`` lines."""

import importlib.util
import os

import pytest

HERE = os.path.dirname(__file__)
TOOL = os.path.join(HERE, os.pardir, "tools", "bench_pairs.py")

RATE = {"name": "verdicts_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
P50 = {"name": "verdict_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _runs(parent, change, metric=RATE):
    def side(values):
        return [{"metrics": {metric["name"]: {"value": v, "unit": metric["unit"]}}} for v in values]

    return {"parent": side(parent), "change": side(change)}


def _entry(parent, change, metric=RATE):
    return _tool().summarize(_runs(parent, change, metric), [metric])[metric["name"]]


PARENT = [150.0, 152.0, 148.0, 155.0, 151.0, 149.0, 153.0, 150.0, 154.0, 147.0]


def test_a_clear_gain_meets_the_claim_rule():
    e = _entry(PARENT, [v + 20 for v in PARENT])
    assert (e["change_wins"], e["pairs"]) == (10, 10)
    assert e["parent_median"] == 150.5 and e["change_median"] == 170.5
    assert e["claim_rule_met"] and e["within_bound"] and e["bound"] == 0.25


def test_nine_wins_of_ten_are_enough_and_eight_are_not():
    nine = [v + 20 for v in PARENT[:9]] + [PARENT[9] - 1]
    eight = [v + 20 for v in PARENT[:8]] + [PARENT[8] - 1, PARENT[9] - 1]
    assert _entry(PARENT, nine)["change_wins"] == 9 and _entry(PARENT, nine)["claim_rule_met"]
    assert _entry(PARENT, eight)["change_wins"] == 8
    assert not _entry(PARENT, eight)["claim_rule_met"]


def test_a_gain_inside_the_parents_iqr_does_not_meet_the_claim_rule():
    e = _entry(PARENT, [v + 1 for v in PARENT])
    assert e["change_wins"] == 10 and 1 < e["parent_iqr"]
    assert not e["claim_rule_met"] and e["within_bound"]


def test_the_bound_is_a_fraction_of_the_parents_median():
    p50 = [4.0] * 10
    within = _entry(p50, [5.0] * 10, P50)  # 25% worse: on the bound
    outside = _entry(p50, [5.01] * 10, P50)
    assert within["change_wins"] == 0 and within["within_bound"]
    assert not outside["within_bound"] and not outside["claim_rule_met"]
    faster = _entry(p50, [3.0] * 10, P50)
    assert faster["change_wins"] == 10 and faster["claim_rule_met"] and faster["within_bound"]
    assert not _entry(PARENT, [v * 0.7 for v in PARENT])["within_bound"]


def test_one_summary_line_per_workload_and_metric():
    tool = _tool()
    runs = _runs(PARENT, [v + 20 for v in PARENT])
    for r in runs["parent"] + runs["change"]:
        r["metrics"][P50["name"]] = {"value": 4.0, "unit": "ms"}
    metrics = tool.summarize(runs, [RATE, P50])
    lines = tool.summary_lines({"tower": {"metrics": metrics}, "validate": {"metrics": metrics}})
    assert len(lines) == 4
    assert lines[0].startswith("tower verdicts_per_s: parent 150.5, change 170.5")
    assert "won 10/10; claim rule met; within bound 0.25" in lines[0]
    assert "won 0/10; claim rule not met; within bound 0.25" in lines[1]


def test_only_a_change_to_measured_code_refuses():
    """Doc, tool and result changes leave nothing measured; a change under
    src/ or verdictbench/, staged, unstaged, untracked or renamed, is named."""
    measured = _tool().measured_changes
    assert measured(" M CHANGES.md\nM  ROADMAP.md\n?? BENCH_x.json\n M tools/bench_pairs.py\n") == []
    assert measured("") == []
    assert measured(" M src/xmod2/maps.py\nA  verdictbench/new.py\n?? src/xmod2/extra.py\n"
                    "R  src/a.py -> src/b.py\n M tests/test_maps.py\n") == [
        "src/xmod2/maps.py", "verdictbench/new.py", "src/xmod2/extra.py", "src/a.py", "src/b.py"]


def test_a_measured_change_exits_2_before_any_run(monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(tool, "uncommitted", lambda: " M src/xmod2/maps.py\n M CHANGES.md\n")
    monkeypatch.setattr(tool, "measure", lambda *args: pytest.fail("a run started"))
    assert tool.main(["--parent", "HEAD", "--label", "never", "--pairs", "tower=1"]) == 2
    err = capsys.readouterr().err
    assert "src/xmod2/maps.py" in err and "CHANGES.md" not in err
    assert not os.path.exists(os.path.join(HERE, os.pardir, "BENCH_never.json"))
