"""``tools/bench_pairs`` without a git checkout or a benchmark run:
``summarize`` on synthetic runs (the pairs won, the claim rule and the
bound check, for a higher-better and a lower-better metric), the two
copies ``main`` runs in, the order and seeds of ``measure``'s runs, and
the refusal of a workload named twice."""

import importlib.util
import json
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


def _fake_checkout(monkeypatch, tool, tmp_path):
    """Point the tool at a root holding only BENCHMARK.json, with git and
    the extraction replaced; returns the list extract appends
    (commit, tree) to."""
    root = tmp_path / "root"
    root.mkdir()
    with open(os.path.join(tool.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        (root / "BENCHMARK.json").write_text(fh.read(), encoding="utf-8")
    monkeypatch.setattr(tool, "ROOT", str(root))
    monkeypatch.setattr(tool, "git", lambda *args: "c" * 40 if args[-1] == "HEAD" else "p" * 40)
    extracted = []

    def extract(commit, tree):
        os.makedirs(tree)
        extracted.append((commit, tree))

    monkeypatch.setattr(tool, "extract", extract)
    return extracted


@pytest.mark.parametrize("fails", [False, True])
def test_both_sides_run_in_copies_under_one_base_that_is_removed(monkeypatch, tmp_path, fails):
    tool = _tool()
    real_root = tool.ROOT
    extracted = _fake_checkout(monkeypatch, tool, tmp_path)
    seen = []

    def measure(args, bench, trees):
        assert all(os.path.isdir(tree) for tree in trees.values())
        seen.append(dict(trees))
        if fails:
            raise RuntimeError("a run failed")
        return {}, {}

    monkeypatch.setattr(tool, "measure", measure)
    argv = ["--parent", "HEAD~1", "--label", "x", "--pairs", "tower=1",
            "--tmpdir", str(tmp_path)]
    if fails:
        with pytest.raises(RuntimeError):
            tool.main(argv)
    else:
        assert tool.main(argv) == 0
    [trees] = seen
    assert sorted(trees) == ["change", "parent"]
    base = os.path.dirname(trees["parent"])
    assert os.path.dirname(trees["change"]) == base and trees["change"] != trees["parent"]
    assert os.path.dirname(base) == str(tmp_path)
    assert not any(tree in (real_root, tool.ROOT) for tree in trees.values())
    assert extracted == [("p" * 40, trees["parent"]), ("c" * 40, trees["change"])]
    assert not os.path.exists(base)
    written = os.path.join(tool.ROOT, "BENCH_x.json")
    assert os.path.exists(written) != fails
    if not fails:
        with open(written, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert (doc["parent"], doc["change"]) == ("p" * 40, "c" * 40)


def test_the_parent_runs_first_on_even_pairs_and_both_sides_share_each_seed(monkeypatch):
    tool = _tool()
    calls = []

    def run_once(bench, tree, workload, seed):
        calls.append((tree, workload, seed))
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}}

    monkeypatch.setattr(tool, "run_once", run_once)
    args = tool.parse_args(["--parent", "HEAD", "--label", "x", "--pairs", "tower=3",
                            "--pairs", "groupoid=2", "--first-seed", "7"])
    workloads, seeds = tool.measure(args, {"end_to_end": [RATE, P50]}, {"parent": "P", "change": "C"})
    assert calls == [("P", "tower", 7), ("C", "tower", 7), ("C", "tower", 8), ("P", "tower", 8),
                     ("P", "tower", 9), ("C", "tower", 9),
                     ("P", "groupoid", 7), ("C", "groupoid", 7),
                     ("C", "groupoid", 8), ("P", "groupoid", 8)]
    assert seeds == {"tower": [7, 8, 9], "groupoid": [7, 8]}
    assert workloads["tower"]["metrics"][RATE["name"]]["pairs"] == 3
    assert workloads["groupoid"]["metrics"][P50["name"]]["pairs"] == 2


def test_a_workload_named_twice_is_refused(capsys):
    """Both blocks would run, but only the last one's runs and seeds would
    be kept."""
    with pytest.raises(SystemExit) as exit_:
        _tool().parse_args(["--parent", "HEAD", "--label", "x",
                            "--pairs", "tower=2", "--pairs", "tower=3"])
    assert exit_.value.code == 2
    assert "'tower' twice" in capsys.readouterr().err
