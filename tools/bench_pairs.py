"""Alternating parent/change pairs of verdictbench runs.

    python3 tools/bench_pairs.py --parent REV --label NAME \
        --pairs groupoid=10 --pairs tower=5 --pairs validate=5 [--first-seed 1001]

Runs the benchmark command of ``BENCHMARK.json`` for its ``run_seconds``
once per side for each pair.  Each side runs in a copy of its commit's
files (``git archive``): the parent side in a copy of REV, the change
side in a copy of HEAD, as two sibling directories of one temporary base
(under ``--tmpdir`` if given).  So both sides run from the same kind of
tree and write their run files in the same kind of place, and uncommitted
edits of the working tree are not measured.  Pair i of a workload uses
seed first-seed + i on both sides and runs the parent first when i is
even, the change first when i is odd, so that a slow spell of the machine
falls on both sides.  A workload may be named once.

Writes ``BENCH_<label>.json`` at the root of the working tree: for each
workload and each end-to-end metric of ``BENCHMARK.json``, every run's
value, the median and quartiles of each side, the parent's interquartile
range, the number of pairs the change won, and two verdicts:

* ``claim_rule_met``: the change won at least 9 of every 10 pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range -- what a claimed gain must show;
* ``within_bound``: the change's median is worse than the parent's by no
  more than the metric's ``bound``, a fraction of the parent's median.

It prints one summary line per workload and metric.  The base and both
copies are removed on every exit path, an interrupt or SIGTERM included.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                   help="N alternating pairs of WORKLOAD; repeat for more workloads")
    p.add_argument("--first-seed", type=int, default=1001)
    p.add_argument("--tmpdir", default=None, help="where the two copies go")
    args = p.parse_args(argv)
    plan = []
    for item in args.pairs:
        name, _, count = item.partition("=")
        if not name or not count.isdigit() or int(count) < 1:
            p.error("--pairs wants WORKLOAD=N with N >= 1, got %r" % item)
        if name in dict(plan):
            p.error("--pairs names workload %r twice" % name)
        plan.append((name, int(count)))
    args.plan = plan
    return args


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(commit, tree):
    """Write the files of commit (``git archive``) into the new directory tree."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")


def run_once(bench, tree, workload, seed):
    """The JSON object of the last output line of one benchmark run in tree."""
    done = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"])],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s %s seed %d exited %d: %s"
                           % (tree, workload, seed, done.returncode, done.stderr[-2000:]))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs, metrics):
    """Per metric of ``metrics`` (the ``end_to_end`` entries of
    ``BENCHMARK.json``): each side's runs, median and quartiles, the
    parent's interquartile range, the pairs the change won, and whether
    the change meets the claim rule and stays within the metric's bound."""
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]]
                 for side in ("parent", "change")}
        sign = 1 if better == "higher" else -1  # a gain is sign * (change - parent) > 0
        entry = {"unit": runs["parent"][0]["metrics"][name]["unit"], "better": better,
                 "bound": metric["bound"]}
        stats = {}
        for side, values in sides.items():
            stats[side] = (statistics.median(values), *quartiles(values))
            for field, value in zip(("median", "q1", "q3"), stats[side]):
                entry["%s_%s" % (side, field)] = round(value, 4)
        parent_median, parent_q1, parent_q3 = stats["parent"]
        gain = sign * (stats["change"][0] - parent_median)
        entry["parent_iqr"] = round(parent_q3 - parent_q1, 4)
        entry["change_wins"] = sum(sign * (c - p) > 0 for c, p in zip(sides["change"], sides["parent"]))
        entry["pairs"] = len(sides["parent"])
        entry["claim_rule_met"] = (10 * entry["change_wins"] >= 9 * entry["pairs"]
                                   and gain > parent_q3 - parent_q1)
        entry["within_bound"] = -gain <= metric["bound"] * abs(parent_median)
        for side, values in sides.items():
            entry["%s_runs" % side] = [round(v, 4) for v in values]
        out[name] = entry
    return out


def summary_lines(workloads):
    """One line per workload and metric: the medians, the parent's IQR, the
    pairs won and the two verdicts of ``summarize``."""
    lines = []
    for workload, result in workloads.items():
        for name, e in result["metrics"].items():
            lines.append(
                "%s %s: parent %g, change %g (%s is better), parent IQR %g, change won %d/%d; "
                "claim rule %s; %s bound %g"
                % (workload, name, e["parent_median"], e["change_median"], e["better"],
                   e["parent_iqr"], e["change_wins"], e["pairs"],
                   "met" if e["claim_rule_met"] else "not met",
                   "within" if e["within_bound"] else "OUTSIDE", e["bound"]))
    return lines


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return "%d-CPU %s, %s %s" % (os.cpu_count(), model, platform.python_implementation(),
                                 platform.python_version())


def measure(args, bench, trees):
    """Run the pairs of ``args.plan`` in ``trees`` (a directory per side)."""
    workloads, seeds = {}, {}
    for workload, count in args.plan:
        runs = {side: [] for side in SIDES}
        seeds[workload] = [args.first_seed + i for i in range(count)]
        for i, seed in enumerate(seeds[workload]):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(bench, trees[side], workload, seed))
                print("%s pair %d %s: %s" % (workload, i, side, json.dumps(
                    {k: v["value"] for k, v in runs[side][-1]["metrics"].items()})), flush=True)
        every = runs["parent"] + runs["change"]
        workloads[workload] = {
            "correct": all(r["correct"] for r in every),
            "attempted": sorted({r["attempted"] for r in every}),
            "failed": sum(r["failed"] for r in every),
            "metrics": summarize(runs, bench["end_to_end"]),
        }
    return workloads, seeds


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        commits = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}")}
    except subprocess.CalledProcessError:
        sys.exit("bench_pairs: %r names no commit" % args.parent)
    commits["change"] = git("rev-parse", "HEAD")
    base = tempfile.mkdtemp(prefix="bench-pairs-", dir=args.tmpdir)
    trees = {side: os.path.join(base, side) for side in SIDES}

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    old = {sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGHUP)}
    try:
        for side in SIDES:
            extract(commits[side], trees[side])
        workloads, seeds = measure(args, bench, trees)
    finally:
        for sig, handler in old.items():
            signal.signal(sig, handler)
        shutil.rmtree(base, ignore_errors=True)

    doc = {
        "label": args.label,
        "what": "verdictbench end-to-end metrics in alternating parent/change pairs (pair i "
                "runs the parent first when i is even, the change first when i is odd); each "
                "run is the last output line of `%s --workload W --seed S --seconds %s`, each "
                "side in a copy of its commit's files (git archive), so uncommitted edits are "
                "not measured"
                % (" ".join(bench["command"]), bench["run_seconds"]),
        **commits,
        "seeds": seeds,
        "machine": machine(),
        "workloads": workloads,
    }
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("\n".join(summary_lines(workloads)))
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
