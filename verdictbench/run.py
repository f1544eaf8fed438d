"""Time-to-verdict benchmark for xmod2.

    python3 verdictbench/run.py --workload tower|groupoid|validate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each run is a fresh process that generates its inputs from the
seed, then makes one pass over them with no warm-up, timing each call into
the public entry point and judging every verdict against ``oracle``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics.  Times are normalized to the
machine's speed as measured by ``speed.kernel()`` around each verdict (see
``speed.py``); the raw figures are printed on the summary line.
``setup_s`` is the median over five fresh child processes of the time from
process start to inputs ready (import, fixtures, input generation),
normalized by the kernel times each child measures first and last.

--trace 1 first runs the same seed untraced in a child process, then runs
the pass again under ``tracer`` and reports the per-layer metrics.  The
run is correct only if both passes give the same verdict digests (and so
byte-identical ``--json`` reports), no xmod2 module still reaches an
unwrapped target, and every target this workload must enter was entered.
Spans go to ``.bench_out/trace-<workload>-<seed>.json``.

See README.md in this directory for the workloads and their predictions.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 5
# A run must end within 180 s; stop deciding well before that.
DEADLINE_S = 160


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["tower", "groupoid", "validate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal roles of child processes
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference", metavar="PATH", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail_percentile(n):
    """Highest whole percentile with at least ten verdicts beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n))) if n > 10 else 0


def nearest_rank(sorted_values, q):
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def run_pass(items, tracer, deadline):
    """Decide every item once, each between two runs of the speed kernel."""
    records = []
    clock = time.perf_counter
    kernel_s = speed.kernel()
    for i, item in enumerate(items):
        if time.monotonic() > deadline:
            records.append({"kind": item.kind, "status": "wrong", "digest": "deadline",
                            "error": None, "latency": 0.0, "scale": 1.0, "build_s": None})
            continue
        if tracer is not None:
            tracer.verdict = i
        t0 = clock()
        error = None
        try:
            outcome = item.decide()
        except Exception as exc:  # a verdict that dies is a wrong verdict
            outcome, error = exc, traceback.format_exc()
        latency = clock() - t0
        before, kernel_s = kernel_s, speed.kernel()
        if tracer is not None:
            tracer.verdict = -2   # judging, outside any verdict
        if isinstance(outcome, Exception):
            status, digest = "wrong", "raised %s: %s" % (type(outcome).__name__, outcome)
            build_s = None
        else:
            status, digest = item.judge(outcome)
            build_s = outcome[2] if item.kind.startswith("rung") else None
        records.append({"kind": item.kind, "status": status, "digest": digest, "error": error,
                        "latency": latency, "build_s": build_s,
                        "scale": speed.REFERENCE_S / ((before + kernel_s) / 2)})
    return records


def child(args, *extra):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S)


def setup_probe(args):
    """Normalized seconds from starting a fresh interpreter to its inputs
    being ready."""
    t0 = time.monotonic()
    done = child(args, "--setup-only")
    if done.returncode != 0:
        raise RuntimeError("setup probe failed: %s" % done.stderr[-2000:])
    ready, first, after = map(float, done.stdout.split())
    return (ready - t0 - first) * speed.REFERENCE_S / ((first + after) / 2)


def end_to_end(records, setup_s):
    latencies = sorted(r["latency"] * r["scale"] for r in records)
    q = tail_percentile(len(latencies))
    return {
        "verdicts_per_s": {"value": len(records) / sum(latencies), "unit": "1/s"},
        "verdict_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "verdict_tail_ms": {"value": 1000 * nearest_rank(latencies, q), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "xmod2", "__init__.py")):
        print("verdictbench: no xmod2 source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK, "%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def _run(args, workdir, deadline):
    if args.setup_only:
        kernel_s = speed.kernel()
        import workloads

        workloads.build(args.workload, args.seed, args.seconds, workdir)
        ready = time.monotonic()
        print(ready, kernel_s, statistics.median(speed.kernel() for _ in range(3)), flush=True)
        return 0

    setup_s = None
    if not args.trace and not args.reference:
        setup_s = statistics.median(setup_probe(args) for _ in range(SETUP_PROBES))

    reference = None
    if args.trace:
        ref_path = os.path.join(workdir, "reference.json")
        done = child(args, "--trace", "0", "--reference", ref_path)
        if done.returncode != 0:
            print(done.stderr[-2000:], file=sys.stderr)
            return 1
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)

    import workloads
    import xmod2

    if not os.path.abspath(xmod2.__file__).startswith(SRC + os.sep):
        print("verdictbench: imported xmod2 from %s, not %s" % (xmod2.__file__, SRC),
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    items = workloads.build(args.workload, args.seed, args.seconds, workdir)
    start = tracer.snapshot() if tracer else None
    records = run_pass(items, tracer, deadline)
    pass_s = sum(r["latency"] for r in records)

    attempted = len(records)
    failed = sum(r["status"] == "wrong" for r in records)
    defects = sum(r["status"] == "defect" for r in records)
    fail_share = (failed + defects) / attempted
    correct = failed == 0
    digests = [r["digest"] for r in records]
    rung_build_s = {r["kind"]: r["build_s"] * r["scale"]
                    for r in records if r["build_s"] is not None}

    print("workload %s seed %d: %d verdicts in %.3f s (raw p50 %.2f ms, median speed scale "
          "%.3f), %d known-defect, %d wrong, fail_share %.4f"
          % (args.workload, args.seed, attempted, pass_s,
             1000 * statistics.median(r["latency"] for r in records),
             statistics.median(r["scale"] for r in records), defects, failed, fail_share))
    for r in records:
        if r["status"] == "wrong":
            print("  wrong: %s %s" % (r["kind"], r["digest"]))
            if r["error"]:
                print(r["error"], file=sys.stderr)

    if args.reference:
        with open(args.reference, "w", encoding="utf-8") as fh:
            json.dump({"pass_s": pass_s, "digests": digests, "rung_build_s": rung_build_s}, fh)

    if not args.trace:
        metrics = end_to_end(records, setup_s if setup_s is not None else 0.0)
        print("verdict_tail_ms is p%d of %d verdicts" % (tail_percentile(attempted), attempted))
    else:
        metrics = {}
        for name, (unit, value) in sorted(tracer.layer_metrics(start, pass_s).items()):
            metrics[name] = {"value": value, "unit": unit}
        ref_rungs = reference["rung_build_s"]
        for dim in (13, 19, 25, 31):
            metrics["simplex.build_tower.lam3_dim%d_s" % dim] = {
                "value": ref_rungs.get("rung%d" % dim, 0.0), "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": pass_s / reference["pass_s"], "unit": "ratio"}
        metrics["fail_share"] = {"value": fail_share, "unit": "share"}
        mismatched = sum(a != b for a, b in zip(digests, reference["digests"]))
        mismatched += abs(len(digests) - len(reference["digests"]))
        missed = tracer.unwrapped_references()
        not_entered = tracer.not_entered(args.workload)
        print("trace: %d verdict digests differ from the untraced run; unwrapped: %s; "
              "not entered: %s" % (mismatched, missed or "none", not_entered or "none"))
        correct = correct and not mismatched and not missed and not not_entered
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, "trace-%s-%d.json" % (args.workload, args.seed)))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
