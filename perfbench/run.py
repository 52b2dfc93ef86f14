#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its figures.

    python3 perfbench/run.py --workload mc_text [--seed 1] [--seconds 20]
                             [--trace 0|1] [--heldout-seed N]
    python3 perfbench/run.py --selftest

Run it from the repository root. It builds the benchmark from source (the
library under src/ plus perfbench/src/) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set, then runs the workload. The last line
of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Every report is checked against sequential
runDetector inside the benchmark; this script additionally checks that
the emitted names and units match BENCHMARK.json and, for traced runs,
that the span file is loadable JSON whose spans nest under one root.
Details (host facts, percentiles, sample counts, self times) are written
to .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then brings the build up to date; returns its dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "AnalysisSession.h")):
        die("library sources not found under %s/src; run from a full checkout"
            % ROOT)
    bdir = build_dir()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    log_path = os.path.join(ROOT, OUT_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (%s)" % " ".join(cmd))
    return bdir


def commit_id():
    """The git commit when there is one, and a digest of the sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        rev = "none"
    return "git:%s,src-sha256:%s" % (rev, h.hexdigest()[:16])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_spans(path):
    """Empty iff \\p path is trace_event JSON whose spans nest under one root."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return "span file %s unreadable: %s" % (path, e)
    spans = {e["args"]["id"]: e for e in events if e.get("ph") == "X"}
    roots = [s for s in spans.values() if s["args"]["parent"] == 0]
    if len(roots) != 1:
        return "%d root spans" % len(roots)
    slack = 0.002  # microseconds: timestamps are printed to 1 ns.
    for s in spans.values():
        p = spans.get(s["args"]["parent"])
        if s is roots[0]:
            continue
        if p is None:
            return "span %s has no parent" % s["name"]
        if (s["ts"] + slack < p["ts"] or
                s["ts"] + s["dur"] > p["ts"] + p["dur"] + slack):
            return "span %s escapes its parent %s" % (s["name"], p["name"])
    return ""


def run_once(bdir, args, seed):
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT_DIR,
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        sys.stdout.write(proc.stdout)
        die("benchmark exited with status %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1][len("RESULT "):])

    problems = []
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append("emitted metrics %s differ from BENCHMARK.json %s"
                        % (sorted(got.items()), sorted(want.items())))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            problems.append("metric %s is not a finite number" % name)
    if args.trace:
        spans = [l.split(": ", 1)[1] for l in lines if l.startswith("spans: ")]
        problems.append(check_spans(os.path.join(ROOT, spans[0]))
                        if spans else "no span file reported")
    problems = [p for p in problems if p]
    for p in problems:
        print("check failed: " + p)
    if problems:
        result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout-seed", type=int,
                    help="also run the workload on this seed, one the "
                         "figures were not tuned on, and report it apart")
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own self-tests")
    args = ap.parse_args()

    bdir = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                                cwd=ROOT).returncode)
    if not args.workload:
        die("--workload is required")

    result = run_once(bdir, args, args.seed)
    if args.heldout_seed is not None:
        held = run_once(bdir, args, args.heldout_seed)
        print("heldout seed %d: %s" % (args.heldout_seed,
                                       json.dumps(held["metrics"])))
        result["correct"] = result["correct"] and held["correct"]
        result["attempted"] += held["attempted"]
        result["failed"] += held["failed"]
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
